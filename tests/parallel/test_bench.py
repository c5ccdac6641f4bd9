"""Smoke tests for the parallel scaling mode (`repro.rrset.bench --parallel`)."""

import json

from repro.rrset import bench
from repro.rrset.bench import (
    PARALLEL_SCHEMA,
    format_parallel_report,
    main,
    run_parallel_benchmark,
)


class TestRunScalingBenchmark:
    def test_report_shape_and_determinism(self):
        report = run_parallel_benchmark(
            nodes=40,
            edge_prob=0.1,
            rr_sets=96,
            mc_samples=64,
            workers=(1, 2),
            repeats=2,
        )
        assert report["schema"] == PARALLEL_SCHEMA
        assert report["config"]["workers"] == [1, 2]
        assert [r["workers"] for r in report["results"]["rr_sets"]] == [1, 2]
        for rows in report["results"].values():
            assert rows[0]["speedup"] == 1.0
            assert all(row["seconds"] > 0 for row in rows)
            # Every run is recorded beside the best one.
            assert all(
                len(row["runs_seconds"]) == 2 and row["seconds"] == min(row["runs_seconds"])
                for row in rows
            )
        assert report["determinism"]["rr_identical"]
        assert report["determinism"]["spread_identical"]
        assert report["summary"]["checks"] == {
            "rr_identical": "pass",
            "spread_identical": "pass",
        }
        # The table renderer accepts its own output.
        assert "workers" in format_parallel_report(report)


class TestMain:
    ARGV = ["--parallel", "--smoke", "--nodes", "40", "--edge-prob", "0.1",
            "--rr-sets", "96", "--workers", "1,2"]

    def test_writes_json_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_parallel.json"
        code = main(self.ARGV + ["--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == PARALLEL_SCHEMA
        assert report["determinism"]["rr_identical"]
        assert report["summary"]["ok"] is True
        assert "wrote" in capsys.readouterr().out

    def test_exit_code_follows_summary_ok(self, tmp_path, monkeypatch, capsys):
        # A digest that differs per worker count fails rr_identical.
        digests = iter("ab")
        monkeypatch.setattr(bench, "_digest_rr", lambda rr_sets: next(digests))
        out = tmp_path / "BENCH_parallel.json"
        assert main(self.ARGV + ["--out", str(out)]) == 1
        summary = json.loads(out.read_text())["summary"]
        assert summary["ok"] is False
        assert summary["checks"] == {"rr_identical": "fail", "spread_identical": "pass"}
        assert "rr_identical" in capsys.readouterr().err
