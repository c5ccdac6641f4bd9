"""Tests for the scale-storage benchmark (`repro.rrset.bench --scale`).

Runs the real benchmark body at a toy scale so CI exercises the whole
path — graph build (heap and streaming/mmap), sampling sweep through
both transports, spill-backed hyper-graph assembly, UD solve, the
backing cross-check, check evaluation, report rendering — in seconds,
and pins the ``BENCH_scale.json`` schema (``repro.rrset.bench/3``) the
docs and the CI regression guard rely on, and the report envelope every
mode of the module's command line shares.
"""

import json

import pytest

from repro.rrset.bench import (
    PARALLEL_SCHEMA,
    SCALE_SCHEMA,
    SCHEMA,
    _summary,
    format_scale_report,
    main,
    merge_solver_matrix,
    run_scale_benchmark,
)

EXPECTED_CHECKS = {
    "graph_nodes_ok",
    "graph_edges_ok",
    "hypergraph_identical",
    "backing_identical",
    "solver_identical",
    "pickled_members_near_zero",
    "sampling_speedup_ok",
    "rss_within_budget",
}


@pytest.fixture(scope="module")
def report():
    return run_scale_benchmark(
        graph_scale=0.005, rr_sets=512, budget=5.0, workers=(1, 2), seed=2016
    )


@pytest.fixture(scope="module")
def mmap_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scale-spill")
    return run_scale_benchmark(
        graph_scale=0.005,
        rr_sets=512,
        budget=5.0,
        workers=(1, 2),
        seed=2016,
        backing="mmap",
        spill_dir=tmp,
    )


def _assert_toy_contract(report):
    """Every check that ran passed, and the toy sweep's speedup is skipped.

    512 RR sets in 2 chunks sample in tens of milliseconds, so the worker
    sweep measures pool start-up, not scaling: the speedup check must say
    it did not run, and why, instead of passing or failing on a wall-time
    ratio.
    """
    summary = report["summary"]
    assert summary["checks"], "checks block must not be empty"
    assert set(summary["checks"].values()) <= {"pass", "skip"}, summary["checks"]
    assert summary["ok"] is True
    assert summary["checks"]["sampling_speedup_ok"] == "skip"
    assert summary["skipped"]["sampling_speedup_ok"]
    assert set(summary["skipped"]) == {
        name for name, state in summary["checks"].items() if state == "skip"
    }


class TestScaleReport:
    def test_all_checks_pass_at_toy_scale(self, report):
        _assert_toy_contract(report)

    def test_rss_check_skipped_without_budget(self, report):
        assert report["config"]["rss_budget_mb"] is None
        assert report["summary"]["checks"]["rss_within_budget"] == "skip"
        assert report["summary"]["skipped"]["rss_within_budget"] == "no RSS budget given"

    def test_schema_and_top_level_keys(self, report):
        assert report["schema"] == SCALE_SCHEMA
        for key in ("summary", "config", "machine", "results", "determinism"):
            assert key in report, key
        assert report["summary"]["benchmark"] == "scale-storage"

    def test_expected_checks_present(self, report):
        assert set(report["summary"]["checks"]) == EXPECTED_CHECKS

    def test_config_records_backing(self, report):
        assert report["config"]["backing"] == "heap"
        assert report["config"]["graph"] == "com_dblp_like"

    def test_backing_cross_check_always_present(self, report):
        check = report["results"]["backing_check"]
        assert check["identical"] is True
        assert set(check["digests"]) == {"heap", "mmap"}
        assert check["digests"]["heap"] == check["digests"]["mmap"]

    def test_shared_rows_cover_worker_sweep(self, report):
        sampling = report["results"]["sampling"]
        assert [row["workers"] for row in sampling["shared"]] == [1, 2]
        assert sampling["heap"]["workers"] == 2
        # Heap ships members through the pool; shared ships ~100-byte refs.
        assert sampling["heap"]["pickled_bytes_per_chunk"] > 1024
        for row in sampling["shared"]:
            assert row["pickled_bytes_per_chunk"] <= 1024
            # The unmeasured sweep times each row once, and records it.
            assert row["runs_seconds"] == [row["seconds"]]

    def test_speedup_skip_reason_is_machine_derived(self, report):
        import os

        sampling = report["results"]["sampling"]
        reason = report["summary"]["skipped"]["sampling_speedup_ok"]
        serial = sampling["shared"][0]["seconds"]
        if (os.cpu_count() or 1) < 2:
            assert sampling["speedup_workers"] == 1
            assert reason == (
                f"cpu_count={os.cpu_count() or 1} leaves no worker count above 1"
            )
        else:
            assert sampling["speedup_workers"] == 2
            assert reason.startswith(f"serial sampling took {serial:.3f}s")

    def _sweep_repeats(self, monkeypatch, min_scaling_seconds):
        """Best-of counts the worker sweep asks for, on a 2-core host."""
        from repro.rrset import bench

        repeats = []
        best_of = bench._best_of

        def recording(count, *fns):
            # The graph build, index and heap baseline time once each;
            # only the sweep's own calls are counted.
            if ".sweep.<locals>." in fns[0].__qualname__:
                repeats.append(count)
            return best_of(count, *fns)

        monkeypatch.setattr(bench, "_best_of", recording)
        monkeypatch.setattr(bench, "_MIN_SCALING_SECONDS", min_scaling_seconds)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        report = run_scale_benchmark(
            graph_scale=0.005, rr_sets=512, budget=5.0, workers=(1, 2), seed=2016
        )
        return repeats, report

    def test_unmeasured_sweep_times_each_row_once(self, monkeypatch):
        repeats, report = self._sweep_repeats(monkeypatch, float("inf"))
        assert repeats == [1, 1]
        assert report["summary"]["checks"]["sampling_speedup_ok"] == "skip"

    def test_measured_sweep_discards_a_warm_up_sweep(self, monkeypatch):
        from repro.rrset.bench import _SCALE_REPEATS

        repeats, report = self._sweep_repeats(monkeypatch, 0.0)
        assert repeats == [1, 1, _SCALE_REPEATS, _SCALE_REPEATS]
        assert report["summary"]["checks"]["sampling_speedup_ok"] in ("pass", "fail")
        assert report["determinism"]["identical"] is True

    def test_digests_identical_across_modes_and_workers(self, report):
        determinism = report["determinism"]
        assert determinism["identical"] is True
        assert len(determinism["digest"]) == 64

    def test_dtypes_recorded_for_all_csr_arrays(self, report):
        dtypes = report["results"]["hypergraph"]["dtypes"]
        assert set(dtypes) == {
            "edge_offsets",
            "edge_nodes",
            "node_offsets",
            "node_edges",
        }

    def test_report_is_json_serialisable(self, report):
        json.dumps(report)

    def test_rss_budget_turns_into_failing_check(self):
        tiny = run_scale_benchmark(
            graph_scale=0.005,
            rr_sets=256,
            budget=5.0,
            workers=(1,),
            seed=2016,
            rss_budget_mb=1.0,
        )
        assert tiny["summary"]["checks"]["rss_within_budget"] == "fail"
        assert "rss_within_budget" not in tiny["summary"]["skipped"]
        assert tiny["summary"]["ok"] is False

    def test_required_edges_gate(self):
        gated = run_scale_benchmark(
            graph_scale=0.005,
            rr_sets=256,
            budget=5.0,
            workers=(1,),
            seed=2016,
            required_edges=10**9,
        )
        assert gated["summary"]["checks"]["graph_edges_ok"] == "fail"

    def test_required_nodes_gate(self):
        gated = run_scale_benchmark(
            graph_scale=0.005,
            rr_sets=256,
            budget=5.0,
            workers=(1,),
            seed=2016,
            required_nodes=10**9,
        )
        assert gated["summary"]["checks"]["graph_nodes_ok"] == "fail"

    def test_unknown_graph_rejected(self):
        with pytest.raises(ValueError):
            run_scale_benchmark(
                graph_scale=0.005,
                rr_sets=64,
                budget=5.0,
                workers=(1,),
                seed=2016,
                graph="erdos_renyi",
            )

    def test_format_scale_report_renders_both_modes(self, report):
        text = format_scale_report(report)
        assert "heap" in text
        assert "shared" in text
        assert "pickled" in text
        assert "backing" in text
        assert "sampling_speedup_ok=skip" in text
        reason = report["summary"]["skipped"]["sampling_speedup_ok"]
        assert f"skipped sampling_speedup_ok: {reason}" in text


class TestSummary:
    def test_skipped_checks_do_not_count_toward_ok(self):
        summary = _summary(
            "toy", 1.0, 0.5, {"ran": True, "unmeasured": "no cores to measure on"}
        )
        assert summary["ok"] is True
        assert summary["checks"] == {"ran": "pass", "unmeasured": "skip"}
        assert summary["skipped"] == {"unmeasured": "no cores to measure on"}
        failing = _summary("toy", 1.0, 0.5, {"ran": False, "unmeasured": "none"})
        assert failing["ok"] is False
        assert failing["checks"]["ran"] == "fail"

    def test_merge_keeps_states_and_reads_bool_reports(self, tmp_path):
        kernel = tmp_path / "BENCH_cd.json"
        old = {
            "schema": SCHEMA,
            "results": {},
            "summary": {"ok": True, "checks": {"scan_guard_ok": True}},
        }
        kernel.write_text(json.dumps(old))
        matrix = {
            "summary": _summary("solver-matrix", 1.0, 1.0, {"a": True, "b": "why"}),
            "config": {},
            "rows": {},
            "determinism": {},
        }
        merged = merge_solver_matrix(matrix, str(kernel))["summary"]
        assert merged["checks"] == {
            "scan_guard_ok": True,
            "solver_a": "pass",
            "solver_b": "skip",
        }
        assert merged["skipped"] == {"solver_b": "why"}
        assert merged["ok"] is True
        old["summary"]["checks"]["scan_guard_ok"] = False
        kernel.write_text(json.dumps(old))
        assert merge_solver_matrix(matrix, str(kernel))["summary"]["ok"] is False

    @pytest.mark.parametrize(
        "argv", [[], ["--smoke"], ["--solvers", "--scale"], ["--parallel", "--scale"]]
    )
    def test_cli_needs_exactly_one_mode(self, argv, capsys):
        # The kernel report has its own producer (benchmarks/test_cd_kernel.py);
        # the module has no default mode.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--adaptive" in capsys.readouterr().err


class TestScaleReportMmap:
    def test_mmap_cell_passes_and_matches_heap_digest(self, report, mmap_report):
        _assert_toy_contract(mmap_report)
        assert mmap_report["config"]["backing"] == "mmap"
        # Same seed, same chunk plan: the spill-assembled streams hash to
        # the heap cell's digest exactly.
        assert mmap_report["determinism"]["digest"] == report["determinism"]["digest"]

    def test_mmap_rows_record_spill_volume(self, mmap_report):
        for row in mmap_report["results"]["sampling"]["shared"]:
            assert row["spill_bytes"] > 0


class TestMainEnvelope:
    SCHEMAS = {
        "adaptive": SCHEMA,
        "solvers": SCHEMA,
        "scale": SCALE_SCHEMA,
        "parallel": PARALLEL_SCHEMA,
    }

    @pytest.mark.parametrize("mode", sorted(SCHEMAS))
    def test_every_mode_writes_the_shared_envelope(self, mode, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        code = main(
            [f"--{mode}", "--smoke", "--workers", "1,2", "--rr-sets", "1024",
             "--spill-dir", str(tmp_path), "--out", str(out)]
        )
        report = json.loads(out.read_text())
        assert report["schema"] == self.SCHEMAS[mode]
        summary = report["summary"]
        assert summary["checks"]
        assert set(summary["checks"].values()) <= {"pass", "fail", "skip"}
        assert set(report["machine"]) == {"cpu_count", "platform", "python"}
        assert code == (0 if summary["ok"] else 1)
