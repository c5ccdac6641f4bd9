"""Trace/metrics determinism across worker counts.

The engine's guarantee — identical results at any worker count — extends
to its telemetry: for a fixed seed, the canonical span forest and the
metrics snapshot must be bit-identical at ``workers`` 1, 2 and 4,
including when a deadline truncates the run and when a checkpointed grid
is resumed.  (Pattern follows ``tests/parallel/test_determinism.py``.)
"""

import numpy as np
import pytest

from repro.core.solvers import solve
from repro.exceptions import PartialResultWarning
from repro.graphs.io import read_edge_list
from repro.experiments.runner import run_methods
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_csr, sample_rr_sets
from repro.runtime import Deadline, ManualClock

WORKER_COUNTS = (1, 2, 4)
CHUNK = 32


def _observed(fn):
    """Run ``fn`` under fresh collectors; return (canonical forest, snapshot)."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with observe(tracer=tracer, metrics=metrics, merge_up=False):
        fn()
    return tracer.canonical(), metrics.snapshot()


class TestSamplerTelemetry:
    def test_identical_across_worker_counts(self, obs_problem):
        reference = None
        for workers in WORKER_COUNTS:
            observed = _observed(
                lambda w=workers: sample_rr_sets(
                    obs_problem.model, 150, seed=7, workers=w, chunk_size=CHUNK
                )
            )
            if reference is None:
                reference = observed
            assert observed == reference, f"workers={workers} telemetry diverged"

    def test_span_content_matches_run(self, obs_problem):
        forest, snapshot = _observed(
            lambda: sample_rr_sets(
                obs_problem.model, 150, seed=7, workers=1, chunk_size=CHUNK
            )
        )
        (root,) = forest
        assert root["name"] == "rrset.sample"
        assert root["attrs"]["theta"] == 150
        assert root["attrs"]["produced"] == 150
        assert root["attrs"]["truncated"] is False
        # ceil(150 / 32) = 5 chunks, events in chunk order.
        assert [e["attrs"]["index"] for e in root["events"]] == [0, 1, 2, 3, 4]
        assert sum(e["attrs"]["produced"] for e in root["events"]) == 150
        counters = snapshot["counters"]
        assert counters["rrset.requested_total"] == 150
        assert counters["rrset.sampled_total"] == 150
        assert counters["parallel.chunks_total"] == 5
        assert snapshot["histograms"]["rrset.chunk_items"]["count"] == 5

    def test_identical_under_deadline_expiry(self, obs_problem):
        reference = None
        for workers in WORKER_COUNTS:
            deadline = Deadline.after(3.5, clock=ManualClock(tick=1.0))
            observed = _observed(
                lambda w=workers, d=deadline: sample_rr_sets(
                    obs_problem.model, 300, seed=11, workers=w, chunk_size=CHUNK, deadline=d
                )
            )
            forest, snapshot = observed
            # Same truncation point as tests/parallel/test_determinism.py:
            # exactly three chunks survive the manual clock.
            assert forest[0]["attrs"]["truncated"] is True
            assert forest[0]["attrs"]["produced"] == 3 * CHUNK
            assert snapshot["counters"]["rrset.truncated_total"] == 1
            assert snapshot["counters"]["parallel.deadline_expired_total"] == 1
            if reference is None:
                reference = observed
            assert observed == reference, f"workers={workers} diverged under expiry"


class TestTransportTelemetry:
    """Both transports emit one ``rrset.sample`` span whose canonical form
    repeats exactly: across repeat runs and at workers 1 and 2.  The
    shared transport's random slab directory is a runtime note only."""

    @pytest.mark.parametrize("storage", ["heap", "shared"])
    def test_canonical_trace_repeats_across_runs_and_workers(self, obs_problem, storage):
        reference = None
        for workers in (1, 1, 2, 2):
            observed = _observed(
                lambda w=workers: sample_rr_csr(
                    obs_problem.model,
                    150,
                    seed=7,
                    workers=w,
                    chunk_size=CHUNK,
                    storage=storage,
                )
            )
            if reference is None:
                reference = observed
            assert observed == reference, f"{storage} workers={workers} diverged"
        forest, snapshot = reference
        (root,) = forest
        assert root["name"] == "rrset.sample"
        assert root["attrs"]["storage"] == storage
        assert "slab_dir" not in root["attrs"]
        assert [child["name"] for child in root["children"]] == ["storage.assemble"]
        assert snapshot["counters"]["rrset.sampled_total"] == 150
        assert snapshot["counters"]["storage.assemblies_total"] == 1

    def test_slab_dir_is_a_runtime_note(self, obs_problem, tmp_path):
        tracer = Tracer()
        with observe(tracer=tracer, metrics=MetricsRegistry(), merge_up=False):
            sample_rr_csr(
                obs_problem.model, 64, seed=7, storage="shared", slab_dir=tmp_path
            )
        (root,) = tracer.roots
        assert str(tmp_path) in root.runtime["slab_dir"]


class TestSolveTelemetry:
    @pytest.mark.parametrize("method", ["ud", "degree", "cd", "gradient", "fw"])
    def test_extras_metrics_identical_across_worker_counts(self, obs_problem, method):
        reference = None
        for workers in WORKER_COUNTS:
            result = solve(
                obs_problem, method, num_hyperedges=256, seed=13, workers=workers
            )
            if reference is None:
                reference = result.extras["metrics"]
            assert result.extras["metrics"] == reference, f"workers={workers} diverged"

    def test_solve_trace_identical_across_worker_counts(self, obs_problem):
        reference = None
        for workers in WORKER_COUNTS:
            observed = _observed(
                lambda w=workers: solve(
                    obs_problem, "ud", num_hyperedges=256, seed=13, workers=w
                )
            )
            if reference is None:
                reference = observed
            assert observed == reference, f"workers={workers} trace diverged"
        forest, _ = reference
        (root,) = forest
        assert root["name"] == "solve"
        names = [child["name"] for child in root["children"]]
        assert names == ["hypergraph.build", "solver.ud"]
        assert root["children"][0]["children"][0]["name"] == "rrset.sample"

    @pytest.mark.parametrize(
        "method, span",
        [("ud", "solver.ud"), ("cd", "solver.cd"), ("gradient", "solver.gradient")],
    )
    def test_solver_span_notes_peak_rss(self, obs_problem, method, span):
        """The high-water mark is a runtime note: in the trace, not canonical."""
        tracer = Tracer()
        with observe(tracer=tracer, metrics=MetricsRegistry(), merge_up=False):
            solve(obs_problem, method, num_hyperedges=256, seed=13)
        (root,) = tracer.roots
        solver = [child for child in root.children if child.name == span]
        assert len(solver) == 1
        assert solver[0].runtime["peak_rss_mb"] > 0
        assert "peak_rss_mb" not in str(tracer.canonical())

    def test_ingest_and_index_spans_note_peak_rss(self, tmp_path):
        """Read, build and index note the high-water mark; canonical is unchanged."""
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        tracer = Tracer()
        with observe(tracer=tracer, metrics=MetricsRegistry(), merge_up=False):
            graph, _ = read_edge_list(path)
            RRHypergraph.from_csr(graph.num_nodes, np.array([0, 2, 3]), np.array([0, 1, 2]))
        read, index = tracer.roots
        (build,) = read.children
        assert [span.name for span in (read, build, index)] == [
            "graphs.read",
            "graphs.build",
            "hypergraph.index",
        ]
        for span in (read, build, index):
            assert span.runtime["peak_rss_mb"] > 0
        assert "peak_rss_mb" not in str(tracer.canonical())

    def test_history_independent_extras_metrics(self, obs_problem):
        """``extras["metrics"]`` describes one solve, not the session."""
        first = solve(obs_problem, "ud", num_hyperedges=256, seed=13)
        again = solve(obs_problem, "ud", num_hyperedges=256, seed=13)
        assert first.extras["metrics"] == again.extras["metrics"]
        assert first.extras["metrics"]["counters"]["solver.runs_total"] == 1


class TestCheckpointResumeTelemetry:
    KWARGS = dict(
        methods=("uniform", "degree"),
        num_hyperedges=128,
        evaluation_samples=64,
        seed=31,
    )

    def test_resume_telemetry_identical_across_worker_counts(self, obs_problem, tmp_path):
        observations = []
        for workers in WORKER_COUNTS:
            directory = tmp_path / f"w{workers}"
            # Cold run populates the store; its telemetry must match too.
            cold = _observed(
                lambda w=workers: run_methods(
                    obs_problem,
                    checkpoint_dir=str(directory),
                    resume=True,
                    workers=w,
                    **self.KWARGS,
                )
            )
            warm = _observed(
                lambda w=workers: run_methods(
                    obs_problem,
                    checkpoint_dir=str(directory),
                    resume=True,
                    workers=w,
                    **self.KWARGS,
                )
            )
            observations.append((cold, warm))
        reference_cold, reference_warm = observations[0]
        for (cold, warm), workers in zip(observations[1:], WORKER_COUNTS[1:]):
            assert cold == reference_cold, f"workers={workers} cold run diverged"
            assert warm == reference_warm, f"workers={workers} resume diverged"

    def test_resume_counters(self, obs_problem, tmp_path):
        directory = str(tmp_path / "grid")
        cold_forest, cold_snapshot = _observed(
            lambda: run_methods(
                obs_problem, checkpoint_dir=directory, resume=True, **self.KWARGS
            )
        )
        warm_forest, warm_snapshot = _observed(
            lambda: run_methods(
                obs_problem, checkpoint_dir=directory, resume=True, **self.KWARGS
            )
        )
        assert cold_snapshot["counters"]["runner.cells_computed_total"] == 2
        assert "checkpoint.cell_hits_total" not in cold_snapshot["counters"]
        assert cold_snapshot["counters"]["checkpoint.writes_total"] >= 3

        warm_counters = warm_snapshot["counters"]
        assert warm_counters["checkpoint.cell_hits_total"] == 2
        assert warm_counters["runner.cells_computed_total"] == 0
        assert "hypergraph.builds_total" not in warm_counters

        (cold_root,) = cold_forest
        (warm_root,) = warm_forest
        assert cold_root["name"] == warm_root["name"] == "experiment.run_methods"
        assert [e["name"] for e in cold_root["events"]] == ["cell", "cell"]
        assert [e["name"] for e in warm_root["events"]] == [
            "cell_resumed",
            "cell_resumed",
        ]
        assert warm_root["children"] == []

    def test_hypergraph_reuse_counter(self, obs_problem, tmp_path):
        directory = str(tmp_path / "grid")
        run_methods(obs_problem, checkpoint_dir=directory, resume=True, **self.KWARGS)
        # Drop the cell snapshots but keep the cached hyper-graph NPZ.
        import pathlib

        for path in pathlib.Path(directory).rglob("cell-*.json"):
            path.unlink()
        _, snapshot = _observed(
            lambda: run_methods(
                obs_problem, checkpoint_dir=directory, resume=True, **self.KWARGS
            )
        )
        counters = snapshot["counters"]
        assert counters["checkpoint.hypergraph_hits_total"] == 1
        assert "hypergraph.builds_total" not in counters


class TestDeadlineSolveTelemetry:
    def test_partial_solve_counters(self, obs_problem):
        hypergraph = obs_problem.build_hypergraph(num_hyperedges=256, seed=13)
        # Enough ticks for a few grid points, then mid-grid expiry (same
        # shape as tests/runtime/test_partial_results.py).
        deadline = Deadline.after(3 / 1000.0, clock=ManualClock(tick=0.001))
        with pytest.warns(PartialResultWarning):
            result = solve(
                obs_problem, "ud", hypergraph=hypergraph, seed=13, deadline=deadline
            )
        assert result.extras["partial"] is True
        counters = result.extras["metrics"]["counters"]
        assert counters["solver.partial_total"] == 1
        assert counters["ud.deadline_expired_total"] == 1
        assert counters["ud.grid_points_total"] < 20
