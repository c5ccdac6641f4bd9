"""Acceptance: a fault-killed grid resumed from checkpoints is bit-identical."""

import pytest

from repro.exceptions import CheckpointError
from repro.experiments.runner import run_methods
from repro.runtime import CheckpointStore, FaultInjector, InjectedFault

METHODS = ("im", "ud", "cd")
GRID = dict(num_hyperedges=600, evaluation_samples=100, seed=4)


def _payloads(results):
    """Cell payloads with wall-clock timing fields stripped."""
    payloads = []
    for cell in results:
        payload = cell.to_payload()
        payload.pop("hypergraph_ms")
        payload.pop("method_ms")
        payloads.append(payload)
    return payloads


class TestResume:
    def test_killed_grid_resumes_bit_identical(self, tmp_path, small_problem):
        """The headline acceptance criterion.

        Kill the grid at the second cell via the seeded fault injector,
        then resume from the checkpoint directory: every number in every
        cell must equal the uninterrupted run under the same seed.
        """
        baseline = run_methods(small_problem, METHODS, **GRID)

        with pytest.raises(InjectedFault):
            with FaultInjector(failures={"runner.cell": [1]}):
                run_methods(
                    small_problem, METHODS, checkpoint_dir=tmp_path, **GRID
                )

        resumed = run_methods(
            small_problem, METHODS, checkpoint_dir=tmp_path, resume=True, **GRID
        )
        assert _payloads(resumed) == _payloads(baseline)

    def test_resume_skips_completed_cells(self, tmp_path, small_problem):
        run_methods(small_problem, METHODS, checkpoint_dir=tmp_path, **GRID)
        # Every cell is now checkpointed; a resumed run must not recompute
        # any — an injector armed to kill every solve proves none happen.
        with FaultInjector(failures={"runner.cell": [0, 1, 2]}) as injector:
            resumed = run_methods(
                small_problem, METHODS, checkpoint_dir=tmp_path, resume=True, **GRID
            )
        assert injector.count("runner.cell") == 0
        assert [cell.method for cell in resumed] == list(METHODS)

    def test_changed_parameters_invalidate_checkpoints(self, tmp_path, small_problem):
        run_methods(small_problem, METHODS, checkpoint_dir=tmp_path, **GRID)
        changed = dict(GRID, seed=5)
        with FaultInjector(failures={"runner.cell": [0, 1, 2]}):
            # Different seed -> different content key -> nothing to resume,
            # so the first cell recomputes and trips the injector.
            with pytest.raises(InjectedFault):
                run_methods(
                    small_problem,
                    METHODS,
                    checkpoint_dir=tmp_path,
                    resume=True,
                    **changed,
                )

    def test_checkpointing_without_resume_recomputes(self, tmp_path, small_problem):
        first = run_methods(small_problem, METHODS, checkpoint_dir=tmp_path, **GRID)
        again = run_methods(small_problem, METHODS, checkpoint_dir=tmp_path, **GRID)
        assert _payloads(first) == _payloads(again)

    def test_generator_seed_rejected_when_checkpointing(self, tmp_path, small_problem):
        import numpy as np

        with pytest.raises(CheckpointError, match="reproducible seed"):
            run_methods(
                small_problem,
                METHODS,
                checkpoint_dir=tmp_path,
                num_hyperedges=600,
                evaluation_samples=100,
                seed=np.random.default_rng(4),
            )

    def test_hypergraph_cached_and_reused(self, tmp_path, small_problem):
        from repro.runtime.checkpoint import content_key
        from repro.experiments.runner import _problem_fingerprint

        with pytest.raises(InjectedFault):
            with FaultInjector(failures={"runner.cell": [0]}):
                run_methods(
                    small_problem, METHODS, checkpoint_dir=tmp_path, **GRID
                )
        key = content_key(
            problem=_problem_fingerprint(small_problem),
            seed=GRID["seed"],
            num_hyperedges=GRID["num_hyperedges"],
            evaluation_samples=GRID["evaluation_samples"],
            prebuilt_hypergraph=False,
        )
        store = CheckpointStore(tmp_path, key)
        assert store.has_arrays("hypergraph")
        arrays = store.load_arrays("hypergraph")
        assert int(arrays["edge_offsets"].shape[0]) == GRID["num_hyperedges"] + 1

    def test_changed_solver_options_recompute(self, tmp_path, small_problem):
        """Solver options are part of the content key: a grid checkpointed
        with the defaults never resumes under different options."""
        default = run_methods(small_problem, ("cd",), checkpoint_dir=tmp_path, **GRID)
        options = {"cd": {"max_rounds": 0, "refine_iterations": 0}}
        fresh = run_methods(small_problem, ("cd",), solver_options=options, **GRID)
        assert _payloads(fresh) != _payloads(default)

        resumed = run_methods(
            small_problem,
            ("cd",),
            checkpoint_dir=tmp_path,
            resume=True,
            solver_options=options,
            **GRID,
        )
        assert _payloads(resumed) == _payloads(fresh)

    def test_changed_prebuilt_hypergraph_recomputes(
        self, tmp_path, small_problem, small_hypergraph
    ):
        """A passed hyper-graph is keyed by its content, not by its presence."""
        other = small_problem.build_hypergraph(num_hyperedges=50, seed=99)
        grid = dict(evaluation_samples=100, seed=4, checkpoint_dir=tmp_path)
        first = run_methods(small_problem, ("cd",), hypergraph=small_hypergraph, **grid)
        fresh = run_methods(
            small_problem, ("cd",), hypergraph=other, evaluation_samples=100, seed=4
        )
        assert _payloads(fresh) != _payloads(first)

        resumed = run_methods(
            small_problem, ("cd",), hypergraph=other, resume=True, **grid
        )
        assert _payloads(resumed) == _payloads(fresh)
        # The same hyper-graph finds its own cells again.
        with FaultInjector(failures={"runner.cell": [0]}) as injector:
            again = run_methods(
                small_problem, ("cd",), hypergraph=small_hypergraph, resume=True, **grid
            )
        assert injector.count("runner.cell") == 0
        assert _payloads(again) == _payloads(first)
