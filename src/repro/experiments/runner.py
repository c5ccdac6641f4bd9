"""End-to-end experiment runner.

Reproduces the paper's evaluation protocol (Section 9): build the graph,
assign synthesized purchase-probability curves, run each solver on a shared
random hyper-graph, then score every returned configuration with
independent Monte-Carlo simulations (the paper uses 20,000; the sample
count here is configurable so benchmarks stay laptop-sized).

Fault tolerance: ``run_methods`` validates its inputs up front (a bad
budget fails in microseconds, not after an hour inside a solver), retries
transient Monte-Carlo scoring failures with bounded seeded backoff, and —
given a ``checkpoint_dir`` — writes one atomic JSON snapshot per completed
(method) cell plus an NPZ of the shared hyper-graph, keyed by a content
hash of (problem, seed, parameters).  A killed grid re-run with
``resume=True`` replays completed cells from disk and recomputes only the
rest; because every cell draws from its own pre-spawned RNG stream, the
resumed grid is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.constraints import constraint_spec
from repro.core.population import CurvePopulation, paper_mixture
from repro.core.problem import CIMProblem
from repro.core.solvers import solve
from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import CheckpointError, ConfigurationError, GraphError
from repro.experiments.datasets import load_dataset
from repro.obs.context import get_metrics, get_tracer
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sample_size import default_num_rr_sets
from repro.runtime.checkpoint import CheckpointStore, content_key
from repro.runtime.checkpoint import problem_fingerprint as _problem_fingerprint
from repro.runtime.deadline import DeadlineLike
from repro.runtime.faults import maybe_inject
from repro.runtime.retry import retry
from repro.utils.rng import SeedLike, spawn_generators

__all__ = ["ExperimentResult", "run_methods", "build_problem", "validate_run_inputs"]


@dataclass
class ExperimentResult:
    """One (method, problem) cell of an experiment grid."""

    method: str
    budget: float
    spread_mean: float
    spread_std: float
    hypergraph_estimate: float
    hypergraph_ms: float
    method_ms: float
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        """Total running time (hyper-graph build + solver), milliseconds."""
        return self.hypergraph_ms + self.method_ms

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe snapshot of this cell (for checkpointing)."""
        from repro.io.serialization import _jsonable

        return {
            "method": self.method,
            "budget": float(self.budget),
            "spread_mean": float(self.spread_mean),
            "spread_std": float(self.spread_std),
            "hypergraph_estimate": float(self.hypergraph_estimate),
            "hypergraph_ms": float(self.hypergraph_ms),
            "method_ms": float(self.method_ms),
            "extras": _jsonable(self.extras),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a cell from :meth:`to_payload` output."""
        try:
            return cls(
                method=str(payload["method"]),
                budget=float(payload["budget"]),
                spread_mean=float(payload["spread_mean"]),
                spread_std=float(payload["spread_std"]),
                hypergraph_estimate=float(payload["hypergraph_estimate"]),
                hypergraph_ms=float(payload["hypergraph_ms"]),
                method_ms=float(payload["method_ms"]),
                extras=dict(payload.get("extras", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed experiment-cell payload: {exc}") from exc


def build_problem(
    dataset: str,
    budget: float,
    alpha: float = 1.0,
    scale: float = 0.02,
    sensitive_fraction: float = 0.85,
    linear_fraction: float = 0.10,
    insensitive_fraction: float = 0.05,
    seed: SeedLike = 2016,
) -> CIMProblem:
    """Assemble a CIM problem from a Table-2 analogue dataset.

    Dataset loading is retried (bounded, deterministic backoff): analogue
    generation is pure compute, but the loader is also the place where a
    future real-dataset path would touch the filesystem or network.
    """
    graph, _ = retry(
        lambda: load_dataset(dataset, scale=scale, alpha=alpha, seed=seed),
        attempts=3,
        backoff=0.01,
        seed=0,
    )
    population = paper_mixture(
        graph.num_nodes,
        sensitive_fraction=sensitive_fraction,
        linear_fraction=linear_fraction,
        insensitive_fraction=insensitive_fraction,
        seed=seed,
    )
    return CIMProblem(IndependentCascade(graph), population, budget=budget)


def validate_run_inputs(
    problem: CIMProblem,
    methods: Sequence[str],
    evaluation_samples: int,
) -> None:
    """Reject malformed experiment inputs before any expensive work.

    ``CIMProblem`` validates at construction, but its fields are plain
    dataclass attributes — a budget overwritten with ``NaN`` after
    construction would otherwise surface as an inscrutable failure deep
    inside a solver, hours into a grid.
    """
    if problem.num_nodes == 0:
        raise GraphError("cannot run experiments on an empty graph (0 nodes)")
    budget = problem.budget
    if not isinstance(budget, (int, float)) or math.isnan(budget) or math.isinf(budget):
        raise ConfigurationError(f"budget must be a finite number, got {budget!r}")
    if budget <= 0:
        raise ConfigurationError(f"budget must be positive, got {budget}")
    if not methods:
        raise ConfigurationError("methods must name at least one solver")
    if evaluation_samples < 1:
        raise ConfigurationError(
            f"evaluation_samples must be >= 1, got {evaluation_samples}"
        )


def run_methods(
    problem: CIMProblem,
    methods: Sequence[str],
    hypergraph: Optional[RRHypergraph] = None,
    num_hyperedges: Optional[int] = None,
    evaluation_samples: int = 2000,
    seed: SeedLike = 2016,
    solver_options: Optional[Dict[str, Dict[str, object]]] = None,
    deadline: DeadlineLike = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    workers: Optional[int] = None,
    supervision=None,
    constraints=None,
) -> List[ExperimentResult]:
    """Run several solvers on one problem and MC-score their outputs.

    All solvers share one hyper-graph (built here if not supplied), exactly
    as in the paper's protocol; its build time is attributed to each
    result's ``hypergraph_ms`` so Figure 6's decomposition can be redrawn.

    Each (method) cell draws from its own RNG stream spawned up front from
    ``seed``, so cells are independent: computing a subset of cells (after
    a crash, say) yields exactly the same numbers as computing all of them.

    Parameters
    ----------
    deadline:
        Optional wall-clock budget shared by every cell (seconds or a
        :class:`~repro.runtime.Deadline`); expiring cells return partial
        results tagged ``extras["partial"]``.
    checkpoint_dir:
        Directory for atomic per-cell snapshots (plus a cached NPZ of the
        shared hyper-graph), keyed by a content hash of (problem, seed,
        parameters).  Requires an ``int`` seed — a live ``Generator``
        cannot be replayed.
    resume:
        With ``checkpoint_dir``: load completed cells from disk instead of
        recomputing them.  Cells whose snapshots are missing (or from a
        different content key) are computed and checkpointed as usual;
        snapshots that fail integrity verification or do not parse are
        quarantined (renamed ``*.quarantined``) and recomputed rather than
        crashing the grid.
    workers:
        Parallel processes for hyper-graph sampling and Monte-Carlo
        scoring (``0`` = one per CPU).  Deliberately *excluded* from the
        checkpoint content key: the parallel engine is deterministic
        across worker counts, so a grid checkpointed with ``workers=4``
        resumes bit-identically with ``workers=1`` and vice versa.
    supervision:
        Pool recovery policy for hyper-graph sampling and scoring (a
        :class:`~repro.parallel.supervisor.SupervisionPolicy` or kwargs
        dict); never changes the numbers of a run that completes.
    constraints:
        Optional solver constraints (a
        :class:`~repro.core.constraints.Constraint` or list of them)
        applied to *every* cell — the constrained scenario matrix runs
        each method under the same feasible set.  The constraint spec is
        part of the checkpoint content key (only when constraints are
        present, so unconstrained grids keep their historical keys): a
        constrained grid never resumes an unconstrained grid's cells.
    """
    validate_run_inputs(problem, methods, evaluation_samples)

    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        if seed is not None and not isinstance(seed, int):
            raise CheckpointError(
                "checkpointing requires a reproducible seed (int or None); "
                f"got {type(seed).__name__}"
            )
        key_fields = dict(
            problem=_problem_fingerprint(problem),
            seed=seed,
            num_hyperedges=num_hyperedges,
            evaluation_samples=evaluation_samples,
            prebuilt_hypergraph=hypergraph is not None,
        )
        spec = constraint_spec(constraints)
        if spec is not None:
            key_fields["constraints"] = spec
        key = content_key(**key_fields)
        store = CheckpointStore(checkpoint_dir, key)

    # One stream per cell (solver + evaluation), spawned before any cell
    # runs: cell k's stream does not depend on cells 0..k-1 having run.
    streams = spawn_generators(seed, 1 + 2 * len(methods))
    hypergraph_rng = streams[0]

    metrics = get_metrics()
    with get_tracer().span(
        "experiment.run_methods", methods=list(methods), cells=len(methods)
    ) as span:
        results: List[ExperimentResult] = [None] * len(methods)  # type: ignore[list-item]
        pending: List[int] = []
        for index, method in enumerate(methods):
            cell_name = f"cell-{index:03d}-{method}"
            cell: Optional[ExperimentResult] = None
            if store is not None and resume:
                # salvage_json quarantines torn/corrupt snapshots itself;
                # a snapshot that parses as JSON but is not a valid cell
                # payload is quarantined here for the same reason — resume
                # recomputes instead of crashing on damaged state.
                payload = store.salvage_json(cell_name)
                if payload is not None:
                    try:
                        cell = ExperimentResult.from_payload(payload)
                    except CheckpointError:
                        store.quarantine(cell_name)
                        span.event("cell_quarantined", index=index, method=method)
            if cell is not None:
                results[index] = cell
                span.event("cell_resumed", index=index, method=method)
                metrics.inc("checkpoint.cell_hits_total")
            else:
                pending.append(index)
        span.set(computed=len(pending), resumed=len(methods) - len(pending))
        metrics.inc("runner.cells_total", len(methods))
        metrics.inc("runner.cells_computed_total", len(pending))
        if not pending:
            return results

        hypergraph_ms = 0.0
        if hypergraph is None:
            import time

            if store is not None and resume:
                arrays = store.salvage_arrays("hypergraph")
                if arrays is not None:
                    try:
                        hypergraph = RRHypergraph.from_arrays(arrays)
                    except (KeyError, TypeError, ValueError):
                        store.quarantine("hypergraph")
                        span.event("hypergraph_quarantined")
                    else:
                        span.set(hypergraph_resumed=True)
                        metrics.inc("checkpoint.hypergraph_hits_total")
            if hypergraph is None:
                start = time.perf_counter()
                hypergraph = problem.build_hypergraph(
                    num_hyperedges=num_hyperedges,
                    seed=hypergraph_rng,
                    deadline=deadline,
                    workers=workers,
                    supervision=supervision,
                )
                hypergraph_ms = (time.perf_counter() - start) * 1000.0
                if store is not None:
                    store.save_arrays("hypergraph", **hypergraph.to_arrays())

        options_by_method = solver_options or {}
        for index in pending:
            method = methods[index]
            solver_rng, eval_rng = streams[1 + 2 * index], streams[2 + 2 * index]
            maybe_inject("runner.cell")
            span.event("cell", index=index, method=method)
            result = solve(
                problem,
                method,
                hypergraph=hypergraph,
                seed=solver_rng,
                deadline=deadline,
                constraints=constraints,
                **options_by_method.get(method, {}),
            )
            # Monte-Carlo scoring is the one stage re-run on transient
            # failure; it re-draws from eval_rng, so a retry changes the
            # sample stream but stays within the estimator's statistical
            # contract.
            estimate = retry(
                lambda: _scored(
                    problem, result.configuration, evaluation_samples, eval_rng, workers
                ),
                attempts=3,
                backoff=0.01,
                seed=0,
            )
            method_ms = result.timings.as_millis().get(method, 0.0)
            cell = ExperimentResult(
                method=method,
                budget=problem.budget,
                spread_mean=estimate.mean,
                spread_std=estimate.stddev,
                hypergraph_estimate=result.spread_estimate,
                hypergraph_ms=hypergraph_ms,
                method_ms=method_ms,
                extras=result.extras,
            )
            if store is not None:
                store.save_json(f"cell-{index:03d}-{method}", cell.to_payload())
            results[index] = cell
    return results


def _scored(problem, configuration, evaluation_samples, eval_rng, workers=None):
    """MC-score one configuration (separable so faults can target it)."""
    maybe_inject("runner.evaluate")
    return problem.evaluate(
        configuration, num_samples=evaluation_samples, seed=eval_rng, workers=workers
    )
