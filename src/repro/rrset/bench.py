"""End-to-end benchmarks of the RR-hypergraph solvers, storage and pool.

The one command behind every ``BENCH_*.json`` the package writes.  Run
it as a module with exactly one of four modes; ``--smoke`` shrinks any
of them to CI scale.  Every report shares one envelope (``schema``,
``summary``, ``config``, ``machine``): the ``summary`` block names the
benchmark, its baseline and candidate seconds, their speedup and the
named ``pass``/``fail``/``skip`` checks with each skip's reason, and
the module exits non-zero when any check fails.  Every timed block runs
through :func:`_best_of`, each run in a ``bench.run`` span.

``--solvers`` runs the solver-vs-solver matrix: UD, cyclic CD, lazy CD,
projected gradient ascent, and Frank-Wolfe all solve the *same*
instance on the *same* sampled hyper-graph, recording quality,
wall-clock, objective-evaluation counts (``cd.pair_evals_total`` vs
``gradient.objective_evals_total``), duality-gap certificates, and the
spend of each row, plus a worker-count bit-identity cross-check for the
gradient family.  The matrix is merged into an existing ``BENCH_cd.json``
under the ``solver_matrix`` key (its checks folded into the top-level
``summary``), or written standalone when no kernel report exists yet.
The kernel report itself (vectorized CD objective against the test
tree's pre-vectorization oracle) is written by
``benchmarks/test_cd_kernel.py`` through the same envelope::

    PYTHONPATH=src python -m repro.rrset.bench --solvers
    PYTHONPATH=src python -m repro.rrset.bench --solvers --smoke

``--adaptive`` runs the end-to-end adaptive-sampling benchmark: a
fixed-θ UD+CD pipeline races the doubling driver of
:mod:`repro.rrset.adaptive` on the same instance and seed plan,
recording wall-clock, final θ, the certified error bound, the quality
gap at the certificate, worker-count bit-identity, and the
``adaptive.*`` / ``cd.*`` op counters (stop reason included), in
``BENCH_adaptive.json``::

    PYTHONPATH=src python -m repro.rrset.bench --adaptive
    PYTHONPATH=src python -m repro.rrset.bench --adaptive --smoke

``--scale`` runs the out-of-core storage benchmark: a SNAP analogue —
the com-LiveJournal one at published size (~4M nodes, ~34M undirected
edges) by default, com-DBLP in ``--smoke`` — generated straight into
disk-backed spill files (``--backing mmap``, the streaming
configuration model of :mod:`repro.graphs.streaming`), sampled through
both RR-set transports — heap pickling and shared memory-mapped slabs
(:mod:`repro.rrset.storage`) — across a worker sweep, assembled into a
hyper-graph on the selected backing, and solved end to end with UD.
The record (``BENCH_scale.json``, schema ``repro.rrset.bench/3``) pins
bit-identity across transports, worker counts *and* backings (an
always-run smoke-scale heap-vs-mmap digest cross-check), ~zero pickled
bytes per chunk in shared mode, wall-clock scaling (skipped, with the
machine-derived reason, where unmeasurable), the coordinator's peak RSS
against a budget (measured *before* the heap baseline runs, so the mmap
path owns the high-water mark), spill volume, and the narrowed CSR
dtypes::

    PYTHONPATH=src python -m repro.rrset.bench --scale
    PYTHONPATH=src python -m repro.rrset.bench --scale --smoke --backing mmap

``--parallel`` sweeps worker counts over RR-set polling and Monte-Carlo
spread on an Erdős–Rényi weighted-cascade graph and checks that every
worker count produced identical output (the deterministic pool's
headline guarantee), in ``BENCH_parallel.json`` (schema
``repro.parallel.bench/1``)::

    PYTHONPATH=src python -m repro.rrset.bench --parallel
    PYTHONPATH=src python -m repro.rrset.bench --parallel --smoke

``docs/performance.md`` documents the JSON schemas and how to interpret
the numbers.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import sys
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.obs.context import observe, recording
from repro.obs.metrics import MetricsRegistry
from repro.rrset.hypergraph import RRHypergraph, csr_offsets
from repro.rrset.sampler import sample_rr_sets

__all__ = [
    "SCHEMA",
    "SCALE_SCHEMA",
    "PARALLEL_SCHEMA",
    "build_cd_workload",
    "run_adaptive_benchmark",
    "run_solver_benchmark",
    "run_scale_benchmark",
    "run_parallel_benchmark",
    "write_report",
    "format_adaptive_report",
    "format_solver_report",
    "format_scale_report",
    "format_parallel_report",
    "merge_solver_matrix",
    "main",
]

SCHEMA = "repro.rrset.bench/2"

#: The ``--scale`` report has its own schema line: /3 added the graph
#: name, the CSR backing (heap vs spill-mmap), spill volume, the
#: always-run backing digest cross-check, and the machine-derived
#: speedup skip reason.  The kernel/adaptive/solver reports are
#: unchanged and stay on /2.
SCALE_SCHEMA = "repro.rrset.bench/3"

#: The ``--parallel`` report keeps the schema line of its first producer.
PARALLEL_SCHEMA = "repro.parallel.bench/1"

#: Default CD benchmark shape (the solver matrix, the adaptive race and
#: ``benchmarks/test_cd_kernel.py``): theta large enough that an
#: O(theta) scan dominates a pair step; ``--smoke`` shrinks everything
#: to CI scale.
FULL = dict(nodes=200, edge_prob=0.03, rr_sets=60_000, support=24, budget=4.0)
SMOKE = dict(nodes=80, edge_prob=0.05, rr_sets=4_000, support=10, budget=2.0)

#: ``--parallel`` shape: big enough that chunk dispatch amortizes and
#: per-core sampling runs for whole seconds; the smoke shape runs in a
#: few hundred milliseconds and times each worker count once.
PARALLEL = dict(nodes=2000, edge_prob=0.004, rr_sets=20_000, mc_samples=8_000)
PARALLEL_SMOKE = dict(nodes=120, edge_prob=0.05, rr_sets=768, mc_samples=768, repeats=1)

SEED = 2016
DEFAULT_WORKERS = (1, 2)


def _summary(
    benchmark: str,
    baseline_seconds: float,
    candidate_seconds: float,
    checks: Dict[str, Union[bool, str]],
) -> Dict:
    """The shared top-level ``summary`` block of every bench report.

    One schema across every ``BENCH_*.json``: ``baseline_seconds`` is the
    pre-change/fixed path, ``candidate_seconds`` the optimized path,
    ``speedup`` their ratio, and ``checks`` the named correctness checks.
    A check is a bool when it ran and, when it could not, the
    machine-derived reason why; the report states each as ``"pass"``,
    ``"fail"`` or ``"skip"``, lists the skipped ones with their reasons
    under ``skipped``, and sets ``ok`` from the checks that ran alone —
    so no check passes without running.
    """
    states = {
        name: "skip" if isinstance(check, str) else "pass" if check else "fail"
        for name, check in checks.items()
    }
    return {
        "benchmark": benchmark,
        "ok": "fail" not in states.values(),
        "baseline_seconds": baseline_seconds,
        "candidate_seconds": candidate_seconds,
        "speedup": baseline_seconds / max(candidate_seconds, 1e-12),
        "checks": states,
        "skipped": {
            name: check for name, check in checks.items() if isinstance(check, str)
        },
    }


def _report(
    schema: str,
    benchmark: str,
    baseline_seconds: float,
    candidate_seconds: float,
    checks: Dict[str, Union[bool, str]],
    config: Dict,
    **body: Any,
) -> Dict:
    """The envelope of every bench report: schema, summary, config, machine.

    ``body`` holds the report's own blocks (``results``, ``rows``,
    ``determinism``, ...); the summary is built by :func:`_summary`.
    """
    return {
        "schema": schema,
        "summary": _summary(benchmark, baseline_seconds, candidate_seconds, checks),
        "config": config,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        **body,
    }


def _format_checks(summary: Dict) -> List[str]:
    """The check states of a report, then each skipped check's reason."""
    lines = [
        "checks: "
        + " ".join(f"{name}={state}" for name, state in summary["checks"].items())
    ]
    lines.extend(
        f"skipped {name}: {reason}" for name, reason in summary["skipped"].items()
    )
    return lines


class Timing(NamedTuple):
    """One callable's record from :func:`_best_of`."""

    seconds: float  # the best run: the statistic every bar reads
    runs: List[float]  # every run, in order
    result: Any  # the last run's result


def _best_of(repeats: int, *fns: Callable[[], Any]) -> List[Timing]:
    """Run ``fns`` round-robin ``repeats`` times; one :class:`Timing` each.

    Each run is timed by its own ``bench.run`` span, so spans stay the
    one clock.  Interleaving puts host load on every callable alike, and
    a callable's previous result is dropped before its next run, so no
    two of its results are alive at once.
    """
    runs: List[List[float]] = [[] for _ in fns]
    results: List[Any] = [None] * len(fns)
    for _ in range(max(1, repeats)):
        for index, fn in enumerate(fns):
            results[index] = None
            with recording() as tracer, tracer.span("bench.run") as span:
                results[index] = fn()
            runs[index].append(span.duration)
    return [Timing(min(times), times, result) for times, result in zip(runs, results)]


def _sha256(*arrays) -> str:
    """Hex SHA-256 of the arrays' raw bytes, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.asarray(array).tobytes())
    return hasher.hexdigest()


def _digest_rr(rr_sets: Sequence[np.ndarray]) -> str:
    """Order-sensitive content hash of a sampled hyper-graph."""
    hasher = hashlib.sha256()
    for rr in rr_sets:
        hasher.update(np.ascontiguousarray(rr, dtype=np.int64).tobytes())
        hasher.update(b"|")
    return hasher.hexdigest()


def _determinism(workers: Sequence[int], digests: Sequence[str]) -> Dict:
    """The worker-count bit-identity block: the first digest, and whether all agree."""
    return {
        "workers": list(workers),
        "digest": digests[0],
        "identical": len(set(digests)) == 1,
    }


def _er_problem(nodes: int, edge_prob: float, budget: float, seed: int) -> CIMProblem:
    """The Erdős–Rényi instance: weighted-cascade IC with the paper's curve mixture."""
    graph = assign_weighted_cascade(erdos_renyi(nodes, edge_prob, seed=seed), alpha=1.0)
    population = paper_mixture(nodes, seed=seed + 1)
    return CIMProblem(IndependentCascade(graph), population, budget=budget)


def build_cd_workload(
    nodes: int,
    edge_prob: float,
    rr_sets: int,
    budget: float,
    support: int,
    seed: int = SEED,
):
    """Assemble the benchmark CD problem.

    Returns ``(problem, rr_list, hypergraph, warm_start, coords)``: an ER
    weighted-cascade IC instance with the paper's curve mixture, ``theta``
    sampled RR sets (kept as a list so the CSR build can be re-timed), the
    built hyper-graph, and a warm start spreading the budget uniformly
    over the ``support`` highest-degree hyper-graph nodes — exactly
    ``support`` support coordinates, which bounds the pair count per round
    so the reference kernel's full-CD run stays tractable.
    """
    problem = _er_problem(nodes, edge_prob, budget, seed)
    rr_list = sample_rr_sets(problem.model, rr_sets, seed=seed + 2)
    hypergraph = RRHypergraph(nodes, rr_list)
    degrees = hypergraph.degrees()
    coords = np.sort(np.argsort(-degrees, kind="stable")[:support]).astype(np.int64)
    discounts = np.zeros(nodes, dtype=np.float64)
    discounts[coords] = min(1.0, budget / coords.size)
    warm_start = Configuration(discounts)
    return problem, rr_list, hypergraph, warm_start, coords


#: Adaptive-run counters surfaced in ``BENCH_adaptive.json``.
_ADAPTIVE_COUNTER_KEYS = (
    "adaptive.stages_total",
    "adaptive.sampled_hyperedges_total",
    "adaptive.stop_certified_total",
    "adaptive.stop_stable_total",
    "adaptive.stop_max_theta_total",
    "adaptive.stop_deadline_total",
    "adaptive.checkpoint_hits_total",
    "hypergraph.extends_total",
    "objective.extends_total",
    "cd.pair_evals_total",
    "cd.lazy_pair_skips_total",
    "rrset.sampled_total",
)


def run_adaptive_benchmark(
    nodes: int,
    edge_prob: float,
    rr_sets: int,
    budget: float,
    support: int,
    epsilon: float = 0.05,
    workers: Sequence[int] = DEFAULT_WORKERS,
    seed: int = SEED,
    max_rounds: int = 10,
) -> Dict:
    """Race the fixed-θ UD+CD pipeline against the adaptive doubling driver.

    Both paths solve the same instance from the same seed plan — the
    adaptive run's hyper-graph is a bit-identical *prefix* of the fixed
    run's (chunk-aligned instalments over the same child streams).  The
    report records end-to-end wall-clock for each, the final θ the driver
    certified at, the relative quality gap against the fixed result, a
    worker-count bit-identity cross-check, and the ``adaptive.*`` /
    ``cd.*`` op counters including the stop reason.  ``rr_sets`` plays the
    role of the fixed θ and the driver's ``max_theta`` cap.
    """
    from repro.core.unified_discount import unified_discount
    from repro.rrset.adaptive import adaptive_hypergraph

    problem = _er_problem(nodes, edge_prob, budget, seed)

    def fixed():
        """One-shot sampling, UD warm start, cyclic CD."""
        rr_list = sample_rr_sets(problem.model, rr_sets, seed=seed + 2, workers=1)
        hypergraph = RRHypergraph(nodes, rr_list)
        ud = unified_discount(problem, hypergraph)
        cd = coordinate_descent_hypergraph(
            problem, hypergraph, ud.configuration, max_rounds=max_rounds
        )
        return int(hypergraph.num_hyperedges), cd

    def adaptive(count: int):
        return adaptive_hypergraph(
            problem,
            seed=seed + 2,
            epsilon=epsilon,
            max_theta=rr_sets,
            options={"max_rounds": max_rounds},
            workers=count,
        )

    registry = MetricsRegistry()

    def counted():
        with observe(metrics=registry):
            return adaptive(1)

    fixed_run, adaptive_run = _best_of(1, fixed, counted)
    fixed_theta, fixed_cd = fixed_run.result
    run = adaptive_run.result
    fixed_value = float(fixed_cd.objective_value)
    counters = registry.snapshot()["counters"]
    op_counts = {key: counters.get(key, 0) for key in _ADAPTIVE_COUNTER_KEYS}

    # -- worker-count bit-identity of the whole driver ------------------
    determinism = _determinism(
        workers,
        [
            _sha256(
                other.configuration.discounts,
                np.float64(other.objective_value),
                np.int64(other.theta),
            )
            for other in map(adaptive, workers)
        ],
    )

    gap = abs(run.objective_value - fixed_value) / max(abs(fixed_value), 1e-12)
    certified = max(float(run.epsilon_bound), float(epsilon))
    results = {
        "fixed": {
            "seconds": fixed_run.seconds,
            "theta": fixed_theta,
            "objective_value": fixed_value,
            "rounds_run": int(fixed_cd.rounds_run),
        },
        "adaptive": {
            "seconds": adaptive_run.seconds,
            "theta": int(run.theta),
            "objective_value": float(run.objective_value),
            "epsilon_bound": float(run.epsilon_bound),
            "stop_reason": run.stop_reason,
            "stages": run.stages,
        },
        "quality": {
            "relative_gap": gap,
            "certified_epsilon": certified,
            "within_certified": bool(gap <= certified),
        },
        "theta_saved": fixed_theta - int(run.theta),
    }
    checks = {
        "within_certified": results["quality"]["within_certified"],
        "fewer_hyperedges": run.theta <= fixed_theta,
        "workers_identical": determinism["identical"],
    }
    return _report(
        SCHEMA,
        "adaptive-sampling",
        fixed_run.seconds,
        adaptive_run.seconds,
        checks,
        config={
            "nodes": nodes,
            "edge_prob": edge_prob,
            "rr_sets": rr_sets,
            "budget": budget,
            "support": support,
            "epsilon": epsilon,
            "max_rounds": max_rounds,
            "seed": seed,
            "workers": list(workers),
        },
        results=results,
        op_counts=op_counts,
        determinism=determinism,
    )


#: The report fields of each solver row, by result attribute; ``*_run``
#: fields count iterations and are ints, the rest are floats.
_UD_FIELDS = {
    "objective_value": "spread_estimate",
    "budget_spent": "configuration.cost",
    "unified_discount": "best_discount",
}
_CD_FIELDS = {
    "objective_value": "objective_value",
    "budget_spent": "configuration.cost",
    "rounds_run": "rounds_run",
}
_GRADIENT_FIELDS = {
    "objective_value": "objective_value",
    "budget_spent": "budget_spent",
    "steps_run": "steps_run",
    "duality_gap": "duality_gap",
}
_FW_FIELDS = dict(_GRADIENT_FIELDS, fw_gap="fw_gap")

_SOLVER_WORKERS = (1, 2, 4)


def run_solver_benchmark(
    nodes: int,
    edge_prob: float,
    rr_sets: int,
    budget: float,
    support: int,
    workers: Sequence[int] = _SOLVER_WORKERS,
    max_rounds: int = 10,
    max_steps: int = 200,
    tolerance: float = 1e-3,
    seed: int = SEED,
) -> Dict:
    """Solver-vs-solver quality/latency matrix on one shared hyper-graph.

    Every row solves the *same* instance on the *same* sampled RR
    hyper-graph: UD (the warm-start baseline), cyclic and lazy CD from the
    UD configuration, projected gradient ascent from the UD configuration,
    and Frank-Wolfe from zeros (it grows its own support).  Each row runs
    inside a private metrics registry so the eval-economy comparison —
    ``cd.pair_evals_total`` against ``gradient.objective_evals_total`` —
    counts exactly one run.  The named checks assert the acceptance bar:
    both gradient solvers land within 1% of CD's quality with fewer
    objective evaluations, and both are bit-identical when the hyper-graph
    is sampled with 1, 2, and 4 workers.
    """
    from repro.core.gradient import frank_wolfe, projected_gradient_ascent
    from repro.core.unified_discount import unified_discount

    problem, _rr_list, hypergraph, _warm, _coords = build_cd_workload(
        nodes, edge_prob, rr_sets, budget, support, seed=seed
    )

    # One row per solver: its eval-economy counter (CD pays per pair
    # evaluation, the gradient family per full-vector objective
    # evaluation), its call on (hyper-graph, UD warm start), and the
    # result fields it reports.  UD runs first and supplies the warm start.
    matrix = (
        ("ud", "ud.grid_points_total", _UD_FIELDS,
         lambda hg, warm: unified_discount(problem, hg)),
        ("cd", "cd.pair_evals_total", _CD_FIELDS,
         lambda hg, warm: coordinate_descent_hypergraph(
             problem, hg, warm, max_rounds=max_rounds)),
        ("lazy-cd", "cd.pair_evals_total", _CD_FIELDS,
         lambda hg, warm: coordinate_descent_hypergraph(
             problem, hg, warm, max_rounds=max_rounds, pair_strategy="lazy")),
        ("gradient", "gradient.objective_evals_total", _GRADIENT_FIELDS,
         lambda hg, warm: projected_gradient_ascent(
             problem, hg, warm, max_steps=max_steps, tolerance=tolerance)),
        ("fw", "gradient.objective_evals_total", _FW_FIELDS,
         lambda hg, warm: frank_wolfe(
             problem, hg, max_steps=max_steps, tolerance=tolerance)),
    )
    rows: Dict[str, Dict] = {}
    warm = None
    for name, counter, fields, call in matrix:
        registry = MetricsRegistry()

        def row_run():
            with observe(metrics=registry):
                return call(hypergraph, warm)

        ((seconds, _runs, result),) = _best_of(1, row_run)
        counters = registry.snapshot()["counters"]
        rows[name] = {
            "seconds": seconds,
            "objective_evals": int(counters.get(counter, 0)),
        }
        for key, path in fields.items():
            convert = int if key.endswith("_run") else float
            rows[name][key] = convert(attrgetter(path)(result))
        if name == "ud":
            warm = result.configuration

    # -- worker-count bit-identity of the gradient family ---------------
    # Resample the hyper-graph with each worker count and rerun both
    # descents end to end (including the UD warm start); the digests cover
    # the final discounts and values, so any worker-dependent float path
    # anywhere in the chain breaks the check.
    calls = {name: call for name, _counter, _fields, call in matrix}
    digests = []
    for count in workers:
        hg = RRHypergraph(
            nodes, sample_rr_sets(problem.model, rr_sets, seed=seed + 2, workers=count)
        )
        grad = calls["gradient"](hg, calls["ud"](hg, None).configuration)
        fw = calls["fw"](hg, None)
        digests.append(
            _sha256(
                grad.configuration.discounts,
                np.float64(grad.objective_value),
                fw.configuration.discounts,
                np.float64(fw.objective_value),
            )
        )
    determinism = _determinism(workers, digests)

    cd_value = rows["cd"]["objective_value"]
    cd_evals = rows["cd"]["objective_evals"]
    checks = {
        "gradient_within_1pct": rows["gradient"]["objective_value"] >= 0.99 * cd_value,
        "fw_within_1pct": rows["fw"]["objective_value"] >= 0.99 * cd_value,
        "gradient_fewer_evals": rows["gradient"]["objective_evals"] < cd_evals,
        "fw_fewer_evals": rows["fw"]["objective_evals"] < cd_evals,
        "workers_identical": determinism["identical"],
    }
    return _report(
        SCHEMA,
        "solver-matrix",
        rows["cd"]["seconds"],
        rows["gradient"]["seconds"],
        checks,
        config={
            "nodes": nodes,
            "edge_prob": edge_prob,
            "rr_sets": rr_sets,
            "budget": budget,
            "max_rounds": max_rounds,
            "max_steps": max_steps,
            "tolerance": tolerance,
            "seed": seed,
            "workers": list(workers),
        },
        rows=rows,
        determinism=determinism,
    )


#: Scale-benchmark shapes (``--scale``).  FULL is the out-of-core push:
#: the com-LiveJournal analogue at published SNAP size (~4M nodes, ~34M
#: undirected edges) generated and assembled on the spill-mmap backing;
#: SMOKE shrinks to the com-DBLP analogue at CI scale but exercises the
#: identical code path (streaming generator when ``backing="mmap"``,
#: slab store, dtype policy, worker sweep, RSS budget).  Both carry a
#: real default RSS budget so the guard is armed even when the CLI
#: passes no ``--rss-budget``.
SCALE = dict(
    graph="com_lj_like",
    graph_scale=1.0,
    rr_sets=20_000,
    budget=50.0,
    backing="mmap",
    rss_budget_mb=8192.0,
)
SCALE_SMOKE = dict(
    graph="com_dblp_like",
    graph_scale=0.02,
    rr_sets=2_000,
    budget=10.0,
    backing="mmap",
    rss_budget_mb=2048.0,
    workers=(1, 2),
)

_SCALE_WORKERS = (1, 2, 4)

#: Size floors (edges, nodes) of a full-shape ``--scale`` graph: the
#: published com-LiveJournal size is ~4M nodes and >=30M undirected edges.
_SCALE_FLOORS = {
    "com_dblp_like": (2_000_000, 300_000),
    "com_lj_like": (30_000_000, 3_900_000),
}

#: Serial sampling time below which the worker sweep measures pool
#: start-up rather than scaling, so the speedup check is skipped.
_MIN_SCALING_SECONDS = 1.0

#: Runs per worker count (best of) when the sweep can measure scaling.
_SCALE_REPEATS = 3

#: Pickle volume allowed per chunk in shared mode: a SlabRef is ~100
#: bytes; anything over 1 KiB means member payloads leaked back into the
#: pickle stream.
_PICKLE_PER_CHUNK_LIMIT = 1024

#: Shape of the always-run backing cross-check: small enough to finish
#: in seconds at full scale, large enough to span several slab chunks.
_BACKING_CHECK = dict(graph_scale=0.005, rr_sets=512)


def _digest_csr(sizes: np.ndarray, members: np.ndarray, chunk: int = 1 << 22) -> str:
    """Canonical content hash of a CSR stream (dtype-independent).

    Hashed in bounded chunks so digesting a spill-backed member stream
    never materialises an int64 copy of the whole array on the heap.
    """
    hasher = hashlib.sha256()
    for array in (sizes, members):
        array = np.asarray(array)
        for start in range(0, array.size, chunk):
            hasher.update(
                np.ascontiguousarray(array[start : start + chunk], dtype=np.int64).tobytes()
            )
    return hasher.hexdigest()


def _backing_cross_check(seed: int) -> Dict:
    """Heap-vs-mmap CSR digest identity at smoke scale, always run.

    The full-scale cells exercise one backing each; this tiny instance
    assembles the *same* chunk plan through both backings and pins the
    sha256 of the resulting CSR streams equal, so a placement-dependent
    byte anywhere in the assemble path fails the report even when the
    expensive cells run mmap-only.
    """
    from repro.graphs.generators import com_dblp_like
    from repro.rrset.sampler import sample_rr_csr

    graph = assign_weighted_cascade(
        com_dblp_like(scale=_BACKING_CHECK["graph_scale"], seed=seed), alpha=1.0
    )
    population = paper_mixture(graph.num_nodes, seed=seed + 1)
    problem = CIMProblem(IndependentCascade(graph), population, budget=5.0)
    digests = {}
    for mode in ("heap", "mmap"):
        sizes, members = sample_rr_csr(
            problem.model,
            _BACKING_CHECK["rr_sets"],
            seed=seed + 2,
            workers=2,
            storage="shared",
            backing=mode,
        )
        digests[mode] = _digest_csr(sizes, members)
    return {
        "graph_scale": _BACKING_CHECK["graph_scale"],
        "rr_sets": _BACKING_CHECK["rr_sets"],
        "digests": digests,
        "identical": digests["heap"] == digests["mmap"],
    }


def run_scale_benchmark(
    graph_scale: float,
    rr_sets: int,
    budget: float,
    graph: str = "com_dblp_like",
    backing: Optional[str] = None,
    spill_dir: Optional[str] = None,
    workers: Sequence[int] = _SCALE_WORKERS,
    seed: int = SEED,
    rss_budget_mb: Optional[float] = None,
    required_edges: int = 0,
    required_nodes: int = 0,
) -> Dict:
    """End-to-end solve at SNAP scale: shared slabs vs heap pickling.

    Builds the ``graph`` analogue (``com_lj_like`` at ``graph_scale=1.0``
    reproduces the published ~4M nodes / ~34M undirected edges) on the
    selected ``backing`` — ``"mmap"`` generates the graph through the
    bounded-memory streaming configuration model and assembles the
    hyper-graph CSR into spill files under ``spill_dir`` — samples the
    same chunk plan through the shared-slab transport at every count in
    ``workers``, assembles + UD-solves on the selected backing, and only
    *then* runs the heap-pickling baseline at the largest worker count
    (sampling, assembly, solve).  The ordering matters: ``peak_rss_mb``
    is a process-lifetime high-water mark, so it is snapshotted after
    the mmap-path solve and before the heap baseline allocates — the
    recorded peak belongs to the out-of-core path alone.

    The named checks pin the contract: every sampled stream is
    bit-identical across transports, worker counts and backings (the
    always-run smoke-scale cross-check of :func:`_backing_cross_check`),
    shared mode pickles ~nothing per chunk, both solves return the same
    discounts, sampling scales where the host's cores and the serial
    run's length let it be measured (skipped with the machine-derived
    reason otherwise), and the coordinator's peak RSS stays under
    ``rss_budget_mb`` (skipped without a budget or a measurement).
    """
    from repro.core.solvers import solve
    from repro.graphs import generators
    from repro.parallel.pool import partition_chunks
    from repro.rrset.sampler import sample_rr_csr
    from repro.utils.spill import peak_rss_mb, resolve_backing

    if graph not in _SCALE_FLOORS:
        raise ValueError(f"graph must be one of {tuple(_SCALE_FLOORS)}, got {graph!r}")
    backing_mode = resolve_backing(backing)
    generator = getattr(generators, graph)

    def build_graph():
        base = generator(scale=graph_scale, seed=seed, backing=backing_mode, spill_dir=spill_dir)
        return assign_weighted_cascade(base, alpha=1.0)

    ((graph_seconds, _runs, weighted),) = _best_of(1, build_graph)
    nodes = weighted.num_nodes
    population = paper_mixture(nodes, seed=seed + 1)
    problem = CIMProblem(IndependentCascade(weighted), population, budget=budget)
    chunks = len(partition_chunks(rr_sets))
    max_workers = max(workers)

    # -- shared slabs at every worker count, on the selected backing ----
    def sample_shared(count: int):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            arrays = sample_rr_csr(
                problem.model,
                rr_sets,
                seed=seed + 2,
                workers=count,
                storage="shared",
                backing=backing_mode,
                spill_dir=spill_dir,
            )
        return registry.snapshot()["counters"], arrays

    def sweep(repeats: int):
        rows: List[Dict] = []
        for count in workers:
            arrays = None  # free the previous row's arrays first
            seconds, runs, (counters, arrays) = _best_of(
                repeats, lambda: sample_shared(count)
            )[0]
            pickled = int(counters.get("storage.pickled_bytes_total", 0))
            rows.append(
                {
                    "workers": count,
                    "seconds": seconds,
                    "runs_seconds": runs,
                    "pickled_bytes": pickled,
                    "pickled_bytes_per_chunk": pickled / max(chunks, 1),
                    "slab_bytes": int(counters.get("storage.slab_bytes_total", 0)),
                    "spill_bytes": int(counters.get("storage.spill_bytes_total", 0)),
                    "chunks": chunks,
                    "digest": _digest_csr(*arrays),
                }
            )
        return rows, arrays

    # Scaling is measured from the first worker count to the widest one
    # the host has cores for, and only where the serial run is long
    # enough for the pool's start-up to amortize.  There, the first
    # sweep only warms up (the first pool of a process pays a one-off
    # start-up) and a second one times each row as the best of
    # ``_SCALE_REPEATS`` runs; elsewhere the first sweep is the record.
    cpu_count = os.cpu_count() or 1
    cpu_limited = cpu_count < max_workers
    speedup_workers = max((w for w in workers if w <= cpu_count), default=workers[0])
    shared_rows, shared_arrays = sweep(1)
    if speedup_workers > workers[0] and shared_rows[0]["seconds"] >= _MIN_SCALING_SECONDS:
        shared_arrays = None
        shared_rows, shared_arrays = sweep(_SCALE_REPEATS)
    shared_sizes, shared_members = shared_arrays

    seconds_at = {row["workers"]: row["seconds"] for row in shared_rows}
    t_serial, t_wide = seconds_at[workers[0]], seconds_at[max_workers]
    sampling_speedup = t_serial / max(seconds_at[speedup_workers], 1e-12)
    if speedup_workers <= workers[0]:
        speedup_check = (
            f"cpu_count={cpu_count} leaves no worker count above {workers[0]}"
        )
    elif t_serial < _MIN_SCALING_SECONDS:
        speedup_check = (
            f"serial sampling took {t_serial:.3f}s, under the "
            f"{_MIN_SCALING_SECONDS:g}s needed to measure scaling past pool start-up"
        )
    else:
        speedup_check = sampling_speedup >= 1.6

    # -- hypergraph assembly + UD solve on the selected backing ---------
    def build(sizes: np.ndarray, members: np.ndarray) -> RRHypergraph:
        return RRHypergraph.from_csr(nodes, csr_offsets(sizes), members)

    ((hypergraph_seconds, _runs, hg_shared),) = _best_of(
        1, lambda: build(shared_sizes, shared_members)
    )
    result_shared = solve(problem, "ud", hypergraph=hg_shared, seed=seed + 3)
    solve_seconds = result_shared.timings.total

    # Snapshot the high-water mark *now*: everything above ran on the
    # selected backing, everything below deliberately goes to the heap.
    peak_rss = peak_rss_mb()

    # -- heap baseline: members pickled back through the pool -----------
    registry = MetricsRegistry()

    def sample_heap():
        with observe(metrics=registry):
            return sample_rr_csr(
                problem.model, rr_sets, seed=seed + 2, workers=max_workers, storage="heap"
            )

    ((heap_seconds, _runs, (heap_sizes, heap_members)),) = _best_of(1, sample_heap)
    heap_counters = registry.snapshot()["counters"]
    heap_pickled = int(heap_counters.get("storage.pickled_bytes_total", 0))
    heap_row = {
        "workers": max_workers,
        "seconds": heap_seconds,
        "pickled_bytes": heap_pickled,
        "pickled_bytes_per_chunk": heap_pickled / max(chunks, 1),
        "digest": _digest_csr(heap_sizes, heap_members),
    }

    hg_heap = build(heap_sizes, heap_members)
    result_heap = solve(problem, "ud", hypergraph=hg_heap, seed=seed + 3)
    solver_identical = bool(
        np.array_equal(
            result_shared.configuration.discounts,
            result_heap.configuration.discounts,
        )
    )

    backing_check = _backing_cross_check(seed)
    if rss_budget_mb is None:
        rss_check = "no RSS budget given"
    elif peak_rss is None:
        rss_check = "peak RSS is not measurable on this platform"
    else:
        rss_check = peak_rss <= rss_budget_mb

    determinism = _determinism(
        workers, [heap_row["digest"]] + [row["digest"] for row in shared_rows]
    )
    checks = {
        "graph_nodes_ok": nodes >= required_nodes,
        "graph_edges_ok": weighted.num_edges >= required_edges,
        "hypergraph_identical": determinism["identical"],
        "backing_identical": bool(backing_check["identical"]),
        "solver_identical": solver_identical,
        "pickled_members_near_zero": all(
            row["pickled_bytes_per_chunk"] <= _PICKLE_PER_CHUNK_LIMIT
            for row in shared_rows
        ),
        "sampling_speedup_ok": speedup_check,
        "rss_within_budget": rss_check,
    }
    return _report(
        SCALE_SCHEMA,
        "scale-storage",
        heap_seconds,
        t_wide,
        checks,
        config={
            "graph": graph,
            "graph_scale": graph_scale,
            "rr_sets": rr_sets,
            "budget": budget,
            "backing": backing_mode,
            "spill_dir": str(spill_dir) if spill_dir is not None else None,
            "seed": seed,
            "workers": list(workers),
            "rss_budget_mb": rss_budget_mb,
            "required_edges": required_edges,
            "required_nodes": required_nodes,
        },
        results={
            "graph": {
                "nodes": int(nodes),
                "edges": int(weighted.num_edges),
                "build_seconds": graph_seconds,
            },
            "sampling": {
                "heap": heap_row,
                "shared": shared_rows,
                "speedup": sampling_speedup,
                "speedup_workers": speedup_workers,
                "cpu_limited": cpu_limited,
            },
            "hypergraph": {
                "build_seconds": hypergraph_seconds,
                "num_hyperedges": int(hg_shared.num_hyperedges),
                "member_entries": int(hg_shared.edge_nodes.size),
                "dtypes": {
                    "edge_offsets": str(hg_shared.edge_offsets.dtype),
                    "edge_nodes": str(hg_shared.edge_nodes.dtype),
                    "node_offsets": str(hg_shared.node_offsets.dtype),
                    "node_edges": str(hg_shared.node_edges.dtype),
                },
            },
            "solve": {
                "method": "ud",
                "seconds": solve_seconds,
                "objective_value": float(result_shared.spread_estimate),
                "budget_spent": float(result_shared.cost),
                "storage_identical": solver_identical,
            },
            "memory": {
                "peak_rss_mb": peak_rss,
                "rss_budget_mb": rss_budget_mb,
            },
            "backing_check": backing_check,
        },
        determinism=determinism,
    )


_PARALLEL_WORKERS = (1, 2, 4)


def run_parallel_benchmark(
    nodes: int,
    edge_prob: float,
    rr_sets: int,
    mc_samples: int,
    workers: Sequence[int] = _PARALLEL_WORKERS,
    repeats: int = 3,
    seed: int = SEED,
) -> Dict:
    """Measure sets/sec and samples/sec at each worker count.

    Returns the full ``BENCH_parallel.json`` payload (minus the file).
    Both workloads reuse one seed, so the determinism cross-check —
    identical RR digest and identical spread estimate at every worker
    count — doubles as an end-to-end test of the engine.  The summary's
    baseline and candidate are the RR sampling times at the first and
    the last worker count of the sweep.
    """
    from repro.diffusion.montecarlo import estimate_spread
    from repro.parallel.pool import resolve_workers

    # The sweep reads the diffusion model alone; the budget is a placeholder.
    model = _er_problem(nodes, edge_prob, 1.0, seed).model
    mc_seeds = list(range(min(5, nodes)))

    # Run-wide observability totals (across every worker count and repeat);
    # a private registry keeps earlier activity in the process out of the
    # report, while ``observe`` still merges the totals up on exit.
    registry = MetricsRegistry()
    results: Dict[str, List[Dict]] = {"rr_sets": [], "spread": []}
    rr_digests: List[str] = []
    spread_keys: List[tuple] = []
    with observe(metrics=registry):
        for count in workers:
            sampled, estimated = _best_of(
                repeats,
                lambda: sample_rr_sets(model, rr_sets, seed=seed, workers=count),
                lambda: estimate_spread(
                    model, mc_seeds, num_samples=mc_samples, seed=seed, workers=count
                ),
            )
            rr_digests.append(_digest_rr(sampled.result))
            estimate = estimated.result
            spread_keys.append((estimate.mean, estimate.stddev, estimate.num_samples))
            for key, timing, items, rate in (
                ("rr_sets", sampled, rr_sets, "sets_per_sec"),
                ("spread", estimated, mc_samples, "samples_per_sec"),
            ):
                results[key].append(
                    {
                        "workers": resolve_workers(count),
                        "seconds": timing.seconds,
                        "runs_seconds": timing.runs,
                        rate: items / timing.seconds,
                    }
                )

    for key, rate in (("rr_sets", "sets_per_sec"), ("spread", "samples_per_sec")):
        for row in results[key]:
            row["speedup"] = row[rate] / results[key][0][rate]

    determinism = {
        "rr_digest": rr_digests[0],
        "rr_identical": len(set(rr_digests)) == 1,
        "spread_identical": len(set(spread_keys)) == 1,
    }
    return _report(
        PARALLEL_SCHEMA,
        "parallel-scaling",
        results["rr_sets"][0]["seconds"],
        results["rr_sets"][-1]["seconds"],
        {key: determinism[key] for key in ("rr_identical", "spread_identical")},
        config={
            "nodes": nodes,
            "edge_prob": edge_prob,
            "rr_sets": rr_sets,
            "mc_samples": mc_samples,
            "seed": seed,
            "repeats": repeats,
            "workers": [resolve_workers(w) for w in workers],
        },
        results=results,
        metrics=registry.snapshot(),
        determinism=determinism,
    )


def format_scale_report(report: Dict) -> str:
    """Human-readable view of a scale-storage benchmark payload."""
    cfg = report["config"]
    res = report["results"]
    sampling = res["sampling"]
    lines = [
        f"scale storage — {cfg['graph']} x{cfg['graph_scale']:g} "
        f"[backing={cfg.get('backing', 'heap')}]: "
        f"n={res['graph']['nodes']} m={res['graph']['edges']} "
        f"theta={cfg['rr_sets']} (cpus={report['machine']['cpu_count']})",
        f"{'mode':>8s} {'workers':>8s} {'seconds':>9s} {'pickled/chunk':>14s}",
    ]
    heap = sampling["heap"]
    lines.append(
        f"{'heap':>8s} {heap['workers']:8d} {heap['seconds']:8.3f}s "
        f"{heap['pickled_bytes_per_chunk']:13.0f}B"
    )
    for row in sampling["shared"]:
        lines.append(
            f"{'shared':>8s} {row['workers']:8d} {row['seconds']:8.3f}s "
            f"{row['pickled_bytes_per_chunk']:13.0f}B"
        )
    lines.append(
        "sampling speedup %.2fx (w%d->w%d%s); hypergraph %ss %s; "
        "solve %.3fs spread %.2f"
        % (
            sampling["speedup"],
            cfg["workers"][0],
            sampling["speedup_workers"],
            ", cpu-limited" if sampling["cpu_limited"] else "",
            f"{res['hypergraph']['build_seconds']:.3f}",
            res["hypergraph"]["dtypes"]["edge_nodes"],
            res["solve"]["seconds"],
            res["solve"]["objective_value"],
        )
    )
    peak = res["memory"]["peak_rss_mb"]
    if peak is not None:
        budget = res["memory"]["rss_budget_mb"]
        lines.append(
            "peak rss %.0f MiB%s"
            % (peak, f" (budget {budget:.0f})" if budget is not None else "")
        )
    backing_check = res.get("backing_check")
    if backing_check is not None:
        lines.append(
            "backing cross-check (scale %g, theta %d): heap==mmap %s"
            % (
                backing_check["graph_scale"],
                backing_check["rr_sets"],
                backing_check["identical"],
            )
        )
    lines.extend(_format_checks(report["summary"]))
    return "\n".join(lines)


def merge_solver_matrix(report: Dict, path: str) -> Dict:
    """Fold a solver-matrix report into an existing kernel report.

    When ``path`` holds a same-schema kernel payload, the matrix lands
    under its ``solver_matrix`` key and the matrix checks join the
    top-level ``summary.checks`` (prefixed ``solver_``) so one ``ok`` flag
    still covers the whole file.  Otherwise the matrix report is returned
    as-is for a standalone write.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return report
    if not isinstance(existing, dict) or existing.get("schema") != SCHEMA:
        return report
    if "results" not in existing:
        return report
    existing["solver_matrix"] = {
        key: report[key] for key in ("summary", "config", "rows", "determinism")
    }
    summary = existing["summary"]
    for block in ("checks", "skipped"):
        summary.setdefault(block, {}).update(
            (f"solver_{name}", value) for name, value in report["summary"][block].items()
        )
    # Reports written before the tri-state checks hold a bool per check.
    summary["ok"] = not any(
        state in ("fail", False) for state in summary["checks"].values()
    )
    return existing


def format_solver_report(report: Dict) -> str:
    """Human-readable table of a solver-matrix payload."""
    cfg = report["config"]
    rows = report["rows"]
    det = report["determinism"]
    cd_value = rows["cd"]["objective_value"]
    lines = [
        f"solver matrix — n={cfg['nodes']} p={cfg['edge_prob']:g} "
        f"theta={cfg['rr_sets']} budget={cfg['budget']:g} "
        f"tol={cfg['tolerance']:g} (cpus={report['machine']['cpu_count']})",
        f"{'solver':>10s} {'seconds':>9s} {'objective':>12s} {'vs cd':>8s} "
        f"{'evals':>7s} {'spend':>7s} {'gap':>10s}",
    ]
    for name in ("ud", "cd", "lazy-cd", "gradient", "fw"):
        row = rows[name]
        gap = row.get("duality_gap")
        lines.append(
            f"{name:>10s} {row['seconds']:8.3f}s {row['objective_value']:12.4f} "
            f"{row['objective_value'] / cd_value:7.4f}x {row['objective_evals']:7d} "
            f"{row['budget_spent']:7.3f} "
            + (f"{gap:10.4f}" if gap is not None else f"{'—':>10s}")
        )
    lines.extend(_format_checks(report["summary"]))
    lines.append(
        "determinism: workers=%s identical=%s" % (det["workers"], det["identical"])
    )
    return "\n".join(lines)


def format_adaptive_report(report: Dict) -> str:
    """Human-readable view of an adaptive-sampling benchmark payload."""
    cfg = report["config"]
    res = report["results"]
    summary = report["summary"]
    fixed, adaptive = res["fixed"], res["adaptive"]
    lines = [
        f"adaptive sampling — n={cfg['nodes']} p={cfg['edge_prob']:g} "
        f"max_theta={cfg['rr_sets']} epsilon={cfg['epsilon']:g} "
        f"(cpus={report['machine']['cpu_count']})",
        f"{'path':>10s} {'seconds':>9s} {'theta':>8s} {'objective':>12s}",
        f"{'fixed':>10s} {fixed['seconds']:8.3f}s {fixed['theta']:8d} "
        f"{fixed['objective_value']:12.4f}",
        f"{'adaptive':>10s} {adaptive['seconds']:8.3f}s {adaptive['theta']:8d} "
        f"{adaptive['objective_value']:12.4f}",
        "stop=%s after %d stages, certified eps=%.4f, gap=%.5f (%s), "
        "theta saved=%d, speedup=%.2fx"
        % (
            adaptive["stop_reason"],
            len(adaptive["stages"]),
            adaptive["epsilon_bound"],
            res["quality"]["relative_gap"],
            "within certificate" if res["quality"]["within_certified"] else "OUTSIDE",
            res["theta_saved"],
            summary["speedup"],
        ),
        "determinism: workers=%s identical=%s"
        % (report["determinism"]["workers"], report["determinism"]["identical"]),
    ]
    lines.extend(_format_checks(summary))
    return "\n".join(lines)


def format_parallel_report(report: Dict) -> str:
    """Human-readable table of a parallel-scaling payload."""
    cfg = report["config"]
    lines = [
        f"parallel scaling — n={cfg['nodes']} p={cfg['edge_prob']:g} "
        f"theta={cfg['rr_sets']} mc={cfg['mc_samples']} "
        f"(cpus={report['machine']['cpu_count']})",
        f"{'workers':>8s} {'rr sets/s':>12s} {'speedup':>8s} "
        f"{'mc samp/s':>12s} {'speedup':>8s}",
    ]
    for rr, sp in zip(report["results"]["rr_sets"], report["results"]["spread"]):
        lines.append(
            f"{rr['workers']:8d} {rr['sets_per_sec']:12,.0f} {rr['speedup']:7.2f}x "
            f"{sp['samples_per_sec']:12,.0f} {sp['speedup']:7.2f}x"
        )
    lines.extend(_format_checks(report["summary"]))
    return "\n".join(lines)


def write_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


#: Per mode: the runner, its formatter, the default report path and the
#: runner's (full, smoke) arguments, which command-line options override.
_MODES = {
    "adaptive": (
        run_adaptive_benchmark,
        format_adaptive_report,
        "BENCH_adaptive.json",
        (dict(FULL, epsilon=0.05), dict(SMOKE, epsilon=0.15)),
    ),
    "solvers": (run_solver_benchmark, format_solver_report, "BENCH_cd.json", (FULL, SMOKE)),
    "scale": (run_scale_benchmark, format_scale_report, "BENCH_scale.json", (SCALE, SCALE_SMOKE)),
    "parallel": (
        run_parallel_benchmark,
        format_parallel_report,
        "BENCH_parallel.json",
        (PARALLEL, PARALLEL_SMOKE),
    ),
}


def _worker_counts(text: str) -> tuple:
    return tuple(int(w) for w in text.split(",") if w.strip())


def _budget_mb(text: str) -> Optional[float]:
    return float(text) or None  # 0 disables the guard


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rrset.bench",
        description="Benchmark the RR-hypergraph solvers, storage and worker pool.",
        # An option not given keeps its mode's default: it is absent from
        # the parsed namespace instead of holding a placeholder.
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        default=False,
        help="tiny graph / few RR sets: a CI-speed sanity run",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    for name, help_text in (
        ("adaptive", "benchmark fixed-theta vs adaptive sampling; writes "
         "BENCH_adaptive.json by default"),
        ("solvers", "benchmark the solver matrix (ud/cd/lazy-cd/gradient/fw) on "
         "one shared hyper-graph; merges into BENCH_cd.json"),
        ("scale", "benchmark shared-slab vs heap storage on a SNAP-size "
         "analogue (end-to-end solve, worker sweep, peak RSS); "
         "com-LiveJournal on the spill-mmap backing by default, com-DBLP "
         "in --smoke; writes BENCH_scale.json (schema repro.rrset.bench/3)"),
        ("parallel", "benchmark RR-set and Monte-Carlo throughput across "
         "worker counts and their bit-identity; writes BENCH_parallel.json"),
    ):
        mode.add_argument(
            f"--{name}", dest="mode", action="store_const", const=name, help=help_text
        )
    parser.add_argument(
        "--scale-factor",
        dest="graph_scale",
        type=float,
        help="graph size multiplier for --scale (default 1.0 full, "
        "0.02 smoke)",
    )
    parser.add_argument(
        "--scale-graph",
        dest="graph",
        choices=tuple(_SCALE_FLOORS),
        help="which SNAP analogue --scale builds (default com_lj_like "
        "full, com_dblp_like smoke)",
    )
    parser.add_argument(
        "--backing",
        choices=("heap", "mmap"),
        help="CSR backing for the --scale graph + hyper-graph: 'mmap' "
        "(default) streams the graph build and assembles into disk-backed "
        "spill files, 'heap' keeps everything in RAM",
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        help="spill root for --backing mmap (default: $REPRO_SPILL_DIR, "
        "else the system temp dir)",
    )
    parser.add_argument(
        "--rss-budget",
        dest="rss_budget_mb",
        type=_budget_mb,
        metavar="MIB",
        help="fail --scale when peak RSS exceeds this many MiB "
        "(default 8192 full, 2048 smoke; pass 0 to disable the guard)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        help="certificate target for --adaptive (default 0.05 full, "
        "0.15 smoke)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        help="gradient/FW iteration cap for --solvers (default 200)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        help="gradient/FW stopping tolerance for --solvers (default 1e-3)",
    )
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--edge-prob", type=float)
    parser.add_argument("--rr-sets", type=int)
    parser.add_argument("--budget", type=float)
    parser.add_argument(
        "--support",
        type=int,
        help="CD support size (bounds the pair count per round)",
    )
    parser.add_argument("--max-rounds", type=int, help="CD round cap (default 10)")
    parser.add_argument(
        "--workers",
        type=_worker_counts,
        help="comma-separated worker counts to sweep or cross-check "
        "(default 1,2 with --adaptive and --scale --smoke, else 1,2,4)",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="where to write the JSON report (default BENCH_cd.json with "
        "--solvers, BENCH_adaptive.json with --adaptive, BENCH_scale.json "
        "with --scale, BENCH_parallel.json with --parallel)",
    )
    args = parser.parse_args(argv)

    runner, format_report, default_out, shapes = _MODES[args.mode]
    parameters = inspect.signature(runner).parameters
    kwargs = dict(shapes[args.smoke])
    kwargs.update((key, value) for key, value in vars(args).items() if key in parameters)
    if args.mode == "scale" and not args.smoke:
        kwargs["required_edges"], kwargs["required_nodes"] = _SCALE_FLOORS[kwargs["graph"]]
    out = args.out or default_out
    report = runner(**kwargs)
    write_report(merge_solver_matrix(report, out) if args.mode == "solvers" else report, out)
    print(format_report(report))
    print(f"wrote {out}")
    if not report["summary"]["ok"]:
        failed = [k for k, v in report["summary"]["checks"].items() if v == "fail"]
        print(f"ERROR: benchmark checks failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
