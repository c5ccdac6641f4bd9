"""End-to-end benchmarks of the RR-hypergraph solvers and storage.

Run it as a module with exactly one of three modes; ``--smoke`` shrinks
any of them to CI scale.

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
``benchmarks/test_cd_kernel.py``::

    PYTHONPATH=src python -m repro.rrset.bench --solvers
    PYTHONPATH=src python -m repro.rrset.bench --solvers --smoke

``--adaptive`` runs the end-to-end adaptive-sampling benchmark: a
fixed-θ UD+CD pipeline races the doubling driver of
:mod:`repro.rrset.adaptive` on the same instance and seed plan,
recording wall-clock, final θ, the certified error bound, the quality
gap at the certificate, worker-count bit-identity, and the
``adaptive.*`` / ``cd.*`` op counters (stop reason included).  The
record lands in ``BENCH_adaptive.json``; every report shares the same
top-level ``summary`` block (benchmark name, ok flag, baseline/candidate
seconds, speedup, named pass/fail/skip checks with each skip's reason)
so per-PR trajectories are machine-comparable::

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

``docs/performance.md`` documents the JSON schemas and how to interpret
the numbers.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.rrset.hypergraph import RRHypergraph, csr_offsets
from repro.rrset.sampler import sample_rr_sets

__all__ = [
    "SCHEMA",
    "SCALE_SCHEMA",
    "build_cd_workload",
    "run_adaptive_benchmark",
    "run_solver_benchmark",
    "run_scale_benchmark",
    "write_report",
    "format_adaptive_report",
    "format_solver_report",
    "format_scale_report",
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

#: Default CD benchmark shape (the solver matrix, the adaptive race and
#: ``benchmarks/test_cd_kernel.py``): theta large enough that an
#: O(theta) scan dominates a pair step; ``--smoke`` shrinks everything
#: to CI scale.
FULL = dict(nodes=200, edge_prob=0.03, rr_sets=60_000, support=24, budget=4.0)
SMOKE = dict(nodes=80, edge_prob=0.05, rr_sets=4_000, support=10, budget=2.0)

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


def _best_of(repeats: int, fn) -> tuple:
    """Run ``fn`` ``repeats`` times; return (min seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        result = None  # free the previous run's result before the next
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


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
    graph = assign_weighted_cascade(erdos_renyi(nodes, edge_prob, seed=seed), alpha=1.0)
    population = paper_mixture(nodes, seed=seed + 1)
    problem = CIMProblem(IndependentCascade(graph), population, budget=budget)
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
    **_ignored,
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

    graph = assign_weighted_cascade(erdos_renyi(nodes, edge_prob, seed=seed), alpha=1.0)
    population = paper_mixture(nodes, seed=seed + 1)
    problem = CIMProblem(IndependentCascade(graph), population, budget=budget)

    # -- fixed-θ baseline: one-shot sampling, UD warm start, cyclic CD --
    start = time.perf_counter()
    rr_list = sample_rr_sets(problem.model, rr_sets, seed=seed + 2, workers=1)
    hypergraph = RRHypergraph(nodes, rr_list)
    ud = unified_discount(problem, hypergraph)
    fixed_cd = coordinate_descent_hypergraph(
        problem, hypergraph, ud.configuration, max_rounds=max_rounds
    )
    fixed_seconds = time.perf_counter() - start
    fixed_value = float(fixed_cd.objective_value)

    # -- adaptive driver, op-counted ------------------------------------
    registry = MetricsRegistry()
    with observe(metrics=registry):
        start = time.perf_counter()
        adaptive = adaptive_hypergraph(
            problem,
            seed=seed + 2,
            epsilon=epsilon,
            max_theta=rr_sets,
            options={"max_rounds": max_rounds},
            workers=1,
        )
        adaptive_seconds = time.perf_counter() - start
    counters = registry.snapshot()["counters"]
    op_counts = {key: counters.get(key, 0) for key in _ADAPTIVE_COUNTER_KEYS}

    # -- worker-count bit-identity of the whole driver ------------------
    digests = []
    for count in workers:
        run = adaptive_hypergraph(
            problem,
            seed=seed + 2,
            epsilon=epsilon,
            max_theta=rr_sets,
            options={"max_rounds": max_rounds},
            workers=count,
        )
        hasher = hashlib.sha256()
        hasher.update(run.configuration.discounts.tobytes())
        hasher.update(np.float64(run.objective_value).tobytes())
        hasher.update(np.int64(run.theta).tobytes())
        digests.append(hasher.hexdigest())
    determinism = {
        "workers": list(workers),
        "digest": digests[0],
        "identical": len(set(digests)) == 1,
    }

    gap = abs(adaptive.objective_value - fixed_value) / max(abs(fixed_value), 1e-12)
    certified = max(float(adaptive.epsilon_bound), float(epsilon))
    results = {
        "fixed": {
            "seconds": fixed_seconds,
            "theta": int(hypergraph.num_hyperedges),
            "objective_value": fixed_value,
            "rounds_run": int(fixed_cd.rounds_run),
        },
        "adaptive": {
            "seconds": adaptive_seconds,
            "theta": int(adaptive.theta),
            "objective_value": float(adaptive.objective_value),
            "epsilon_bound": float(adaptive.epsilon_bound),
            "stop_reason": adaptive.stop_reason,
            "stages": adaptive.stages,
        },
        "quality": {
            "relative_gap": gap,
            "certified_epsilon": certified,
            "within_certified": bool(gap <= certified),
        },
        "theta_saved": int(hypergraph.num_hyperedges - adaptive.theta),
    }
    checks = {
        "within_certified": results["quality"]["within_certified"],
        "fewer_hyperedges": adaptive.theta <= hypergraph.num_hyperedges,
        "workers_identical": determinism["identical"],
    }
    return {
        "schema": SCHEMA,
        "summary": _summary(
            "adaptive-sampling",
            baseline_seconds=fixed_seconds,
            candidate_seconds=adaptive_seconds,
            checks=checks,
        ),
        "config": {
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
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": results,
        "op_counts": op_counts,
        "determinism": determinism,
    }


#: Eval-economy counters per solver row: CD pays per pair evaluation, the
#: gradient family per full-vector objective evaluation.
_SOLVER_EVAL_COUNTERS = {
    "ud": "ud.grid_points_total",
    "cd": "cd.pair_evals_total",
    "lazy-cd": "cd.pair_evals_total",
    "gradient": "gradient.objective_evals_total",
    "fw": "gradient.objective_evals_total",
}

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
    **_ignored,
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

    problem, rr_list, hypergraph, _warm, _coords = build_cd_workload(
        nodes, edge_prob, rr_sets, budget, support, seed=seed
    )

    rows: Dict[str, Dict] = {}

    def run_row(name: str, fn) -> object:
        registry = MetricsRegistry()
        with observe(metrics=registry):
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        counters = registry.snapshot()["counters"]
        rows[name] = {
            "seconds": seconds,
            "objective_evals": int(counters.get(_SOLVER_EVAL_COUNTERS[name], 0)),
        }
        return result

    ud = run_row("ud", lambda: unified_discount(problem, hypergraph))
    rows["ud"].update(
        objective_value=float(ud.spread_estimate),
        budget_spent=float(ud.configuration.cost),
        unified_discount=float(ud.best_discount),
    )

    cd = run_row(
        "cd",
        lambda: coordinate_descent_hypergraph(
            problem, hypergraph, ud.configuration, max_rounds=max_rounds
        ),
    )
    rows["cd"].update(
        objective_value=float(cd.objective_value),
        budget_spent=float(cd.configuration.cost),
        rounds_run=int(cd.rounds_run),
    )

    lazy = run_row(
        "lazy-cd",
        lambda: coordinate_descent_hypergraph(
            problem,
            hypergraph,
            ud.configuration,
            max_rounds=max_rounds,
            pair_strategy="lazy",
        ),
    )
    rows["lazy-cd"].update(
        objective_value=float(lazy.objective_value),
        budget_spent=float(lazy.configuration.cost),
        rounds_run=int(lazy.rounds_run),
    )

    grad = run_row(
        "gradient",
        lambda: projected_gradient_ascent(
            problem,
            hypergraph,
            ud.configuration,
            max_steps=max_steps,
            tolerance=tolerance,
        ),
    )
    rows["gradient"].update(
        objective_value=float(grad.objective_value),
        budget_spent=float(grad.budget_spent),
        steps_run=int(grad.steps_run),
        duality_gap=float(grad.duality_gap),
    )

    fw = run_row(
        "fw",
        lambda: frank_wolfe(
            problem, hypergraph, max_steps=max_steps, tolerance=tolerance
        ),
    )
    rows["fw"].update(
        objective_value=float(fw.objective_value),
        budget_spent=float(fw.budget_spent),
        steps_run=int(fw.steps_run),
        duality_gap=float(fw.duality_gap),
        fw_gap=float(fw.fw_gap),
    )

    # -- worker-count bit-identity of the gradient family ---------------
    # Resample the hyper-graph with each worker count and rerun both
    # descents end to end (including the UD warm start); the digests cover
    # the final discounts and values, so any worker-dependent float path
    # anywhere in the chain breaks the check.
    digests = []
    for count in workers:
        rr_w = sample_rr_sets(problem.model, rr_sets, seed=seed + 2, workers=count)
        hg_w = RRHypergraph(nodes, rr_w)
        ud_w = unified_discount(problem, hg_w)
        grad_w = projected_gradient_ascent(
            problem, hg_w, ud_w.configuration, max_steps=max_steps, tolerance=tolerance
        )
        fw_w = frank_wolfe(problem, hg_w, max_steps=max_steps, tolerance=tolerance)
        hasher = hashlib.sha256()
        hasher.update(grad_w.configuration.discounts.tobytes())
        hasher.update(np.float64(grad_w.objective_value).tobytes())
        hasher.update(fw_w.configuration.discounts.tobytes())
        hasher.update(np.float64(fw_w.objective_value).tobytes())
        digests.append(hasher.hexdigest())
    determinism = {
        "workers": list(workers),
        "digest": digests[0],
        "identical": len(set(digests)) == 1,
    }

    cd_value = rows["cd"]["objective_value"]
    cd_evals = rows["cd"]["objective_evals"]
    checks = {
        "gradient_within_1pct": rows["gradient"]["objective_value"] >= 0.99 * cd_value,
        "fw_within_1pct": rows["fw"]["objective_value"] >= 0.99 * cd_value,
        "gradient_fewer_evals": rows["gradient"]["objective_evals"] < cd_evals,
        "fw_fewer_evals": rows["fw"]["objective_evals"] < cd_evals,
        "workers_identical": determinism["identical"],
    }
    return {
        "schema": SCHEMA,
        "summary": _summary(
            "solver-matrix",
            baseline_seconds=rows["cd"]["seconds"],
            candidate_seconds=rows["gradient"]["seconds"],
            checks=checks,
        ),
        "config": {
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
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "rows": rows,
        "determinism": determinism,
    }


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
)

_SCALE_WORKERS = (1, 2, 4)
_SCALE_SMOKE_WORKERS = (1, 2)

#: Serial sampling time below which the worker sweep measures pool
#: start-up rather than scaling, so the speedup check is skipped.
_MIN_SCALING_SECONDS = 1.0

#: Runs per worker count (best of) when the sweep can measure scaling.
_SCALE_REPEATS = 3

#: Generators the scale benchmark knows how to build, by config name.
_SCALE_GRAPHS = ("com_dblp_like", "com_lj_like")

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
    **_ignored,
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

    if graph not in _SCALE_GRAPHS:
        raise ValueError(f"graph must be one of {_SCALE_GRAPHS}, got {graph!r}")
    backing_mode = resolve_backing(backing)
    generator = getattr(generators, graph)

    start = time.perf_counter()
    base = generator(scale=graph_scale, seed=seed, backing=backing_mode, spill_dir=spill_dir)
    weighted = assign_weighted_cascade(base, alpha=1.0)
    graph_seconds = time.perf_counter() - start
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
            seconds, (counters, arrays) = _best_of(repeats, lambda: sample_shared(count))
            pickled = int(counters.get("storage.pickled_bytes_total", 0))
            rows.append(
                {
                    "workers": count,
                    "seconds": seconds,
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

    start = time.perf_counter()
    hg_shared = build(shared_sizes, shared_members)
    hypergraph_seconds = time.perf_counter() - start

    start = time.perf_counter()
    result_shared = solve(problem, "ud", hypergraph=hg_shared, seed=seed + 3)
    solve_seconds = time.perf_counter() - start

    # Snapshot the high-water mark *now*: everything above ran on the
    # selected backing, everything below deliberately goes to the heap.
    peak_rss = peak_rss_mb()

    # -- heap baseline: members pickled back through the pool -----------
    registry = MetricsRegistry()
    with observe(metrics=registry):
        start = time.perf_counter()
        heap_sizes, heap_members = sample_rr_csr(
            problem.model, rr_sets, seed=seed + 2, workers=max_workers, storage="heap"
        )
        heap_seconds = time.perf_counter() - start
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

    digests = [heap_row["digest"]] + [row["digest"] for row in shared_rows]
    checks = {
        "graph_nodes_ok": nodes >= required_nodes,
        "graph_edges_ok": weighted.num_edges >= required_edges,
        "hypergraph_identical": len(set(digests)) == 1,
        "backing_identical": bool(backing_check["identical"]),
        "solver_identical": solver_identical,
        "pickled_members_near_zero": all(
            row["pickled_bytes_per_chunk"] <= _PICKLE_PER_CHUNK_LIMIT
            for row in shared_rows
        ),
        "sampling_speedup_ok": speedup_check,
        "rss_within_budget": rss_check,
    }
    return {
        "schema": SCALE_SCHEMA,
        "summary": _summary(
            "scale-storage",
            baseline_seconds=heap_seconds,
            candidate_seconds=t_wide,
            checks=checks,
        ),
        "config": {
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
        "machine": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": {
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
        "determinism": {
            "workers": list(workers),
            "digest": digests[0],
            "identical": len(set(digests)) == 1,
        },
    }


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


def write_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rrset.bench",
        description="Benchmark the RR-hypergraph solvers and storage.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graph / few RR sets: a CI-speed sanity run",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--adaptive",
        action="store_true",
        help="benchmark fixed-theta vs adaptive sampling; writes "
        "BENCH_adaptive.json by default",
    )
    mode.add_argument(
        "--solvers",
        action="store_true",
        help="benchmark the solver matrix (ud/cd/lazy-cd/gradient/fw) on "
        "one shared hyper-graph; merges into BENCH_cd.json",
    )
    mode.add_argument(
        "--scale",
        action="store_true",
        help="benchmark shared-slab vs heap storage on a SNAP-size "
        "analogue (end-to-end solve, worker sweep, peak RSS); "
        "com-LiveJournal on the spill-mmap backing by default, com-DBLP "
        "in --smoke; writes BENCH_scale.json (schema repro.rrset.bench/3)",
    )
    parser.add_argument(
        "--scale-factor",
        type=float,
        default=None,
        help="graph size multiplier for --scale (default 1.0 full, "
        "0.02 smoke)",
    )
    parser.add_argument(
        "--scale-graph",
        choices=("com_dblp_like", "com_lj_like"),
        default=None,
        help="which SNAP analogue --scale builds (default com_lj_like "
        "full, com_dblp_like smoke)",
    )
    parser.add_argument(
        "--backing",
        choices=("heap", "mmap"),
        default=None,
        help="CSR backing for the --scale graph + hyper-graph: 'mmap' "
        "(default) streams the graph build and assembles into disk-backed "
        "spill files, 'heap' keeps everything in RAM",
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="spill root for --backing mmap (default: $REPRO_SPILL_DIR, "
        "else the system temp dir)",
    )
    parser.add_argument(
        "--rss-budget",
        type=float,
        default=None,
        metavar="MIB",
        help="fail --scale when peak RSS exceeds this many MiB "
        "(default 8192 full, 2048 smoke; pass 0 to disable the guard)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="certificate target for --adaptive (default 0.05 full, "
        "0.15 smoke)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=200,
        help="gradient/FW iteration cap for --solvers",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1e-3,
        help="gradient/FW stopping tolerance for --solvers",
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--edge-prob", type=float, default=None)
    parser.add_argument("--rr-sets", type=int, default=None)
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument(
        "--support",
        type=int,
        default=None,
        help="CD support size (bounds the pair count per round)",
    )
    parser.add_argument("--max-rounds", type=int, default=10)
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts for the sampling determinism "
        "cross-check (default 1,2 — or 1,2,4 with --solvers)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="where to write the JSON report (default BENCH_cd.json with "
        "--solvers, BENCH_adaptive.json with --adaptive, BENCH_scale.json "
        "with --scale)",
    )
    args = parser.parse_args(argv)

    shape = dict(SMOKE if args.smoke else FULL)
    for key, value in (
        ("nodes", args.nodes),
        ("edge_prob", args.edge_prob),
        ("rr_sets", args.rr_sets),
        ("budget", args.budget),
        ("support", args.support),
    ):
        if value is not None:
            shape[key] = value
    if args.workers is None:
        workers = _SOLVER_WORKERS if args.solvers else DEFAULT_WORKERS
    else:
        workers = tuple(int(w) for w in str(args.workers).split(",") if w.strip())

    if args.scale:
        scale_shape = dict(SCALE_SMOKE if args.smoke else SCALE)
        if args.scale_factor is not None:
            scale_shape["graph_scale"] = args.scale_factor
        if args.rr_sets is not None:
            scale_shape["rr_sets"] = args.rr_sets
        if args.budget is not None:
            scale_shape["budget"] = args.budget
        if args.scale_graph is not None:
            scale_shape["graph"] = args.scale_graph
        if args.backing is not None:
            scale_shape["backing"] = args.backing
        if args.spill_dir is not None:
            scale_shape["spill_dir"] = args.spill_dir
        if args.rss_budget is not None:
            scale_shape["rss_budget_mb"] = args.rss_budget or None
        if args.workers is None:
            workers = _SCALE_SMOKE_WORKERS if args.smoke else _SCALE_WORKERS
        if args.smoke:
            required_edges, required_nodes = 0, 0
        elif scale_shape["graph"] == "com_lj_like":
            # The published com-LiveJournal size: ~4M nodes, >=30M
            # undirected edges (the acceptance floor of the scale cell).
            required_edges, required_nodes = 30_000_000, 3_900_000
        else:
            required_edges, required_nodes = 2_000_000, 300_000
        out = args.out or "BENCH_scale.json"
        report = run_scale_benchmark(
            workers=workers,
            seed=args.seed,
            required_edges=required_edges,
            required_nodes=required_nodes,
            **scale_shape,
        )
        write_report(report, out)
        print(format_scale_report(report))
    elif args.adaptive:
        epsilon = args.epsilon if args.epsilon is not None else (0.15 if args.smoke else 0.05)
        out = args.out or "BENCH_adaptive.json"
        report = run_adaptive_benchmark(
            workers=workers,
            epsilon=epsilon,
            max_rounds=args.max_rounds,
            seed=args.seed,
            **shape,
        )
        write_report(report, out)
        print(format_adaptive_report(report))
    else:
        out = args.out or "BENCH_cd.json"
        report = run_solver_benchmark(
            workers=workers,
            max_rounds=args.max_rounds,
            max_steps=args.max_steps,
            tolerance=args.tolerance,
            seed=args.seed,
            **shape,
        )
        write_report(merge_solver_matrix(report, out), out)
        print(format_solver_report(report))
    print(f"wrote {out}")
    if not report["summary"]["ok"]:
        failed = [k for k, v in report["summary"]["checks"].items() if v == "fail"]
        print(f"ERROR: benchmark checks failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
