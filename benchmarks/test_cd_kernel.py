"""Benchmark: vectorized RR-hypergraph / CD kernels vs their references.

Times the CSR build, ``coverage``, objective ``rebuild``, the
``pair_coefficients`` step, and a full Section-8 coordinate-descent run
through both the vectorized kernels and the preserved pre-change
implementations (``tests/rrset/reference_kernels.py``, passed to CD as
its ``objective``), asserts that the two produce bit-identical outputs,
audits the op-count metrics (the per-pair path must perform zero full
O(theta) scans), and writes ``BENCH_cd.json`` (schema documented in
``docs/performance.md``) through the report envelope of
:mod:`repro.rrset.bench`.  This file is the one producer of the kernel
report; ``python -m repro.rrset.bench --solvers`` merges the solver
matrix into it afterwards.

Every kernel pair runs through the harness's ``_best_of``, which
alternates the two kernels over the ``repeats`` rounds; each row reports
the best time of each kernel (the full CD rows beside every run's time),
so host load falls on both alike.  The >=3x
full-CD speedup acceptance bar applies in full mode only; the
smoke shape still runs every cross-check — the identity and op-count
assertions are scale-independent, which is what makes this file a useful
CI guard rather than a wall-clock test.

Run it from the repository root (the oracle is imported from the test
tree)::

    PYTHONPATH=src python -m pytest benchmarks/test_cd_kernel.py --benchmark-only

Environment knobs:

* ``REPRO_BENCH_CD_SMOKE`` — non-empty: tiny CI-speed shape.
* ``REPRO_BENCH_CD_OUT``   — report path (default ``BENCH_cd.json`` in
  the working directory).
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, Optional, Sequence

import numpy as np
from conftest import run_once

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.problem import CIMProblem
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.rrset.bench import (
    FULL,
    SCHEMA,
    SEED,
    SMOKE,
    _best_of,
    _digest_rr,
    _format_checks,
    _report,
    build_cd_workload,
    write_report,
)
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_sets

from tests.rrset.reference_kernels import (
    ReferenceObjective,
    reference_coverage,
    reference_csr_build,
)

WORKERS = (1, 2)
SMOKE_MODE = bool(os.environ.get("REPRO_BENCH_CD_SMOKE"))
OUT_PATH = os.environ.get("REPRO_BENCH_CD_OUT", "BENCH_cd.json")

#: Objective op counters surfaced in the report (per CD kernel).
_COUNTER_KEYS = (
    "objective.full_scans_total",
    "objective.rebuilds_total",
    "objective.incremental_updates_total",
    "objective.pair_coefficients_total",
    "objective.topology_cache_hits_total",
    "objective.topology_cache_misses_total",
)


def _race(repeats: int, reference: Callable, vectorized: Callable) -> tuple:
    """Both kernels timed round-robin: their report row and last results."""
    ref, vec = _best_of(repeats, reference, vectorized)
    row = {
        "reference_seconds": ref.seconds,
        "vectorized_seconds": vec.seconds,
        "speedup": ref.seconds / vec.seconds,
    }
    return row, ref, vec


def _time_micro_kernels(
    repeats: int,
    nodes: int,
    rr_list: Sequence[np.ndarray],
    hypergraph: RRHypergraph,
    probs: np.ndarray,
    coords: np.ndarray,
) -> Dict:
    """Best-of timings + identity cross-checks for the four micro kernels."""
    results: Dict[str, Dict] = {}

    # -- CSR build ----------------------------------------------------
    row, ref, vec = _race(
        repeats,
        lambda: reference_csr_build(nodes, rr_list),
        lambda: RRHypergraph(nodes, rr_list),
    )
    row["identical"] = bool(
        np.array_equal(ref.result[0], vec.result.edge_offsets)
        and np.array_equal(ref.result[1], vec.result.edge_nodes)
    )
    results["csr_build"] = row

    # -- coverage -----------------------------------------------------
    seeds = coords[: min(10, coords.size)]
    row, ref, vec = _race(
        repeats,
        lambda: reference_coverage(hypergraph, seeds),
        lambda: hypergraph.coverage(seeds),
    )
    row["identical"] = ref.result == vec.result
    results["coverage"] = row

    # -- objective rebuild -------------------------------------------
    ref_obj = ReferenceObjective(hypergraph, probs)
    vec_obj = HypergraphObjective(hypergraph, probs)
    row, _, _ = _race(repeats, ref_obj.rebuild, vec_obj.rebuild)
    row["identical"] = bool(
        np.array_equal(ref_obj._zero_count, vec_obj._zero_count)
        and np.array_equal(ref_obj._nonzero_prod, vec_obj._nonzero_prod)
    )
    results["rebuild"] = row

    # -- pair step ----------------------------------------------------
    # Steady-state cyclic-CD cost: every pair of the support, revisited
    # ``repeats`` times the way CD rounds revisit them (the vectorized
    # kernel's topology cache is cold on the first sweep only).
    pairs = list(itertools.combinations(coords.tolist(), 2))

    def sweep(objective):
        for i, j in pairs:
            objective.pair_coefficients(i, j)

    row, _, _ = _race(repeats, lambda: sweep(ref_obj), lambda: sweep(vec_obj))
    coeffs_identical = True
    for i, j in pairs[:16]:
        a = ref_obj.pair_coefficients(i, j)
        b = vec_obj.pair_coefficients(i, j)
        coeffs_identical &= all(
            getattr(a, slot) == getattr(b, slot) for slot in a.__slots__
        )
    row.update(pairs=len(pairs), coefficients_identical=bool(coeffs_identical))
    results["pair_step"] = row
    return results


def _full_cd(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    warm_start: Configuration,
    coords: np.ndarray,
    max_rounds: int,
    refine_iterations: Optional[int],
    repeats: int,
) -> tuple:
    """CD runs through each kernel: its report row and per-kernel op counts.

    The reference run hands CD the oracle as its ``objective``.
    ``refine_iterations=None`` keeps the kernel's default golden-section
    refine.  The two kernels alternate over ``repeats`` rounds, so host
    load falls on both alike; the row reports each kernel's best time
    and, beside it, every run's time.  Each run gets a private metrics
    registry, so its op counts cover exactly that run.
    """
    options = {} if refine_iterations is None else {"refine_iterations": refine_iterations}
    probs = problem.population.probabilities(warm_start.discounts)

    def run(oracle):
        # The oracle is built inside the timed, op-counted block, where CD
        # builds its own vectorized objective.
        registry = MetricsRegistry()
        with observe(metrics=registry):
            result = coordinate_descent_hypergraph(
                problem,
                hypergraph,
                warm_start,
                coordinates=coords,
                max_rounds=max_rounds,
                objective=None if oracle is None else oracle(hypergraph, probs),
                **options,
            )
        counters = registry.snapshot()["counters"]
        return result, {key: counters.get(key, 0) for key in _COUNTER_KEYS}

    row, ref, vec = _race(
        repeats, lambda: run(ReferenceObjective), lambda: run(None)
    )
    (ref_cd, ref_ops), (vec_cd, vec_ops) = ref.result, vec.result
    row.update(
        reference_runs_seconds=ref.runs,
        vectorized_runs_seconds=vec.runs,
        rounds_run=vec_cd.rounds_run,
        pair_updates=vec_cd.pair_updates,
        round_values_identical=ref_cd.round_values == vec_cd.round_values,
        configuration_identical=bool(
            np.array_equal(ref_cd.configuration.discounts, vec_cd.configuration.discounts)
        ),
    )
    return row, {"reference": ref_ops, "vectorized": vec_ops}


def run_kernel_benchmark(
    nodes: int,
    edge_prob: float,
    rr_sets: int,
    budget: float,
    support: int,
    workers: Sequence[int] = WORKERS,
    repeats: int = 3,
    max_rounds: int = 10,
    seed: int = SEED,
) -> Dict:
    """Measure every kernel pair and audit the op counters.

    Returns the full ``BENCH_cd.json`` payload (minus the file).  The
    ``full_cd`` comparison runs grid-only (``refine_iterations=0``, the
    paper's Section-7.1 setting) and feeds the op-count audit;
    ``full_cd_refined`` repeats it with CD's default golden-section
    refine.
    """
    problem, rr_list, hypergraph, warm_start, coords = build_cd_workload(
        nodes, edge_prob, rr_sets, budget, support, seed=seed
    )
    probs = problem.population.probabilities(warm_start.discounts)

    results = _time_micro_kernels(repeats, nodes, rr_list, hypergraph, probs, coords)

    # -- full CD, both kernels, op-counted ----------------------------
    # Grid-only first (the op-count audit's run), then with CD's default
    # golden-section refine, the path that real plans spend their CD time in.
    results["full_cd"], op_counts = _full_cd(
        problem, hypergraph, warm_start, coords, max_rounds,
        refine_iterations=0, repeats=repeats,
    )
    results["full_cd_refined"], _ = _full_cd(
        problem, hypergraph, warm_start, coords, max_rounds,
        refine_iterations=None, repeats=repeats,
    )
    round_values_identical = results["full_cd"]["round_values_identical"]
    config_identical = results["full_cd"]["configuration_identical"]

    # The vectorized kernel's contract: full scans happen only at the two
    # rebuilds (init + drift wash) and once per accepted update — never in
    # the per-pair path.  A positive residual means a scan leaked back in.
    vec_ops = op_counts["vectorized"]
    pair_path_full_scans = int(
        vec_ops["objective.full_scans_total"]
        - vec_ops["objective.rebuilds_total"]
        - results["full_cd"]["pair_updates"]
    )
    op_counts["pair_path_full_scans"] = pair_path_full_scans
    op_counts["scan_guard_ok"] = pair_path_full_scans <= 0

    # -- worker-count determinism of the sampled hyper-graph ----------
    digests = [
        _digest_rr(sample_rr_sets(problem.model, rr_sets, seed=seed + 2, workers=w))
        for w in workers
    ]
    determinism = {
        "workers": list(workers),
        "rr_digest": digests[0],
        "rr_identical": len(set(digests)) == 1,
        "round_values_identical": round_values_identical,
        "configuration_identical": config_identical,
    }

    checks = {
        "csr_build_identical": bool(results["csr_build"]["identical"]),
        "coverage_identical": bool(results["coverage"]["identical"]),
        "rebuild_identical": bool(results["rebuild"]["identical"]),
        "pair_coefficients_identical": bool(
            results["pair_step"]["coefficients_identical"]
        ),
        "round_values_identical": bool(round_values_identical),
        "configuration_identical": bool(config_identical),
        "refined_round_values_identical": bool(
            results["full_cd_refined"]["round_values_identical"]
        ),
        "refined_configuration_identical": bool(
            results["full_cd_refined"]["configuration_identical"]
        ),
        "rr_identical": bool(determinism["rr_identical"]),
        "scan_guard_ok": bool(op_counts["scan_guard_ok"]),
    }
    return _report(
        SCHEMA,
        "cd-kernels",
        results["full_cd"]["reference_seconds"],
        results["full_cd"]["vectorized_seconds"],
        checks,
        config={
            "nodes": nodes,
            "edge_prob": edge_prob,
            "rr_sets": rr_sets,
            "budget": budget,
            "support": int(np.asarray(coords).size),
            "max_rounds": max_rounds,
            "seed": seed,
            "repeats": repeats,
            "workers": list(workers),
        },
        results=results,
        op_counts=op_counts,
        determinism=determinism,
    )


def format_report(report: Dict) -> str:
    """Human-readable table of a benchmark payload."""
    cfg = report["config"]
    res = report["results"]
    ops = report["op_counts"]
    det = report["determinism"]
    lines = [
        f"cd kernels — n={cfg['nodes']} p={cfg['edge_prob']:g} "
        f"theta={cfg['rr_sets']} support={cfg['support']} "
        f"(cpus={report['machine']['cpu_count']})",
        f"{'kernel':>15s} {'reference':>12s} {'vectorized':>12s} {'speedup':>8s} {'identical':>9s}",
    ]
    checks = {
        "csr_build": "identical",
        "coverage": "identical",
        "rebuild": "identical",
        "pair_step": "coefficients_identical",
        "full_cd": "round_values_identical",
        "full_cd_refined": "round_values_identical",
    }
    for name, check in checks.items():
        row = res[name]
        lines.append(
            f"{name:>15s} {row['reference_seconds']:11.4f}s "
            f"{row['vectorized_seconds']:11.4f}s {row['speedup']:7.2f}x "
            f"{str(row[check]):>9s}"
        )
    vec, ref = ops["vectorized"], ops["reference"]
    lines.append(
        "full scans: reference=%d vectorized=%d (pair-path residual=%d, guard %s)"
        % (
            ref["objective.full_scans_total"],
            vec["objective.full_scans_total"],
            ops["pair_path_full_scans"],
            "ok" if ops["scan_guard_ok"] else "FAILED",
        )
    )
    lines.append(
        "determinism: rr_identical=%s round_values_identical=%s"
        % (det["rr_identical"], det["round_values_identical"])
    )
    lines.extend(_format_checks(report["summary"]))
    return "\n".join(lines)


def test_cd_kernels(benchmark):
    shape = SMOKE if SMOKE_MODE else FULL
    report = run_once(
        benchmark,
        run_kernel_benchmark,
        workers=WORKERS,
        repeats=1 if SMOKE_MODE else 3,
        **shape,
    )
    write_report(report, OUT_PATH)
    print()
    print(format_report(report))
    print(f"wrote {OUT_PATH}")

    # Bit-identity: the kernel swap may not change a single output bit.
    results = report["results"]
    assert results["csr_build"]["identical"]
    assert results["coverage"]["identical"]
    assert results["rebuild"]["identical"]
    assert results["pair_step"]["coefficients_identical"]
    assert results["full_cd"]["round_values_identical"]
    assert results["full_cd"]["configuration_identical"]
    assert report["determinism"]["rr_identical"]

    # Op-count guard (not wall-clock): a 10-round CD run performs full
    # objective scans only at the two rebuilds and once per accepted
    # update — the per-pair path contributes zero O(theta) scans.
    ops = report["op_counts"]
    assert ops["scan_guard_ok"], (
        f"per-pair path leaked {ops['pair_path_full_scans']} full scans"
    )
    vec = ops["vectorized"]
    assert (
        vec["objective.full_scans_total"]
        <= vec["objective.rebuilds_total"] + results["full_cd"]["pair_updates"]
    )
    # The reference kernel scans on every pair visit; if the vectorized
    # kernel ever approaches that count the incremental path has regressed.
    assert (
        vec["objective.full_scans_total"]
        < ops["reference"]["objective.full_scans_total"]
    )

    if not SMOKE_MODE:
        # The ISSUE acceptance bar: >=3x wall-clock on a full CD run.
        speedup = results["full_cd"]["speedup"]
        assert speedup >= 3.0, f"expected >=3x full-CD speedup, got {speedup:.2f}x"
