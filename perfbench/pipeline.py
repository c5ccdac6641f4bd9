"""One measurement of one workload, in a fresh interpreter.

``run.py`` launches this script with a scrubbed environment and reads the
JSON it writes to ``--out``.  It drives the program's public pipeline --
graph in, weighted ``CIMProblem``, RR hypergraph, ``solve()``, Monte-Carlo
``evaluate()`` -- and verifies every output.  Four modes:

``prepare``
    Untimed, in its own interpreter: writes the edge list that the
    edge-list workload reads, so that the measured interpreters start
    from ``read_edge_list`` and their peak RSS excludes the generator.

``untraced``
    Cycles of ``setups_per_plan`` set-ups and one plan, in a closed loop
    for ``--seconds`` (at least ``min_plans`` cycles), a peak-RSS
    snapshot, then one evaluation, which yields the spread.  Reports the
    end-to-end metrics, timings as medians at the reference host speed
    (``speed.py``).
``traced``
    One set-up, one untraced plan, one traced plan and one evaluation,
    with the program's ``Tracer`` and ``MetricsRegistry`` attached through
    ``observe()`` and the benchmark's own ``bench.*`` spans around each
    layer call.  Reports the folded span table and the per-layer metrics.
``counts``
    One set-up and one traced plan; reports the program's exact counters
    for the self-check against the ``traced`` run of the same seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# solve() and evaluate() import these lazily; load them before any timing.
import repro.core.gradient  # noqa: F401
import repro.rrset.adaptive  # noqa: F401
from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.core.solvers import solve
from repro.diffusion.batch import batch_configuration_spread_ic  # noqa: F401
from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs import generators
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.weights import assign_weighted_cascade
from repro.obs import MetricsRegistry, Tracer, observe
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_csr
from repro.utils.spill import peak_rss_mb

from checks import (
    Ledger,
    check_counts,
    check_plan,
    check_spread,
    discount_digest,
    rr_estimate_stderr,
)
from layers import fold_spans, layer_metrics
from speed import Samplers, measured_cpus, speed_factor
from workloads import GRAPH_SEED, WORKLOADS, Workload, derived_seeds

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

_NO_SPAN = nullcontext()


class _Untraced:
    """Stands in for a tracer when a call must not be traced."""

    def span(self, name, **attrs):
        return _NO_SPAN


UNTRACED = _Untraced()


@dataclass
class Dirs:
    """The run's own directory, its spill and slab directories and input file."""

    root: Path
    spill: Path
    slab: Path
    edge_list: Path

    @classmethod
    def under(cls, run_dir: Path, edge_list: Optional[Path] = None) -> "Dirs":
        dirs = cls(
            run_dir, run_dir / "spill", run_dir / "slab", edge_list or run_dir / "edges.txt"
        )
        for path in (dirs.spill, dirs.slab):
            path.mkdir(parents=True, exist_ok=True)
        return dirs


def prepare(w: Workload, dirs: Dirs) -> None:
    """Untimed: write the edge list that the edge-list workload reads."""
    if w.source == "edgelist":
        graph = getattr(generators, w.graph)(scale=w.scale, seed=GRAPH_SEED)
        write_edge_list(graph, dirs.edge_list, write_probabilities=False)


def set_up(w: Workload, seeds: Dict[str, int], dirs: Dirs, tracer) -> CIMProblem:
    """Input graph ready: generate or read, weight, population, problem."""
    with tracer.span("bench.setup"):
        if w.source == "edgelist":
            with tracer.span("bench.read"):
                graph, _ = read_edge_list(dirs.edge_list)
        else:
            with tracer.span("bench.generate"):
                graph = getattr(generators, w.graph)(
                    scale=w.scale,
                    seed=GRAPH_SEED,
                    backing=w.backing,
                    spill_dir=dirs.spill,
                )
        with tracer.span("bench.weight"):
            graph = assign_weighted_cascade(graph, alpha=1.0)
        with tracer.span("bench.problem"):
            population = paper_mixture(graph.num_nodes, seed=seeds["population"])
            return CIMProblem(IndependentCascade(graph), population, budget=w.budget)


def plan(w: Workload, problem: CIMProblem, seeds: Dict[str, int], dirs: Dirs, workers: int, tracer):
    """Time to the certified plan: sample + index + solve, or the adaptive solve."""
    placement = dict(
        storage=w.storage, slab_dir=dirs.slab, backing=w.backing, spill_dir=dirs.spill
    )
    with tracer.span("bench.plan"):
        if w.theta == "auto":
            with tracer.span("bench.solve"):
                return solve(
                    problem,
                    w.method,
                    num_hyperedges="auto",
                    seed=seeds["sample"],
                    workers=workers,
                    **placement,
                )
        with tracer.span("bench.sample"):
            sizes, members = sample_rr_csr(
                problem.model, w.theta, seed=seeds["sample"], workers=workers, **placement
            )
        with tracer.span("bench.index"):
            offsets = np.zeros(sizes.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            hypergraph = RRHypergraph.from_csr(problem.num_nodes, offsets, members)
        with tracer.span("bench.solve"):
            return solve(
                problem,
                w.method,
                hypergraph=hypergraph,
                num_hyperedges=w.theta,
                seed=seeds["solve"],
            )


def evaluate(w: Workload, problem: CIMProblem, result, seeds: Dict[str, int], tracer):
    with tracer.span("bench.evaluate"):
        return problem.evaluate(
            result.configuration,
            num_samples=w.eval_samples,
            seed=seeds["evaluate"],
            workers=1,
        )


def spread_reference(w: Workload, seed: int, problem: CIMProblem, result) -> dict:
    """The recorded reference for this seed, else the plan's own RR estimate.

    ``reference.json`` holds high-sample Monte-Carlo spreads, and the plan
    digests they were measured on, recorded by ``record_reference.py``
    with an independent evaluation seed.  For a seed it does not hold,
    the reference is the solver's hypergraph estimate, an independent
    estimator of the same ``UI(C)``.
    """
    if REFERENCE_FILE.is_file():
        recorded = json.loads(REFERENCE_FILE.read_text()).get(w.name, {}).get(str(seed))
        if recorded is not None:
            return dict(recorded, source="recorded")
    estimate = float(result.spread_estimate)
    theta = int(result.extras["num_hyperedges"])
    return {
        "spread": estimate,
        "stderr": rr_estimate_stderr(estimate, problem.num_nodes, theta),
        "source": "rr-estimate",
    }


def verify_setup(ledger: Ledger, w: Workload, problem: CIMProblem) -> None:
    graph = problem.graph
    expected = {"nodes": w.nodes, "edges": w.edges}
    ledger.record("setup", check_counts(graph.num_nodes, graph.num_edges, expected))


def verify_plan(ledger: Ledger, w: Workload, problem: CIMProblem, result, digests: List[str]) -> None:
    discounts = result.configuration.discounts
    failures = check_plan(
        discounts, problem.num_nodes, problem.budget, result.extras, certified=w.theta == "auto"
    )
    digest = discount_digest(discounts)
    if digests and digest != digests[0]:
        failures.append("plan differs from the first plan of this run (same seed)")
    digests.append(digest)
    ledger.record("plan", failures)


def verify_spread(ledger: Ledger, w: Workload, seed: int, problem, result, estimate) -> dict:
    reference = spread_reference(w, seed, problem, result)
    ledger.record(
        "evaluate",
        check_spread(estimate.mean, estimate.stderr, reference["spread"], reference["stderr"]),
    )
    return reference


def run_untraced(w: Workload, seed: int, seconds: float, workers: int, dirs: Dirs) -> dict:
    seeds = derived_seeds(w, seed)
    ledger = Ledger()

    setup_spans: List[Tuple[float, float]] = []
    plan_spans: List[Tuple[float, float]] = []
    digests: List[str] = []
    problem = result = None
    cycle_s = 0.0
    with Samplers(measured_cpus(workers), dirs.root) as samplers:
        # One untimed set-up first: the first in a fresh interpreter also
        # pays for lazy imports and fresh heap pages, which later ones reuse.
        problem = set_up(w, seeds, dirs, UNTRACED)
        verify_setup(ledger, w, problem)
        loop_start = time.perf_counter()
        # Closed loop, one cycle at a time: set up, then plan on that
        # set-up.  Interleaving spreads both metrics' samples over the whole
        # window.  Start another cycle only while it is expected to end
        # inside the window.
        while len(plan_spans) < w.min_plans or (
            time.perf_counter() - loop_start + cycle_s <= seconds
        ):
            cycle_start = time.perf_counter()
            for _ in range(w.setups_per_plan):
                problem = result = None  # drop the previous graph and its spill files first
                gc.collect()
                start = time.perf_counter()
                problem = set_up(w, seeds, dirs, UNTRACED)
                setup_spans.append((start, time.perf_counter()))
                verify_setup(ledger, w, problem)
            gc.collect()
            start = time.perf_counter()
            result = plan(w, problem, seeds, dirs, workers, UNTRACED)
            plan_spans.append((start, time.perf_counter()))
            verify_plan(ledger, w, problem, result, digests)
            cycle_s = time.perf_counter() - cycle_start
    ticks = samplers.ticks()
    # ru_maxrss is monotone: snapshot before the Monte-Carlo engine runs.
    peak = peak_rss_mb()

    estimate = evaluate(w, problem, result, seeds, UNTRACED)
    reference = verify_spread(ledger, w, seed, problem, result, estimate)

    samples = {}
    for name, spans in (("setup_s", setup_spans), ("plan_s", plan_spans)):
        samples[name] = [end - start for start, end in spans]
        samples[name + "_at_reference"] = [
            (end - start) * speed_factor(start, end, ticks) for start, end in spans
        ]
    setup_s = statistics.median(samples["setup_s_at_reference"])
    plan_s = statistics.median(samples["plan_s_at_reference"])
    return {
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "metrics": {
            "setup_s": setup_s,
            "plan_s": plan_s,
            "end_to_end_s": setup_s + plan_s,
            "peak_rss_mb": peak,
            "spread": float(estimate.mean),
        },
        "samples": samples,
        "wall": {
            "setup_s": statistics.median(samples["setup_s"]),
            "plan_s": statistics.median(samples["plan_s"]),
        },
        "kernel_s": statistics.median(k for _, k in ticks),
        "digest": digests[0],
        "spread_stderr": float(estimate.stderr),
        "spread_reference": reference["source"],
        "digest_matches_reference": (
            digests[0] == reference["digest"] if "digest" in reference else None
        ),
        "theta": int(result.extras["num_hyperedges"]),
    }


def _counters(*registries: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    combined = MetricsRegistry()
    for registry in registries:
        combined.merge(registry)
    return combined.snapshot()


def run_traced(w: Workload, seed: int, workers: int, dirs: Dirs) -> dict:
    seeds = derived_seeds(w, seed)
    ledger = Ledger()
    tracer = Tracer()
    with observe(tracer=tracer):
        problem = set_up(w, seeds, dirs, tracer)
    verify_setup(ledger, w, problem)

    digests: List[str] = []
    start = time.perf_counter()
    result = plan(w, problem, seeds, dirs, workers, UNTRACED)
    untraced_s = time.perf_counter() - start
    verify_plan(ledger, w, problem, result, digests)
    result = None
    gc.collect()

    registry = MetricsRegistry()  # the traced plan alone
    with observe(tracer=tracer, metrics=registry):
        start = time.perf_counter()
        result = plan(w, problem, seeds, dirs, workers, tracer)
        traced_s = time.perf_counter() - start
    verify_plan(ledger, w, problem, result, digests)

    side = MetricsRegistry()  # the evaluation
    with observe(tracer=tracer, metrics=side):
        estimate = evaluate(w, problem, result, seeds, tracer)
    verify_spread(ledger, w, seed, problem, result, estimate)

    table = fold_spans(tracer.roots)
    snapshot = _counters(side, registry)
    metrics = layer_metrics(
        table,
        snapshot["counters"],
        snapshot["gauges"],
        num_nodes=problem.num_nodes,
        num_edges=problem.graph.num_edges,
        adaptive=w.theta == "auto",
        spread=float(estimate.mean),
        overhead_s=traced_s - untraced_s,
    )
    return {
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "metrics": metrics,
        "table": table,
        "plan_counters": _counters(registry)["counters"],
        "plan_s": {"untraced": untraced_s, "traced": traced_s},
        "digest": digests[0],
    }


def run_counts(w: Workload, seed: int, workers: int, dirs: Dirs) -> dict:
    seeds = derived_seeds(w, seed)
    ledger = Ledger()
    problem = set_up(w, seeds, dirs, UNTRACED)
    verify_setup(ledger, w, problem)
    registry = MetricsRegistry()
    with observe(tracer=Tracer(), metrics=registry):
        result = plan(w, problem, seeds, dirs, workers, UNTRACED)
    digests: List[str] = []
    verify_plan(ledger, w, problem, result, digests)
    return {
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "plan_counters": registry.snapshot()["counters"],
        "digest": digests[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("prepare", "untraced", "traced", "counts")
    )
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--edge-list", type=Path, required=True)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    dirs = Dirs.under(args.run_dir, args.edge_list)
    if args.mode == "prepare":
        prepare(w, dirs)
        outcome = {}
    elif args.mode == "untraced":
        outcome = run_untraced(w, args.seed, args.seconds, args.workers, dirs)
    elif args.mode == "traced":
        outcome = run_traced(w, args.seed, args.workers, dirs)
    else:
        outcome = run_counts(w, args.seed, args.workers, dirs)
    outcome["workers"] = args.workers
    args.out.write_text(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
