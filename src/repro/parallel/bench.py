"""Scaling benchmark for the deterministic parallel engine.

Measures RR-set polling and Monte-Carlo spread throughput on a synthetic
weighted-cascade graph at several worker counts, verifies that every
worker count produced identical output (the engine's headline guarantee),
and writes the whole record to ``BENCH_parallel.json``.  Run it as a
module::

    PYTHONPATH=src python -m repro.parallel.bench --out BENCH_parallel.json
    PYTHONPATH=src python -m repro.parallel.bench --smoke   # tiny CI mode

``docs/performance.md`` documents the JSON schema and how to interpret
the numbers; ``benchmarks/test_parallel_scaling.py`` wraps the same
functions in the pytest-benchmark harness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.montecarlo import estimate_spread
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import resolve_workers
from repro.rrset.bench import _best_of
from repro.rrset.sampler import sample_rr_sets

__all__ = [
    "SCHEMA",
    "build_scaling_model",
    "run_scaling_benchmark",
    "write_report",
    "main",
]

SCHEMA = "repro.parallel.bench/1"

#: Default benchmark shape: big enough that chunk dispatch amortizes and
#: per-core sampling runs for whole seconds; ``--smoke`` shrinks it to a
#: few hundred milliseconds for CI.
FULL = dict(nodes=2000, edge_prob=0.004, rr_sets=20_000, mc_samples=8_000)
SMOKE = dict(nodes=120, edge_prob=0.05, rr_sets=768, mc_samples=768)

SEED = 2016
DEFAULT_WORKERS = (1, 2, 4)


def build_scaling_model(nodes: int, edge_prob: float, seed: int = SEED) -> IndependentCascade:
    """The synthetic scaling graph: Erdős–Rényi + weighted-cascade probs."""
    graph = assign_weighted_cascade(erdos_renyi(nodes, edge_prob, seed=seed), alpha=1.0)
    return IndependentCascade(graph)


def _digest_rr(rr_sets: Sequence[np.ndarray]) -> str:
    """Order-sensitive content hash of a sampled hyper-graph."""
    hasher = hashlib.sha256()
    for rr in rr_sets:
        hasher.update(np.ascontiguousarray(rr, dtype=np.int64).tobytes())
        hasher.update(b"|")
    return hasher.hexdigest()


def run_scaling_benchmark(
    nodes: int,
    edge_prob: float,
    rr_sets: int,
    mc_samples: int,
    workers: Sequence[int] = DEFAULT_WORKERS,
    repeats: int = 3,
    seed: int = SEED,
) -> Dict:
    """Measure sets/sec and samples/sec at each worker count.

    Returns the full ``BENCH_parallel.json`` payload (minus the file).
    Both workloads reuse one seed, so the determinism cross-check —
    identical RR digest and identical spread estimate at every worker
    count — doubles as an end-to-end test of the engine.
    """
    model = build_scaling_model(nodes, edge_prob, seed=seed)
    mc_seeds = list(range(min(5, nodes)))

    # Run-wide observability totals (across every worker count and repeat);
    # a private registry keeps earlier activity in the process out of the
    # report, while ``observe`` still merges the totals up on exit.
    registry = MetricsRegistry()
    rr_rows: List[Dict] = []
    spread_rows: List[Dict] = []
    rr_digests: List[str] = []
    spread_keys: List[tuple] = []
    with observe(metrics=registry):
        for count in workers:
            seconds, sampled = _best_of(
                repeats,
                lambda w=count: sample_rr_sets(model, rr_sets, seed=seed, workers=w),
            )
            rr_digests.append(_digest_rr(sampled))
            rr_rows.append(
                {
                    "workers": resolve_workers(count),
                    "seconds": seconds,
                    "sets_per_sec": rr_sets / seconds,
                }
            )
            seconds, estimate = _best_of(
                repeats,
                lambda w=count: estimate_spread(
                    model, mc_seeds, num_samples=mc_samples, seed=seed, workers=w
                ),
            )
            spread_keys.append((estimate.mean, estimate.stddev, estimate.num_samples))
            spread_rows.append(
                {
                    "workers": resolve_workers(count),
                    "seconds": seconds,
                    "samples_per_sec": mc_samples / seconds,
                }
            )

    for rows, rate in ((rr_rows, "sets_per_sec"), (spread_rows, "samples_per_sec")):
        base = rows[0][rate]
        for row in rows:
            row["speedup"] = row[rate] / base

    return {
        "schema": SCHEMA,
        "config": {
            "nodes": nodes,
            "edge_prob": edge_prob,
            "rr_sets": rr_sets,
            "mc_samples": mc_samples,
            "seed": seed,
            "repeats": repeats,
            "workers": [resolve_workers(w) for w in workers],
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": {"rr_sets": rr_rows, "spread": spread_rows},
        "metrics": registry.snapshot(),
        "determinism": {
            "rr_digest": rr_digests[0],
            "rr_identical": len(set(rr_digests)) == 1,
            "spread_identical": len(set(spread_keys)) == 1,
        },
    }


def write_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: Dict) -> str:
    """Human-readable table of a benchmark payload."""
    cfg, det = report["config"], report["determinism"]
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
    lines.append(
        "determinism: rr_identical=%s spread_identical=%s"
        % (det["rr_identical"], det["spread_identical"])
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.bench",
        description="Benchmark the deterministic parallel sampling engine.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graph / few samples: a CI-speed sanity run",
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--edge-prob", type=float, default=None)
    parser.add_argument("--rr-sets", type=int, default=None)
    parser.add_argument("--mc-samples", type=int, default=None)
    parser.add_argument(
        "--workers",
        default=",".join(str(w) for w in DEFAULT_WORKERS),
        help="comma-separated worker counts to sweep (default %(default)s)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--out",
        default="BENCH_parallel.json",
        metavar="PATH",
        help="where to write the JSON report (default %(default)s)",
    )
    args = parser.parse_args(argv)

    shape = dict(SMOKE if args.smoke else FULL)
    for key, value in (
        ("nodes", args.nodes),
        ("edge_prob", args.edge_prob),
        ("rr_sets", args.rr_sets),
        ("mc_samples", args.mc_samples),
    ):
        if value is not None:
            shape[key] = value
    workers = tuple(int(w) for w in str(args.workers).split(",") if w.strip())

    report = run_scaling_benchmark(
        workers=workers,
        repeats=1 if args.smoke else args.repeats,
        seed=args.seed,
        **shape,
    )
    write_report(report, args.out)
    print(format_report(report))
    print(f"wrote {args.out}")
    if not (report["determinism"]["rr_identical"] and report["determinism"]["spread_identical"]):
        print("ERROR: output diverged across worker counts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
