"""Deterministic guard on the CELF queue size of one coverage call.

A UD grid point (and the RIS greedy) runs ``weighted_max_coverage`` over
every positive-gain node but pops only a small fraction of them.  The
untouched candidates are read from one sorted list; only re-evaluated
entries go onto the heap.  This test counts heap entries instead of
timing them: one call on a few thousand positive-gain candidates with
``k = 5`` never holds more than ``lazy_evals + 1`` entries, whereas a
heap of every candidate holds them all from the first step.
"""

import heapq
from types import SimpleNamespace

import numpy as np

from repro.obs import MetricsRegistry, observe
from repro.rrset import coverage
from repro.rrset.hypergraph import RRHypergraph

NODES = 4000


def test_heap_holds_only_reevaluated_entries(monkeypatch):
    rng = np.random.default_rng(31)
    edges = [
        rng.choice(NODES, size=int(rng.integers(1, 6)), replace=False)
        for _ in range(3 * NODES)
    ]
    hypergraph = RRHypergraph(NODES, edges)
    probs = rng.uniform(0.05, 1.0, size=NODES)

    largest = [0]

    def heappush(heap, item):
        heapq.heappush(heap, item)
        largest[0] = max(largest[0], len(heap))

    def heapify(heap):
        heapq.heapify(heap)
        largest[0] = max(largest[0], len(heap))

    monkeypatch.setattr(
        coverage,
        "heapq",
        SimpleNamespace(heappush=heappush, heappop=heapq.heappop, heapify=heapify),
    )
    registry = MetricsRegistry()
    with observe(metrics=registry, merge_up=False):
        result = coverage.weighted_max_coverage(hypergraph, probs, 5)
    counters = registry.snapshot()["counters"]
    assert len(result.seeds) == 5
    assert counters["coverage.heap_seeded_total"] >= 3000
    lazy_evals = counters["coverage.lazy_evals_total"]
    assert largest[0] <= lazy_evals + 1, (
        f"{largest[0]} heap entries for {lazy_evals} lazy evaluations"
    )
