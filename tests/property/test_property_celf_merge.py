"""The merged CELF queue against the heap of every candidate it replaced.

``weighted_max_coverage`` reads the untouched (stale) candidates from one
stream sorted in heap-tuple order (a sorted prefix, then the rest sorted
only if reached) and pushes only re-evaluated entries onto a heap,
popping the smaller of the two heads at each step.  The
oracle (:func:`tests.rrset.reference_kernels.reference_weighted_max_coverage`)
heapifies one ``(-gain, -1, node)`` tuple per positive-gain candidate.
Both pop the minimum of the same multiset at every step, so seeds,
gains, ``covered``, ``spread_estimate`` and both ``coverage.*`` counters
must agree exactly, not within a tolerance.

The instances force the cases where an order could leak: equal
``q * deg_H`` on different nodes, ``q = 0`` nodes, nodes in no
hyper-edge, ``k`` above the number of positive-gain candidates, and a
``candidates=`` array in shuffled order, duplicates included.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, observe
from repro.rrset import coverage
from repro.rrset.coverage import weighted_max_coverage
from repro.rrset.hypergraph import RRHypergraph

from tests.rrset.reference_kernels import reference_weighted_max_coverage

COUNTERS = ("coverage.heap_seeded_total", "coverage.lazy_evals_total")

# Few distinct values make equal q * deg_H common; 0.0 makes q = 0 nodes.
probability = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def tied_instances(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    # Node n-1 is in no hyper-edge; theta may be 0.
    members = st.integers(min_value=0, max_value=n - 2)
    edges = draw(
        st.lists(st.lists(members, min_size=1, max_size=n - 1, unique=True), max_size=30)
    )
    probs = draw(st.lists(probability, min_size=n, max_size=n))
    # Force ties: give each twin the same q and pad the one with the
    # smaller degree with singleton edges until both degrees match, so
    # their initial gains q * deg_H are equal.
    twins = draw(
        st.lists(st.tuples(members, members).filter(lambda t: t[0] != t[1]), max_size=3)
    )
    for a, b in twins:
        probs[b] = probs[a]
        degree = np.bincount(
            np.fromiter((u for edge in edges for u in edge), dtype=np.int64),
            minlength=n,
        )
        low, high = (a, b) if degree[a] < degree[b] else (b, a)
        edges.extend([[low]] * int(degree[high] - degree[low]))
    candidates = draw(
        st.none()
        | st.permutations(range(n)).flatmap(
            lambda perm: st.integers(0, n).flatmap(
                lambda cut: st.lists(st.sampled_from(perm), max_size=3).map(
                    lambda dups: list(perm[:cut]) + dups
                )
            )
        )
    )
    k = draw(st.integers(min_value=0, max_value=n + 5))
    return RRHypergraph(n, edges), np.asarray(probs), k, candidates


def _run(solver, hypergraph, probs, k, candidates):
    metrics = MetricsRegistry()
    with observe(metrics=metrics, merge_up=False):
        result = solver(hypergraph, probs, k, candidates=candidates)
    counters = metrics.snapshot()["counters"]
    return result, tuple(counters.get(name, 0) for name in COUNTERS)


@settings(max_examples=400, deadline=None)
@given(instance=tied_instances(), prefix=st.sampled_from([1, 2, 3, 5, 4096]))
def test_merged_queue_matches_heap_of_every_candidate(instance, prefix):
    # A small sorted prefix sends most pops through the deferred sort of
    # the remainder, with ties at the cut.
    hypergraph, probs, k, candidates = instance
    with mock.patch.object(coverage, "_SORTED_PREFIX", prefix):
        result, counters = _run(weighted_max_coverage, hypergraph, probs, k, candidates)
    expected, expected_counters = _run(
        reference_weighted_max_coverage, hypergraph, probs, k, candidates
    )
    assert result.seeds == expected.seeds
    assert result.gains == expected.gains
    assert result.covered == expected.covered
    assert result.spread_estimate == expected.spread_estimate
    assert counters == expected_counters


def test_tied_gains_resolve_by_node_id_whatever_the_candidate_order():
    # Nodes 0..5 all have q * deg_H = 1 and share no hyper-edge, so every
    # round ties; the merged queue must pick them in node order, as the
    # heap of (-gain, stamp, node) tuples does.
    hypergraph = RRHypergraph(6, [[u] for u in range(6)])
    probs = np.ones(6)
    for candidates in ([5, 3, 1, 0, 2, 4], [4, 5, 0, 1, 2, 3, 3]):
        result, counters = _run(weighted_max_coverage, hypergraph, probs, 4, candidates)
        expected, expected_counters = _run(
            reference_weighted_max_coverage, hypergraph, probs, 4, candidates
        )
        assert result.seeds == expected.seeds == [0, 1, 2, 3]
        assert counters == expected_counters
