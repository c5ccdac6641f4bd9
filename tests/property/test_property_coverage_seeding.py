"""Vectorized CELF heap seeding against the per-node seeding it replaced.

``weighted_max_coverage`` computes every initial gain as
``q_u * deg_H(u)`` in one vector expression and leaves zero-gain
candidates out of the heap.  The oracle below is the lazy greedy as it
was written before: one ``gain_of`` call per candidate, every candidate
pushed.  Both read the same floats in the same order, so seeds, gains
and ``covered`` must agree exactly, not within a tolerance.
"""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rrset.coverage import weighted_max_coverage
from repro.rrset.hypergraph import RRHypergraph


def per_node_celf(hypergraph, node_probs, k, candidates=None):
    """The per-node CELF seeding, kept as the reference implementation."""
    node_probs = np.asarray(node_probs, dtype=np.float64)
    if candidates is None:
        candidates = np.arange(hypergraph.num_nodes, dtype=np.int64)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)

    def gain_of(node):
        edges = hypergraph.incident_edges(node)
        if edges.size == 0:
            return 0.0
        return float(node_probs[node] * survival[edges].sum())

    heap = [(-gain_of(int(u)), -1, int(u)) for u in candidates]
    heapq.heapify(heap)
    seeds, gains = [], []
    round_index = 0
    selected = np.zeros(hypergraph.num_nodes, dtype=bool)
    while len(seeds) < k and heap:
        neg_gain, stamp, node = heapq.heappop(heap)
        if selected[node]:
            continue
        if stamp != round_index:
            heapq.heappush(heap, (-gain_of(node), round_index, node))
            continue
        gain = -neg_gain
        if gain <= 0.0:
            break
        seeds.append(node)
        gains.append(gain)
        selected[node] = True
        survival[hypergraph.incident_edges(node)] *= 1.0 - node_probs[node]
        round_index += 1
    return seeds, gains, float((1.0 - survival).sum())


# A few repeated values make tied gains common; 0.0 makes q=0 nodes.
probability = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def coverage_instances(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    # Node n-1 often appears in no hyper-edge (deg_H = 0); theta may be 0.
    members = st.integers(min_value=0, max_value=max(n - 2, 0))
    edges = draw(
        st.lists(st.lists(members, min_size=1, max_size=n, unique=True), max_size=25)
    )
    probs = draw(st.lists(probability, min_size=n, max_size=n))
    candidates = draw(
        st.none()
        | st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n)
    )
    k = draw(st.integers(min_value=0, max_value=n + 3))
    return RRHypergraph(n, edges), np.asarray(probs), k, candidates


@settings(max_examples=300, deadline=None)
@given(instance=coverage_instances())
def test_vectorized_seeding_matches_per_node_celf(instance):
    hypergraph, probs, k, candidates = instance
    result = weighted_max_coverage(hypergraph, probs, k, candidates=candidates)
    seeds, gains, covered = per_node_celf(hypergraph, probs, k, candidates)
    assert result.seeds == seeds
    assert result.gains == gains
    assert result.covered == covered
