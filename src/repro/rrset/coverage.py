"""Maximum-coverage seed selection on the RR hyper-graph.

Two variants share a lazy-greedy (CELF) engine:

* :func:`max_coverage` — classic set cover: pick ``k`` nodes maximizing the
  number of hyper-edges hit (the discrete-IM step 2 of Section 8).
* :func:`weighted_max_coverage` — probabilistic cover used by the Unified
  Discount algorithm: node ``u`` "hits" an incident hyper-edge only with
  probability ``q_u = p_u(c)``, so the objective is
  ``sum_h [1 - prod_{u in h ∩ S} (1 - q_u)]``, which Theorem 8 shows is
  monotone and submodular — hence lazy greedy attains ``1 - 1/e``.

The unweighted variant is exactly the weighted one at ``q ≡ 1``; it is kept
as a thin wrapper so call sites read naturally.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, List, Tuple

import numpy as np

from repro.exceptions import SolverError
from repro.obs.context import get_metrics
from repro.rrset.hypergraph import RRHypergraph

__all__ = ["CoverageResult", "max_coverage", "weighted_max_coverage"]

#: Stale CELF entries sorted up front; a grid point pops a few thousand.
_SORTED_PREFIX = 4096


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a greedy coverage run.

    Attributes
    ----------
    seeds:
        Selected nodes in selection order.
    gains:
        Marginal (weighted) coverage gain of each selection.
    covered:
        Final objective value ``sum_h (1 - survival_h)``; for the
        unweighted case this is the integer count of covered hyper-edges.
    spread_estimate:
        ``n * covered / theta`` — unbiased spread estimate implied by the
        final coverage.
    """

    seeds: List[int]
    gains: List[float]
    covered: float
    spread_estimate: float


def _stale_entries(neg: np.ndarray, nodes: np.ndarray) -> Iterator[Tuple[float, int, int]]:
    """``(neg, -1, node)`` tuples in ascending order: the best ``_SORTED_PREFIX``
    and every tie at the cut first, the rest sorted only if reached."""
    cut = np.inf
    if neg.size > _SORTED_PREFIX:
        cut = np.partition(neg, _SORTED_PREFIX)[_SORTED_PREFIX]
    for part in (neg <= cut, neg > cut):
        order = np.lexsort((nodes[part], neg[part]))  # gain ties by node id
        yield from zip(neg[part][order].tolist(), repeat(-1), nodes[part][order].tolist())


def weighted_max_coverage(
    hypergraph: RRHypergraph,
    node_probs: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
) -> CoverageResult:
    """Lazy-greedy weighted max coverage.

    Parameters
    ----------
    hypergraph:
        The RR hyper-graph ``H``.
    node_probs:
        Per-node hit probability ``q_u`` in ``[0, 1]`` (for UD this is
        ``p_u(c)`` at the fixed unified discount ``c``).
    k:
        Number of nodes to select (fewer are returned if no candidate has a
        positive gain — adding such nodes cannot help).
    candidates:
        Optional restriction of the selectable nodes.

    Notes
    -----
    Maintains per-hyper-edge *survival* ``r_h = prod_{w in S ∩ h} (1 - q_w)``
    (initially 1); the marginal gain of ``u`` is ``q_u * sum_{h ∋ u} r_h``.
    Lazy evaluation is sound because the objective is submodular (Theorem
    8): a stale upper bound only decreases.
    """
    node_probs = np.asarray(node_probs, dtype=np.float64)
    if node_probs.shape != (hypergraph.num_nodes,):
        raise SolverError(
            f"node_probs must have length n={hypergraph.num_nodes}, got {node_probs.shape}"
        )
    if np.any(node_probs < 0.0) or np.any(node_probs > 1.0) or np.any(np.isnan(node_probs)):
        raise SolverError("node_probs must lie in [0, 1]")
    if k < 0:
        raise SolverError(f"k must be non-negative, got {k}")

    if candidates is None:
        candidates = np.arange(hypergraph.num_nodes, dtype=np.int64)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
        out_of_range = candidates[(candidates < 0) | (candidates >= hypergraph.num_nodes)]
        if out_of_range.size:
            raise IndexError(f"node {int(out_of_range[0])} out of range")

    # Plain views, taken once: per-node slices of a spill-backed
    # hyper-graph's np.memmap attributes would each go through the
    # subclass's Python-level __getitem__.
    node_offsets = np.asarray(hypergraph.node_offsets)
    node_edges = np.asarray(hypergraph.node_edges)
    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)

    # CELF queue of (-gain, stale_round, node).  With survival all ones
    # the gain of u is exactly q_u * deg_H(u), one vector expression; a
    # zero-gain candidate can never be selected, so it is never queued.
    # Untouched (round -1) entries come from one sorted stream, and only
    # re-evaluated ones enter the heap.  Popping the smaller head pops what
    # a heap of every candidate would (a stale tuple never equals a stamped one).
    initial = node_probs[candidates] * hypergraph.degrees()[candidates]
    positive = initial > 0.0
    seeded = int(np.count_nonzero(positive))
    stale = _stale_entries(-initial[positive], candidates[positive])
    head, heap = next(stale, None), []

    seeds: List[int] = []
    gains: List[float] = []
    round_index = 0
    lazy_evals = 0
    selected = np.zeros(hypergraph.num_nodes, dtype=bool)
    while len(seeds) < k and (head is not None or heap):
        if head is not None and (not heap or head < heap[0]):
            neg_gain, stamp, node = head
            head = next(stale, None)
        else:
            neg_gain, stamp, node = heapq.heappop(heap)
        if selected[node]:
            continue
        if stamp != round_index:
            edges = node_edges[node_offsets[node] : node_offsets[node + 1]]
            fresh = float(node_probs[node] * np.add.reduce(survival[edges]))  # as .sum()
            lazy_evals += 1
            heapq.heappush(heap, (-fresh, round_index, node))
            continue
        gain = -neg_gain
        if gain <= 0.0:
            break
        seeds.append(node)
        gains.append(gain)
        selected[node] = True
        edges = node_edges[node_offsets[node] : node_offsets[node + 1]]
        survival[edges] *= 1.0 - node_probs[node]
        round_index += 1

    metrics = get_metrics()
    metrics.inc("coverage.heap_seeded_total", seeded)
    metrics.inc("coverage.lazy_evals_total", lazy_evals)
    covered = float((1.0 - survival).sum())
    theta = hypergraph.num_hyperedges
    spread = hypergraph.num_nodes * covered / theta if theta else 0.0
    return CoverageResult(seeds=seeds, gains=gains, covered=covered, spread_estimate=spread)


def max_coverage(hypergraph: RRHypergraph, k: int) -> CoverageResult:
    """Unweighted lazy-greedy maximum coverage (discrete-IM seed selection)."""
    return weighted_max_coverage(
        hypergraph, np.ones(hypergraph.num_nodes, dtype=np.float64), k
    )
