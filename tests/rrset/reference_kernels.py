"""Pre-vectorization reference kernels, kept verbatim for regression use.

This module preserves the original (pre-kernel-overhaul) implementations
of the RR-hypergraph hot paths:

* :class:`ReferenceObjective` — the Theorem-9 objective with a per-edge
  Python ``rebuild`` loop, an O(theta) full scan inside every ``value()``
  call, per-call ``intersect1d``/``setdiff1d`` pair topology, and the
  whole-stream ``gradient()`` (member-stream-sized temporaries and one
  ``bincount``) that the blocked kernel replaced.
* :func:`reference_coverage` — the Python-set ``deg_H(S)`` computation.
* :func:`reference_weighted_max_coverage` — the CELF greedy that heapifies
  a ``(-gain, -1, node)`` tuple for every positive-gain candidate, which
  the sorted-stream-plus-heap merge in :mod:`repro.rrset.coverage` replaced.
* :func:`reference_csr_build` — the per-edge CSR assignment loop of the
  original ``RRHypergraph.__init__``.

They are the test tree's oracle and must not gain optimizations:

1. **Bit-exact regression pinning.**  The vectorized kernels in
   :mod:`repro.rrset.estimator` / :mod:`repro.rrset.hypergraph` promise
   byte-identical outputs; ``tests/core/test_cd_kernel_regression.py``
   runs full coordinate-descent through both implementations and compares
   every ``round_values`` float and the final configuration bit for bit.
2. **Benchmark baselines.**  ``benchmarks/test_cd_kernel.py`` times each
   reference kernel against its vectorized replacement and reports the
   speedups in ``BENCH_cd.json``.

The only additions over the historical code are ``repro.obs`` counters
(``objective.full_scans_total`` etc.), which never touch the arithmetic,
so op-count comparisons against the new kernels are apples to apples.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.obs.context import get_metrics
from repro.rrset.coverage import CoverageResult
from repro.rrset.estimator import PairCoefficients
from repro.rrset.hypergraph import RRHypergraph

__all__ = [
    "ReferenceObjective",
    "reference_coverage",
    "reference_csr_build",
    "reference_weighted_max_coverage",
]

_ONE_TOLERANCE = 1e-12
_SAFE_DIVIDE_TOLERANCE = 1e-6


class ReferenceObjective:
    """The original incrementally-factored, full-scan-valued objective.

    API-compatible with :class:`repro.rrset.estimator.HypergraphObjective`
    for every method the solvers call (``value``, ``set_probability``,
    ``set_probabilities``, ``pair_coefficients``, ``coordinate_value``,
    ``gradient_coordinate``, ``gradient``, ``rebuild``), so it can be passed to
    :func:`repro.core.cd_hypergraph.coordinate_descent_hypergraph` as its
    ``objective=``.
    """

    def __init__(self, hypergraph: RRHypergraph, seed_probabilities: np.ndarray) -> None:
        self.hypergraph = hypergraph
        probs = np.array(seed_probabilities, dtype=np.float64, copy=True)
        if probs.shape != (hypergraph.num_nodes,):
            raise EstimationError(
                f"seed_probabilities must have length n={hypergraph.num_nodes}, "
                f"got {probs.shape}"
            )
        if np.any(probs < 0.0) or np.any(probs > 1.0) or np.any(np.isnan(probs)):
            raise EstimationError("seed probabilities must lie in [0, 1]")
        self._probs = probs
        self._zero_count = np.zeros(hypergraph.num_hyperedges, dtype=np.int64)
        self._nonzero_prod = np.ones(hypergraph.num_hyperedges, dtype=np.float64)
        self.rebuild()

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs.copy()

    def probability(self, node: int) -> float:
        return float(self._probs[node])

    def rebuild(self) -> None:
        """The historical per-edge Python recompute loop."""
        hg = self.hypergraph
        self._zero_count[:] = 0
        self._nonzero_prod[:] = 1.0
        one_minus = 1.0 - self._probs
        is_zero = one_minus <= _ONE_TOLERANCE
        for edge_id in range(hg.num_hyperedges):
            members = hg.hyperedge(edge_id)
            zero_members = is_zero[members]
            self._zero_count[edge_id] = int(zero_members.sum())
            live = members[~zero_members]
            if live.size:
                self._nonzero_prod[edge_id] = float(np.prod(one_minus[live]))
        get_metrics().inc("objective.rebuilds_total")

    def _survival(self, edge_ids: np.ndarray) -> np.ndarray:
        return np.where(self._zero_count[edge_ids] > 0, 0.0, self._nonzero_prod[edge_ids])

    def value(self) -> float:
        """Full O(theta) scan on *every* call — the pre-change hot spot."""
        hg = self.hypergraph
        if hg.num_hyperedges == 0:
            raise EstimationError("hyper-graph has no hyper-edges")
        survival = np.where(self._zero_count > 0, 0.0, self._nonzero_prod)
        covered = float((1.0 - survival).sum())
        get_metrics().inc("objective.full_scans_total")
        return hg.num_nodes * covered / hg.num_hyperedges

    def set_probability(self, node: int, q_new: float) -> None:
        if not 0.0 <= q_new <= 1.0:
            raise EstimationError(f"seed probability must lie in [0, 1], got {q_new}")
        q_old = float(self._probs[node])
        if q_old == q_new:
            return
        edges = self.hypergraph.incident_edges(node)
        old_factor = 1.0 - q_old
        new_factor = 1.0 - q_new
        if old_factor <= _ONE_TOLERANCE:
            self._zero_count[edges] -= 1
        else:
            self._nonzero_prod[edges] /= old_factor
        if new_factor <= _ONE_TOLERANCE:
            self._zero_count[edges] += 1
        else:
            self._nonzero_prod[edges] *= new_factor
        self._probs[node] = q_new

    def set_probabilities(self, probs: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != self._probs.shape:
            raise EstimationError("probability vector has wrong length")
        if np.any(probs < 0.0) or np.any(probs > 1.0) or np.any(np.isnan(probs)):
            raise EstimationError("seed probabilities must lie in [0, 1]")
        self._probs = probs.copy()
        self.rebuild()

    def _survival_excluding(self, edge_ids: np.ndarray, nodes: Tuple[int, ...]) -> np.ndarray:
        zero_counts = self._zero_count[edge_ids].copy()
        base = self._nonzero_prod[edge_ids].copy()
        for node in nodes:
            factor = 1.0 - float(self._probs[node])
            if factor <= _ONE_TOLERANCE:
                zero_counts -= 1
            else:
                base /= factor
        return np.where(zero_counts > 0, 0.0, base)

    def pair_coefficients(self, i: int, j: int) -> PairCoefficients:
        """Per-call set-op topology + full-scan ``value()`` (the old cost)."""
        if i == j:
            raise EstimationError("pair coordinates must be distinct")
        hg = self.hypergraph
        edges_i = hg.incident_edges(i)
        edges_j = hg.incident_edges(j)
        shared = np.intersect1d(edges_i, edges_j, assume_unique=True)
        only_i = np.setdiff1d(edges_i, shared, assume_unique=True)
        only_j = np.setdiff1d(edges_j, shared, assume_unique=True)

        s_i = float(self._survival_excluding(only_i, (i,)).sum()) if only_i.size else 0.0
        s_j = float(self._survival_excluding(only_j, (j,)).sum()) if only_j.size else 0.0
        s_ij = float(self._survival_excluding(shared, (i, j)).sum()) if shared.size else 0.0

        scale = hg.num_nodes / hg.num_hyperedges
        q_i, q_j = float(self._probs[i]), float(self._probs[j])
        touched_covered = (
            only_i.size - (1.0 - q_i) * s_i
            + only_j.size - (1.0 - q_j) * s_j
            + shared.size - (1.0 - q_i) * (1.0 - q_j) * s_ij
        )
        base = self.value() - scale * touched_covered
        get_metrics().inc("objective.pair_coefficients_total")
        return PairCoefficients(
            scale=scale,
            base=base,
            count_i=int(only_i.size),
            count_j=int(only_j.size),
            count_ij=int(shared.size),
            s_i=s_i,
            s_j=s_j,
            s_ij=s_ij,
        )

    def coordinate_value(self, node: int, q_candidate: float) -> float:
        edges = self.hypergraph.incident_edges(node)
        excl = self._survival_excluding(edges, (node,)) if edges.size else np.empty(0)
        current = self._survival(edges) if edges.size else np.empty(0)
        delta_covered = float((current - (1.0 - q_candidate) * excl).sum())
        scale = self.hypergraph.num_nodes / self.hypergraph.num_hyperedges
        return self.value() + scale * delta_covered

    def gradient_coordinate(self, node: int) -> float:
        edges = self.hypergraph.incident_edges(node)
        if edges.size == 0:
            return 0.0
        excl = self._survival_excluding(edges, (node,))
        scale = self.hypergraph.num_nodes / self.hypergraph.num_hyperedges
        return scale * float(excl.sum())

    def gradient(self, curve_derivatives=None) -> np.ndarray:
        """The whole-stream gradient: every temporary is as long as the
        member stream, and one ``bincount`` accumulates it."""
        hg = self.hypergraph
        if hg.num_hyperedges == 0:
            raise EstimationError("hyper-graph has no hyper-edges")
        n = hg.num_nodes
        stream = hg.edge_nodes
        scale = n / hg.num_hyperedges
        if stream.size == 0:
            grad = np.zeros(n, dtype=np.float64)
        else:
            sizes = np.diff(hg.edge_offsets)
            edge_ids = np.repeat(np.arange(hg.num_hyperedges, dtype=np.int64), sizes)
            factors = (1.0 - self._probs)[stream]
            zero_here = factors <= _ONE_TOLERANCE
            prod = self._nonzero_prod[edge_ids]
            excl = np.empty(stream.size, dtype=np.float64)
            np.divide(prod, factors, out=excl, where=~zero_here)
            excl[zero_here] = prod[zero_here]
            risky = ~zero_here & (factors <= _SAFE_DIVIDE_TOLERANCE)
            if np.any(risky):
                offsets = hg.edge_offsets
                for pos in np.nonzero(risky)[0]:
                    edge = int(edge_ids[pos])
                    seg = factors[offsets[edge] : offsets[edge + 1]]
                    keep = seg > _ONE_TOLERANCE
                    keep[int(pos) - int(offsets[edge])] = False
                    excl[pos] = float(np.prod(seg[keep]))
            zero_others = self._zero_count[edge_ids] - zero_here.astype(np.int64)
            excl[zero_others > 0] = 0.0
            grad = scale * np.bincount(stream, weights=excl, minlength=n)
        if curve_derivatives is not None:
            slopes = np.asarray(curve_derivatives, dtype=np.float64)
            if slopes.shape != (n,):
                raise EstimationError(
                    f"curve_derivatives must have length n={n}, got {slopes.shape}"
                )
            grad = grad * slopes
        return grad


def reference_coverage(hypergraph: RRHypergraph, seeds: Sequence[int]) -> int:
    """``deg_H(S)`` via the original Python-set union."""
    covered: set = set()
    for node in seeds:
        covered.update(hypergraph.incident_edges(int(node)).tolist())
    return len(covered)


def reference_weighted_max_coverage(
    hypergraph: RRHypergraph,
    node_probs: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
) -> CoverageResult:
    """CELF with every positive-gain candidate heapified up front.

    Input validation is left to the library function; callers pass
    valid input.  Records the same ``coverage.*`` counters.
    """
    node_probs = np.asarray(node_probs, dtype=np.float64)
    if candidates is None:
        candidates = np.arange(hypergraph.num_nodes, dtype=np.int64)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    node_offsets = np.asarray(hypergraph.node_offsets)
    node_edges = np.asarray(hypergraph.node_edges)
    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)

    def gain_of(node: int) -> float:
        edges = node_edges[node_offsets[node] : node_offsets[node + 1]]
        if edges.size == 0:
            return 0.0
        return float(node_probs[node] * survival[edges].sum())

    initial = node_probs[candidates] * hypergraph.degrees()[candidates]
    positive = initial > 0.0
    heap = list(
        zip((-initial[positive]).tolist(), repeat(-1), candidates[positive].tolist())
    )
    heapq.heapify(heap)
    seeded = len(heap)

    seeds: List[int] = []
    gains: List[float] = []
    round_index = 0
    lazy_evals = 0
    selected = np.zeros(hypergraph.num_nodes, dtype=bool)
    while len(seeds) < k and heap:
        neg_gain, stamp, node = heapq.heappop(heap)
        if selected[node]:
            continue
        if stamp != round_index:
            fresh = gain_of(node)
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


def reference_csr_build(
    num_nodes: int, rr_sets: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The original per-edge CSR assignment loop (edge_offsets, edge_nodes)."""
    sizes = np.fromiter((len(h) for h in rr_sets), dtype=np.int64, count=len(rr_sets))
    edge_offsets = np.zeros(len(rr_sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=edge_offsets[1:])
    total = int(edge_offsets[-1])
    edge_nodes = np.empty(total, dtype=np.int32)
    for i, h in enumerate(rr_sets):
        members = np.asarray(h, dtype=np.int32)
        if members.size and (members.min() < 0 or members.max() >= num_nodes):
            raise EstimationError(f"hyper-edge {i} contains out-of-range node")
        edge_nodes[edge_offsets[i] : edge_offsets[i + 1]] = members
    return edge_offsets, edge_nodes
