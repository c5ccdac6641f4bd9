"""Theorem 9: unbiased hyper-graph estimator of ``UI(C)``.

Given a random hyper-graph ``H`` with ``theta`` hyper-edges and a
configuration ``C`` with seed probabilities ``q_u = p_u(c_u)``,

    UI(C)  ≈  n / theta * sum_h [ 1 - prod_{u in h} (1 - q_u) ]

is an unbiased estimator of the expected influence spread.  This module
maintains that sum *incrementally*: the coordinate-descent solver changes
one or two ``q`` values at a time and needs the objective restricted to
those coordinates in closed form (the ``A1..A4`` coefficients of Eq. 9).

Numerical representation
------------------------
A hyper-edge's *survival* ``prod (1 - q_u)`` hits exact zero when any member
has ``q_u = 1`` (a certain seed).  To keep multiplicative updates exact we
store, per hyper-edge, the count of zero factors plus the product of the
non-zero factors; division by ``(1 - q_u)`` is then always well defined.
:meth:`HypergraphObjective.rebuild` recomputes everything from scratch to
wash out float drift after many updates.

Kernel design (see docs/performance.md)
---------------------------------------
Three mechanisms keep the CD pair step at ``O(deg_H)`` instead of
``O(theta)``:

* **Running covered-sum.**  ``sum_h (1 - survival_h)`` is delta-maintained
  by :meth:`set_probability` from the incident-edge survival change, so
  :meth:`running_value` is O(1).  :meth:`value` returns the *exact* scan
  value: it re-scans lazily only when survival state changed since the
  last scan (``objective.full_scans_total`` counts these), caches the
  result, and folds the observed drift of the running sum into the
  ``objective.value_drift`` histogram — so the hot pair loop, which calls
  :meth:`value` between mutations, pays O(1) per call and the returned
  floats are bit-identical to a from-scratch scan at every consumption
  point (the determinism contract of the CD solvers).
* **Streamed member blocks.**  :meth:`rebuild`, :meth:`extend` and
  :meth:`gradient` walk the member stream in runs of whole hyper-edges
  of at most :data:`_BLOCK_MEMBERS` members (an edge longer than that
  runs alone), so their temporaries are O(block), not O(stream); nothing
  stream-sized is cached.  Per block, rebuild is an ``np.add.reduceat`` /
  ``np.multiply.reduceat`` pass over the gathered factors, with zero
  factors masked to exact ``1.0``: bit-identical to the historical
  per-edge ``np.prod`` loop (multiplying by 1.0 is exact, numpy's
  multiply reductions are sequential, and reduceat segments are
  independent, so where blocks end does not matter).  The gradient
  accumulates each block with ``np.add.at``, the same sequential
  per-bin additions in stream order as a whole-stream ``bincount``.  On
  the ca-AstroPh analogue (60,000 hyper-edges, 886,711 members) the
  tracemalloc peak of one call fell from 35.7 to 2.1 MiB (gradient) and
  from 15.0 to 1.3 MiB (rebuild); docs/performance.md has the numbers.
* **Pair-topology cache.**  The ``only_i`` / ``only_j`` / ``shared``
  incident-edge split of :meth:`pair_coefficients` depends only on the
  immutable hyper-graph, and the cyclic CD strategy revisits the same
  pairs every round — so splits are memoized per ordered pair (with
  reversed-pair reuse), bounded by ``topology_cache_limit``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.obs.context import get_metrics
from repro.rrset.hypergraph import RRHypergraph
from repro.utils.spill import empty_array, is_spill_backed

__all__ = ["HypergraphObjective", "PairCoefficients"]

_ONE_TOLERANCE = 1e-12

#: Members per streamed block of the whole-stream kernels: a few float64
#: temporaries of this length bound what one rebuild or gradient call
#: allocates, whatever the size of the member stream.
_BLOCK_MEMBERS = 1 << 16

#: Factors in ``(_ONE_TOLERANCE, _SAFE_DIVIDE_TOLERANCE]`` are too small to
#: divide out of the stored non-zero product without amplifying round-off;
#: the gradient kernel recomputes those edges' products excluding the member
#: instead (the safe ``q_u -> 1`` path).
_SAFE_DIVIDE_TOLERANCE = 1e-6

#: Default bound on memoized pair splits; at 2 int32 arrays of typical CD
#: support degree per entry this caps the cache at tens of MB.  When the
#: limit is hit the cache is cleared wholesale (counted by
#: ``objective.topology_cache_evictions_total``) — cyclic CD working sets
#: are O(|support|^2) and fit far below it.
DEFAULT_TOPOLOGY_CACHE_LIMIT = 1 << 17


def _edge_blocks(
    offsets: np.ndarray, first_edge: int = 0
) -> Iterator[Tuple[int, np.ndarray]]:
    """Split hyper-edges ``first_edge..`` into runs of whole edges.

    A run spans at most :data:`_BLOCK_MEMBERS` members, or is one longer
    edge alone.  Yields each run's first edge id and its ``len + 1``
    member offsets as int64 (signed, whatever the hyper-graph's offset
    dtype); trailing empty edges join the last run.
    """
    last = offsets.size - 1
    total = int(offsets[-1])
    start = first_edge
    while start < last:
        limit = min(int(offsets[start]) + _BLOCK_MEMBERS, total)
        stop = int(np.searchsorted(offsets, limit, side="right")) - 1
        stop = max(stop, start + 1)
        yield start, np.asarray(offsets[start : stop + 1], dtype=np.int64)
        start = stop


def _survival_arrays(hypergraph: RRHypergraph) -> Tuple[np.ndarray, np.ndarray]:
    """Uninitialized ``(zero_count, nonzero_prod)`` on the hyper-graph's
    placement: on a spill-backed hyper-graph these theta-sized arrays land
    in spill files too, and every update writes them in place."""
    backing = "mmap" if is_spill_backed(hypergraph.edge_nodes) else None
    size = hypergraph.num_hyperedges
    return (
        empty_array(size, np.int64, backing=backing, name_hint="zero-count"),
        empty_array(size, np.float64, backing=backing, name_hint="nonzero-prod"),
    )


class PairCoefficients:
    """Closed-form restriction of the objective to coordinates ``(i, j)``.

    With all other coordinates fixed, the hyper-graph objective as a
    function of the two seed probabilities ``(q_i, q_j)`` is::

        value(q_i, q_j) = base
                        + scale * (s_i_only * (1 - (1-q_i))          # edges with i only
                        ... equivalently:
        covered(q_i, q_j) = covered_rest
                          + sum_{h ∋ i, ∌ j} [1 - (1-q_i) * excl_h]
                          + sum_{h ∌ i, ∋ j} [1 - (1-q_j) * excl_h]
                          + sum_{h ∋ i, ∋ j} [1 - (1-q_i)(1-q_j) * excl_h]

    which this class stores as the three survival sums ``s_i``, ``s_j``,
    ``s_ij`` (each already excluding the contribution of i and/or j), the
    number of incident edges per group, and the scale ``n / theta``.
    """

    __slots__ = ("scale", "base", "count_i", "count_j", "count_ij", "s_i", "s_j", "s_ij")

    def __init__(
        self,
        scale: float,
        base: float,
        count_i: int,
        count_j: int,
        count_ij: int,
        s_i: float,
        s_j: float,
        s_ij: float,
    ) -> None:
        self.scale = scale
        self.base = base
        self.count_i = count_i
        self.count_j = count_j
        self.count_ij = count_ij
        self.s_i = s_i
        self.s_j = s_j
        self.s_ij = s_ij

    def value(self, q_i: float, q_j: float) -> float:
        """Objective value if the pair took seed probabilities ``(q_i, q_j)``."""
        covered = (
            self.count_i - (1.0 - q_i) * self.s_i
            + self.count_j - (1.0 - q_j) * self.s_j
            + self.count_ij - (1.0 - q_i) * (1.0 - q_j) * self.s_ij
        )
        return self.base + self.scale * covered

    def value_vectorized(self, q_i: np.ndarray, q_j: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` over candidate arrays."""
        q_i = np.asarray(q_i, dtype=np.float64)
        q_j = np.asarray(q_j, dtype=np.float64)
        covered = (
            self.count_i - (1.0 - q_i) * self.s_i
            + self.count_j - (1.0 - q_j) * self.s_j
            + self.count_ij - (1.0 - q_i) * (1.0 - q_j) * self.s_ij
        )
        return self.base + self.scale * covered


class HypergraphObjective:
    """Incrementally maintained Theorem-9 estimate of ``UI(C)``."""

    def __init__(
        self,
        hypergraph: RRHypergraph,
        seed_probabilities: np.ndarray,
        topology_cache_limit: int = DEFAULT_TOPOLOGY_CACHE_LIMIT,
    ) -> None:
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
        self._zero_count, self._nonzero_prod = _survival_arrays(hypergraph)
        self._covered_sum = 0.0
        self._scan_stale = False
        self._topology_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._topology_cache_limit = int(topology_cache_limit)
        self.rebuild()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def probabilities(self) -> np.ndarray:
        """Copy of the current per-node seed probabilities."""
        return self._probs.copy()

    def probability(self, node: int) -> float:
        """Current seed probability of ``node``."""
        return float(self._probs[node])

    def rebuild(self) -> None:
        """Recompute all per-edge survival state from scratch, vectorized.

        Also resynchronizes the running covered-sum exactly, washing out
        any incremental float drift.
        """
        self._fill_survival(0)
        self._covered_sum = self._scan_covered()
        self._scan_stale = False
        get_metrics().inc("objective.rebuilds_total")

    def _fill_survival(self, first_edge: int) -> None:
        """Write the survival state of hyper-edges ``first_edge..`` in place.

        One ``reduceat`` pass per member block replaces the historical
        per-edge Python loop, bit for bit (zero factors are masked to
        exact 1.0, numpy multiply reductions are sequential, and segments
        are independent).  Only the starts of non-empty edges reach
        reduceat: an empty edge's start may equal the block's length (a
        trailing one), and clipping it in bounds would steal an element
        from the neighboring segment; empty edges keep the neutral
        ``(0, 1.0)`` state.
        """
        one_minus = 1.0 - self._probs
        stream = np.asarray(self.hypergraph.edge_nodes)
        for first, offsets in _edge_blocks(
            np.asarray(self.hypergraph.edge_offsets), first_edge
        ):
            factors = one_minus[stream[offsets[0] : offsets[-1]]]
            zero = factors <= _ONE_TOLERANCE
            nonempty = np.diff(offsets) > 0
            starts = offsets[:-1][nonempty] - offsets[0]
            zero_count = self._zero_count[first : first + nonempty.size]
            nonzero_prod = self._nonzero_prod[first : first + nonempty.size]
            zero_count[:] = 0
            nonzero_prod[:] = 1.0
            if zero.any():
                factors[zero] = 1.0
                zero_count[nonempty] = np.add.reduceat(zero, starts, dtype=np.int64)
            nonzero_prod[nonempty] = np.multiply.reduceat(factors, starts)

    def _scan_covered(self) -> float:
        """Exact full pass: ``sum_h (1 - survival_h)`` over all edges."""
        survival = np.where(self._zero_count > 0, 0.0, self._nonzero_prod)
        get_metrics().inc("objective.full_scans_total")
        return float((1.0 - survival).sum())

    def _survival(self, edge_ids: np.ndarray) -> np.ndarray:
        """Survival ``prod (1 - q_u)`` of the given hyper-edges."""
        out = np.where(self._zero_count[edge_ids] > 0, 0.0, self._nonzero_prod[edge_ids])
        return out

    def value(self) -> float:
        """Current estimate ``n/theta * sum_h (1 - survival_h)``.

        O(1) while the survival state is unchanged since the last scan;
        after an update the next call performs one exact full scan (an
        ``objective.full_scans_total`` tick), records how far the
        delta-maintained running sum drifted from it
        (``objective.value_drift``), and adopts the exact sum — so every
        returned value equals a from-scratch scan bit for bit.
        """
        hg = self.hypergraph
        if hg.num_hyperedges == 0:
            raise EstimationError("hyper-graph has no hyper-edges")
        if self._scan_stale:
            running = self._covered_sum
            self._covered_sum = self._scan_covered()
            self._scan_stale = False
            get_metrics().observe(
                "objective.value_drift", abs(self._covered_sum - running)
            )
        return hg.num_nodes * self._covered_sum / hg.num_hyperedges

    def running_value(self) -> float:
        """O(1) delta-maintained estimate; never triggers a scan.

        May drift from :meth:`value` by accumulated floating-point
        round-off (washed out by every scan and by :meth:`rebuild`); the
        property suite pins the drift below 1e-9 over long random update
        sequences.
        """
        hg = self.hypergraph
        if hg.num_hyperedges == 0:
            raise EstimationError("hyper-graph has no hyper-edges")
        return hg.num_nodes * self._covered_sum / hg.num_hyperedges

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def set_probability(self, node: int, q_new: float) -> None:
        """Update coordinate ``node`` to seed probability ``q_new``.

        O(deg_H(node)): only incident hyper-edges are touched.  The
        running covered-sum absorbs the incident survival delta, so no
        full pass happens here.
        """
        if not 0.0 <= q_new <= 1.0:
            raise EstimationError(f"seed probability must lie in [0, 1], got {q_new}")
        q_old = float(self._probs[node])
        if q_old == q_new:
            return
        edges = self.hypergraph.incident_edges(node)
        if edges.size == 0:
            self._probs[node] = q_new
            return
        # Incident edges are unique: gather once, update, scatter back once.
        zero_count = self._zero_count[edges]
        nonzero_prod = self._nonzero_prod[edges]
        old_survival = np.where(zero_count > 0, 0.0, nonzero_prod)
        old_zero = 1.0 - q_old <= _ONE_TOLERANCE
        new_zero = 1.0 - q_new <= _ONE_TOLERANCE
        if old_zero:
            zero_count -= 1
        else:
            nonzero_prod /= 1.0 - q_old
        if new_zero:
            zero_count += 1
        else:
            nonzero_prod *= 1.0 - q_new
        if old_zero or new_zero:
            self._zero_count[edges] = zero_count
        self._nonzero_prod[edges] = nonzero_prod
        new_survival = np.where(zero_count > 0, 0.0, nonzero_prod)
        # covered = theta - sum(survival): survival shrinking raises it.
        self._covered_sum += float(old_survival.sum()) - float(new_survival.sum())
        self._scan_stale = True
        self._probs[node] = q_new
        get_metrics().inc("objective.incremental_updates_total")

    def extend(self, hypergraph: RRHypergraph) -> None:
        """Rebind to ``hypergraph``, a superset of the current hyper-graph,
        computing survival state for the *new* hyper-edges only.

        ``hypergraph`` must extend the current one as a prefix (what
        :meth:`RRHypergraph.extend` produces).  The appended edges' zero
        counts and non-zero products come from the rebuild kernel run
        over the suffix of the member stream — identical, edge for edge,
        to what a full :meth:`rebuild` on the extended graph would
        compute, because reduceat segments are independent.  The grown
        state arrays follow the extended hyper-graph's placement, as in
        the constructor.  The running covered-sum absorbs the new edges'
        coverage and the scan cache is invalidated, so the next
        :meth:`value` performs one exact full scan and is bit-identical
        to a freshly built objective.  Cost is ``O(new members)`` plus
        array copies — no O(total) recompute.

        The pair-topology cache is cleared: new hyper-edges change
        incident-edge splits.
        """
        old = self.hypergraph
        if hypergraph is old:
            return
        if hypergraph.num_nodes != old.num_nodes:
            raise EstimationError(
                "extended hyper-graph is over a different node set "
                f"({hypergraph.num_nodes} != {old.num_nodes})"
            )
        old_m = old.num_hyperedges
        if hypergraph.num_hyperedges < old_m or not np.array_equal(
            hypergraph.edge_offsets[: old_m + 1], old.edge_offsets
        ):
            raise EstimationError(
                "extended hyper-graph does not contain the current one as a prefix"
            )
        added = hypergraph.num_hyperedges - old_m

        zero_count, nonzero_prod = _survival_arrays(hypergraph)
        zero_count[:old_m] = self._zero_count
        nonzero_prod[:old_m] = self._nonzero_prod
        self._zero_count, self._nonzero_prod = zero_count, nonzero_prod
        self.hypergraph = hypergraph
        self._fill_survival(old_m)
        # covered = sum (1 - survival); new edges only add their own term.
        survival_tail = self._survival(slice(old_m, None))
        self._covered_sum += float((1.0 - survival_tail).sum())
        self._scan_stale = True
        self._topology_cache.clear()
        metrics = get_metrics()
        metrics.inc("objective.extends_total")
        metrics.inc("objective.extended_hyperedges_total", added)

    def set_probabilities(self, probs: np.ndarray) -> None:
        """Replace the whole probability vector and rebuild survival state."""
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != self._probs.shape:
            raise EstimationError("probability vector has wrong length")
        if np.any(probs < 0.0) or np.any(probs > 1.0) or np.any(np.isnan(probs)):
            raise EstimationError("seed probabilities must lie in [0, 1]")
        self._probs = probs.copy()
        self.rebuild()

    # ------------------------------------------------------------------
    # coordinate restrictions (the CD inner loop)
    # ------------------------------------------------------------------
    def _survival_excluding(self, edge_ids: np.ndarray, nodes: Tuple[int, ...]) -> np.ndarray:
        """Per-edge survival with the factors of ``nodes`` divided out.

        Every edge in ``edge_ids`` must actually contain all of ``nodes``.
        """
        zero_counts = self._zero_count[edge_ids]
        base = self._nonzero_prod[edge_ids]
        for node in nodes:
            factor = 1.0 - float(self._probs[node])
            if factor <= _ONE_TOLERANCE:
                zero_counts -= 1
            else:
                base /= factor
        return np.where(zero_counts > 0, 0.0, base)

    def pair_topology(
        self, i: int, j: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memoized ``(only_i, only_j, shared)`` incident-edge split.

        Pure hyper-graph topology, independent of the probability vector,
        so entries stay valid for the objective's lifetime; a reversed
        pair reuses the forward entry with the groups swapped.  The
        returned arrays are marked read-only — they back the cache (and
        the reversed pair's entry), so a write would silently corrupt
        every future ``pair_coefficients`` for the pair.
        """
        cache = self._topology_cache
        metrics = get_metrics()
        entry = cache.get((i, j))
        if entry is not None:
            metrics.inc("objective.topology_cache_hits_total")
            return entry
        reverse = cache.get((j, i))
        if reverse is not None:
            metrics.inc("objective.topology_cache_hits_total")
            return reverse[1], reverse[0], reverse[2]
        hg = self.hypergraph
        edges_i = hg.incident_edges(i)
        edges_j = hg.incident_edges(j)
        shared = np.intersect1d(edges_i, edges_j, assume_unique=True)
        only_i = np.setdiff1d(edges_i, shared, assume_unique=True)
        only_j = np.setdiff1d(edges_j, shared, assume_unique=True)
        for arr in (only_i, only_j, shared):
            arr.flags.writeable = False
        if len(cache) >= self._topology_cache_limit:
            cache.clear()
            metrics.inc("objective.topology_cache_evictions_total")
        cache[(i, j)] = (only_i, only_j, shared)
        metrics.inc("objective.topology_cache_misses_total")
        return only_i, only_j, shared

    def pair_coefficients(self, i: int, j: int) -> PairCoefficients:
        """Closed-form objective restriction to coordinates ``(i, j)``.

        This plays the role of the ``A1..A4`` coefficients of Eq. 9-10:
        all hyper-edges not touching ``i`` or ``j`` contribute a constant,
        while touching edges contribute terms linear in ``(1 - q_i)``,
        ``(1 - q_j)`` and their product.

        Cost is ``O(deg_H(i) + deg_H(j))``: the topology split comes from
        the pair cache and the total-value term from the cached scan —
        the pair path performs zero O(theta) work.
        """
        if i == j:
            raise EstimationError("pair coordinates must be distinct")
        hg = self.hypergraph
        only_i, only_j, shared = self.pair_topology(i, j)

        s_i = float(self._survival_excluding(only_i, (i,)).sum()) if only_i.size else 0.0
        s_j = float(self._survival_excluding(only_j, (j,)).sum()) if only_j.size else 0.0
        s_ij = float(self._survival_excluding(shared, (i, j)).sum()) if shared.size else 0.0

        scale = hg.num_nodes / hg.num_hyperedges
        # Contribution of all *other* edges = total value minus the current
        # contribution of the touched edges.
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
        """Objective value if coordinate ``node`` took ``q_candidate``.

        Does not mutate state; costs ``O(deg_H(node))``.
        """
        edges = self.hypergraph.incident_edges(node)
        excl = self._survival_excluding(edges, (node,)) if edges.size else np.empty(0)
        current = self._survival(edges) if edges.size else np.empty(0)
        delta_covered = float((current - (1.0 - q_candidate) * excl).sum())
        scale = self.hypergraph.num_nodes / self.hypergraph.num_hyperedges
        return self.value() + scale * delta_covered

    def gradient_coordinate(self, node: int) -> float:
        """Partial derivative of the estimate w.r.t. ``q_node``.

        By Eq. 6 the objective is linear in each ``q_u``; the slope is the
        scaled sum of incident-edge survivals excluding ``u`` — the
        hyper-graph analogue of
        ``sum_S Pr[S; V-u, C] (I(S+u) - I(S))``.
        """
        edges = self.hypergraph.incident_edges(node)
        if edges.size == 0:
            return 0.0
        excl = self._survival_excluding(edges, (node,))
        scale = self.hypergraph.num_nodes / self.hypergraph.num_hyperedges
        return scale * float(excl.sum())

    def gradient(self, curve_derivatives: Optional[np.ndarray] = None) -> np.ndarray:
        """Full gradient vector of the estimate, all coordinates at once.

        Without ``curve_derivatives`` this is the q-space gradient
        ``∂UI/∂q_u = (n/theta) * sum_{h ∋ u} survival_{h \\ u}`` — exactly
        :meth:`gradient_coordinate` for every node, but computed in one
        vectorized pass over the member stream (``O(sum_h |h|)``, one
        member block at a time) instead of ``n`` incident-edge loops.
        With ``curve_derivatives`` (the per-node slopes ``p'_u(c_u)``)
        the chain rule maps it to c-space:
        ``∂UI/∂c_u = ∂UI/∂q_u * p'_u(c_u)``.

        The survival of an edge excluding one member comes from the
        delta-maintained ``(zero_count, nonzero_prod)`` state — no full
        survival scan happens here:

        * member factor ``1-q_u`` exactly zero (``q_u = 1``): the stored
          non-zero product already excludes it, so it is used directly;
        * factor below :data:`_SAFE_DIVIDE_TOLERANCE` but non-zero
          (``q_u -> 1``): dividing the product by the tiny factor would
          amplify round-off, so the edge's product excluding the member
          is recomputed from the raw factors (rare, O(|h|) each);
        * otherwise: one vectorized division ``nonzero_prod / factor``.

        Edges with *another* zero-factor member contribute 0 regardless.
        """
        hg = self.hypergraph
        if hg.num_hyperedges == 0:
            raise EstimationError("hyper-graph has no hyper-edges")
        n = hg.num_nodes
        one_minus = 1.0 - self._probs
        stream = np.asarray(hg.edge_nodes)
        # np.add.at makes the same sequential per-bin additions, in stream
        # order, as a whole-stream bincount: bit-identical, block by block.
        grad = np.zeros(n, dtype=np.float64)
        for first, offsets in _edge_blocks(np.asarray(hg.edge_offsets)):
            edges = slice(first, first + offsets.size - 1)
            sizes = np.diff(offsets)
            members = stream[offsets[0] : offsets[-1]]
            factors = one_minus[members]
            zero_here = factors <= _ONE_TOLERANCE
            # q_u = 1: the stored product of non-zero factors *is* the
            # product excluding u (up to other zero members, masked below).
            excl = np.repeat(self._nonzero_prod[edges], sizes)
            np.divide(excl, factors, out=excl, where=~zero_here)
            risky = ~zero_here & (factors <= _SAFE_DIVIDE_TOLERANCE)
            local = offsets - offsets[0]
            for pos in np.flatnonzero(risky):
                edge = int(np.searchsorted(local, pos, side="right")) - 1
                seg = factors[local[edge] : local[edge + 1]]
                keep = seg > _ONE_TOLERANCE
                keep[pos - local[edge]] = False
                excl[pos] = float(np.prod(seg[keep]))
            # Any *other* member with q = 1 forces the excluded survival
            # to exact zero.
            zero_count = self._zero_count[edges]
            if zero_count.any():
                excl[np.repeat(zero_count, sizes) > zero_here] = 0.0
            np.add.at(grad, members, excl)
        grad *= n / hg.num_hyperedges
        if curve_derivatives is not None:
            slopes = np.asarray(curve_derivatives, dtype=np.float64)
            if slopes.shape != (n,):
                raise EstimationError(
                    f"curve_derivatives must have length n={n}, got {slopes.shape}"
                )
            grad = grad * slopes
        get_metrics().inc("objective.gradients_total")
        return grad
