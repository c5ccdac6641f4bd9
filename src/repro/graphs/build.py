"""Mutable graph construction finalized into immutable CSR :class:`DiGraph`.

Typical usage::

    builder = GraphBuilder()
    builder.add_edge(0, 1)
    builder.add_edge(1, 2, probability=0.3)
    graph = builder.build()

or, for bulk data, :func:`from_edges`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph
from repro.obs.context import get_tracer
from repro.utils import csr
from repro.utils.spill import peak_rss_mb

__all__ = ["GraphBuilder", "csr_from_arrays", "csr_from_parts", "from_edges", "sorted_unique"]

#: Largest node count whose ids fit the CSR's ``int32`` targets.
_MAX_NODES = np.iinfo(np.int32).max

EdgeLike = Tuple[int, int]
WeightedEdgeLike = Tuple[int, int, float]


class GraphBuilder:
    """Accumulates edges, then builds a validated :class:`DiGraph`.

    Parameters
    ----------
    num_nodes:
        Fix the node count up-front; if ``None`` the count is inferred as
        ``max(node id) + 1`` at build time (isolated trailing nodes then need
        an explicit count).
    default_probability:
        Probability assigned to edges added without one.

    Duplicate directed edges are collapsed at build time, keeping the last
    probability added — matching the semantics of re-assigning a weight.
    """

    def __init__(self, num_nodes: Optional[int] = None, default_probability: float = 1.0) -> None:
        if num_nodes is not None and num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        if not 0.0 <= default_probability <= 1.0:
            raise GraphError("default_probability must lie in [0, 1]")
        self._num_nodes = num_nodes
        self._default_probability = default_probability
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._probs: list[float] = []

    def add_edge(self, source: int, target: int, probability: Optional[float] = None) -> "GraphBuilder":
        """Add a directed edge; returns ``self`` for chaining."""
        if source < 0 or target < 0:
            raise GraphError(f"node ids must be non-negative, got ({source}, {target})")
        if probability is None:
            probability = self._default_probability
        if not 0.0 <= probability <= 1.0:
            raise GraphError(f"edge probability must lie in [0, 1], got {probability}")
        if self._num_nodes is not None and (source >= self._num_nodes or target >= self._num_nodes):
            raise GraphError(
                f"edge ({source}, {target}) exceeds fixed node count {self._num_nodes}"
            )
        self._sources.append(source)
        self._targets.append(target)
        self._probs.append(probability)
        return self

    def add_undirected_edge(
        self, u: int, v: int, probability: Optional[float] = None
    ) -> "GraphBuilder":
        """Add both directions ``(u, v)`` and ``(v, u)``.

        This mirrors the paper's preprocessing (Section 9.1): "if a network
        is undirected, every undirected edge (u, v) is processed as two
        directed edges".
        """
        self.add_edge(u, v, probability)
        self.add_edge(v, u, probability)
        return self

    def add_edges(self, edges: Iterable[Sequence[float]]) -> "GraphBuilder":
        """Add many edges given as ``(u, v)`` or ``(u, v, probability)``."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(int(edge[0]), int(edge[1]))
            elif len(edge) == 3:
                self.add_edge(int(edge[0]), int(edge[1]), float(edge[2]))
            else:
                raise GraphError(f"edges must be 2- or 3-tuples, got {edge!r}")
        return self

    @property
    def num_pending_edges(self) -> int:
        """Number of edges added so far (before de-duplication)."""
        return len(self._sources)

    def build(self, allow_self_loops: bool = False) -> DiGraph:
        """Finalize into an immutable CSR :class:`DiGraph`.

        Self-loops are dropped by default (they never affect influence
        spread); pass ``allow_self_loops=True`` to keep them.
        """
        return csr_from_arrays(
            np.asarray(self._sources, dtype=np.int64),
            np.asarray(self._targets, dtype=np.int64),
            np.asarray(self._probs, dtype=np.float64),
            num_nodes=self._num_nodes,
            allow_self_loops=allow_self_loops,
        )


def csr_from_arrays(
    sources: np.ndarray,
    targets: np.ndarray,
    probs: np.ndarray,
    num_nodes: Optional[int] = None,
    allow_self_loops: bool = False,
) -> DiGraph:
    """:meth:`GraphBuilder.build` on edge columns already in arrays.

    ``sources``/``targets`` are non-negative ``int64`` ids and ``probs``
    the matching probabilities, in insertion order: of duplicate edges
    the last one wins.  ``num_nodes`` defaults to ``max(id) + 1``.
    Probabilities are taken as given; ids are checked, as
    :meth:`GraphBuilder.add_edge` checks them.
    """
    low = int(min(sources.min(), targets.min())) if sources.size else 0
    high = int(max(sources.max(), targets.max())) if sources.size else -1
    if low < 0:
        raise GraphError(f"node ids must be non-negative, got {low}")
    if num_nodes is None:
        n = high + 1
    elif high >= num_nodes:
        raise GraphError(f"node id {high} exceeds fixed node count {num_nodes}")
    else:
        n = num_nodes
    if n > _MAX_NODES:
        raise GraphError(f"{n} nodes exceed the int32 target range")
    return csr_from_parts([(sources, targets, probs)], n, allow_self_loops=allow_self_loops)


Part = Tuple[np.ndarray, np.ndarray, np.ndarray]


def csr_from_parts(
    parts: List[Part],
    num_nodes: int,
    undirected: bool = False,
    allow_self_loops: bool = False,
) -> DiGraph:
    """The :class:`DiGraph` of edge columns that arrive in parts.

    Each part is ``(sources, targets, probs)`` with checked ids below
    ``num_nodes``; parts and their rows are in insertion order, and of
    duplicate edges the last one wins.  With ``undirected`` each row
    adds ``(u, v)`` and then ``(v, u)``.  ``parts`` is emptied as it is
    read.

    Two stable scatters of the blocked transpose sort the edges by
    ``(source, target)``, least significant key first: by target, then
    by source, whose rows are the targets.  Each source's slice then
    lists its targets ascending with duplicates in insertion order, and
    the last of each run is kept.  No temporary scales with the edge
    count beyond the two scatters' destinations.  The first pass counts
    each part's targets in place, and :func:`csr.column_offsets`
    batches them, so many small parts cost no pass over all ``n``
    counts each; the directed arrays of a part are built once, for its
    scatter.
    """
    n = num_nodes

    def directed(part: Part) -> Part:
        sources, targets, probs = part
        if not allow_self_loops:
            keep = sources != targets
            if not keep.all():
                sources, targets, probs = sources[keep], targets[keep], probs[keep]
        if undirected:
            both = np.empty(2 * sources.size, dtype=sources.dtype)
            both[0::2], both[1::2] = sources, targets
            sources, targets = both, both.reshape(-1, 2)[:, ::-1].reshape(-1)
            probs = np.repeat(probs, 2)
        return sources, targets, probs

    def targets_of(parts: List[Part]) -> Iterator[np.ndarray]:
        # The targets of each directed(part), in some order: enough to count them.
        for sources, targets, _ in parts:
            if not allow_self_loops:
                keep = sources != targets
                if not keep.all():
                    sources, targets = sources[keep], targets[keep]
            yield targets
            if undirected:
                yield sources

    with get_tracer().span("graphs.build") as span:
        by_target = csr.column_offsets(targets_of(parts), n)
        total = int(by_target[-1])
        sources = np.empty(total, dtype=np.int32)
        probs = np.empty(total, dtype=np.float64)
        cursor = by_target[:-1].copy()
        parts.reverse()
        while parts:
            part_sources, part_targets, part_probs = directed(parts.pop())
            csr.transpose_into(
                part_targets, cursor, values=[(part_sources, sources), (part_probs, probs)]
            )
        by_source = csr.column_offsets(sources, n)
        out_targets = np.empty(total, dtype=np.int32)
        out_probs = np.empty(total, dtype=np.float64)
        csr.transpose_into(
            sources,
            by_source[:-1].copy(),
            rows=(by_target, out_targets),
            values=[(probs, out_probs)],
        )
        del sources, probs
        out_offsets = _keep_last(by_source, out_targets, out_probs)
        edges = int(out_offsets[-1])
        if edges < total:
            out_targets, out_probs = out_targets[:edges].copy(), out_probs[:edges].copy()
        span.set(nodes=n, edges=edges)
        graph = DiGraph(n, out_offsets, out_targets, out_probs)
        span.note(peak_rss_mb=peak_rss_mb())
        return graph


def _keep_last(offsets: np.ndarray, targets: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Keep the last of each run of equal targets in each row, in place.

    Kept entries move forward block by block, in order; returns the
    compacted rows' offsets.
    """
    total = targets.size
    kept = np.empty(offsets.size, dtype=np.int64)
    write = 0
    for lo in range(0, total, csr.BLOCK_ENTRIES):
        hi = min(lo + csr.BLOCK_ENTRIES, total)
        keep = np.ones(hi - lo, dtype=bool)
        np.not_equal(targets[lo : hi - 1], targets[lo + 1 : hi], out=keep[:-1])
        if hi < total:
            keep[-1] = targets[hi - 1] != targets[hi]
        # The entry before a row's first one ends its own row.
        first, last = np.searchsorted(offsets, [lo, hi], "right")
        keep[offsets[first:last] - 1 - lo] = True
        before = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(keep, out=before[1:])
        # Rows that start in this block start after the kept entries before them.
        first, last = np.searchsorted(offsets, [lo, hi])
        kept[first:last] = write + before[offsets[first:last] - lo]
        if write != lo or before[-1] != hi - lo:
            targets[write : write + before[-1]] = targets[lo:hi][keep]
            probs[write : write + before[-1]] = probs[lo:hi][keep]
        write += int(before[-1])
    kept[np.searchsorted(offsets, total) :] = write
    return kept


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array, by sorting ``values`` in place.

    numpy's ``np.unique`` on integers builds a hash table before it
    sorts; one in-place sort and an adjacent-difference mask give the
    same ascending distinct values with neither the table nor a copy of
    the input.  ``values`` is left sorted.
    """
    values.sort()
    if values.size == 0:
        return values.copy()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def from_edges(
    edges: Iterable[Sequence[float]],
    num_nodes: Optional[int] = None,
    default_probability: float = 1.0,
    undirected: bool = False,
) -> DiGraph:
    """Build a :class:`DiGraph` from an iterable of edge tuples.

    Parameters
    ----------
    edges:
        ``(u, v)`` or ``(u, v, probability)`` tuples.
    num_nodes:
        Optional explicit node count (for trailing isolated nodes).
    default_probability:
        Probability used for 2-tuples.
    undirected:
        If true, each input edge is added in both directions.
    """
    builder = GraphBuilder(num_nodes=num_nodes, default_probability=default_probability)
    for edge in edges:
        if len(edge) == 2:
            u, v, p = int(edge[0]), int(edge[1]), None
        elif len(edge) == 3:
            u, v, p = int(edge[0]), int(edge[1]), float(edge[2])
        else:
            raise GraphError(f"edges must be 2- or 3-tuples, got {edge!r}")
        if undirected:
            builder.add_undirected_edge(u, v, p)
        else:
            builder.add_edge(u, v, p)
    return builder.build()
