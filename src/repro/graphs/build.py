"""Mutable graph construction finalized into immutable CSR :class:`DiGraph`.

Typical usage::

    builder = GraphBuilder()
    builder.add_edge(0, 1)
    builder.add_edge(1, 2, probability=0.3)
    graph = builder.build()

or, for bulk data, :func:`from_edges`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph
from repro.obs.context import get_tracer

__all__ = ["GraphBuilder", "csr_from_arrays", "from_edges", "sorted_unique"]

#: Largest node count whose ids fit the CSR's ``int32`` targets; it also
#: keeps the ``source * n + target`` sort keys inside ``int64``.
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
    with get_tracer().span("graphs.build") as span:
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

        # One key per edge: ascending ``source * n + target`` is the
        # (source, target) order, and the stable sort keeps duplicates in
        # insertion order, so the *last* of each group wins.
        keys = sources * n + targets
        if not allow_self_loops:
            keep = sources != targets
            keys, probs = keys[keep], probs[keep]
        if keys.size:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            last = np.empty(keys.size, dtype=bool)
            last[-1] = True
            np.not_equal(keys[:-1], keys[1:], out=last[:-1])
            keys, probs = keys[last], probs[order[last]]
            del order
        sources, targets = np.divmod(keys, n) if n else (keys, keys)

        out_degree = np.bincount(sources, minlength=n) if sources.size else np.zeros(n, dtype=np.int64)
        out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_degree, out=out_offsets[1:])
        span.set(nodes=n, edges=int(targets.size))
        return DiGraph(n, out_offsets, targets.astype(np.int32), probs)


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
