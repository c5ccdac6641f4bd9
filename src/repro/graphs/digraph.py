"""Immutable CSR (compressed sparse row) directed graph.

The whole library operates on this one graph type.  Nodes are dense integer
ids ``0 .. n-1``.  Edges are stored twice — once in out-adjacency (CSR) and
once in in-adjacency (CSC-like) — because forward diffusion walks
out-neighbors while reverse-reachable (RR) sampling walks in-neighbors.

Each directed edge carries a propagation probability in ``[0, 1]``; the
probability arrays are aligned with the adjacency arrays, so the probability
of edge ``(u, v)`` is found at the same index as ``v`` in ``u``'s
out-neighbor slice.

Construction goes through :class:`repro.graphs.build.GraphBuilder`; this
class only validates and indexes already-sorted arrays.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.utils.csr import column_offsets, transpose_into
from repro.utils.spill import empty_array, is_spill_backed, pack_array, unpack_array

__all__ = ["DiGraph"]

#: Edge-array validation chunk (entries, not bytes): large enough to
#: amortize numpy call overhead, small enough that the per-chunk masks
#: stay near a megabyte, like the blocks of the transpose that follows.
_SCAN_CHUNK = 1 << 18


class DiGraph:
    """A fixed directed graph with per-edge propagation probabilities.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids are ``0 .. n-1``.
    out_offsets, out_targets:
        CSR arrays: out-neighbors of ``u`` are
        ``out_targets[out_offsets[u]:out_offsets[u + 1]]``.
    out_probs:
        Propagation probability of each out-edge, aligned with
        ``out_targets``.

    Notes
    -----
    The in-adjacency (transpose) arrays are derived in the constructor.  The
    transpose preserves edge probabilities: the probability attached to the
    reverse edge ``(v, u)`` equals the probability of the original edge
    ``(u, v)``, exactly as required by the polling method of Section 8
    ("the propagation probability of an edge (v, u) in G^T is pp_uv").
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "out_offsets",
        "out_targets",
        "out_probs",
        "in_offsets",
        "in_sources",
        "in_probs",
    )

    def __init__(
        self,
        num_nodes: int,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_probs: np.ndarray,
    ) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        out_offsets = np.ascontiguousarray(out_offsets, dtype=np.int64)
        out_targets = np.ascontiguousarray(out_targets, dtype=np.int32)
        out_probs = np.ascontiguousarray(out_probs, dtype=np.float64)
        if out_offsets.shape != (num_nodes + 1,):
            raise GraphError(
                f"out_offsets must have length n+1={num_nodes + 1}, got {out_offsets.shape}"
            )
        if out_offsets[0] != 0 or np.any(np.diff(out_offsets) < 0):
            raise GraphError("out_offsets must start at 0 and be non-decreasing")
        num_edges = int(out_offsets[-1])
        if out_targets.shape != (num_edges,) or out_probs.shape != (num_edges,):
            raise GraphError("out_targets/out_probs length must equal out_offsets[-1]")
        if num_edges:
            # Every out-neighbor slice must be strictly increasing: sorted
            # order backs has_edge's binary search, and uniqueness backs the
            # vectorized cascade frontier (which stamps a whole neighbor
            # batch at once and does no in-batch dedup).  Both edge-length
            # scans run chunked so validation never materializes an m-sized
            # transient (the arrays themselves may be memmap-backed and
            # much larger than memory).
            slice_starts = out_offsets[:-1][np.diff(out_offsets) > 0]
            for lo in range(0, num_edges, _SCAN_CHUNK):
                hi = min(lo + _SCAN_CHUNK, num_edges)
                chunk = np.asarray(out_targets[lo:hi])
                if int(chunk.min()) < 0 or int(chunk.max()) >= num_nodes:
                    raise GraphError("edge target out of range")
                if lo == 0 and hi == 1:
                    continue
                prev = np.asarray(out_targets[max(lo - 1, 0) : hi - 1])
                flat = chunk[1 if lo == 0 else 0 :] <= prev
                if np.any(flat):
                    first = int(
                        np.searchsorted(slice_starts, (1 if lo == 0 else lo))
                    )
                    last = int(np.searchsorted(slice_starts, hi))
                    exempt = np.zeros(flat.size, dtype=bool)
                    exempt[
                        slice_starts[first:last] - (1 if lo == 0 else lo)
                    ] = True
                    if np.any(flat & ~exempt):
                        raise GraphError(
                            "out-neighbor slices must be sorted with no "
                            "duplicate targets"
                        )
            for lo in range(0, num_edges, _SCAN_CHUNK):
                chunk = np.asarray(out_probs[lo : lo + _SCAN_CHUNK])
                if (
                    np.any(chunk < 0.0)
                    or np.any(chunk > 1.0)
                    or np.any(np.isnan(chunk))
                ):
                    raise GraphError("edge probabilities must lie in [0, 1]")

        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.out_probs = out_probs
        self.in_offsets, self.in_sources, self.in_probs = self._build_in_adjacency()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_csr_pair(
        cls,
        num_nodes: int,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_probs: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_probs: np.ndarray,
    ) -> "DiGraph":
        """Adopt pre-built out- *and* in-adjacency arrays without rebuilding.

        The trusted constructor for producers that already hold both CSR
        directions — the streaming generator and the binary graph loader.
        It skips the O(m log m) transpose derivation and the edge-length
        scans of ``__init__`` (the producers guarantee sortedness by
        construction), checking only the O(n) offset invariants, so a
        memmap-backed LiveJournal-scale graph constructs without pulling
        its edge arrays through the heap.  Arrays are adopted as given
        when already at the canonical dtypes (memmaps pass through
        untouched); in-arrays may alias out-arrays (symmetric graphs).
        """
        def adopt(array: np.ndarray, dtype) -> np.ndarray:
            # ascontiguousarray would re-wrap an np.memmap as a plain
            # ndarray view, losing the file identity that by-reference
            # pickling needs — adopt matching arrays untouched instead.
            if (
                isinstance(array, np.ndarray)
                and array.dtype == np.dtype(dtype)
                and array.flags["C_CONTIGUOUS"]
            ):
                return array
            return np.ascontiguousarray(array, dtype=dtype)

        graph = cls.__new__(cls)
        graph.num_nodes = int(num_nodes)
        out_offsets = adopt(out_offsets, np.int64)
        in_offsets = adopt(in_offsets, np.int64)
        for name, offsets in (("out", out_offsets), ("in", in_offsets)):
            if offsets.shape != (graph.num_nodes + 1,):
                raise GraphError(
                    f"{name}_offsets must have length n+1={graph.num_nodes + 1}, "
                    f"got {offsets.shape}"
                )
            if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
                raise GraphError(
                    f"{name}_offsets must start at 0 and be non-decreasing"
                )
        num_edges = int(out_offsets[-1])
        if int(in_offsets[-1]) != num_edges:
            raise GraphError(
                f"in/out CSR edge counts disagree: {int(in_offsets[-1])} != "
                f"{num_edges}"
            )
        graph.num_edges = num_edges
        graph.out_offsets = out_offsets
        graph.out_targets = adopt(out_targets, np.int32)
        graph.out_probs = adopt(out_probs, np.float64)
        graph.in_offsets = in_offsets
        graph.in_sources = adopt(in_sources, np.int32)
        graph.in_probs = adopt(in_probs, np.float64)
        for name, array in (
            ("out_targets", graph.out_targets),
            ("out_probs", graph.out_probs),
            ("in_sources", graph.in_sources),
            ("in_probs", graph.in_probs),
        ):
            if array.shape != (num_edges,):
                raise GraphError(
                    f"{name} length must equal the edge count {num_edges}, "
                    f"got {array.shape}"
                )
        return graph

    def _build_in_adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derive the transpose adjacency from the out-CSR arrays.

        The blocked transpose of :mod:`repro.utils.csr` keeps sources
        ascending within each in-neighbor slice, as a stable argsort of
        the targets would, with temporaries bounded by its block and
        ``n``.  Destinations inherit the out-arrays' backing: a graph
        whose CSR lives in spill files gets spill-backed transpose arrays
        too, so constructing it never doubles heap RSS.
        """
        backing = "mmap" if is_spill_backed(self.out_targets) else None
        in_offsets = column_offsets(self.out_targets, self.num_nodes)
        in_sources = empty_array(
            self.num_edges, np.int32, backing=backing, name_hint="in-sources"
        )
        in_probs = empty_array(
            self.num_edges, np.float64, backing=backing, name_hint="in-probs"
        )
        transpose_into(
            self.out_targets,
            in_offsets[:-1].copy(),
            rows=(self.out_offsets, in_sources),
            values=[(self.out_probs, in_probs)],
        )
        return in_offsets, in_sources, in_probs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NodeNotFoundError(node, self.num_nodes)

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbor ids of ``node`` (a CSR slice; do not mutate)."""
        self._check_node(node)
        return self.out_targets[self.out_offsets[node] : self.out_offsets[node + 1]]

    def out_edge_probs(self, node: int) -> np.ndarray:
        """Propagation probabilities aligned with :meth:`out_neighbors`."""
        self._check_node(node)
        return self.out_probs[self.out_offsets[node] : self.out_offsets[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbor ids of ``node`` (a transpose-CSR slice)."""
        self._check_node(node)
        return self.in_sources[self.in_offsets[node] : self.in_offsets[node + 1]]

    def in_edge_probs(self, node: int) -> np.ndarray:
        """Probabilities of the edges *into* ``node``, aligned with
        :meth:`in_neighbors`."""
        self._check_node(node)
        return self.in_probs[self.in_offsets[node] : self.in_offsets[node + 1]]

    def out_degree(self, node: int) -> int:
        """Number of out-edges of ``node``."""
        self._check_node(node)
        return int(self.out_offsets[node + 1] - self.out_offsets[node])

    def in_degree(self, node: int) -> int:
        """Number of in-edges of ``node``."""
        self._check_node(node)
        return int(self.in_offsets[node + 1] - self.in_offsets[node])

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        return np.diff(self.out_offsets)

    def in_degrees(self) -> np.ndarray:
        """Vector of all in-degrees."""
        return np.diff(self.in_offsets)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(source, target, probability)`` triples."""
        for u in range(self.num_nodes):
            lo, hi = self.out_offsets[u], self.out_offsets[u + 1]
            for idx in range(lo, hi):
                yield u, int(self.out_targets[idx]), float(self.out_probs[idx])

    def has_edge(self, source: int, target: int) -> bool:
        """Return whether the directed edge ``(source, target)`` exists."""
        self._check_node(source)
        self._check_node(target)
        neighbors = self.out_neighbors(source)
        # Neighbor slices are sorted by the builder, enabling binary search.
        idx = int(np.searchsorted(neighbors, target))
        return idx < neighbors.size and neighbors[idx] == target

    def edge_probability(self, source: int, target: int) -> float:
        """Probability of edge ``(source, target)``; raises if absent."""
        neighbors = self.out_neighbors(source)
        idx = int(np.searchsorted(neighbors, target))
        if idx >= neighbors.size or neighbors[idx] != target:
            raise GraphError(f"edge ({source}, {target}) does not exist")
        return float(self.out_edge_probs(source)[idx])

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "DiGraph":
        """Return the transpose graph ``G^T`` (edge probabilities carried over)."""
        transposed = DiGraph.__new__(DiGraph)
        transposed.num_nodes = self.num_nodes
        transposed.num_edges = self.num_edges
        transposed.out_offsets = self.in_offsets
        transposed.out_targets = self.in_sources
        transposed.out_probs = self.in_probs
        transposed.in_offsets = self.out_offsets
        transposed.in_sources = self.out_targets
        transposed.in_probs = self.out_probs
        return transposed

    def with_probabilities(self, probs: np.ndarray) -> "DiGraph":
        """Return a copy of this graph with new out-edge probabilities.

        ``probs`` must be aligned with ``out_targets`` (same edge order).
        """
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if probs.shape != (self.num_edges,):
            raise GraphError(
                f"probs must have length m={self.num_edges}, got {probs.shape}"
            )
        return DiGraph(self.num_nodes, self.out_offsets, self.out_targets, probs)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Spill-backed arrays pickle by reference (path + dtype + shape),
        # not by value: a worker pool ships the graph once per worker via
        # the pool initializer, and rehydrating a multi-GB memmap into
        # pickle bytes would recreate exactly the heap copy the spill
        # backing exists to avoid.  Heap arrays pickle by value as before.
        return {slot: pack_array(getattr(self, slot)) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        for slot in self.__slots__:
            object.__setattr__(self, slot, unpack_array(state[slot]))

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self.num_nodes}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.out_offsets, other.out_offsets)
            and np.array_equal(self.out_targets, other.out_targets)
            and np.array_equal(self.out_probs, other.out_probs)
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_edges))
