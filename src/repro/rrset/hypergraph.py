"""The random hyper-graph ``H`` of the polling framework.

Nodes of ``H`` are the nodes of ``G``; each hyper-edge is one RR set.  The
container stores both directions in CSR form:

* hyper-edge -> member nodes (``edge_offsets`` / ``edge_nodes``), and
* node -> incident hyper-edge ids (``node_offsets`` / ``node_edges``),

so that coverage algorithms (which expand nodes) and estimators (which scan
hyper-edges) both get contiguous slices.

Both directions are assembled by whole-array numpy passes — a single
``concatenate`` for the member stream, ``repeat`` + stable ``argsort`` for
the inverted index — with no per-edge Python assignment; the reference
per-edge loop is kept as a test oracle (``reference_csr_build``, under
``tests/rrset/``) and benchmarked against this path by
``benchmarks/test_cd_kernel.py``.

Key property (polling framework): for a fixed number of hyper-edges
``theta``, ``n * deg_H(S) / theta`` is an unbiased estimator of the
influence spread ``I(S)``.

Storage dtypes follow the compact policy of :mod:`repro.rrset.storage`:
members are ``uint8``/``uint32``, offsets and edge ids ``uint32`` until
their totals demand ``int64`` (explicit widening, never a silent
upcast).  Scratch index arrays on the append path stay at the policy's
offset width too, so peak memory tracks the narrowed arrays.  All
public accessors (``degrees``, ``coverage``…) are dtype-agnostic;
``degrees`` always returns ``int64`` so callers can negate it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.exceptions import CheckpointError, EstimationError
from repro.obs.context import get_metrics, get_tracer
from repro.rrset.sampler import sample_rr_csr
from repro.rrset.storage import DtypePolicy
from repro.runtime.deadline import DeadlineLike
from repro.utils.rng import SeedLike
from repro.utils.spill import empty_array, is_spill_backed

__all__ = ["RRHypergraph", "csr_offsets"]


def csr_offsets(sizes: np.ndarray) -> np.ndarray:
    """``int64`` CSR offsets ``[0, cumsum(sizes)...]`` of per-edge sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _edge_list_csr(rr_sets: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``(sizes, members)`` of a list of hyper-edges, members as ``int64``.

    No narrowing happens here: the CSR entry points range-check the
    ``int64`` stream against ``num_nodes`` before any cast.
    """
    members = [np.asarray(h, dtype=np.int64) for h in rr_sets]
    sizes = np.fromiter((m.size for m in members), dtype=np.int64, count=len(members))
    if not members:
        return sizes, np.empty(0, dtype=np.int64)
    return sizes, np.concatenate(members)


class RRHypergraph:
    """Immutable hyper-graph built from a batch of RR sets.

    The CSR arrays never change after construction.  The only mutable
    state is an internal epoch-stamped scratch buffer that
    :meth:`coverage` reuses across calls — process-local scratch, never
    shared across pool workers, and invisible in :meth:`to_arrays`.
    """

    __slots__ = (
        "num_nodes",
        "num_hyperedges",
        "edge_offsets",
        "edge_nodes",
        "node_offsets",
        "node_edges",
        "_cover_stamp",
        "_cover_epoch",
    )

    def __init__(self, num_nodes: int, rr_sets: Sequence[np.ndarray]) -> None:
        """The list form of :meth:`from_csr`."""
        sizes, edge_nodes = _edge_list_csr(rr_sets)
        self._init_from_csr(num_nodes, csr_offsets(sizes), edge_nodes)

    def _init_from_csr(
        self, num_nodes: int, edge_offsets: np.ndarray, edge_nodes: np.ndarray
    ) -> None:
        """Validate CSR arrays, apply the dtype policy, derive the inverted index.

        Members may arrive in any integer dtype.  Validation runs on an
        ``int64`` view of the offsets — a wrapped unsigned diff can never
        masquerade as monotone — and range validation runs *before* the
        narrowing cast, so an out-of-range id can never wrap into a
        valid-looking one.
        """
        edge_nodes = np.asarray(edge_nodes)
        if edge_nodes.dtype.kind not in "iu":
            edge_nodes = edge_nodes.astype(np.int64)
        edge_offsets = np.asarray(edge_offsets).astype(np.int64, copy=False)
        if edge_offsets.ndim != 1 or edge_offsets.size == 0 or edge_offsets[0] != 0:
            raise EstimationError("malformed CSR arrays: bad edge_offsets")
        if int(edge_offsets[-1]) != edge_nodes.size or np.any(np.diff(edge_offsets) < 0):
            raise EstimationError("malformed CSR arrays: offsets/nodes mismatch")
        if num_nodes <= 0:
            raise EstimationError(f"num_nodes must be positive, got {num_nodes}")
        if edge_nodes.size:
            lo, hi = int(edge_nodes.min()), int(edge_nodes.max())
            if lo < 0 or hi >= num_nodes:
                bad = int(
                    np.flatnonzero((edge_nodes < 0) | (edge_nodes >= num_nodes))[0]
                )
                edge = int(np.searchsorted(edge_offsets, bad, side="right") - 1)
                raise EstimationError(f"hyper-edge {edge} contains out-of-range node")
        self.num_nodes = num_nodes
        self.num_hyperedges = int(edge_offsets.size - 1)
        policy = DtypePolicy.choose(
            num_nodes, self.num_hyperedges, int(edge_nodes.size)
        )
        self.edge_offsets = np.asarray(edge_offsets, dtype=policy.offsets)
        self.edge_nodes = np.asarray(edge_nodes, dtype=policy.members)

        # Inverted index: node -> hyper-edge ids containing it.  Stable
        # argsort of the member stream groups positions by node while
        # keeping hyper-edge ids ascending within each node's slice.
        # The destination inherits the member stream's backing (a
        # spill-backed assembly gets a spill-backed inverted index); the
        # repeat/argsort scratch stays on the heap — the hyper-graph
        # member stream is small next to the graph it samples from.
        backing = "mmap" if is_spill_backed(self.edge_nodes) else None
        degree = np.bincount(self.edge_nodes, minlength=num_nodes)
        node_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degree, out=node_offsets[1:])
        self.node_offsets = node_offsets.astype(policy.offsets, copy=False)
        sizes = np.diff(np.asarray(edge_offsets, dtype=np.int64))
        edge_ids = np.repeat(
            np.arange(self.num_hyperedges, dtype=policy.edge_ids), sizes
        )
        order = np.argsort(self.edge_nodes, kind="stable")
        self.node_edges = empty_array(
            int(edge_nodes.size), policy.edge_ids, backing=backing,
            name_hint="node-edges",
        )
        np.take(edge_ids, order, out=self.node_edges)

        # Lazily allocated scratch for stamp-based coverage counting.
        self._cover_stamp = None
        self._cover_epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: DiffusionModel,
        num_hyperedges: int,
        seed: SeedLike = None,
        deadline: DeadlineLike = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        supervision=None,
        storage: Optional[str] = None,
        slab_dir=None,
        backing: Optional[str] = None,
        spill_dir=None,
    ) -> "RRHypergraph":
        """Sample ``num_hyperedges`` RR sets from ``model`` and index them.

        With a ``deadline``, construction may stop early and return a
        hyper-graph with fewer hyper-edges (``num_hyperedges`` attribute
        reflects the *actual* count, so the ``n * deg_H(S) / theta``
        estimator stays unbiased); compare against the requested count to
        detect truncation.

        ``workers`` parallelizes the sampling (``"auto"`` = one per CPU);
        for a fixed seed the built hyper-graph is bit-identical for every
        worker count, so checkpoints written at one worker count resume
        correctly at another.  ``supervision`` sets the pooled build's
        crash/straggler recovery policy (see
        :mod:`repro.parallel.supervisor`); recovered builds are
        bit-identical to fault-free ones.

        ``storage``/``slab_dir`` choose the chunk transport and
        ``backing``/``spill_dir`` where the assembled arrays live (see
        :func:`~repro.rrset.sampler.sample_rr_csr`); a spill-backed
        member stream carries the derived inverted index with it.  The
        hyper-graph's contents are bit-identical under every choice.
        """
        with get_tracer().span("hypergraph.build", theta=num_hyperedges) as span:
            sizes, members = sample_rr_csr(
                model,
                num_hyperedges,
                seed=seed,
                deadline=deadline,
                workers=workers,
                chunk_size=chunk_size,
                supervision=supervision,
                storage=storage,
                slab_dir=slab_dir,
                backing=backing,
                spill_dir=spill_dir,
            )
            hypergraph = cls.from_csr(model.num_nodes, csr_offsets(sizes), members)
            span.set(
                num_hyperedges=hypergraph.num_hyperedges,
                total_members=int(hypergraph.edge_nodes.size),
                truncated=hypergraph.num_hyperedges < num_hyperedges,
            )
            metrics = get_metrics()
            metrics.inc("hypergraph.builds_total")
            metrics.inc("hypergraph.hyperedges_total", hypergraph.num_hyperedges)
            metrics.set_gauge("hypergraph.last_hyperedges", hypergraph.num_hyperedges)
        return hypergraph

    def extend(self, rr_sets: Sequence[np.ndarray]) -> "RRHypergraph":
        """The list form of :meth:`extend_csr`: ``rr_sets`` appended."""
        return self.extend_csr(*_edge_list_csr(rr_sets))

    def extend_csr(
        self, new_sizes: np.ndarray, new_nodes: np.ndarray
    ) -> "RRHypergraph":
        """A new hyper-graph with a CSR batch appended as fresh hyper-edges.

        ``self`` is untouched (the CSR arrays stay immutable; objectives
        bound to it remain valid) and the returned graph is bit-identical
        to a from-scratch build over the concatenated hyper-edge list:
        the edge-direction CSR is extended by concatenation, and the
        inverted index is *merged* rather than re-derived — new hyper-edge
        ids all exceed the existing ones, so each node's incident slice is
        its old slice followed by its slice of the (sorted) new member
        stream, exactly what the stable argsort of a full rebuild yields.
        Cost is ``O(existing + new)`` array copies plus a sort of the new
        members only, versus a full ``O(total log total)`` argsort.

        The dtype policy is re-chosen from the *extended* totals, so the
        stored arrays stay at the narrowest safe width and widen exactly
        when a total crosses a capacity cap; destination scratch arrays
        use the policy's offset width too (position totals fit it by
        construction), never a silent ``int64``.
        """
        new_sizes = np.asarray(new_sizes, dtype=np.int64)
        new_nodes = np.asarray(new_nodes)
        # The adaptive driver's only append path: a malformed batch would
        # yield offsets past the member stream and an unrestorable
        # checkpoint, so it is rejected as from_csr rejects one.
        if new_sizes.ndim != 1 or new_nodes.ndim != 1:
            raise EstimationError("malformed CSR batch: sizes and nodes must be 1-D")
        if np.any(new_sizes < 0) or int(new_sizes.sum()) != new_nodes.size:
            raise EstimationError("malformed CSR batch: sizes/nodes mismatch")
        if new_nodes.size:
            lo, hi = int(new_nodes.min()), int(new_nodes.max())
            if lo < 0 or hi >= self.num_nodes:
                bad = int(
                    np.flatnonzero((new_nodes < 0) | (new_nodes >= self.num_nodes))[0]
                )
                boundaries = np.cumsum(new_sizes)
                edge = self.num_hyperedges + int(
                    np.searchsorted(boundaries, bad, side="right")
                )
                raise EstimationError(f"hyper-edge {edge} contains out-of-range node")

        added = int(new_sizes.size)
        with get_tracer().span(
            "hypergraph.extend",
            existing=self.num_hyperedges,
            added=added,
        ):
            old_m = self.num_hyperedges
            old_stream = int(self.edge_nodes.size)
            total_members = old_stream + int(new_nodes.size)
            policy = DtypePolicy.choose(self.num_nodes, old_m + added, total_members)
            out = RRHypergraph.__new__(RRHypergraph)
            out.num_nodes = self.num_nodes
            out.num_hyperedges = old_m + added
            # Offsets accumulate in an int64 scratch (cumsum must not
            # wrap before the totals are known), then land at the
            # policy's width.
            offsets64 = np.empty(out.num_hyperedges + 1, dtype=np.int64)
            offsets64[: old_m + 1] = self.edge_offsets
            np.cumsum(new_sizes, out=offsets64[old_m + 1 :])
            offsets64[old_m + 1 :] += old_stream
            out.edge_offsets = offsets64.astype(policy.offsets, copy=False)
            # Extended arrays inherit the existing backing: a spill-backed
            # hyper-graph stays spill-backed through every instalment,
            # including ones that widen the dtype policy mid-extend.
            backing = "mmap" if is_spill_backed(self.edge_nodes) else None
            edge_nodes = empty_array(
                total_members, policy.members, backing=backing,
                name_hint="edge-nodes",
            )
            edge_nodes[:old_stream] = self.edge_nodes
            edge_nodes[old_stream:] = new_nodes
            out.edge_nodes = edge_nodes

            # Merged inverted index.  Node v's final slice starts at
            # old_offsets[v] shifted by the new members of nodes < v; its
            # old incident ids land first, then its new ids in stream
            # (= ascending hyper-edge id) order.
            n = self.num_nodes
            new_degree = np.bincount(edge_nodes[old_stream:], minlength=n)
            old_counts = np.diff(np.asarray(self.node_offsets, dtype=np.int64))
            node_offsets64 = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(old_counts + new_degree, out=node_offsets64[1:])
            out.node_offsets = node_offsets64.astype(policy.offsets, copy=False)
            node_edges = empty_array(
                total_members, policy.edge_ids, backing=backing,
                name_hint="node-edges",
            )
            if old_stream:
                # Destinations are positions below total_members, so the
                # offset width holds them exactly.
                shift = node_offsets64[:-1] - np.asarray(
                    self.node_offsets[:-1], dtype=np.int64
                )
                dest_old = np.arange(old_stream, dtype=policy.offsets)
                dest_old += np.repeat(
                    shift.astype(policy.offsets, copy=False), old_counts
                )
                node_edges[dest_old] = self.node_edges
            if new_nodes.size:
                new_edge_ids = np.repeat(
                    np.arange(old_m, out.num_hyperedges, dtype=policy.edge_ids),
                    new_sizes,
                )
                order = np.argsort(edge_nodes[old_stream:], kind="stable")
                new_group_starts = np.zeros(n, dtype=np.int64)
                np.cumsum(new_degree[:-1], out=new_group_starts[1:])
                start_dest = node_offsets64[:-1] + old_counts
                dest_new = np.arange(new_nodes.size, dtype=policy.offsets)
                dest_new += np.repeat(
                    (start_dest - new_group_starts).astype(policy.offsets, copy=False),
                    new_degree,
                )
                node_edges[dest_new] = new_edge_ids[order]
            out.node_edges = node_edges
            out._cover_stamp = None
            out._cover_epoch = 0

            metrics = get_metrics()
            metrics.inc("hypergraph.extends_total")
            metrics.inc("hypergraph.extended_hyperedges_total", added)
        return out

    @classmethod
    def from_csr(
        cls, num_nodes: int, edge_offsets: np.ndarray, edge_nodes: np.ndarray
    ) -> "RRHypergraph":
        """Build directly from CSR arrays, skipping per-edge materialization.

        ``edge_offsets``/``edge_nodes`` are the same arrays
        :meth:`to_arrays` emits; the inverted index is derived from them
        in place, so checkpoint restores never round-trip through a
        Python list of hyper-edge slices.  The arrays are adopted —
        normalized to the dtype policy of :mod:`repro.rrset.storage`,
        without copying when the dtypes already match (e.g. a slab
        assembly that sampled straight into the policy's member dtype) —
        so callers must not mutate them afterwards.
        """
        self = cls.__new__(cls)
        with get_tracer().span("hypergraph.index"):
            self._init_from_csr(int(num_nodes), edge_offsets, edge_nodes)
        return self

    # ------------------------------------------------------------------
    # persistence (checkpointing of expensive builds)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """The minimal array set from which the hyper-graph rebuilds."""
        return {
            "num_nodes": np.asarray([self.num_nodes], dtype=np.int64),
            "edge_offsets": self.edge_offsets,
            "edge_nodes": self.edge_nodes,
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "RRHypergraph":
        """Rebuild from :meth:`to_arrays` output (e.g. a checkpoint NPZ)."""
        try:
            num_nodes = int(np.asarray(arrays["num_nodes"]).ravel()[0])
            edge_offsets = np.asarray(arrays["edge_offsets"]).astype(
                np.int64, copy=False
            )
            edge_nodes = np.asarray(arrays["edge_nodes"])
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise CheckpointError(f"malformed hyper-graph arrays: {exc}") from exc
        if edge_offsets.ndim != 1 or edge_offsets.size == 0 or edge_offsets[0] != 0:
            raise CheckpointError("malformed hyper-graph arrays: bad edge_offsets")
        if int(edge_offsets[-1]) != edge_nodes.size or np.any(np.diff(edge_offsets) < 0):
            raise CheckpointError("malformed hyper-graph arrays: offsets/nodes mismatch")
        return cls.from_csr(num_nodes, edge_offsets, edge_nodes)

    def save_npz(self, path: Union[str, Path]) -> None:
        """Write the hyper-graph to an NPZ file atomically."""
        import io as _io

        from repro.io.serialization import atomic_write_bytes

        buffer = _io.BytesIO()
        np.savez(buffer, **self.to_arrays())
        atomic_write_bytes(path, buffer.getvalue())

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "RRHypergraph":
        """Read a hyper-graph written by :meth:`save_npz`."""
        try:
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read hyper-graph NPZ {path}: {exc}") from exc
        return cls.from_arrays(arrays)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def hyperedge(self, index: int) -> np.ndarray:
        """Member nodes of hyper-edge ``index`` (CSR slice; do not mutate)."""
        if not 0 <= index < self.num_hyperedges:
            raise IndexError(f"hyper-edge {index} out of range")
        return self.edge_nodes[self.edge_offsets[index] : self.edge_offsets[index + 1]]

    def hyperedges(self) -> Iterable[np.ndarray]:
        """Iterate all hyper-edges."""
        for i in range(self.num_hyperedges):
            yield self.hyperedge(i)

    def incident_edges(self, node: int) -> np.ndarray:
        """Ids of hyper-edges containing ``node``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return self.node_edges[self.node_offsets[node] : self.node_offsets[node + 1]]

    def degree(self, node: int) -> int:
        """Number of hyper-edges incident to ``node``."""
        return int(self.node_offsets[node + 1] - self.node_offsets[node])

    def degrees(self) -> np.ndarray:
        """Vector of node degrees in ``H``, always ``int64``.

        The stored offsets may be unsigned under the dtype policy; a
        signed return keeps idioms like ``np.argsort(-degrees)`` safe.
        """
        return np.diff(np.asarray(self.node_offsets, dtype=np.int64))

    def coverage(self, seeds: Sequence[int]) -> int:
        """``deg_H(S)``: hyper-edges hit by at least one node of ``seeds``.

        Stamp-array counting: a reusable per-hyper-edge epoch buffer is
        stamped through each seed's incident slice, then covered edges
        are those carrying the current epoch — no Python-set hashing, no
        per-call allocation, and robust to duplicate members.  The count
        (and therefore :meth:`estimate_spread`) is byte-identical to the
        set-union definition, pinned against the Python-set oracle
        ``reference_coverage`` of the test tree (``tests/rrset/``).
        """
        if self._cover_stamp is None:
            self._cover_stamp = np.zeros(self.num_hyperedges, dtype=np.int64)
        self._cover_epoch += 1
        epoch = self._cover_epoch
        stamp = self._cover_stamp
        for node in seeds:
            stamp[self.incident_edges(int(node))] = epoch
        return int((stamp == epoch).sum())

    def estimate_spread(self, seeds: Sequence[int]) -> float:
        """Unbiased estimator ``n * deg_H(S) / theta`` of ``I(S)``."""
        if self.num_hyperedges == 0:
            raise EstimationError("hyper-graph has no hyper-edges")
        return self.num_nodes * self.coverage(seeds) / self.num_hyperedges

    def average_edge_size(self) -> float:
        """Mean RR-set size (proportional to hyper-graph build cost)."""
        if self.num_hyperedges == 0:
            return 0.0
        return float(self.edge_nodes.size / self.num_hyperedges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RRHypergraph(n={self.num_nodes}, theta={self.num_hyperedges}, "
            f"avg_size={self.average_edge_size():.2f})"
        )
