"""Slab-backed RR-set storage and the compact CSR dtype policy.

Two concerns of the million-node scale push live here:

**Dtype policy.**  :class:`DtypePolicy` picks the narrowest safe width
for each CSR array of an :class:`~repro.rrset.hypergraph.RRHypergraph`:

* *members* (``edge_nodes``) — ``uint8`` when every node id fits a byte
  (``num_nodes <= 256``), else ``uint32``; graphs beyond ``2**32`` nodes
  are rejected with :class:`~repro.exceptions.StorageError` (no wider
  member type is supported, and silently widening would defeat the
  point of the policy).
* *edge ids* (``node_edges``) — ``uint32``, widened to ``int64`` when the
  hyper-edge count crosses ``2**32`` (never an error: widening here is
  an explicit, guarded escape hatch, not a silent upcast).
* *offsets* (``edge_offsets`` / ``node_offsets``) — ``uint32`` while the
  total member stream fits, ``int64`` beyond.

The capacity caps are module globals so tests can shrink them and
exercise the uint32 boundary without allocating 4G-element arrays.

**Chunk transport.**  Each chunk of the deterministic sampling plan
(:func:`repro.parallel.pool.partition_chunks`) is packed into a
:class:`ChunkCSR` pair by :func:`pack_chunk` and reaches the coordinator
by one of two transports.  The heap transport pickles the pair back.
The shared transport writes it into a :class:`SlabStore` — a disjoint
pair of ``.npy`` slab files per chunk, under a directory on
``/dev/shm`` (tmpfs) when available — and returns only a tiny picklable
:class:`SlabRef`.  Either way :func:`assemble` copies the chunks, in
plan order, into the final CSR arrays (on the heap or in spill files,
under either transport).  Because chunk ``i`` always samples child
stream ``i`` of the root seed, slab contents are a pure function of the
plan: a re-dispatched or straggler duplicate chunk rewrites
byte-identical slabs, so last-writer-wins is safe and recovered builds
stay bit-identical (see :mod:`repro.parallel.supervisor`).

Slab writes are torn-write-safe: each file lands via ``os.replace`` and
the members file is renamed *before* the sizes file, so a slab with both
files present is complete; :meth:`SlabStore.read_chunk` additionally
cross-checks the two.  A ``storage.slab_write`` fault-injection probe
sits between the two renames so the chaos suite can kill a worker
mid-slab-write and assert the re-dispatched chunk overwrites the partial
slab.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import StorageError
from repro.runtime.faults import maybe_inject, maybe_inject_process
from repro.utils.spill import (  # noqa: F401 - re-exported storage vocabulary
    BACKING_MODES,
    SPILL_DIR_ENV_VAR,
    empty_array,
    resolve_backing,
)

__all__ = [
    "MEMBER_SMALL_LIMIT",
    "MEMBER_LIMIT",
    "EDGE_ID_LIMIT",
    "OFFSET_LIMIT",
    "STORAGE_MODES",
    "SLAB_DIR_ENV_VAR",
    "BACKING_MODES",
    "SPILL_DIR_ENV_VAR",
    "member_dtype",
    "edge_id_dtype",
    "offset_dtype",
    "DtypePolicy",
    "ChunkCSR",
    "pack_chunk",
    "SlabRef",
    "SlabStore",
    "assemble",
    "resolve_storage",
    "resolve_backing",
]

#: ``--storage`` values accepted across the library.
STORAGE_MODES = ("heap", "shared")

#: Environment variable overriding where slab directories are created.
SLAB_DIR_ENV_VAR = "REPRO_SLAB_DIR"

#: Node counts up to this fit member ids in ``uint8``.
MEMBER_SMALL_LIMIT = 1 << 8
#: Node counts up to this fit member ids in ``uint32``; beyond is an error.
MEMBER_LIMIT = 1 << 32
#: Hyper-edge counts up to (excluding) this fit edge ids in ``uint32``.
EDGE_ID_LIMIT = 1 << 32
#: Largest member-stream length whose offsets fit ``uint32``.
OFFSET_LIMIT = (1 << 32) - 1


def member_dtype(num_nodes: int) -> np.dtype:
    """Narrowest member (node id) dtype for a graph of ``num_nodes``."""
    if num_nodes <= MEMBER_SMALL_LIMIT:
        return np.dtype(np.uint8)
    if num_nodes <= MEMBER_LIMIT:
        return np.dtype(np.uint32)
    raise StorageError(
        f"num_nodes={num_nodes} exceeds the widest supported member dtype "
        f"(uint32 holds ids below {MEMBER_LIMIT})"
    )


def edge_id_dtype(num_hyperedges: int) -> np.dtype:
    """Narrowest hyper-edge-id dtype; widens (never fails) past uint32."""
    if num_hyperedges < EDGE_ID_LIMIT:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def offset_dtype(total_members: int) -> np.dtype:
    """Narrowest CSR offset dtype; widens (never fails) past uint32."""
    if total_members <= OFFSET_LIMIT:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class DtypePolicy:
    """The dtype triple one hyper-graph's CSR arrays are stored in.

    Chosen from the *actual* shape (node count, hyper-edge count, member
    stream length) so append paths re-choose — and explicitly widen —
    when an extension crosses a capacity boundary.
    """

    members: np.dtype
    edge_ids: np.dtype
    offsets: np.dtype

    @classmethod
    def choose(
        cls, num_nodes: int, num_hyperedges: int, total_members: int
    ) -> "DtypePolicy":
        return cls(
            members=member_dtype(num_nodes),
            edge_ids=edge_id_dtype(num_hyperedges),
            offsets=offset_dtype(total_members),
        )


def resolve_storage(storage: Optional[str]) -> str:
    """Normalize/validate a ``storage`` argument (``None`` means heap)."""
    mode = "heap" if storage is None else str(storage)
    if mode not in STORAGE_MODES:
        raise StorageError(
            f"storage must be one of {STORAGE_MODES}, got {storage!r}"
        )
    return mode


class ChunkCSR(NamedTuple):
    """One chunk's RR sets as a CSR pair: the unit both transports move.

    ``sizes`` holds the ``int64`` RR-set sizes and ``members`` the member
    stream in the policy's member dtype.  The heap transport pickles this
    pair back to the coordinator; the shared transport writes it to a
    slab and pickles a :class:`SlabRef` instead.  Both expose the same
    ``count``/``total_members``/``pickled_bytes``/``slab_bytes``
    accounting, so the coordinator's bookkeeping never asks which
    transport ran.
    """

    sizes: np.ndarray
    members: np.ndarray

    #: Bytes this chunk left in slab files: none, it travelled by pickle.
    slab_bytes = 0

    @property
    def count(self) -> int:
        return int(self.sizes.size)

    @property
    def total_members(self) -> int:
        return int(self.members.size)

    @property
    def pickled_bytes(self) -> int:
        """The array buffers, which dominate the pair's pickle (measuring
        by re-pickling would copy them)."""
        return int(self.sizes.nbytes + self.members.nbytes)


def pack_chunk(
    rr_sets: Sequence[Sequence[int]], dtype: Union[str, np.dtype], index: int = 0
) -> ChunkCSR:
    """Concatenate one chunk's RR sets into a :class:`ChunkCSR` at ``dtype``.

    Each set is an ``int64`` array or a list of Python ints (the two forms
    :meth:`~repro.diffusion.base.DiffusionModel.rr_sampler` returns);
    ``np.concatenate`` takes both.

    The member stream is range-checked *before* the narrowing cast — a
    silent wraparound here would corrupt the hyper-graph undetectably
    (wrapped ids look valid downstream).  ``index`` names the chunk in
    the error.
    """
    target = np.dtype(dtype)
    sizes = np.fromiter(map(len, rr_sets), dtype=np.int64, count=len(rr_sets))
    if not rr_sets:
        return ChunkCSR(sizes, np.empty(0, dtype=target))
    members = np.concatenate(rr_sets)
    if members.size:
        lo, hi = int(members.min()), int(members.max())
        if lo < 0 or hi >= 1 << (8 * target.itemsize):
            raise StorageError(
                f"chunk {index}: member id {lo if lo < 0 else hi} does not fit "
                f"member dtype {target.name}"
            )
    return ChunkCSR(sizes, members.astype(target, copy=False))


@dataclass(frozen=True)
class SlabRef:
    """A worker's receipt for one written chunk slab.

    This — not the member arrays — is what crosses the process boundary:
    a few scalars and a file stem, so the pickled payload per chunk is
    ~100 bytes regardless of how many members the chunk sampled.
    """

    index: int  #: chunk index within the dispatch plan
    count: int  #: RR sets actually sampled (may undershoot the plan on expiry)
    total_members: int  #: member-stream length of this chunk
    member_dtype: str  #: numpy dtype string of the members slab
    stem: str  #: slab file stem, relative to the store directory

    @property
    def slab_bytes(self) -> int:
        return self.total_members * np.dtype(self.member_dtype).itemsize

    @property
    def pickled_bytes(self) -> int:
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def _atomic_save(path: Path, array: np.ndarray) -> None:
    """Write one ``.npy`` slab atomically (tmp file + ``os.replace``)."""
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.save(handle, array)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()


def _slab_root(slab_dir: Union[str, Path, None]) -> Path:
    """Resolve where slab directories live: arg > env > /dev/shm > tmp."""
    if slab_dir is not None:
        return Path(slab_dir)
    env = os.environ.get(SLAB_DIR_ENV_VAR, "").strip()
    if env:
        return Path(env)
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return shm
    return Path(tempfile.gettempdir())


@dataclass(frozen=True)
class SlabStore:
    """One sampling run's slab directory; picklable (a path, no handles).

    Create with :meth:`create` (a fresh unique directory per run), ship
    to workers via the pool payload, and :meth:`cleanup` — or use as a
    context manager — once the assembled arrays are owned by the
    coordinator.  Slab files are plain ``.npy``: a crashed run's
    directory is inspectable with ``np.load`` and reclaimed by tmpfs on
    reboot at worst.
    """

    directory: str

    @classmethod
    def create(cls, slab_dir: Union[str, Path, None] = None) -> "SlabStore":
        root = _slab_root(slab_dir)
        root.mkdir(parents=True, exist_ok=True)
        return cls(directory=tempfile.mkdtemp(prefix="repro-slabs-", dir=root))

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _stem(self, index: int) -> str:
        return f"chunk-{index:06d}"

    def members_path(self, stem: str) -> Path:
        return Path(self.directory) / f"{stem}.members.npy"

    def sizes_path(self, stem: str) -> Path:
        return Path(self.directory) / f"{stem}.sizes.npy"

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def write_chunk(
        self, index: int, sizes: np.ndarray, members: np.ndarray
    ) -> SlabRef:
        """Write one chunk's CSR pair into its slab pair; return the receipt.

        The pair arrives already range-checked and cast by
        :func:`pack_chunk`.  Members land first, sizes second, both via
        ``os.replace``; the receipt is only returned after both renames,
        so a ref in hand means a complete slab.  Re-executions
        (supervisor re-dispatch, stragglers) rewrite byte-identical
        content, making the overwrite idempotent.
        """
        stem = self._stem(index)
        members_path = self.members_path(stem)
        # A members file already on disk means a previous attempt died
        # between the two renames (or a straggler duplicate is racing a
        # finished rewrite): this execution is attempt > 0 for the
        # mid-write fault probe, so default chaos schedules let it pass.
        attempt = 1 if members_path.exists() else 0
        sizes = np.asarray(sizes, dtype=np.int64)
        members = np.asarray(members)
        _atomic_save(members_path, members)
        if attempt == 0:
            maybe_inject("storage.slab_write")
        maybe_inject_process("storage.slab_write", index, attempt)
        _atomic_save(self.sizes_path(stem), sizes)
        return SlabRef(
            index=int(index),
            count=int(sizes.size),
            total_members=int(members.size),
            member_dtype=members.dtype.str,
            stem=stem,
        )

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------
    def read_chunk(self, ref: SlabRef, mmap: bool = True) -> ChunkCSR:
        """Load one slab pair as ``(sizes, members)``; cross-checked."""
        try:
            members = np.load(
                self.members_path(ref.stem), mmap_mode="r" if mmap else None
            )
            sizes = np.load(self.sizes_path(ref.stem))
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"chunk {ref.index}: unreadable slab under {self.directory}: {exc}"
            ) from exc
        if sizes.size != ref.count or int(sizes.sum()) != members.size:
            raise StorageError(
                f"chunk {ref.index}: torn slab (sizes/members mismatch)"
            )
        return ChunkCSR(sizes, members)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def cleanup(self) -> None:
        """Delete the slab directory (safe to call twice)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SlabStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cleanup()


def assemble(
    chunks: Sequence[Union[ChunkCSR, SlabRef]],
    dtype: Union[str, np.dtype],
    store: Optional[SlabStore] = None,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    backing: Optional[str] = None,
    spill_dir: Union[str, Path, None] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate chunk CSR pairs, in plan order, into final CSR inputs.

    ``chunks`` are the results of either transport: :class:`ChunkCSR`
    pairs already on the coordinator (heap transport, ``store=None``),
    or :class:`SlabRef` receipts that ``store`` reads back one
    memory-mapped slab at a time (shared transport).  Returns
    ``(sizes, members)``: ``int64`` RR-set sizes and the member stream
    in ``dtype``.  Each chunk is copied straight into its extent of the
    pre-allocated output — one pass, no intermediate list.

    The destination is chosen by ``out``/``backing``, independently of
    the transport: pass ``out=(sizes, members)`` to fill caller-owned
    arrays (they must match the totals and dtypes exactly), or
    ``backing="mmap"`` to allocate both destinations as spill files
    under ``spill_dir`` (resolution: arg > ``REPRO_SPILL_DIR`` > system
    temp).  The default, ``backing=None``/``"heap"``, keeps in-heap
    arrays.  Contents are bit-identical in every mode.
    """
    target = np.dtype(dtype)
    total_edges = sum(chunk.count for chunk in chunks)
    total_members = sum(chunk.total_members for chunk in chunks)
    if out is not None:
        sizes, members = out
        if sizes.shape != (total_edges,) or sizes.dtype != np.int64:
            raise StorageError(
                f"assemble out sizes must be int64[{total_edges}], got "
                f"{sizes.dtype}{list(sizes.shape)}"
            )
        if members.shape != (total_members,) or members.dtype != target:
            raise StorageError(
                f"assemble out members must be {target.name}"
                f"[{total_members}], got {members.dtype}{list(members.shape)}"
            )
    else:
        sizes = empty_array(
            total_edges, np.int64, backing=backing, spill_dir=spill_dir,
            name_hint="rr-sizes",
        )
        members = empty_array(
            total_members, target, backing=backing, spill_dir=spill_dir,
            name_hint="rr-members",
        )
    edge_at = 0
    member_at = 0
    for index, chunk in enumerate(chunks):
        chunk_sizes, chunk_members = chunk if store is None else store.read_chunk(chunk)
        if chunk_members.dtype != target:
            raise StorageError(
                f"chunk {index}: member dtype {chunk_members.dtype} != "
                f"assembly dtype {target}"
            )
        sizes[edge_at : edge_at + chunk_sizes.size] = chunk_sizes
        members[member_at : member_at + chunk_members.size] = chunk_members
        edge_at += chunk_sizes.size
        member_at += chunk_members.size
    return sizes, members
