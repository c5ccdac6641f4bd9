"""Reverse-reachable set generation (the "poll" of Section 8).

A poll picks a node ``v`` uniformly at random and runs a reverse cascade
from ``v`` on the transpose graph; the reached set ``h`` is a *random
hyper-edge*.  The intuition: nodes with high influence appear in many random
hyper-edges.

The model-specific reverse cascade is delegated to
:meth:`repro.diffusion.base.DiffusionModel.rr_sampler` (by default
``sample_rr_set`` per root), so this module
works unchanged for IC, LT and general triggering models.

Polls are independent, so generation is chunked through the deterministic
parallel engine (:mod:`repro.parallel`): the requested count is
pre-partitioned into fixed chunks, chunk ``i`` draws from child stream
``i`` of the root seed, and chunks are concatenated in order — the sampled
hyper-graph is therefore bit-identical for any ``workers`` value.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.exceptions import EstimationError
from repro.obs.context import get_metrics, get_tracer
from repro.parallel.pool import DEFAULT_CHUNK_SIZE, partition_chunks, run_chunks
from repro.parallel.supervisor import SupervisionLike
from repro.rrset.storage import (
    ChunkCSR,
    SlabRef,
    SlabStore,
    assemble,
    member_dtype,
    pack_chunk,
    resolve_storage,
)
from repro.runtime.deadline import Deadline, DeadlineLike, as_deadline, deadline_iter
from repro.utils.rng import SeedLike, child_sequences

__all__ = ["sample_rr_csr", "sample_rr_sets"]


def _chunk_deadline(remaining: Optional[float]) -> Deadline:
    """The chunk-local budget: ``remaining`` seconds on the local clock."""
    if remaining is None:
        return Deadline.never()
    return Deadline.after(float(remaining))


def _rr_chunk_task(
    payload: Tuple[DiffusionModel, str, Optional[SlabStore]],
    index: int,
    count: int,
    seed_seq: np.random.SeedSequence,
    roots: Optional[np.ndarray],
    remaining: Optional[float],
) -> Union[ChunkCSR, SlabRef]:
    """Sample one chunk of RR sets — the single sampling kernel.

    Roots (when not given) are drawn *before* any cascade so the chunk's
    root choices never depend on how far earlier cascades advanced the
    stream — the layout the checkpoint/resume determinism tests pin down.
    The adaptive-stride deadline polling of
    :func:`~repro.runtime.deadline.deadline_iter` bounds expiry overshoot
    to roughly one RR set's work even on dense graphs.

    The chunk leaves as a range-checked :class:`ChunkCSR` pair at the
    member dtype.  Without a slab ``store`` (heap transport) the pair
    itself is pickled back; with one (shared transport) it is written to
    the chunk's slab files and only the ~100-byte
    :class:`~repro.rrset.storage.SlabRef` receipt crosses the process
    boundary.  Re-dispatch after a worker crash rewrites byte-identical
    slabs (same child seed stream), so the overwrite is idempotent.
    """
    model, dtype, store = payload
    rng = np.random.default_rng(seed_seq)
    if roots is None:
        roots = rng.integers(0, model.num_nodes, size=count)
    budget = _chunk_deadline(remaining)
    # The per-set loop is the hot path: index Python-int roots and call
    # one sampler closure, not numpy scalars and a method lookup per set.
    # The sampler may draw ahead of its sets (IC's block-drawn coins): it
    # owns ``rng`` from here on, and the generator dies with the chunk.
    root_ids = roots.tolist()
    sample = model.rr_sampler(rng)
    rr_sets = [sample(root_ids[position]) for position in deadline_iter(count, budget)]
    chunk = pack_chunk(rr_sets, dtype, index)
    return chunk if store is None else store.write_chunk(index, *chunk)


def _sampling_plan(
    model: DiffusionModel,
    count: int,
    seed: SeedLike,
    roots: Optional[Sequence[int]],
    chunk_size: Optional[int],
    start_at: int,
):
    """Validate the request and lay out the deterministic chunk plan.

    Returns ``(sizes, chunk_args)`` with one ``(index, size, sequence,
    roots)`` tuple per chunk, or ``None`` for an empty request.  Both
    transports execute this *same* plan (identical chunk boundaries and
    child seed streams).
    """
    if count < 0:
        raise EstimationError(f"count must be non-negative, got {count}")
    if model.num_nodes == 0:
        raise EstimationError("cannot sample RR sets of an empty graph")
    size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
    if start_at < 0:
        raise EstimationError(f"start_at must be non-negative, got {start_at}")
    if size > 0 and start_at % size != 0:
        raise EstimationError(
            f"start_at must be chunk-aligned (a multiple of {size}), got "
            f"{start_at}: the sampling plan's chunk boundaries are fixed"
        )
    root_arr: Optional[np.ndarray] = None
    if roots is not None:
        root_arr = np.asarray(roots, dtype=np.int64)
        if root_arr.shape != (count,):
            raise EstimationError(
                f"roots must have length {count}, got {root_arr.shape}"
            )
    if count == 0:
        return None

    sizes = partition_chunks(count, chunk_size)
    sequences = child_sequences(seed, start_at // size, len(sizes))
    chunk_args = []
    offset = 0
    for index, (size, sequence) in enumerate(zip(sizes, sequences)):
        chunk_roots = None if root_arr is None else root_arr[offset : offset + size]
        chunk_args.append((index, size, sequence, chunk_roots))
        offset += size
    return sizes, chunk_args


def sample_rr_csr(
    model: DiffusionModel,
    count: int,
    seed: SeedLike = None,
    roots: Optional[Sequence[int]] = None,
    deadline: DeadlineLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    start_at: int = 0,
    supervision: "SupervisionLike" = None,
    storage: Optional[str] = None,
    slab_dir=None,
    backing: Optional[str] = None,
    spill_dir=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` random RR sets as a CSR pair ``(sizes, members)``.

    The result is the flat form the hyper-graph stores: ``int64``
    per-edge sizes and the member stream in the dtype policy's member
    width (see :mod:`repro.rrset.storage`).  Edge ``i`` is
    ``members[sum(sizes[:i]) : sum(sizes[:i + 1])]`` and always contains
    its root.

    Parameters
    ----------
    model:
        Any diffusion model exposing ``sample_rr_set`` (sampled through
        its ``rr_sampler`` hook, one per chunk).
    count:
        Number of hyper-edges ``theta`` to generate.
    seed:
        RNG seed (int / Generator / SeedSequence / None).  For a fixed
        seed the output is identical for every ``workers``, ``storage``
        and ``backing`` value.
    roots:
        Optional explicit poll roots (length ``count``); default draws roots
        uniformly from ``V`` — the distribution required for the unbiased
        estimators (Theorem 9 and the ``n * deg_H(S) / theta`` estimator of
        the polling framework).
    deadline:
        Optional run budget (seconds or :class:`~repro.runtime.Deadline`).
        On expiry the sets sampled so far are returned — fewer hyper-edges
        only widen the estimator's variance, never bias it, because each
        RR set is drawn i.i.d.  Expiring before *any* set was sampled
        raises :class:`~repro.exceptions.DeadlineExceeded`.
    workers:
        Parallel sampling processes: ``1`` runs inline, ``"auto"`` means
        one per CPU, ``None`` defers to the ``REPRO_WORKERS`` environment
        variable (default 1).
    chunk_size:
        Sets per work chunk (default
        :data:`~repro.parallel.pool.DEFAULT_CHUNK_SIZE`).  Part of the
        deterministic plan: changing it changes the sampled streams.
    start_at:
        Offset into the *global* sampling plan of ``seed``: the call
        produces hyper-edges ``start_at .. start_at+count-1`` exactly as a
        single call for ``start_at + count`` sets would have, because
        chunk ``i`` of the plan always draws from child ``i`` of the root
        seed.  Must be a multiple of the chunk size (the plan's chunk
        boundaries are fixed); this is how
        :func:`repro.rrset.adaptive.adaptive_hypergraph` extends a
        hyper-graph in instalments that stay bit-identical to a one-shot
        build.  Note a ``SeedSequence``/int seed keeps the plan stable
        across calls; a live ``Generator`` is consumed at the first call.
    supervision:
        Pool recovery policy (see :mod:`repro.parallel.supervisor`);
        never changes the sampled sets of a run that completes.
    storage, slab_dir:
        The chunk transport.  ``"heap"`` (default) pickles each chunk's
        CSR pair back through the pool.  ``"shared"`` writes it into a
        memory-mapped slab pair under a per-run :class:`SlabStore`
        directory (``slab_dir`` or ``REPRO_SLAB_DIR`` or ``/dev/shm``)
        and pickles only a ~100-byte receipt; at large ``theta`` this
        removes the dominant transfer cost of pooled sampling.  The
        ``storage.*`` metrics record each transport's pickle volume,
        which ``python -m repro.rrset.bench --scale`` reports as
        bytes-pickled-per-chunk.
    backing, spill_dir:
        Where the *assembled* arrays live, under either transport:
        ``"heap"``/``None`` allocates ordinary arrays, ``"mmap"`` copies
        the chunks straight into spill files under ``spill_dir`` (or
        ``REPRO_SPILL_DIR`` or the system temp dir).  Only the shared
        transport also keeps the chunks themselves off the coordinator
        heap, so only it bounds the coordinator's resident set
        independently of ``theta``.
    """
    from repro.utils.spill import peak_rss_mb, resolve_backing

    mode = resolve_storage(storage)
    backing_mode = resolve_backing(backing)
    dtype = member_dtype(model.num_nodes)
    plan = _sampling_plan(model, count, seed, roots, chunk_size, start_at)
    if plan is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    planned_sizes, chunk_args = plan
    budget = as_deadline(deadline)
    metrics = get_metrics()
    tracer = get_tracer()
    # The transport is the one storage choice: a slab store for "shared",
    # none for "heap".  Everything below is the same for both.
    store = SlabStore.create(slab_dir) if mode == "shared" else None
    with store or nullcontext(), tracer.span(
        "rrset.sample",
        theta=count,
        chunks=len(planned_sizes),
        start_at=start_at,
        storage=mode,
    ) as span:
        # The slab path is random per run: a runtime note, not an
        # attribute, so canonical traces repeat exactly.
        span.note(slab_dir=store and store.directory)
        chunks, expired = run_chunks(
            _rr_chunk_task,
            (model, dtype.str, store),
            chunk_args,
            workers=workers,
            deadline=budget,
            inject_site="sampler.chunk",
            supervision=supervision,
        )
        # Chunk events come off the ordered results list, never from
        # completion order, so traces stay identical across worker counts.
        for index, made in enumerate(chunk.count for chunk in chunks):
            span.event("chunk", index=index, planned=planned_sizes[index], produced=made)
            metrics.observe("rrset.chunk_items", made)
        # Summed before assembly, which releases each heap chunk once copied.
        slab_bytes = sum(c.slab_bytes for c in chunks)
        pickled_bytes = sum(c.pickled_bytes for c in chunks)
        with tracer.span(
            "storage.assemble", chunks=len(chunks), backing=backing_mode
        ) as assemble_span:
            sizes, members = assemble(
                chunks, dtype, store=store, backing=backing_mode, spill_dir=spill_dir
            )
            assemble_span.set(
                produced=int(sizes.size),
                total_members=int(members.size),
                slab_bytes=int(members.nbytes + sizes.nbytes),
            )
            # The high-water mark differs run to run: a runtime note, so
            # neither traces nor metrics snapshots lose their determinism.
            assemble_span.note(peak_rss_mb=peak_rss_mb())
        produced = int(sizes.size)
        span.set(produced=produced, truncated=expired)
        metrics.inc("rrset.requested_total", count)
        metrics.inc("rrset.sampled_total", produced)
        # Total member count = the width of the CSR stream the hyper-graph
        # build will allocate; BENCH_cd.json reports it alongside timings.
        metrics.inc("rrset.nodes_sampled_total", int(members.size))
        metrics.inc("storage.slab_bytes_total", slab_bytes)
        metrics.inc("storage.pickled_bytes_total", pickled_bytes)
        metrics.inc("storage.assemblies_total")
        if expired:
            metrics.inc("rrset.truncated_total")
        if produced == 0:
            budget.check("sampling the first RR set")
    return sizes, members


def sample_rr_sets(
    model: DiffusionModel,
    count: int,
    seed: SeedLike = None,
    roots: Optional[Sequence[int]] = None,
    deadline: DeadlineLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    start_at: int = 0,
    supervision: "SupervisionLike" = None,
) -> List[np.ndarray]:
    """:func:`sample_rr_csr` (heap transport) as a list of ``int64`` arrays.

    A view for callers that want one array per hyper-edge: same
    parameters, plan, streams, span and metrics.  The list is shorter
    than ``count`` only when the deadline expired.
    """
    sizes, members = sample_rr_csr(
        model,
        count,
        seed=seed,
        roots=roots,
        deadline=deadline,
        workers=workers,
        chunk_size=chunk_size,
        start_at=start_at,
        supervision=supervision,
    )
    stream = members.astype(np.int64)
    bounds = np.cumsum(sizes).tolist()
    return [stream[end - size : end] for size, end in zip(sizes.tolist(), bounds)]
