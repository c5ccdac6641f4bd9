"""Bounded-memory configuration-model assembly on spill files.

The in-heap `powerlaw_configuration` path materializes the whole stub
list (~70M ``int64`` at com-LiveJournal scale) and the doubled ``u*n+v``
key stream (~140M entries) — several GB of transient heap for a graph
whose final CSR is a fraction of that.  This module rebuilds the same
pipeline out of *passes over spill files* (:mod:`repro.utils.spill`),
keeping the coordinator's anonymous heap at O(n) (degree/offset vectors)
plus one O(chunk) transient, regardless of edge count:

1. **Stub spill.**  ``np.repeat(arange(n), degrees)`` is written chunk
   by chunk into a file-backed array, then shuffled in place through a
   plain ``ndarray`` view of the same buffer (``Generator.shuffle`` on
   the ``np.memmap`` subclass itself goes through one Python-level
   ``memmap.__getitem__`` per element).  The shuffle consumes the
   identical random stream for a file-backed buffer as for a heap array
   (it depends only on the length), so the shuffled content is
   bit-identical to the heap path's.
2. **Key spill.**  Pair the two stub halves chunkwise, drop self-loops,
   encode ``u*n+v`` (plus the reversed key when undirected) into a
   second spill file.  The heap path emits forward keys then reversed
   keys while this pass interleaves them per chunk — irrelevant, because
   the next step's output is order-independent.
3. **External sort + dedup.**  A two-pass bucket sort: a histogram pass
   over ``key // fine_width`` sizes ~64K fine ranges, greedily grouped
   into coarse buckets of bounded entry count; a scatter pass copies
   each chunk's keys into their bucket extents (stable within a chunk);
   then each bucket — a disjoint, ascending key range — is sorted *in
   place* and compacted forward by
   :func:`repro.graphs.build.sorted_unique` (an adjacent-difference
   mask; no hash table, no copy).  Concatenating the per-range distinct
   keys over ascending disjoint ranges gives the distinct keys of the
   whole stream, so the deduped key spill is bit-identical to the heap
   path's ``sorted_unique(keys)``, which equals ``np.unique(keys)``.
4. **CSR extraction.**  Decode sources/targets chunkwise into
   spill-backed CSR arrays (all probabilities 1.0).  For undirected
   graphs the key set is symmetric, so the in-adjacency *is* the
   out-adjacency and the arrays are shared; for directed graphs the
   reversed keys ``v*n+u`` run through the same external sort to build
   the transpose — both reproduce ``DiGraph._build_in_adjacency``'s
   stable-argsort result exactly (within a target, sources ascend).

Every pass calls :func:`repro.utils.spill.release_pages` after its
sequential sweep so dirty file-backed pages move to the page cache
instead of accumulating in the process's resident set.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.graphs.build import sorted_unique
from repro.graphs.digraph import DiGraph
from repro.obs.context import get_tracer
from repro.utils.spill import release_pages, spill_array

__all__ = ["streaming_configuration_csr"]

#: Entries (not bytes) per streaming pass chunk: 8M int64 = 64 MB.
STREAM_CHUNK = 1 << 23

#: Target entries per external-sort bucket; each bucket is sorted in core
#: (two transient copies of this many int64 = ~128 MB at the default).
BUCKET_ENTRIES = 1 << 23

#: Fine histogram resolution for the bucket planner.
_FINE_BUCKETS = 1 << 16


def _write_stub_spill(
    n: int,
    degrees: np.ndarray,
    spill_dir: Union[str, Path, None],
    chunk: int,
) -> np.ndarray:
    """Spill-backed equivalent of ``np.repeat(arange(n), degrees)``."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    stubs = spill_array(int(offsets[-1]), np.int64, spill_dir, "stubs")
    node = 0
    while node < n:
        # Advance to the node whose slice ends this chunk (always at
        # least one node, so a single degree larger than the chunk still
        # makes progress with a transient of that one slice).
        end = int(np.searchsorted(offsets, offsets[node] + chunk, side="right")) - 1
        end = min(max(end, node + 1), n)
        segment = np.repeat(np.arange(node, end, dtype=np.int64), degrees[node:end])
        stubs[offsets[node] : offsets[node] + segment.size] = segment
        node = end
    release_pages(stubs)
    return stubs


def _write_key_spill(
    stubs: np.ndarray,
    n: int,
    directed: bool,
    spill_dir: Union[str, Path, None],
    chunk: int,
) -> Tuple[np.ndarray, int]:
    """Pair stub halves into ``u*n+v`` keys (self-loops dropped).

    Returns the key spill and the number of valid leading entries (the
    capacity assumes no self-loops; drops leave a slack tail unused).
    """
    half = stubs.size // 2
    capacity = half if directed else 2 * half
    keys = spill_array(capacity, np.int64, spill_dir, "keys")
    cursor = 0
    for start in range(0, half, chunk):
        stop = min(start + chunk, half)
        left = np.asarray(stubs[start:stop])
        right = np.asarray(stubs[half + start : half + stop])
        keep = left != right
        left, right = left[keep], right[keep]
        forward = left * n + right
        keys[cursor : cursor + forward.size] = forward
        cursor += forward.size
        if not directed:
            keys[cursor : cursor + forward.size] = right * n + left
            cursor += forward.size
    release_pages(stubs)
    release_pages(keys)
    return keys, cursor


def _sort_unique_spill(
    keys: np.ndarray,
    count: int,
    n: int,
    spill_dir: Union[str, Path, None],
    chunk: int,
    bucket_entries: int,
) -> Tuple[np.ndarray, int]:
    """External sort + dedup of ``keys[:count]``; equals ``np.unique``.

    Two passes plus an in-core sweep: histogram ``key // fine_width``
    into ~64K fine ranges, group them into coarse buckets of at most
    ``bucket_entries`` (+ one fine range) entries, scatter every key
    into its bucket's extent of a scratch spill, then sort each bucket
    in place and compact its distinct keys forward.  Buckets partition
    the key space into ascending disjoint ranges, so the concatenation
    of their sorted deduped contents is the sorted deduped whole.
    """
    scratch = spill_array(count, np.int64, spill_dir, "sorted-keys")
    if count == 0:
        return scratch, 0
    fine_width = max(1, -(-(n * n) // _FINE_BUCKETS))
    fine_counts = np.zeros(_FINE_BUCKETS, dtype=np.int64)
    for start in range(0, count, chunk):
        block = np.asarray(keys[start : start + chunk][: count - start])
        fine_counts += np.bincount(block // fine_width, minlength=_FINE_BUCKETS)
    coarse_of_fine = (np.cumsum(fine_counts) - fine_counts) // bucket_entries
    num_coarse = int(coarse_of_fine[-1]) + 1
    coarse_counts = np.zeros(num_coarse, dtype=np.int64)
    np.add.at(coarse_counts, coarse_of_fine, fine_counts)
    bucket_starts = np.zeros(num_coarse + 1, dtype=np.int64)
    np.cumsum(coarse_counts, out=bucket_starts[1:])
    cursors = bucket_starts[:-1].copy()

    for index, start in enumerate(range(0, count, chunk)):
        block = np.asarray(keys[start : start + chunk][: count - start])
        bucket_ids = coarse_of_fine[block // fine_width]
        order = np.argsort(bucket_ids, kind="stable")
        sorted_keys = block[order]
        sorted_ids = bucket_ids[order]
        # The ids are sorted, so each bucket's segment ends where they change.
        change = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        segment_starts = np.append(0, change)
        segment_ends = np.append(change, sorted_ids.size)
        present = sorted_ids[segment_starts]
        for bucket, seg_lo, seg_hi in zip(present, segment_starts, segment_ends):
            at = cursors[bucket]
            scratch[at : at + (seg_hi - seg_lo)] = sorted_keys[seg_lo:seg_hi]
            cursors[bucket] = at + (seg_hi - seg_lo)
        if index % 8 == 7:
            release_pages(scratch)
    release_pages(keys)

    write_at = 0
    for bucket in range(num_coarse):
        lo, hi = int(bucket_starts[bucket]), int(bucket_starts[bucket + 1])
        if hi == lo:
            continue
        unique = sorted_unique(np.asarray(scratch[lo:hi]))
        scratch[write_at : write_at + unique.size] = unique
        write_at += unique.size
        release_pages(scratch)
    return scratch, write_at


def _csr_from_sorted_keys(
    sorted_keys: np.ndarray,
    num_edges: int,
    n: int,
    spill_dir: Union[str, Path, None],
    chunk: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ascending unique keys into spill-backed CSR arrays."""
    out_degree = np.zeros(n, dtype=np.int64)
    targets = spill_array(num_edges, np.int32, spill_dir, "targets")
    probs = spill_array(num_edges, np.float64, spill_dir, "probs")
    for start in range(0, num_edges, chunk):
        block = np.asarray(sorted_keys[start : start + chunk][: num_edges - start])
        out_degree += np.bincount(block // n, minlength=n)
        targets[start : start + block.size] = block % n
        probs[start : start + block.size] = 1.0
    # Offsets spill too: they are only O(n), but a heap offsets array
    # would pickle by value into every pool worker (~32 MB per direction
    # at com-LiveJournal scale) where a spill receipt costs ~100 bytes.
    offsets = spill_array(n + 1, np.int64, spill_dir, "offsets")
    np.cumsum(out_degree, out=offsets[1:])
    release_pages(targets)
    release_pages(probs)
    return offsets, targets, probs


def streaming_configuration_csr(
    n: int,
    degrees: np.ndarray,
    rng: np.random.Generator,
    directed: bool,
    spill_dir: Union[str, Path, None] = None,
    chunk: int = STREAM_CHUNK,
    bucket_entries: Optional[int] = None,
) -> DiGraph:
    """Out-of-core tail of the configuration model; bit-identical output.

    Takes over `powerlaw_configuration` *after* the degree sequence is
    drawn (and parity-fixed): stub matching, self-loop/duplicate
    removal and CSR assembly all run as chunked passes over spill
    files, and the returned :class:`DiGraph` owns memmap-backed edge
    arrays.  ``rng`` must be positioned exactly where the heap path
    would call ``rng.shuffle`` — the single remaining draw — so the
    edge set matches the in-heap result bit for bit (pinned by
    ``tests/graphs/test_streaming.py``).
    """
    bucket_entries = BUCKET_ENTRIES if bucket_entries is None else int(bucket_entries)
    stubs = _write_stub_spill(n, degrees, spill_dir, chunk)
    rng.shuffle(stubs.view(np.ndarray))
    keys, key_count = _write_key_spill(stubs, n, directed, spill_dir, chunk)
    del stubs
    with get_tracer().span("graphs.dedup", keys=key_count) as span:
        sorted_keys, num_edges = _sort_unique_spill(
            keys, key_count, n, spill_dir, chunk, bucket_entries
        )
        span.set(edges=num_edges)
    del keys
    out_offsets, out_targets, out_probs = _csr_from_sorted_keys(
        sorted_keys, num_edges, n, spill_dir, chunk
    )
    if directed:
        # The transpose comes from the reversed keys v*n+u, run through
        # the same external sort.  Within one target the sources ascend,
        # matching _build_in_adjacency's stable argsort exactly.
        reversed_keys = spill_array(num_edges, np.int64, spill_dir, "rkeys")
        for start in range(0, num_edges, chunk):
            block = np.asarray(
                sorted_keys[start : start + chunk][: num_edges - start]
            )
            reversed_keys[start : start + block.size] = (
                (block % n) * n + block // n
            )
        release_pages(reversed_keys)
        del sorted_keys
        with get_tracer().span("graphs.dedup", keys=num_edges) as span:
            sorted_reversed, reversed_count = _sort_unique_spill(
                reversed_keys, num_edges, n, spill_dir, chunk, bucket_entries
            )
            span.set(edges=reversed_count)
        del reversed_keys
        in_offsets, in_sources, in_probs = _csr_from_sorted_keys(
            sorted_reversed, reversed_count, n, spill_dir, chunk
        )
        del sorted_reversed
    else:
        # Undirected doubling makes the key set symmetric: the transpose
        # equals the out-adjacency, so the arrays are shared outright.
        del sorted_keys
        in_offsets, in_sources, in_probs = out_offsets, out_targets, out_probs
    return DiGraph.from_csr_pair(
        n, out_offsets, out_targets, out_probs, in_offsets, in_sources, in_probs
    )
