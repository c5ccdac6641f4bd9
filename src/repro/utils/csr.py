"""One blocked, stable CSR transpose.

A CSR pair ``(offsets, columns)`` lists, row by row, the column of each
entry.  Its transpose lists, column by column, the row of each entry,
rows ascending within a column.  The whole-array way to build it is

    rows = np.repeat(np.arange(num_rows), np.diff(offsets))
    transposed = rows[np.argsort(columns, kind="stable")]

which allocates three stream-sized arrays (the repeated row ids, the
``intp`` permutation and ``bincount``'s ``intp`` cast of the columns)
on top of the output.  :func:`transpose_into` writes the same output a
block of entries at a time: a stable argsort of the block, then a
scatter through a per-column cursor.  Blocks run in stream order and
each column's entries of a block land in their stream order, so every
column's slice comes out exactly as the whole-stream stable sort orders
it.  Its temporaries scale with :data:`BLOCK_ENTRIES` and the column
count, never with the stream.

The graph builder's two sorting scatters, the graph's in-adjacency,
the hyper-graph's inverted index, the append of a hyper-graph
instalment and the bucket scatter of the spill-backed external sort
all go through this kernel; the append first moves the existing slices
up with :func:`move_slices`, in blocks of the same size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["BLOCK_ENTRIES", "column_offsets", "move_slices", "transpose_into"]

#: Stream entries per block: bounds every per-entry temporary of a transpose.
BLOCK_ENTRIES = 1 << 16


def column_offsets(
    columns: Union[np.ndarray, Iterable[np.ndarray]], num_columns: int
) -> np.ndarray:
    """``int64`` offsets ``[0, cumsum(bincount(columns))...]`` of the transpose.

    ``columns`` is one array of column ids or an iterable of them, whose
    entries count together.  ``np.bincount`` casts its input to
    ``intp`` and passes over all ``num_columns`` counts, so the entries
    are counted in batches of ``max(BLOCK_ENTRIES, num_columns)`` to
    twice that: the cast stays no larger than the counts themselves,
    and each batch's ``O(num_columns)`` pass is amortized over at least
    as many entries, however small the arrays.
    """
    if isinstance(columns, np.ndarray):
        columns = [columns]
    offsets = np.zeros(num_columns + 1, dtype=np.int64)
    for batch in _batches(columns, max(BLOCK_ENTRIES, num_columns)):
        offsets[1:] += np.bincount(batch, minlength=num_columns)
    np.cumsum(offsets, out=offsets)
    return offsets


def _batches(arrays: Iterable[np.ndarray], step: int) -> Iterator[np.ndarray]:
    """The entries of ``arrays`` in arrays of ``step`` to ``2 * step - 1``
    entries; only the last may be shorter."""
    pending: List[np.ndarray] = []
    size = 0
    for array in arrays:
        array = np.asarray(array)
        for lo in range(0, array.size, step):
            pending.append(array[lo : lo + step])
            size += pending[-1].size
            if size >= step:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, size = [], 0
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _block_rows(offsets: np.ndarray, lo: int, hi: int, dtype) -> np.ndarray:
    """The row of each stream entry ``lo .. hi - 1`` of CSR row ``offsets``."""
    first = int(np.searchsorted(offsets, lo, side="right")) - 1
    last = int(np.searchsorted(offsets, hi, side="left"))
    bounds = np.clip(np.asarray(offsets[first : last + 1], dtype=np.int64), lo, hi)
    return np.repeat(np.arange(first, last, dtype=dtype), np.diff(bounds))


def transpose_into(
    columns: np.ndarray,
    cursor: np.ndarray,
    rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    values: Sequence[Tuple[np.ndarray, np.ndarray]] = (),
    start: int = 0,
) -> None:
    """Scatter stream entries ``start..`` into their columns' slices, stably.

    The entry at stream position ``i`` in column ``c = columns[i]`` goes
    to slot ``cursor[c]``, and ``cursor[c]`` (``int64``, one per column,
    updated in place) moves on.  With ``rows = (offsets, out)`` the
    entry's CSR row, read from the row ``offsets``, is written to
    ``out``; each ``(source, out)`` of ``values`` writes ``source[i]``.
    Row ids are absolute, so an append transposes only its new entries
    by passing the first one as ``start``.  Destinations may be
    spill-backed: the writes go through plain views of the same buffers.
    """
    columns = np.asarray(columns)
    if rows is not None:
        offsets, row_out = np.asarray(rows[0]), np.asarray(rows[1])
    values = [(np.asarray(source), np.asarray(out)) for source, out in values]
    for lo in range(start, columns.size, BLOCK_ENTRIES):
        hi = min(lo + BLOCK_ENTRIES, columns.size)
        order = _stable_order(columns[lo:hi], cursor.size)
        ordered = columns[lo:hi][order]
        head = np.empty(ordered.size, dtype=bool)
        head[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        run_starts = np.flatnonzero(head)
        run_sizes = np.diff(run_starts, append=ordered.size)
        # The k-th entry of a column's run in this block goes k slots
        # past the column's cursor.
        dest = np.arange(ordered.size, dtype=np.int64)
        dest -= np.repeat(run_starts, run_sizes)
        dest += cursor[ordered]
        if rows is not None:
            row_out[dest] = _block_rows(offsets, lo, hi, row_out.dtype)[order]
        for source, out in values:
            out[dest] = source[lo:hi][order]
        cursor[ordered[run_starts]] += run_sizes


def _stable_order(keys: np.ndarray, num_columns: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys below ``num_columns``.

    A stable sort's permutation is unique, so any stable sort gives it.
    Keys sort as ``uint16``, through numpy's radix sort: in one pass up
    to 65,536 columns, else (graph ids are ``int32``) in two, least
    significant digit first, the second stable pass keeping the first
    one's order among equal high digits.  On a block of random keys
    below 4M the two passes take 1.9 ms and one stable ``uint32``
    argsort, which numpy does by merging, 7.6 ms.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low 16 bits
    if num_columns <= 1 << 16:
        return order
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def move_slices(
    offsets: np.ndarray, new_offsets: np.ndarray, source: np.ndarray, out: np.ndarray
) -> None:
    """Copy row ``r``'s slice of ``source`` to ``out`` from ``new_offsets[r]`` on.

    ``offsets`` and ``new_offsets`` are ``int64`` CSR offsets with each
    new row at least as long as the old one.
    """
    source, out = np.asarray(source), np.asarray(out)
    shift = new_offsets - offsets
    for lo in range(0, source.size, BLOCK_ENTRIES):
        hi = min(lo + BLOCK_ENTRIES, source.size)
        dest = np.arange(lo, hi, dtype=np.int64)
        dest += shift[_block_rows(offsets, lo, hi, np.int64)]
        out[dest] = source[lo:hi]
