"""Graph input/output: SNAP-style edge lists and binary CSR directories.

The SNAP text format is one edge per line — ``source<TAB>target`` — with
``#`` comment lines.  An optional third column carries the edge probability.
Node ids in the file may be arbitrary non-negative integers; they are
remapped to a dense ``0..n-1`` range, and :func:`read_edge_list` returns the
mapping so results can be reported in original ids.

For graphs too large to re-parse (or re-generate) per run there is a
binary form: :func:`save_csr` writes both CSR directions as plain
``.npy`` files in a directory, and :func:`load_csr` reopens them —
``mmap=True`` maps the edge arrays straight from disk (``np.memmap``),
so a com-LiveJournal-scale graph loads in milliseconds without heap
copies and round-trips spill-backed graphs exactly.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.build import _MAX_NODES, csr_from_parts, sorted_unique
from repro.graphs.digraph import DiGraph
from repro.obs.context import get_tracer
from repro.utils.spill import peak_rss_mb

__all__ = ["read_edge_list", "write_edge_list", "save_csr", "load_csr"]

PathLike = Union[str, Path]


def read_edge_list(
    path: PathLike,
    undirected: bool = False,
    default_probability: float = 1.0,
    relabel: bool = True,
) -> Tuple[DiGraph, Dict[int, int]]:
    """Read a SNAP-style edge list.

    Parameters
    ----------
    path:
        Text file with ``u v [probability]`` per line; ``#`` starts a comment.
    undirected:
        If true each line is added in both directions (the paper's
        treatment of undirected networks).
    default_probability:
        Probability used when the line has no third column.
    relabel:
        If true (default) arbitrary ids are compacted to ``0..n-1`` in
        order of first appearance.

    Returns
    -------
    (graph, id_map):
        ``id_map`` maps original file id -> dense graph id (identity when
        ``relabel=False``).

    Every rejected line raises :class:`GraphError` naming its 1-based
    line number.  Plain-ASCII files are parsed by numpy in columns; any
    other file, or one that fails a check, is read line by line with
    Python's own ``str.split``, ``int`` and ``float``, which accept the
    same syntax.
    """
    path = Path(path)
    if not 0.0 <= default_probability <= 1.0:
        raise GraphError("default_probability must lie in [0, 1]")
    id_map: Optional[Dict[int, int]] = None
    with get_tracer().span("graphs.read", undirected=undirected, relabel=relabel) as span:
        parts = _columns(path, default_probability, relabel)
        span.set(reader="columns" if parts is not None else "lines")
        if parts is None:
            (ids, probs, lines), id_map = _line_columns(path, default_probability, relabel)
            _check_values(path, ids, probs, lines, relabel)
            parts = [(ids.reshape(-1), probs)]
            del ids, probs, lines
        rows = sum(probs.size for _, probs in parts)
        if relabel and id_map is None:
            originals = _first_appearance([pairs for pairs, _ in parts])
        n = max((int(pairs.max()) + 1 for pairs, _ in parts if pairs.size), default=0)
        if n > _MAX_NODES:
            raise GraphError(f"{n} nodes exceed the int32 target range")
        # Ids below n fit int32; the build empties the list as it goes,
        # freeing each window.
        for i, (pairs, probs) in enumerate(parts):
            parts[i] = (pairs[0::2].astype(np.int32), pairs[1::2].astype(np.int32), probs)
        graph = csr_from_parts(parts, n, undirected)
        span.set(rows=rows, nodes=graph.num_nodes, edges=graph.num_edges)
        span.note(peak_rss_mb=peak_rss_mb())
    if not relabel:
        id_map = {i: i for i in range(graph.num_nodes)}
    elif id_map is None:
        id_map = dict(zip(originals.tolist(), range(originals.size)))
    return graph, id_map


#: Bytes of the file scanned per window: bounds every per-byte and
#: per-token temporary of the columnar reader.
_WINDOW_BYTES = 1 << 18
#: Longest probability token the columnar reader converts (an exact
#: float repr needs at most 24 characters).
_MAX_FLOAT_WIDTH = 32
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One window's rows: the ``u v`` ids flattened (``u0 v0 u1 v1 ...``)
#: and the probabilities.
Rows = Tuple[np.ndarray, np.ndarray]


def _columns(path: Path, default_probability: float, relabel: bool = True) -> Optional[List[Rows]]:
    """Parse the edge list in numpy, one window of whole lines at a time.

    Returns each window's :data:`Rows`, or ``None`` to hand the file to
    the line reader, which names the offending line: a line with a
    token count other than 0, 2 or 3, an id that ``np.loadtxt`` rejects
    (anything but a plain decimal inside int64), an unparsable
    probability, or a byte outside printable ASCII and whitespace.
    Every window that parses is value-checked at once
    (:func:`_check_values`): the windows before it parsed too, so its
    first bad row is the first one of the file, as the line reader
    would report it.
    """
    parts: List[Rows] = []
    lines_before = 0
    for window in _windows(path):
        parsed = _window_columns(window, default_probability)
        if parsed is None:
            return None
        ids, probs, rows, line_ends = parsed
        rows += lines_before + 1
        _check_values(path, ids, probs, rows, relabel)
        parts.append((ids.reshape(-1), probs))
        lines_before += line_ends
    return parts


def _windows(path: Path) -> Iterator[np.ndarray]:
    """The file's bytes in windows of whole lines, about ``_WINDOW_BYTES`` each.

    A window ends after a ``\\n`` or a lone ``\\r``; a ``\\r`` that ends a
    read may be the first half of ``\\r\\n``, so it waits for the next.
    """
    carry = b""
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(_WINDOW_BYTES)
            data = carry + chunk
            if not chunk:
                if data:
                    yield np.frombuffer(data, dtype=np.uint8)
                return
            limit = len(data) - (data[-1] == 13)
            cut = max(data.rfind(b"\n", 0, limit), data.rfind(b"\r", 0, limit)) + 1
            if cut:
                yield np.frombuffer(data, dtype=np.uint8, count=cut)
            carry = data[cut:]


def _window_columns(
    buf: np.ndarray, default_probability: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """``(ids, probs, rows, line_ends)`` of one window, or ``None``.

    ``ids`` is an ``(rows, 2)`` int64 array of the window's ``u v``
    pairs, ``probs`` the third column or ``default_probability``,
    ``rows`` each row's 0-based line in the window, and ``line_ends``
    the number of line ends in it.
    """
    # Bytes 9-13 and 28-32 are what str.split() takes for whitespace.  Any
    # other control byte, or a byte past printable ASCII (Unicode
    # whitespace and digits, UTF-8 errors), leaves the file to the line
    # reader, which keeps Python's exact semantics for it.
    if buf.max() > 126 or np.any(buf < 9) or np.any((buf > 13) & (buf < 28)):
        return None
    starts, stops, ends = _tokens(buf)
    before_end = np.searchsorted(starts, ends)  # tokens before each line end
    per_line = np.diff(before_end, prepend=0)
    if np.any((per_line == 1) | (per_line > 3)):
        return None
    rows = np.flatnonzero(per_line)
    three = per_line[rows] == 3
    third = before_end[rows[three]] - 1  # the last token of each 3-token row
    del before_end, per_line

    if rows.size:
        # numpy's C parser reads the two id columns of every row; the
        # token counts above already hold every line to 0, 2 or 3 tokens.
        text = io.StringIO(buf.tobytes().decode("ascii"), newline=None)
        try:
            ids = np.loadtxt(text, dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2)
        except ValueError:
            return None
        if ids.shape[0] != rows.size:
            return None
    else:
        ids = np.empty((0, 2), dtype=np.int64)
    # A window without a probability column keeps no per-row copy of the
    # default: a read-only broadcast stands in for it.
    probs = np.broadcast_to(np.float64(default_probability), rows.shape)
    if third.size:
        given = _float_tokens(buf, starts[third], stops[third])
        if given is None:
            return None
        probs = probs.copy()
        probs[three] = given
    return ids, probs, rows, ends.size - 1


def _tokens(buf: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token ``starts`` and ``stops`` (exclusive), and each line's end offset.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as text-mode
    iteration splits them; the last line ends at ``buf.size``.  Tokens are
    runs of bytes above space outside comments.
    """
    size = buf.size
    newline = buf == 10
    returns = np.flatnonzero(buf == 13)
    if returns.size:
        # The \r of \r\n is only whitespace.
        newline[returns[np.append(buf, 0)[returns + 1] != 10]] = True
    ends = np.append(np.flatnonzero(newline), size)  # line i ends at ends[i]
    del newline
    token = buf > 32
    hashes = np.flatnonzero(buf == 35)
    if hashes.size:
        # A comment runs from the first '#' of a line to the line's end.
        line = np.searchsorted(ends, hashes)
        first = np.ones(hashes.size, dtype=bool)
        np.not_equal(line[1:], line[:-1], out=first[1:])
        lo, hi = hashes[first], ends[line[first]]
        inside = np.zeros(hi[-1] - lo[0] + 1, dtype=np.int8)
        inside[lo - lo[0]] = 1
        inside[hi - lo[0]] = -1
        token[lo[0] : hi[-1]] &= np.cumsum(inside[:-1], dtype=np.int8) == 0
    flips = np.empty(size + 1, dtype=bool)
    flips[0], flips[-1] = token[:1].any(), token[-1:].any()
    np.not_equal(token[1:], token[:-1], out=flips[1:-1])
    del token
    bounds = np.flatnonzero(flips)
    return bounds[0::2], bounds[1::2], ends


def _float_tokens(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> Optional[np.ndarray]:
    """``float()`` of each token (numpy's bytes-to-float cast), else ``None``."""
    width = stops - starts
    widest = int(width.max())
    if widest > _MAX_FLOAT_WIDTH:
        return None
    text = np.zeros((starts.size, widest), dtype=np.uint8)
    for place in range(widest):
        live = width > place
        text[live, place] = buf[starts[live] + place]
    try:
        return text.view(f"S{widest}").ravel().astype(np.float64)
    except ValueError:
        return None


def _line_columns(
    path: Path, default_probability: float, relabel: bool
) -> Tuple[Columns, Optional[Dict[int, int]]]:
    """The line reader: :func:`_columns`'s output, by Python string rules.

    With ``relabel`` the ids come back dense, numbered in order of first
    appearance by a running ``dict`` that is returned as the id map, so
    original ids of any size are accepted; without it (and the map is
    ``None``) ids outside int64 are rejected.  Raises
    :class:`GraphError` at the first line that has a token count other
    than 0, 2 or 3, an id ``int()`` rejects, or a probability
    ``float()`` rejects.  A row before that line that breaks
    :func:`_check_values` is reported first, in file order.
    """
    id_map: Optional[Dict[int, int]] = {} if relabel else None
    ids: list = []
    probs: list = []
    lines: list = []

    def columns() -> Columns:
        return (
            np.array(ids, dtype=np.int64).reshape(-1, 2),
            np.array(probs, dtype=np.float64),
            np.array(lines, dtype=np.int64),
        )

    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                problem = f"expected 'u v [prob]', got {raw!r}"
            else:
                try:
                    u, v = int(parts[0]), int(parts[1])
                    prob = float(parts[2]) if len(parts) == 3 else default_probability
                except ValueError:
                    problem = f"unparsable edge {raw!r}"
                else:
                    if id_map is not None:
                        u = id_map.setdefault(u, len(id_map))
                        v = id_map.setdefault(v, len(id_map))
                    if _INT64_MIN <= min(u, v) and max(u, v) <= _INT64_MAX:
                        ids.append((u, v))
                        probs.append(prob)
                        lines.append(line_number)
                        continue
                    problem = f"node id out of the int64 range in {raw!r}"
            _check_values(path, *columns(), relabel)
            raise GraphError(f"{path}:{line_number}: {problem}")
    return columns(), id_map


def _check_values(
    path: Path, ids: np.ndarray, probs: np.ndarray, lines: np.ndarray, relabel: bool
) -> None:
    """Raise for the first row with a probability outside [0, 1], or a
    negative id when ids are kept (``relabel=False``)."""
    negative = (ids < 0).any(axis=1) if not relabel else np.zeros(probs.size, dtype=bool)
    bad = np.flatnonzero(negative | ~((probs >= 0.0) & (probs <= 1.0)))
    if bad.size:
        row = bad[0]
        if negative[row]:
            u, v = ids[row].tolist()
            raise GraphError(f"{path}:{lines[row]}: node ids must be non-negative, got ({u}, {v})")
        raise GraphError(
            f"{path}:{lines[row]}: edge probability must lie in [0, 1], got {float(probs[row])}"
        )


def _first_appearance(blocks: List[np.ndarray]) -> np.ndarray:
    """Renumber ids densely in order of first appearance, in place.

    ``blocks`` hold the ids in file order; each is rewritten with the
    dense ids, and the distinct originals come back in that order.  An
    id's slot is its offset from the smallest id when the ids span no
    more values than there are ids, else its rank among the distinct
    ids.  The earliest position of each slot ranks the slots as a
    running ``dict`` would number them.  Temporaries are a block's
    worth plus two ``int64`` arrays of one entry per slot (three with
    the distinct ids); either way there are no more slots than ids.
    The offset is the fast path: on the astroph list the rank search
    (``np.searchsorted`` of every id) takes 114 ms and the offsets 5 ms.
    """
    blocks = [block for block in blocks if block.size]
    if not blocks:
        return np.empty(0, dtype=np.int64)
    low = min(int(block.min()) for block in blocks)
    high = max(int(block.max()) for block in blocks)
    total = sum(block.size for block in blocks)
    distinct = _sorted_distinct(blocks) if high - low >= total else None
    slots = high - low + 1 if distinct is None else distinct.size
    unseen = np.iinfo(np.int64).max
    first = np.full(slots, unseen)
    position = 0
    for block in blocks:
        if distinct is None:
            block -= low
        else:
            block[:] = np.searchsorted(distinct, block)
        np.minimum.at(first, block, np.arange(position, position + block.size))
        position += block.size
    seen = np.flatnonzero(first != unseen)
    by_appearance = seen[np.argsort(first[seen])]
    del first, seen
    dense = np.empty(slots, dtype=np.int64)
    dense[by_appearance] = np.arange(by_appearance.size)
    for block in blocks:
        block[:] = dense[block]
    return by_appearance + low if distinct is None else distinct[by_appearance]


def _sorted_distinct(blocks: List[np.ndarray]) -> np.ndarray:
    """The ascending distinct values of ``blocks``.

    Each block's distinct values wait until they outnumber the merged
    ones, so every value is merged O(log) times and no merge copies the
    whole stream.
    """
    distinct = np.empty(0, dtype=np.int64)
    pending: List[np.ndarray] = []
    for block in blocks:
        pending.append(sorted_unique(block.copy()))
        if sum(p.size for p in pending) >= distinct.size:
            distinct = sorted_unique(np.concatenate([distinct, *pending]))
            pending = []
    return sorted_unique(np.concatenate([distinct, *pending]))


def write_edge_list(
    graph: DiGraph,
    path: PathLike,
    write_probabilities: bool = True,
    header: Optional[str] = None,
) -> None:
    """Write a graph as a SNAP-style edge list (dense 0-based ids)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
        for u, v, prob in graph.edges():
            if write_probabilities:
                handle.write(f"{u}\t{v}\t{prob:.10g}\n")
            else:
                handle.write(f"{u}\t{v}\n")


_CSR_ARRAYS = (
    "out_offsets",
    "out_targets",
    "out_probs",
    "in_offsets",
    "in_sources",
    "in_probs",
)


def save_csr(graph: DiGraph, path: PathLike) -> None:
    """Write both CSR directions of ``graph`` as ``.npy`` files in a dir.

    Aliased in-arrays (symmetric graphs from the streaming generator
    share their transpose with the out-adjacency) are recorded in the
    manifest instead of being written twice, halving the on-disk size
    and restoring the aliasing on load.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    aliased = bool(
        graph.in_sources is graph.out_targets
        and graph.in_offsets is graph.out_offsets
        and graph.in_probs is graph.out_probs
    )
    names = _CSR_ARRAYS[:3] if aliased else _CSR_ARRAYS
    for name in names:
        np.save(path / f"{name}.npy", np.asarray(getattr(graph, name)))
    manifest = {
        "format": "repro.graphs.csr/1",
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "symmetric": aliased,
    }
    (path / "graph.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_csr(path: PathLike, mmap: bool = True) -> DiGraph:
    """Load a :func:`save_csr` directory; ``mmap=True`` maps edge arrays.

    With ``mmap`` the graph's arrays are read-only ``np.memmap``s over
    the saved files — construction is O(n) (offset validation only, via
    :meth:`DiGraph.from_csr_pair`) and the arrays pickle by reference
    into pool workers.  ``mmap=False`` loads plain heap arrays.
    """
    path = Path(path)
    manifest_path = path / "graph.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphError(f"unreadable CSR graph manifest {manifest_path}: {exc}") from exc
    if manifest.get("format") != "repro.graphs.csr/1":
        raise GraphError(
            f"{manifest_path}: unsupported CSR graph format "
            f"{manifest.get('format')!r}"
        )
    mode = "r" if mmap else None

    def load(name: str) -> np.ndarray:
        try:
            return np.load(path / f"{name}.npy", mmap_mode=mode)
        except (OSError, ValueError) as exc:
            raise GraphError(f"unreadable CSR array {path / name}: {exc}") from exc

    out_offsets = load("out_offsets")
    out_targets = load("out_targets")
    out_probs = load("out_probs")
    if manifest.get("symmetric"):
        in_offsets, in_sources, in_probs = out_offsets, out_targets, out_probs
    else:
        in_offsets = load("in_offsets")
        in_sources = load("in_sources")
        in_probs = load("in_probs")
    return DiGraph.from_csr_pair(
        int(manifest["num_nodes"]),
        out_offsets,
        out_targets,
        out_probs,
        in_offsets,
        in_sources,
        in_probs,
    )
