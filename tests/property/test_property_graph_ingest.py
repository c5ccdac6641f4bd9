"""Graph ingest is bit-identical to the per-edge path it replaced.

``read_edge_list`` parses plain-ASCII files in columns with numpy, one
window of lines at a time, and hands them to the builder, whose two
stable scatters replaced ``np.lexsort``; the streamed and in-heap
configuration models dedup with ``sorted_unique`` instead of
``np.unique``.  These properties
pin each against its predecessor, copied here as an oracle: the line
loop that fed ``GraphBuilder.add_edge`` one edge at a time, the lexsort
finalisation, and ``np.unique``.  Graph arrays, the id map (in order)
and the line that an error names must all agree.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs.build import GraphBuilder, sorted_unique
from repro.graphs.digraph import DiGraph
from repro.graphs import io as graph_io
from repro.graphs.io import _columns, read_edge_list
from repro.graphs.streaming import _sort_unique_spill

CSR_ARRAYS = ("out_offsets", "out_targets", "out_probs", "in_offsets", "in_sources", "in_probs")
INGEST = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _assert_same_graph(graph, oracle):
    assert graph.num_nodes == oracle.num_nodes
    for name in CSR_ARRAYS:
        got, want = getattr(graph, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# ----------------------------------------------------------------------
# oracles: the code paths before columnar ingest
# ----------------------------------------------------------------------


def _lexsort_build(sources, targets, probs, num_nodes=None, allow_self_loops=False):
    """``GraphBuilder.build`` as it was: ``np.lexsort`` then keep-last."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if num_nodes is not None:
        n = num_nodes
    elif sources.size:
        n = int(max(sources.max(), targets.max())) + 1
    else:
        n = 0
    if not allow_self_loops and sources.size:
        keep = sources != targets
        sources, targets, probs = sources[keep], targets[keep], probs[keep]
    if sources.size:
        order = np.lexsort((targets, sources))
        sources, targets, probs = sources[order], targets[order], probs[order]
        key_change = np.empty(sources.size, dtype=bool)
        key_change[-1] = True
        key_change[:-1] = (sources[:-1] != sources[1:]) | (targets[:-1] != targets[1:])
        sources, targets, probs = sources[key_change], targets[key_change], probs[key_change]
    out_degree = np.bincount(sources, minlength=n) if sources.size else np.zeros(n, dtype=np.int64)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_degree, out=out_offsets[1:])
    return DiGraph(n, out_offsets, targets.astype(np.int32), probs)


class _OracleError(Exception):
    """A rejection by the oracle reader, with the line it happened on."""

    def __init__(self, line_number):
        super().__init__(line_number)
        self.line_number = line_number


def _oracle_read(path, undirected=False, default_probability=1.0, relabel=True):
    """The per-line ``read_edge_list`` loop, one builder call per edge.

    ``add_edge``'s checks (negative id, probability outside [0, 1]) are
    inlined so that every rejection reports the line it happened on.
    """
    id_map = {}

    def dense(original):
        if not relabel:
            return original
        if original not in id_map:
            id_map[original] = len(id_map)
        return id_map[original]

    sources, targets, probs = [], [], []

    def add(u, v, prob, line_number):
        if u < 0 or v < 0:
            raise _OracleError(line_number)
        if prob is None:
            prob = default_probability
        if not 0.0 <= prob <= 1.0:
            raise _OracleError(line_number)
        sources.append(u)
        targets.append(v)
        probs.append(prob)

    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise _OracleError(line_number)
            try:
                u, v = dense(int(parts[0])), dense(int(parts[1]))
                prob = float(parts[2]) if len(parts) == 3 else None
            except ValueError:
                raise _OracleError(line_number)
            add(u, v, prob, line_number)
            if undirected:
                add(v, u, prob, line_number)
    graph = _lexsort_build(sources, targets, probs)
    if not relabel:
        id_map = {i: i for i in range(graph.num_nodes)}
    return graph, id_map


# ----------------------------------------------------------------------
# edge-list text
# ----------------------------------------------------------------------

SMALL_IDS = st.integers(min_value=0, max_value=12)
SPARSE_IDS = st.one_of(
    SMALL_IDS,
    st.integers(min_value=1_000, max_value=10**6),
    st.integers(min_value=10**15, max_value=10**18 - 1),
)
PROBABILITIES = st.one_of(
    st.sampled_from(["0", "1", "0.5", "1.0", ".25", "1e-3", "0.1000000000000000055511"]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(repr),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(lambda p: f"{p:.3g}"),
)
GAPS = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
EDGES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
COMMENTS = st.sampled_from(["#", "# nodes: 3 edges: 2", "#0 1", "# x # y", "#\t"])


@st.composite
def edge_lines(draw, ids=SPARSE_IDS):
    gap = draw(GAPS)
    tokens = [str(draw(ids)), str(draw(ids))]
    if draw(st.booleans()):
        tokens.append(draw(PROBABILITIES))
    text = gap.join(tokens)
    if draw(st.booleans()):
        text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\t "]))
    if draw(st.integers(0, 4)) == 0:
        text += draw(st.sampled_from(["", " ", "\t"])) + draw(COMMENTS)
    return text


@st.composite
def edge_list_texts(draw, line=None, max_lines=25):
    """Edge lists with comments, blank lines, mixed columns and separators."""
    if line is None:
        line = st.one_of(
            edge_lines(),
            edge_lines(ids=SMALL_IDS),  # duplicates and self-loops
            COMMENTS,
            st.sampled_from(["", " ", "\t", "  \t"]),
        )
    lines = draw(st.lists(line, max_size=max_lines))
    endings = [draw(EDGES) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = ""  # no newline at the end of the file
    return "".join(body + end for body, end in zip(lines, endings))


BAD_LINES = st.sampled_from(
    [
        "7",
        "1 2 0.5 9",
        "a b",
        "1 x",
        "1.5 2",
        "0x1 2",
        "1 2 abc",
        "1 2 1.5",
        "1 2 -0.1",
        "1 2 nan",
        "-3 4",
        "4 -3 0.5",
        "1 2 0.5 # fine # fine",
    ]
)
#: Syntax that only Python's own int()/float()/str.split() accept.
EXOTIC_LINES = st.sampled_from(
    ["1_0 2", "+5 6", "-0 3", "1\xa02", "١ 2", "3 4 1_0e-1", "5\x0b6", "5\x1c6\t0.5"]
)


def _write(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


def _compare(path, **options):
    try:
        want = _oracle_read(path, **options)
    except _OracleError as rejection:
        with pytest.raises(GraphError, match=f"^{re.escape(str(path))}:{rejection.line_number}: "):
            read_edge_list(path, **options)
        return None
    got = read_edge_list(path, **options)
    _assert_same_graph(got[0], want[0])
    assert list(got[1].items()) == list(want[1].items())
    return got


READ_OPTIONS = st.fixed_dictionaries(
    {
        "undirected": st.booleans(),
        "relabel": st.booleans(),
        "default_probability": st.sampled_from([1.0, 0.1, 0.0]),
    }
)


class TestReadEdgeList:
    @INGEST
    @given(text=edge_list_texts(), options=READ_OPTIONS)
    def test_matches_the_line_loop(self, tmp_path, text, options):
        if not options["relabel"]:
            # Identity ids: keep the node count small.
            text = "".join(
                line for line in text.splitlines(keepends=True) if len(line.split("#")[0]) < 12
            )
        path = _write(tmp_path, text)
        if _compare(path, **options) is not None:
            # Plain ASCII with short tokens: the columnar reader parsed it.
            assert _columns(path, options["default_probability"]) is not None

    @INGEST
    @given(
        text=edge_list_texts(
            line=st.one_of(edge_lines(ids=SMALL_IDS), BAD_LINES, COMMENTS), max_lines=12
        ),
        options=READ_OPTIONS,
    )
    def test_rejects_the_same_line(self, tmp_path, text, options):
        _compare(_write(tmp_path, text), **options)

    @INGEST
    @given(
        text=edge_list_texts(
            line=st.one_of(edge_lines(ids=SMALL_IDS), EXOTIC_LINES, COMMENTS), max_lines=12
        ),
        options=READ_OPTIONS,
    )
    def test_exotic_syntax_keeps_python_semantics(self, tmp_path, text, options):
        _compare(_write(tmp_path, text), **options)

    @INGEST
    @given(
        text=edge_list_texts(
            line=st.one_of(edge_lines(), edge_lines(ids=SMALL_IDS), BAD_LINES, COMMENTS)
        ),
        options=READ_OPTIONS,
        window=st.integers(min_value=1, max_value=48),
    )
    def test_windows_of_any_size_read_as_the_line_loop(
        self, tmp_path, monkeypatch, text, options, window
    ):
        # Windows this small split \r\n pairs, end on a lone \r, hold
        # part of a line or none, and put the first bad row in a later
        # window than the first row.
        if not options["relabel"]:
            # Identity ids: keep the node count small.
            text = "".join(
                line for line in text.splitlines(keepends=True) if len(line.split("#")[0]) < 12
            )
        monkeypatch.setattr(graph_io, "_WINDOW_BYTES", window)
        _compare(_write(tmp_path, text), **options)

    def test_large_sparse_ids_relabel_in_first_appearance_order(self, tmp_path):
        path = _write(tmp_path, f"# header\n{10**17} 5\n5 7 0.25\n7 5\n")
        graph, id_map = _compare(path)
        assert list(id_map.items()) == [(10**17, 0), (5, 1), (7, 2)]
        assert graph.num_edges == 3

    def test_later_duplicate_probability_wins(self, tmp_path):
        path = _write(tmp_path, "0 1 0.2\n0 1 0.7\n1 0\n")
        graph, _ = _compare(path, undirected=True, default_probability=0.4)
        assert graph.edge_probability(0, 1) == pytest.approx(0.4)
        assert graph.edge_probability(1, 0) == pytest.approx(0.4)

    def test_value_errors_name_their_line(self, tmp_path):
        path = _write(tmp_path, "0 1\n\n1 2 1.25\n")
        with pytest.raises(GraphError, match=r":3: edge probability must lie in \[0, 1\], got 1.25"):
            read_edge_list(path)
        path = _write(tmp_path, "# c\n0 -4\n")
        with pytest.raises(GraphError, match=r":2: node ids must be non-negative, got \(0, -4\)"):
            read_edge_list(path, relabel=False)

    def test_earlier_value_error_wins_over_later_syntax_error(self, tmp_path):
        path = _write(tmp_path, "0 1 7\nnot an edge line\n")
        with pytest.raises(GraphError, match=":1: edge probability"):
            read_edge_list(path)

    def test_ids_beyond_int64_relabel_by_the_line_reader(self, tmp_path):
        path = _write(tmp_path, f"0 1\n{10**20} 1 0.5\n{-(2**70)} {10**20}\n")
        graph, id_map = _compare(path, undirected=True)
        assert list(id_map.items()) == [(0, 0), (1, 1), (10**20, 2), (-(2**70), 3)]
        assert graph.num_edges == 6

    def test_ids_beyond_int64_name_their_line_when_kept(self, tmp_path):
        path = _write(tmp_path, "0 1\n99999999999999999999 1\n")
        with pytest.raises(GraphError, match=":2: node id out of the int64 range"):
            read_edge_list(path, relabel=False)


# ----------------------------------------------------------------------
# builder finalisation and dedup
# ----------------------------------------------------------------------


@st.composite
def builder_edges(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    node = st.integers(min_value=0, max_value=n - 1)
    probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    edges = draw(st.lists(st.tuples(node, node, probability), max_size=120))
    return n, edges


class TestBuilder:
    @settings(max_examples=200, deadline=None)
    @given(
        case=builder_edges(),
        fixed=st.booleans(),
        allow_self_loops=st.booleans(),
    )
    def test_one_key_sort_matches_lexsort(self, case, fixed, allow_self_loops):
        n, edges = case
        num_nodes = n if fixed else None
        builder = GraphBuilder(num_nodes=num_nodes)
        for u, v, p in edges:
            builder.add_edge(u, v, p)
        columns = list(zip(*edges)) if edges else ([], [], [])
        _assert_same_graph(
            builder.build(allow_self_loops=allow_self_loops),
            _lexsort_build(*columns, num_nodes=num_nodes, allow_self_loops=allow_self_loops),
        )


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestSortedUnique:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(INT64, max_size=60),
            st.lists(st.integers(-3, 3), max_size=60),
            st.lists(st.just(-7), min_size=1, max_size=20),
            st.lists(INT64, min_size=1, max_size=1),
        )
    )
    def test_equals_np_unique(self, values):
        array = np.asarray(values, dtype=np.int64)
        want = np.unique(array)
        got = sorted_unique(array.copy())
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_leaves_input_sorted(self):
        values = np.array([5, -1, 5, 3, -1], dtype=np.int64)
        sorted_unique(values)
        assert values.tolist() == [-1, -1, 3, 5, 5]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        data=st.data(),
        chunk=st.integers(min_value=1, max_value=40),
        bucket_entries=st.integers(min_value=1, max_value=50),
    )
    def test_external_sort_equals_np_unique(self, tmp_path_factory, n, data, chunk, bucket_entries):
        keys = np.asarray(
            data.draw(st.lists(st.integers(0, n * n - 1), max_size=150)), dtype=np.int64
        )
        spill = tmp_path_factory.mktemp("spill")
        deduped, count = _sort_unique_spill(keys.copy(), keys.size, n, spill, chunk, bucket_entries)
        assert np.array_equal(np.asarray(deduped[:count]), np.unique(keys))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=20, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.integers(min_value=50, max_value=700),
    )
    def test_external_sort_over_hundreds_of_buckets_equals_np_unique(
        self, tmp_path_factory, n, seed, chunk
    ):
        # One entry per bucket: more than 256 buckets, so the bucket ids
        # sort as uint16 rather than uint8.
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, n * n, size=int(rng.integers(300, 900)))
        spill = tmp_path_factory.mktemp("spill")
        deduped, count = _sort_unique_spill(keys.copy(), keys.size, n, spill, chunk, 1)
        assert np.array_equal(np.asarray(deduped[:count]), np.unique(keys))


class TestBucketIdNarrowing:
    @settings(max_examples=100, deadline=None)
    @given(
        num_buckets=st.sampled_from([1, 2, 9, 255, 256, 257, 65536, 65537, 100_000]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=0, max_value=3000),
    )
    def test_narrow_stable_argsort_equals_the_int64_one(self, num_buckets, seed, size):
        # _sort_unique_spill casts its bucket ids to the narrowest
        # unsigned dtype that holds them; a stable sort's permutation is
        # unique, so the order must not change.
        ids = np.random.default_rng(seed).integers(0, num_buckets, size=size)
        narrow = ids.astype(np.min_scalar_type(num_buckets - 1))
        assert narrow.dtype.itemsize <= 4
        assert np.array_equal(np.argsort(narrow, kind="stable"), np.argsort(ids, kind="stable"))
