"""The blocked CSR transpose equals the whole-stream stable argsort.

``repro.utils.csr.transpose_into`` builds the graph's in-adjacency, the
hyper-graph's inverted index and every ``extend_csr`` append one block
of entries at a time.  These properties pin it, at block sizes far
below the defaults, against the per-edge reference build of the test
tree (``reference_csr_build`` plus a per-member loop) and against the
whole-stream ``np.argsort(kind="stable")`` transpose it replaced: empty
hyper-edges anywhere, edges longer than a block, ``extend_csr`` chains,
a dtype-policy widening and spill-backed member streams.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.build import csr_from_arrays
from repro.graphs.digraph import DiGraph
from repro.rrset import storage as storage_mod
from repro.rrset.hypergraph import RRHypergraph
from repro.utils import csr
from repro.utils.spill import is_spill_backed, spill_array

from tests.rrset.reference_kernels import reference_csr_build

BLOCKS = (1, 3, 5, 8)
# The block fixture patches a module constant once per test; every
# example runs under it, which is what the health check warns about.
PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(csr, "BLOCK_ENTRIES", request.param)
    return request.param


def _argsort_index(num_nodes, rr_sets):
    """The inverted index as the whole-stream stable argsort built it."""
    sizes = np.array([len(h) for h in rr_sets], dtype=np.int64)
    members = np.concatenate([np.asarray(h, dtype=np.int64) for h in rr_sets] + [[]])
    edge_ids = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(members.astype(np.int64), minlength=num_nodes), out=offsets[1:])
    return offsets, edge_ids[np.argsort(members, kind="stable")]


def _loop_index(num_nodes, rr_sets):
    """The inverted index by a per-member loop over the reference build."""
    edge_offsets, edge_nodes = reference_csr_build(num_nodes, rr_sets)
    incident = [[] for _ in range(num_nodes)]
    for edge in range(len(rr_sets)):
        for node in edge_nodes[edge_offsets[edge] : edge_offsets[edge + 1]].tolist():
            incident[node].append(edge)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in incident], out=offsets[1:])
    return offsets, np.array([e for ids in incident for e in ids], dtype=np.int64)


def _assert_index(hypergraph, num_nodes, rr_sets):
    got_offsets = np.asarray(hypergraph.node_offsets, dtype=np.int64)
    got_edges = np.asarray(hypergraph.node_edges, dtype=np.int64)
    for offsets, edges in (_argsort_index(num_nodes, rr_sets), _loop_index(num_nodes, rr_sets)):
        assert np.array_equal(got_offsets, offsets)
        assert np.array_equal(got_edges, edges)


def _csr(rr_sets):
    sizes = np.array([len(h) for h in rr_sets], dtype=np.int64)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    members = np.concatenate([np.asarray(h, dtype=np.int64) for h in rr_sets] + [[]])
    return sizes, offsets, members.astype(np.int64)


@st.composite
def hyperedge_lists(draw, max_edges=14, max_size=12, nodes=st.integers(min_value=1, max_value=20)):
    """Hyper-edges with empties anywhere and some longer than a block."""
    num_nodes = draw(nodes)
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    if num_nodes > 1 << 16:
        # Ids near both ends, and ids that share their low 16 bits, so
        # both 16-bit digits of a wide id decide the order.
        node = st.one_of(
            st.integers(min_value=0, max_value=19),
            st.integers(min_value=num_nodes - 20, max_value=num_nodes - 1),
            st.sampled_from(range(3, num_nodes, 1 << 16)),
        )
    sets = draw(
        st.lists(st.lists(node, max_size=max_size, unique=True), min_size=1, max_size=max_edges)
    )
    if draw(st.booleans()):
        sets = [[]] + sets + [[]]  # leading and trailing empty edges
    return num_nodes, [np.array(h, dtype=np.int64) for h in sets]


class TestColumnOffsets:
    @PROPERTY
    @given(
        num_columns=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 30), max_size=12),
    )
    def test_counts_of_many_arrays_equal_the_whole_stream(self, block, num_columns, seed, sizes):
        rng = np.random.default_rng(seed)
        arrays = [rng.integers(0, num_columns, size=size).astype(np.int32) for size in sizes]
        whole = np.concatenate(arrays + [np.empty(0, dtype=np.int32)])
        expected = np.zeros(num_columns + 1, dtype=np.int64)
        np.cumsum(np.bincount(whole, minlength=num_columns), out=expected[1:])
        assert np.array_equal(csr.column_offsets(arrays, num_columns), expected)
        assert np.array_equal(csr.column_offsets(whole, num_columns), expected)

    def test_small_arrays_share_one_pass_over_the_columns(self, block, monkeypatch):
        calls = []
        bincount = np.bincount

        def counting(values, minlength=0):
            calls.append(values.size)
            return bincount(values, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counting)
        csr.column_offsets([np.array([1, 2])] * 30, 50)
        # 60 entries against batches of max(block, 50) entries.
        assert calls == [50, 10]


class TestInvertedIndex:
    @PROPERTY
    @given(case=hyperedge_lists())
    def test_from_csr_matches_both_oracles(self, block, case):
        num_nodes, rr_sets = case
        _, offsets, members = _csr(rr_sets)
        _assert_index(RRHypergraph.from_csr(num_nodes, offsets, members), num_nodes, rr_sets)

    @PROPERTY
    @given(case=hyperedge_lists(nodes=st.sampled_from([65_536, 65_537, 140_000])))
    def test_ids_past_16_bits_sort_in_two_radix_passes(self, block, case):
        num_nodes, rr_sets = case
        _, offsets, members = _csr(rr_sets)
        _assert_index(RRHypergraph.from_csr(num_nodes, offsets, members), num_nodes, rr_sets)

    def test_empty_edges_and_an_edge_longer_than_the_block(self, block):
        rr_sets = [[], [3, 1], [], list(range(19, -1, -1)), [], [0], []]
        rr_sets = [np.array(h, dtype=np.int64) for h in rr_sets]
        _, offsets, members = _csr(rr_sets)
        _assert_index(RRHypergraph.from_csr(20, offsets, members), 20, rr_sets)

    @PROPERTY
    @given(case=hyperedge_lists(), cuts=st.lists(st.integers(0, 20), max_size=4))
    def test_extend_chain_matches_a_full_build(self, block, case, cuts):
        num_nodes, rr_sets = case
        bounds = sorted({0, len(rr_sets), *(min(c, len(rr_sets)) for c in cuts)})
        _, offsets, members = _csr(rr_sets[: bounds[1]])
        hypergraph = RRHypergraph.from_csr(num_nodes, offsets, members)
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            sizes, _, members = _csr(rr_sets[lo:hi])
            hypergraph = hypergraph.extend_csr(sizes, members)
        assert hypergraph.num_hyperedges == len(rr_sets)
        _assert_index(hypergraph, num_nodes, rr_sets)

    def test_extend_across_a_dtype_widening(self, block, monkeypatch):
        rng = np.random.default_rng(11)
        rr_sets = [rng.choice(30, size=rng.integers(0, 9), replace=False) for _ in range(40)]
        _, offsets, members = _csr(rr_sets[:25])
        narrow = RRHypergraph.from_csr(30, offsets, members)
        assert narrow.node_edges.dtype == np.uint32
        monkeypatch.setattr(storage_mod, "OFFSET_LIMIT", int(offsets[-1]) + 3)
        monkeypatch.setattr(storage_mod, "EDGE_ID_LIMIT", 30)
        sizes, _, members = _csr(rr_sets[25:])
        wide = narrow.extend_csr(sizes, members)
        assert wide.node_offsets.dtype == np.int64 and wide.node_edges.dtype == np.int64
        _assert_index(wide, 30, rr_sets)

    def test_spill_backed_members_keep_a_spill_backed_index(self, block, tmp_path):
        rng = np.random.default_rng(12)
        rr_sets = [rng.choice(25, size=rng.integers(0, 11), replace=False) for _ in range(30)]
        _, offsets, members = _csr(rr_sets[:18])
        stream = spill_array(members.size, storage_mod.member_dtype(25), tmp_path, "members")
        stream[:] = members
        hypergraph = RRHypergraph.from_csr(25, offsets, stream)
        assert is_spill_backed(hypergraph.node_edges)
        _assert_index(hypergraph, 25, rr_sets[:18])
        sizes, _, members = _csr(rr_sets[18:])
        extended = hypergraph.extend_csr(sizes, members)
        assert is_spill_backed(extended.node_edges)
        _assert_index(extended, 25, rr_sets)


@st.composite
def edge_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=90))
    return n, edges


class TestInAdjacency:
    @PROPERTY
    @given(case=edge_arrays())
    def test_matches_the_stable_argsort_transpose(self, block, case):
        n, edges = case
        columns = np.array(edges, dtype=np.int64).reshape(-1, 2)
        probs = np.random.default_rng(len(edges)).random(len(edges))
        graph = csr_from_arrays(columns[:, 0], columns[:, 1], probs, num_nodes=n)
        sources = np.repeat(np.arange(n, dtype=np.int32), np.diff(graph.out_offsets))
        order = np.argsort(graph.out_targets, kind="stable")
        assert np.array_equal(graph.in_offsets, csr.column_offsets(graph.out_targets, n))
        assert graph.in_sources.dtype == np.int32
        assert np.array_equal(graph.in_sources, sources[order])
        assert np.array_equal(graph.in_probs, graph.out_probs[order])

    def test_spill_backed_out_arrays_give_spill_backed_in_arrays(self, block, tmp_path):
        dense = csr_from_arrays(
            np.array([0, 0, 1, 2, 2, 3, 3, 3]),
            np.array([1, 3, 3, 0, 1, 0, 1, 2]),
            np.linspace(0.1, 0.8, 8),
        )
        targets = spill_array(dense.num_edges, np.int32, tmp_path, "targets")
        targets[:] = dense.out_targets
        graph = DiGraph(dense.num_nodes, dense.out_offsets, targets, dense.out_probs)
        assert is_spill_backed(graph.in_sources) and is_spill_backed(graph.in_probs)
        for name in ("in_offsets", "in_sources", "in_probs"):
            assert np.array_equal(np.asarray(getattr(graph, name)), getattr(dense, name)), name
