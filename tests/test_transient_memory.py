"""Transient memory of graph ingest and of the CSR transposes stays bounded.

Reading an edge list used to allocate several stream-sized arrays on top
of the graph it returns (whole-file byte masks and token bounds, int64
sort copies for relabelling, the builder's key sort), and every CSR
transpose (the graph's in-adjacency, the hyper-graph's inverted index)
a repeated row-id array and an ``intp`` permutation of the whole
stream.  The windowed reader and the blocked transpose of
``repro.utils.csr`` bound those temporaries by the scan window, the
transpose block and the node count.  Each guard runs at two input sizes
under one bound that does not depend on the stream length.  tracemalloc
sees numpy's allocations, so the guards count bytes, never wall clock.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graphs import io as graph_io
from repro.graphs.digraph import DiGraph
from repro.graphs.io import read_edge_list
from repro.rrset.hypergraph import RRHypergraph
from repro.utils import csr


def _traced(fn):
    """``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _nbytes(owner, names):
    return sum(np.asarray(getattr(owner, name)).nbytes for name in names)


GRAPH_ARRAYS = ("out_offsets", "out_targets", "out_probs", "in_offsets", "in_sources", "in_probs")
BLOCK_BYTES = csr.BLOCK_ENTRIES * 8


class TestReadEdgeList:
    """The read's peak over the graph it returns is a window-and-block term.

    Rows without a probability column keep no per-row probability until
    the build; rows with one keep it, and at the build's first scatter
    those 8 bytes and the 4-byte narrowed ids of each row meet the
    scatter's 12-byte destination, 4 bytes a row above the graph's 24.
    """

    NODES = 3_000

    def _edge_list(self, path, rows, probabilities):
        rng = np.random.default_rng(rows)
        ids = rng.integers(0, self.NODES, size=(rows, 2))
        with path.open("w") as handle:
            handle.write("# a header\n")
            if probabilities:
                for (u, v), p in zip(ids.tolist(), rng.random(rows).round(6).tolist()):
                    handle.write(f"{u}\t{v}\t{p}\n")
            else:
                handle.write("".join(f"{u}\t{v}\n" for u, v in ids.tolist()))
        return path

    @pytest.mark.parametrize("rows", (100_000, 300_000))
    @pytest.mark.parametrize("probabilities", (False, True), ids=("two-column", "three-column"))
    def test_peak_over_the_graph_is_bounded(self, tmp_path, rows, probabilities):
        path = self._edge_list(tmp_path / "edges.txt", rows, probabilities)
        (graph, _), peak = _traced(lambda: read_edge_list(path))
        assert graph.num_edges > rows // 2
        bound = 12 * graph_io._WINDOW_BYTES + 4 * BLOCK_BYTES + 256 * self.NODES
        per_row = 4 if probabilities else 0
        assert peak - _nbytes(graph, GRAPH_ARRAYS) < bound + per_row * rows


class TestDiGraphConstruction:
    NODES = 5_000

    @pytest.mark.parametrize("edges", (400_000, 1_600_000))
    def test_in_adjacency_peak_is_bounded(self, edges):
        rng = np.random.default_rng(edges)
        degrees = rng.multinomial(edges, np.full(self.NODES, 1.0 / self.NODES))
        offsets = np.zeros(self.NODES + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        # Sorted, duplicate-free targets per source: a window of the nodes.
        starts = rng.integers(0, self.NODES, size=self.NODES)
        windows = [(start + np.arange(degree)) % self.NODES for start, degree in zip(starts, degrees)]
        targets = np.concatenate([np.sort(window) for window in windows]).astype(np.int32)
        probs = rng.random(edges)
        graph, peak = _traced(lambda: DiGraph(self.NODES, offsets, targets, probs))
        kept = _nbytes(graph, ("in_offsets", "in_sources", "in_probs"))
        assert peak - kept < 6 * BLOCK_BYTES + 64 * self.NODES + (1 << 20)


class TestInvertedIndex:
    NODES = 2_000
    EDGES = 4_096

    @pytest.mark.parametrize("members", (1 << 20, 3 << 20))
    def test_from_csr_peak_is_bounded(self, members):
        size = members // self.EDGES
        offsets = np.arange(self.EDGES + 1, dtype=np.int64) * size
        stream = (
            (np.arange(size)[None, :] + 7 * np.arange(self.EDGES)[:, None]) % self.NODES
        ).ravel().astype(np.uint32)
        hypergraph, peak = _traced(lambda: RRHypergraph.from_csr(self.NODES, offsets, stream))
        kept = _nbytes(hypergraph, ("node_offsets", "node_edges"))
        assert peak - kept < 6 * BLOCK_BYTES + 64 * (self.NODES + self.EDGES) + (1 << 18)


class TestPassesOverTheNodes:
    """A read in many small windows costs no pass over all node counts each.

    Every ``np.bincount(..., minlength=n)`` walks all ``n`` counts.  The
    build counts targets, then sources, and the graph counts its
    in-adjacency; batching the windows' ids keeps each of those passes
    to one bincount per ``max(BLOCK_ENTRIES, n)`` entries, so a file of
    thousands of windows and a node count far above a window's rows
    makes a handful of them, not one per window.
    """

    @pytest.mark.parametrize("undirected", (False, True), ids=("directed", "undirected"))
    def test_bincounts_over_the_nodes_do_not_follow_the_windows(
        self, tmp_path, monkeypatch, undirected
    ):
        rows = 20_000
        rng = np.random.default_rng(5)
        ids = rng.permutation(2 * rows).reshape(rows, 2) * 1_000  # about 2 * rows nodes
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in ids.tolist()))
        monkeypatch.setattr(graph_io, "_WINDOW_BYTES", 64)
        monkeypatch.setattr(csr, "BLOCK_ENTRIES", 256)
        calls = []
        bincount = np.bincount

        def counting(values, weights=None, minlength=0):
            calls.append(minlength)
            return bincount(values, weights, minlength)

        monkeypatch.setattr(np, "bincount", counting)
        graph, _ = read_edge_list(path, undirected=undirected)
        n = graph.num_nodes
        windows = path.stat().st_size // 64
        entries = graph.num_edges
        over_nodes = sum(1 for minlength in calls if minlength == n)
        assert windows > 100 * (1 + entries // n)
        assert 3 <= over_nodes <= 3 * (1 + entries // n)
