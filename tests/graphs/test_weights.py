"""Unit tests for edge-probability assignment schemes."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import (
    assign_constant_probabilities,
    assign_trivalency_probabilities,
    assign_weighted_cascade,
)


class TestWeightedCascade:
    def test_probability_is_alpha_over_indegree(self):
        g = from_edges([(0, 2), (1, 2), (0, 1)], num_nodes=3)
        wc = assign_weighted_cascade(g, alpha=1.0)
        assert wc.edge_probability(0, 2) == pytest.approx(0.5)  # in_deg(2) = 2
        assert wc.edge_probability(1, 2) == pytest.approx(0.5)
        assert wc.edge_probability(0, 1) == pytest.approx(1.0)  # in_deg(1) = 1

    @pytest.mark.parametrize("alpha", [0.7, 0.85, 1.0])
    def test_paper_alphas(self, alpha):
        g = from_edges([(0, 2), (1, 2)], num_nodes=3)
        wc = assign_weighted_cascade(g, alpha=alpha)
        assert wc.edge_probability(0, 2) == pytest.approx(alpha / 2)

    def test_all_probabilities_valid(self):
        g = erdos_renyi(80, 0.08, seed=1)
        wc = assign_weighted_cascade(g, alpha=0.85)
        assert np.all(wc.out_probs > 0.0)
        assert np.all(wc.out_probs <= 1.0)

    def test_in_weight_sums_equal_alpha(self):
        """Key LT precondition: incoming weights sum to alpha per node."""
        g = erdos_renyi(60, 0.1, seed=2)
        wc = assign_weighted_cascade(g, alpha=0.7)
        sums = np.zeros(g.num_nodes)
        np.add.at(sums, wc.out_targets, wc.out_probs)
        targets_with_edges = np.unique(wc.out_targets)
        assert np.allclose(sums[targets_with_edges], 0.7)

    def test_invalid_alpha(self):
        g = from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(GraphError):
            assign_weighted_cascade(g, alpha=0.0)
        with pytest.raises(GraphError):
            assign_weighted_cascade(g, alpha=1.5)

    def test_original_graph_unchanged(self):
        g = from_edges([(0, 1, 1.0)], num_nodes=2)
        assign_weighted_cascade(g, alpha=0.5)
        assert g.edge_probability(0, 1) == pytest.approx(1.0)


class TestConstant:
    def test_constant_assignment(self):
        g = from_edges([(0, 1), (1, 2)], num_nodes=3)
        c = assign_constant_probabilities(g, 0.01)
        assert np.all(c.out_probs == 0.01)

    def test_invalid_probability(self):
        g = from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(GraphError):
            assign_constant_probabilities(g, 1.1)


class TestTrivalency:
    def test_values_from_set(self):
        g = erdos_renyi(40, 0.1, seed=3)
        t = assign_trivalency_probabilities(g, seed=4)
        assert set(np.unique(t.out_probs)).issubset({0.1, 0.01, 0.001})

    def test_deterministic_with_seed(self):
        g = erdos_renyi(40, 0.1, seed=3)
        a = assign_trivalency_probabilities(g, seed=5)
        b = assign_trivalency_probabilities(g, seed=5)
        assert np.array_equal(a.out_probs, b.out_probs)

    def test_custom_values(self):
        g = from_edges([(0, 1), (1, 2)], num_nodes=3)
        t = assign_trivalency_probabilities(g, values=(0.5,), seed=6)
        assert np.all(t.out_probs == 0.5)

    def test_invalid_values(self):
        g = from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(GraphError):
            assign_trivalency_probabilities(g, values=())
        with pytest.raises(GraphError):
            assign_trivalency_probabilities(g, values=(2.0,))


class TestWeightedCascadeSpill:
    """The spill fast path must be bit-identical to the heap gather."""

    def _pair(self, directed, seed=11):
        from repro.graphs.generators import powerlaw_configuration

        heap = powerlaw_configuration(
            200, average_degree=6.0, seed=seed, directed=directed
        )
        mmap = powerlaw_configuration(
            200, average_degree=6.0, seed=seed, directed=directed, backing="mmap"
        )
        return heap, mmap

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    def test_bit_identical_to_heap_path(self, directed, alpha):
        heap, mmap = self._pair(directed)
        wc_heap = assign_weighted_cascade(heap, alpha=alpha)
        wc_mmap = assign_weighted_cascade(mmap, alpha=alpha)
        for name in ("out_probs", "in_probs"):
            a = np.asarray(getattr(wc_heap, name))
            b = np.asarray(getattr(wc_mmap, name))
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    def test_result_keeps_spill_placement_and_shares_adjacency(self):
        from repro.utils.spill import is_spill_backed

        _, mmap = self._pair(directed=True)
        wc = assign_weighted_cascade(mmap, alpha=0.85)
        assert is_spill_backed(wc.out_probs)
        assert is_spill_backed(wc.in_probs)
        # Adjacency is adopted, not copied: same spill files.
        assert wc.out_targets is mmap.out_targets
        assert wc.in_sources is mmap.in_sources

    def test_invalid_alpha_still_rejected_on_spill_graphs(self):
        _, mmap = self._pair(directed=True)
        with pytest.raises(GraphError):
            assign_weighted_cascade(mmap, alpha=0.0)


_CSR_ARRAYS = (
    "out_offsets",
    "out_targets",
    "out_probs",
    "in_offsets",
    "in_sources",
    "in_probs",
)


class TestWeightedCascadeOnePath:
    """Heap and spill graphs take one path, equal to ``with_probabilities``."""

    def _graph(self):
        rng = np.random.default_rng(5)
        sources = rng.integers(0, 40, size=300)
        # Node 0 is never a target (in-degree 0); node 40 is isolated.
        targets = rng.integers(1, 40, size=300)
        edges = [(int(u), int(v)) for u, v in zip(sources, targets) if u != v]
        return from_edges(edges, num_nodes=41)

    def _spill_twin(self, graph):
        from repro.graphs.digraph import DiGraph
        from repro.utils.spill import spill_array

        def spilled(array):
            out = spill_array(array.shape, array.dtype)
            out[:] = array
            return out

        return DiGraph.from_csr_pair(
            graph.num_nodes,
            *(spilled(getattr(graph, name)) for name in _CSR_ARRAYS),
        )

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    def test_heap_and_spill_equal_with_probabilities(self, monkeypatch, alpha, chunk):
        from repro.graphs import weights
        from repro.utils.spill import is_spill_backed

        if chunk is not None:
            monkeypatch.setattr(weights, "_CHUNK", chunk)
        graph = self._graph()
        assert graph.in_degree(0) == 0 and graph.out_degree(40) == 0
        in_degrees = graph.in_degrees().astype(np.float64)
        expected = graph.with_probabilities(alpha / in_degrees[graph.out_targets])
        heap = assign_weighted_cascade(graph, alpha=alpha)
        spill = assign_weighted_cascade(self._spill_twin(graph), alpha=alpha)
        assert not is_spill_backed(heap.out_probs)
        assert is_spill_backed(spill.out_probs) and is_spill_backed(spill.in_probs)
        for result in (heap, spill):
            for name in _CSR_ARRAYS:
                got = np.asarray(getattr(result, name))
                want = getattr(expected, name)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name

