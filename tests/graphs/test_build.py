"""Unit tests for GraphBuilder and from_edges."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.build import GraphBuilder, csr_from_arrays, from_edges


class TestGraphBuilder:
    def test_chaining(self):
        g = GraphBuilder().add_edge(0, 1).add_edge(1, 2).build()
        assert g.num_edges == 2

    def test_default_probability(self):
        g = GraphBuilder(default_probability=0.25).add_edge(0, 1).build()
        assert g.edge_probability(0, 1) == pytest.approx(0.25)

    def test_explicit_probability_overrides_default(self):
        g = GraphBuilder(default_probability=0.25).add_edge(0, 1, 0.75).build()
        assert g.edge_probability(0, 1) == pytest.approx(0.75)

    def test_undirected_edge_adds_both_directions(self):
        g = GraphBuilder().add_undirected_edge(0, 1, 0.3).build()
        assert g.edge_probability(0, 1) == pytest.approx(0.3)
        assert g.edge_probability(1, 0) == pytest.approx(0.3)

    def test_duplicate_edges_collapse_keeping_last(self):
        g = GraphBuilder().add_edge(0, 1, 0.2).add_edge(0, 1, 0.8).build()
        assert g.num_edges == 1
        assert g.edge_probability(0, 1) == pytest.approx(0.8)

    def test_self_loops_dropped_by_default(self):
        g = GraphBuilder().add_edge(0, 0).add_edge(0, 1).build()
        assert g.num_edges == 1

    def test_self_loops_kept_when_allowed(self):
        g = GraphBuilder().add_edge(0, 0).build(allow_self_loops=True)
        assert g.num_edges == 1
        assert g.has_edge(0, 0)

    def test_inferred_node_count(self):
        g = GraphBuilder().add_edge(3, 7).build()
        assert g.num_nodes == 8

    def test_fixed_node_count_enforced(self):
        builder = GraphBuilder(num_nodes=3)
        with pytest.raises(GraphError):
            builder.add_edge(0, 3)

    def test_negative_node_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_edge(-1, 0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_edge(0, 1, 1.5)
        with pytest.raises(GraphError):
            GraphBuilder(default_probability=-0.1)

    def test_add_edges_bulk(self):
        g = GraphBuilder().add_edges([(0, 1), (1, 2, 0.4)]).build()
        assert g.num_edges == 2
        assert g.edge_probability(1, 2) == pytest.approx(0.4)

    def test_add_edges_bad_arity(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_edges([(0, 1, 0.5, 9)])

    def test_num_pending_edges(self):
        builder = GraphBuilder().add_edge(0, 1).add_edge(0, 1)
        assert builder.num_pending_edges == 2  # before de-duplication

    def test_empty_build(self):
        g = GraphBuilder().build()
        assert g.num_nodes == 0
        assert g.num_edges == 0


class TestFromEdges:
    def test_directed(self):
        g = from_edges([(0, 1), (1, 0)])
        assert g.num_edges == 2

    def test_undirected_doubles(self):
        g = from_edges([(0, 1)], undirected=True)
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_probability_tuples(self):
        g = from_edges([(0, 1, 0.33)])
        assert g.edge_probability(0, 1) == pytest.approx(0.33)

    def test_explicit_num_nodes(self):
        g = from_edges([(0, 1)], num_nodes=10)
        assert g.num_nodes == 10

    def test_bad_tuple_arity(self):
        with pytest.raises(GraphError):
            from_edges([(0,)])


class TestCsrFromArrays:
    def _columns(self, sources, targets):
        return (
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.full(len(sources), 0.5),
        )

    def test_id_beyond_fixed_node_count_rejected(self):
        # One source * n + target key per edge would decode 0 -> 5 as 1 -> 2.
        with pytest.raises(GraphError, match="node id 5 exceeds fixed node count 3"):
            csr_from_arrays(*self._columns([0], [5]), num_nodes=3)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError, match="must be non-negative"):
            csr_from_arrays(*self._columns([2, -1], [0, 1]))
