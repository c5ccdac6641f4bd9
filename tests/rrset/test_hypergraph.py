"""Unit tests for the RR hyper-graph container."""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import EstimationError
from repro.graphs.build import from_edges
from repro.graphs.generators import path_graph, star_graph
from repro.rrset.hypergraph import RRHypergraph


def manual_hypergraph():
    """A hand-built hyper-graph over 4 nodes with 3 hyper-edges."""
    return RRHypergraph(4, [np.array([0, 1]), np.array([1, 2]), np.array([3])])


class TestConstruction:
    def test_counts(self):
        hg = manual_hypergraph()
        assert hg.num_nodes == 4
        assert hg.num_hyperedges == 3

    def test_hyperedge_contents(self):
        hg = manual_hypergraph()
        assert sorted(hg.hyperedge(0).tolist()) == [0, 1]
        assert sorted(hg.hyperedge(2).tolist()) == [3]

    def test_hyperedge_index_bounds(self):
        hg = manual_hypergraph()
        with pytest.raises(IndexError):
            hg.hyperedge(3)

    def test_out_of_range_member_rejected(self):
        with pytest.raises(EstimationError):
            RRHypergraph(2, [np.array([0, 5])])

    def test_zero_nodes_rejected(self):
        with pytest.raises(EstimationError):
            RRHypergraph(0, [])

    def test_empty_hyperedge_list(self):
        hg = RRHypergraph(3, [])
        assert hg.num_hyperedges == 0
        assert hg.degree(0) == 0

    def test_list_constructor_rejects_ids_that_would_wrap(self):
        # 2**32 + 3 wraps to 3 under a 32-bit cast; the list form must
        # range-check the full-width ids, exactly as from_csr does.
        rr_sets = [np.array([2**32 + 3]), np.array([1])]
        with pytest.raises(EstimationError, match="hyper-edge 0"):
            RRHypergraph(10, rr_sets)
        with pytest.raises(EstimationError, match="hyper-edge 0"):
            RRHypergraph.from_csr(10, np.array([0, 1, 2]), np.concatenate(rr_sets))


class TestExtendCsrValidation:
    """``extend_csr`` rejects a malformed batch as ``from_csr`` would."""

    def test_sizes_overcounting_members_rejected(self):
        # Offsets would end at 8 over 5 members: hyperedge(3) reads empty
        # and the arrays no longer round-trip through a checkpoint.
        with pytest.raises(EstimationError, match="malformed CSR batch"):
            RRHypergraph(10, [[0, 1], [2]]).extend_csr([2, 3], [3, 4])

    def test_sizes_undercounting_members_rejected(self):
        with pytest.raises(EstimationError, match="malformed CSR batch"):
            RRHypergraph(10, [[0, 1], [2]]).extend_csr([1], [3, 4, 5])

    def test_negative_size_rejected(self):
        with pytest.raises(EstimationError, match="malformed CSR batch"):
            RRHypergraph(10, [[0, 1], [2]]).extend_csr([-1, 3], [3, 4])

    def test_well_formed_batch_round_trips(self):
        extended = RRHypergraph(10, [[0, 1], [2]]).extend_csr([2, 1], [3, 4, 5])
        restored = RRHypergraph.from_arrays(extended.to_arrays())
        assert restored.num_hyperedges == 4
        assert restored.hyperedge(3).tolist() == [5]


class TestIncidence:
    def test_incident_edges(self):
        hg = manual_hypergraph()
        assert sorted(hg.incident_edges(1).tolist()) == [0, 1]
        assert hg.incident_edges(3).tolist() == [2]
        assert hg.incident_edges(0).tolist() == [0]

    def test_degrees(self):
        hg = manual_hypergraph()
        assert hg.degrees().tolist() == [1, 2, 1, 1]
        assert hg.degree(1) == 2

    def test_node_out_of_range(self):
        hg = manual_hypergraph()
        with pytest.raises(IndexError):
            hg.incident_edges(4)

    def test_incident_edges_sorted(self):
        hg = manual_hypergraph()
        for node in range(4):
            edges = hg.incident_edges(node).tolist()
            assert edges == sorted(edges)


class TestCoverage:
    def test_single_node_coverage(self):
        hg = manual_hypergraph()
        assert hg.coverage([1]) == 2

    def test_set_coverage_unions(self):
        hg = manual_hypergraph()
        assert hg.coverage([0, 2]) == 2  # both hit edges {0} and {1}
        assert hg.coverage([1, 3]) == 3

    def test_empty_coverage(self):
        hg = manual_hypergraph()
        assert hg.coverage([]) == 0

    def test_estimate_spread_formula(self):
        hg = manual_hypergraph()
        assert hg.estimate_spread([1]) == pytest.approx(4 * 2 / 3)

    def test_estimate_spread_empty_hypergraph_raises(self):
        hg = RRHypergraph(3, [])
        with pytest.raises(EstimationError):
            hg.estimate_spread([0])


class TestUnbiasedness:
    """The polling identity: E[n * deg_H(S) / theta] = I(S)."""

    def test_star_single_seed(self):
        g = star_graph(4, probability=0.1)
        ic = IndependentCascade(g)
        hg = RRHypergraph.build(ic, 40000, seed=1)
        # I({0}) = 1.4 on the out-star.
        assert hg.estimate_spread([0]) == pytest.approx(1.4, abs=0.05)

    def test_two_hop_chain(self):
        g = from_edges([(0, 1, 0.5), (1, 2, 0.5)], num_nodes=3)
        ic = IndependentCascade(g)
        hg = RRHypergraph.build(ic, 40000, seed=2)
        # I({0}) = 1 + 0.5 + 0.25 = 1.75.
        assert hg.estimate_spread([0]) == pytest.approx(1.75, abs=0.06)

    def test_all_nodes_estimate_n(self):
        g = path_graph(5, probability=0.3)
        ic = IndependentCascade(g)
        hg = RRHypergraph.build(ic, 2000, seed=3)
        assert hg.estimate_spread(range(5)) == pytest.approx(5.0)

    def test_average_edge_size(self):
        hg = manual_hypergraph()
        assert hg.average_edge_size() == pytest.approx(5 / 3)
