"""Unit tests for the Independent Cascade model."""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.montecarlo import estimate_spread
from repro.exceptions import NodeNotFoundError
from repro.graphs.build import from_edges
from repro.graphs.generators import isolated_nodes, path_graph, star_graph


class TestCascades:
    def test_seeds_always_active(self, rng):
        g = star_graph(4, probability=0.0)
        ic = IndependentCascade(g)
        cascade = ic.sample_cascade([0, 2], rng)
        assert set(cascade.tolist()) == {0, 2}

    def test_probability_one_edges_propagate(self, rng):
        g = path_graph(6, probability=1.0)
        ic = IndependentCascade(g)
        cascade = ic.sample_cascade([0], rng)
        assert sorted(cascade.tolist()) == list(range(6))

    def test_probability_zero_edges_block(self, rng):
        g = path_graph(6, probability=0.0)
        ic = IndependentCascade(g)
        cascade = ic.sample_cascade([0], rng)
        assert cascade.tolist() == [0]

    def test_cascade_respects_direction(self, rng):
        g = path_graph(4, probability=1.0)
        ic = IndependentCascade(g)
        cascade = ic.sample_cascade([2], rng)
        assert sorted(cascade.tolist()) == [2, 3]

    def test_duplicate_seeds_deduplicated(self, rng):
        g = isolated_nodes(3)
        ic = IndependentCascade(g)
        cascade = ic.sample_cascade([1, 1, 1], rng)
        assert cascade.tolist() == [1]

    def test_empty_seed_set(self, rng):
        g = path_graph(3)
        ic = IndependentCascade(g)
        assert ic.sample_cascade([], rng).size == 0

    def test_invalid_seed_raises(self, rng):
        ic = IndependentCascade(path_graph(3))
        with pytest.raises(NodeNotFoundError):
            ic.sample_cascade([5], rng)

    def test_each_node_activated_once(self, rng):
        g = from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)], num_nodes=3)
        ic = IndependentCascade(g)
        cascade = ic.sample_cascade([0], rng)
        assert len(cascade) == len(set(cascade.tolist()))

    def test_state_isolated_between_calls(self, rng):
        """Epoch stamping must not leak activation across cascades."""
        g = path_graph(4, probability=1.0)
        ic = IndependentCascade(g)
        first = ic.sample_cascade([0], rng)
        second = ic.sample_cascade([3], rng)
        assert sorted(first.tolist()) == [0, 1, 2, 3]
        assert second.tolist() == [3]


class TestSpread:
    def test_star_spread_matches_closed_form(self):
        # I({hub}) = 1 + 4 * p  for the out-star.
        g = star_graph(4, probability=0.1)
        ic = IndependentCascade(g)
        spread = estimate_spread(ic, [0], num_samples=20000, seed=1).mean
        assert spread == pytest.approx(1.4, abs=0.03)

    def test_two_hop_path_spread(self):
        # I({0}) on 0 ->(0.5) 1 ->(0.5) 2 equals 1 + 0.5 + 0.25.
        g = from_edges([(0, 1, 0.5), (1, 2, 0.5)], num_nodes=3)
        ic = IndependentCascade(g)
        spread = estimate_spread(ic, [0], num_samples=30000, seed=2).mean
        assert spread == pytest.approx(1.75, abs=0.03)

    def test_spread_of_all_nodes_is_n(self, rng):
        g = path_graph(5, probability=0.3)
        ic = IndependentCascade(g)
        spread = estimate_spread(ic, range(5), num_samples=10, seed=3).mean
        assert spread == pytest.approx(5.0)


class TestRRSets:
    def test_root_always_included(self, rng):
        ic = IndependentCascade(path_graph(5, probability=0.5))
        for root in range(5):
            assert root in ic.sample_rr_set(root, rng).tolist()

    def test_rr_follows_reverse_edges(self, rng):
        # 0 -> 1 with p=1: RR(1) must include 0; RR(0) must not include 1.
        g = from_edges([(0, 1, 1.0)], num_nodes=2)
        ic = IndependentCascade(g)
        assert sorted(ic.sample_rr_set(1, rng).tolist()) == [0, 1]
        assert ic.sample_rr_set(0, rng).tolist() == [0]

    def test_rr_zero_probability_blocks(self, rng):
        g = from_edges([(0, 1, 0.0)], num_nodes=2)
        ic = IndependentCascade(g)
        assert ic.sample_rr_set(1, rng).tolist() == [1]

    def test_rr_root_out_of_range(self, rng):
        ic = IndependentCascade(path_graph(3))
        with pytest.raises(IndexError):
            ic.sample_rr_set(3, rng)

    def test_rr_membership_probability(self):
        """Pr[0 in RR(1)] equals the edge probability for a single edge."""
        g = from_edges([(0, 1, 0.3)], num_nodes=2)
        ic = IndependentCascade(g)
        rng = np.random.default_rng(4)
        hits = sum(0 in ic.sample_rr_set(1, rng).tolist() for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.3, abs=0.02)
