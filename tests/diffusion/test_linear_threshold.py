"""Unit tests for the Linear Threshold model."""

import numpy as np
import pytest

from repro.diffusion.linear_threshold import LinearThreshold
from repro.diffusion.montecarlo import estimate_spread
from repro.exceptions import GraphError
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi, path_graph
from repro.graphs.weights import assign_weighted_cascade


class TestConstruction:
    def test_weight_sums_over_one_rejected(self):
        g = from_edges([(0, 2, 0.7), (1, 2, 0.7)], num_nodes=3)
        with pytest.raises(GraphError, match="in-weight"):
            LinearThreshold(g)

    def test_weighted_cascade_always_valid(self):
        g = assign_weighted_cascade(erdos_renyi(50, 0.1, seed=1), alpha=1.0)
        LinearThreshold(g)  # must not raise


class TestCascades:
    def test_weight_one_edge_always_propagates(self, rng):
        # Single in-edge of weight 1: threshold <= 1 always crossed.
        g = from_edges([(0, 1, 1.0)], num_nodes=2)
        lt = LinearThreshold(g)
        cascade = lt.sample_cascade([0], rng)
        assert sorted(cascade.tolist()) == [0, 1]

    def test_weight_zero_never_propagates(self, rng):
        g = from_edges([(0, 1, 0.0)], num_nodes=2)
        lt = LinearThreshold(g)
        for _ in range(50):
            assert lt.sample_cascade([0], rng).tolist() == [0]

    def test_activation_probability_equals_weight(self):
        """Pr[v activates | u active] = w(u, v) for a single in-edge."""
        g = from_edges([(0, 1, 0.35)], num_nodes=2)
        lt = LinearThreshold(g)
        rng = np.random.default_rng(2)
        hits = sum(lt.sample_cascade_size([0], rng) == 2 for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.35, abs=0.02)

    def test_additive_activation(self):
        """Two in-edges of weight 0.5 each: both active => always activates."""
        g = from_edges([(0, 2, 0.5), (1, 2, 0.5)], num_nodes=3)
        lt = LinearThreshold(g)
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert lt.sample_cascade_size([0, 1], rng) == 3

    def test_state_isolated_between_calls(self, rng):
        g = from_edges([(0, 1, 1.0), (1, 2, 1.0)], num_nodes=3)
        lt = LinearThreshold(g)
        lt.sample_cascade([0], rng)
        assert lt.sample_cascade([2], rng).tolist() == [2]


class TestRRSets:
    def test_root_included(self, rng):
        g = assign_weighted_cascade(path_graph(4, bidirectional=True), alpha=1.0)
        lt = LinearThreshold(g)
        assert 2 in lt.sample_rr_set(2, rng).tolist()

    def test_rr_is_a_path(self, rng):
        """LT live-edge picks at most one in-edge: RR sets are walks."""
        g = assign_weighted_cascade(erdos_renyi(40, 0.2, seed=4), alpha=1.0)
        lt = LinearThreshold(g)
        for root in range(10):
            rr = lt.sample_rr_set(root, rng)
            assert len(rr) == len(set(rr.tolist()))  # no repeats

    def test_rr_membership_probability(self):
        """Pr[0 in RR(1)] = w(0, 1) for a single in-edge."""
        g = from_edges([(0, 1, 0.4)], num_nodes=2)
        lt = LinearThreshold(g)
        rng = np.random.default_rng(5)
        hits = sum(0 in lt.sample_rr_set(1, rng).tolist() for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.4, abs=0.02)

    def test_rr_root_out_of_range(self, rng):
        lt = LinearThreshold(from_edges([(0, 1, 0.5)], num_nodes=2))
        with pytest.raises(IndexError):
            lt.sample_rr_set(7, rng)


class TestSpreadEquivalence:
    def test_lt_spread_on_deterministic_chain(self):
        g = from_edges([(0, 1, 1.0), (1, 2, 1.0)], num_nodes=3)
        lt = LinearThreshold(g)
        assert estimate_spread(lt, [0], num_samples=20, seed=6).mean == pytest.approx(3.0)

    def test_lt_forward_and_rr_consistent(self):
        """n * Pr[u in RR(random v)] must equal I({u}) (polling identity)."""
        g = assign_weighted_cascade(erdos_renyi(30, 0.15, seed=7), alpha=1.0)
        lt = LinearThreshold(g)
        rng = np.random.default_rng(8)
        target = 0
        count = 8000
        hits = 0
        for _ in range(count):
            root = int(rng.integers(0, 30))
            if target in lt.sample_rr_set(root, rng).tolist():
                hits += 1
        polling_estimate = 30 * hits / count
        forward = estimate_spread(lt, [target], num_samples=8000, seed=9).mean
        assert polling_estimate == pytest.approx(forward, rel=0.15, abs=0.3)
