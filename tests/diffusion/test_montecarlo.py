"""Unit tests for Monte-Carlo spread estimation."""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.montecarlo import (
    estimate_configuration_spread,
    estimate_spread,
    sample_seed_set,
)
from repro.exceptions import EstimationError, NodeNotFoundError
from repro.graphs.generators import isolated_nodes, path_graph, star_graph


class TestSampleSeedSet:
    def test_certain_probabilities(self, rng):
        seeds = sample_seed_set(np.array([1.0, 0.0, 1.0]), rng)
        assert seeds.tolist() == [0, 2]

    def test_empirical_frequency(self):
        rng = np.random.default_rng(1)
        q = np.array([0.25, 0.75])
        counts = np.zeros(2)
        trials = 20000
        for _ in range(trials):
            counts[sample_seed_set(q, rng)] += 1
        assert counts[0] / trials == pytest.approx(0.25, abs=0.02)
        assert counts[1] / trials == pytest.approx(0.75, abs=0.02)

    def test_invalid_probabilities(self, rng):
        with pytest.raises(EstimationError):
            sample_seed_set(np.array([1.2]), rng)
        with pytest.raises(EstimationError):
            sample_seed_set(np.array([[0.5]]), rng)
        with pytest.raises(EstimationError):
            sample_seed_set(np.array([np.nan]), rng)


class TestEstimateSpread:
    def test_deterministic_graph(self):
        ic = IndependentCascade(path_graph(4, probability=1.0))
        estimate = estimate_spread(ic, [0], num_samples=50, seed=2)
        assert estimate.mean == pytest.approx(4.0)
        assert estimate.stddev == pytest.approx(0.0)

    def test_star_estimate(self):
        ic = IndependentCascade(star_graph(4, probability=0.1))
        estimate = estimate_spread(ic, [0], num_samples=20000, seed=3)
        assert estimate.mean == pytest.approx(1.4, abs=0.03)
        lo, hi = estimate.confidence_interval(z=4.0)
        assert lo < 1.4 < hi

    def test_one_sigma_band(self):
        ic = IndependentCascade(star_graph(4, probability=0.5))
        estimate = estimate_spread(ic, [0], num_samples=5000, seed=4)
        lo, hi = estimate.one_sigma_band()
        assert hi - lo == pytest.approx(2 * estimate.stddev)

    def test_invalid_num_samples(self):
        ic = IndependentCascade(path_graph(3))
        with pytest.raises(EstimationError):
            estimate_spread(ic, [0], num_samples=0)


class TestEstimateConfigurationSpread:
    def test_isolated_nodes_linear(self):
        """UI on isolated nodes equals the sum of seed probabilities."""
        ic = IndependentCascade(isolated_nodes(5))
        q = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        estimate = estimate_configuration_spread(ic, q, num_samples=30000, seed=5)
        assert estimate.mean == pytest.approx(q.sum(), abs=0.05)

    def test_certain_seed_matches_fixed_spread(self):
        ic = IndependentCascade(star_graph(4, probability=0.1))
        q = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        config_est = estimate_configuration_spread(ic, q, num_samples=20000, seed=6)
        fixed_est = estimate_spread(ic, [0], num_samples=20000, seed=7)
        assert config_est.mean == pytest.approx(fixed_est.mean, abs=0.05)

    def test_zero_probabilities_give_zero(self):
        ic = IndependentCascade(path_graph(4))
        estimate = estimate_configuration_spread(ic, np.zeros(4), num_samples=100, seed=8)
        assert estimate.mean == 0.0

    def test_extra_uncertainty_reflected_in_stddev(self):
        """Probabilistic seeds add variance vs a fixed seed set (Sec 9.2)."""
        ic = IndependentCascade(star_graph(4, probability=0.1))
        fixed = estimate_spread(ic, [0], num_samples=20000, seed=9)
        probabilistic = estimate_configuration_spread(
            ic, np.array([0.5, 0, 0, 0, 0]), num_samples=20000, seed=10
        )
        assert probabilistic.stddev > fixed.stddev

    def test_wrong_length_rejected(self):
        ic = IndependentCascade(path_graph(3))
        with pytest.raises(EstimationError):
            estimate_configuration_spread(ic, np.zeros(5), num_samples=10)

    def test_invalid_num_samples(self):
        ic = IndependentCascade(path_graph(3))
        with pytest.raises(EstimationError):
            estimate_configuration_spread(ic, np.zeros(3), num_samples=-1)


@pytest.mark.parametrize("workers", [1, 2])
class TestInputsCheckedBeforeChunks:
    """A bad input raises the same error at every worker count."""

    MODEL = IndependentCascade(path_graph(4, probability=0.5))

    @pytest.mark.parametrize(
        "q", [[0.5, 1.5, 0.0, 0.1], [0.5, -0.1, 0.0, 0.1], [0.5, np.nan, 0.0, 0.1]]
    )
    def test_probability_out_of_range(self, workers, q):
        with pytest.raises(EstimationError):
            estimate_configuration_spread(
                self.MODEL, np.array(q), num_samples=1000, workers=workers, chunk_size=100
            )

    def test_seed_outside_graph(self, workers):
        with pytest.raises(NodeNotFoundError):
            estimate_spread(self.MODEL, [7], num_samples=1000, workers=workers, chunk_size=100)
