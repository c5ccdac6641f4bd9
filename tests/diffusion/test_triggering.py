"""Unit tests for the general triggering model."""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.linear_threshold import LinearThreshold
from repro.diffusion.montecarlo import estimate_spread
from repro.diffusion.triggering import (
    TriggeringModel,
    ic_trigger_sampler,
    lt_trigger_sampler,
)
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi, path_graph
from repro.graphs.weights import assign_weighted_cascade


class TestSamplers:
    def test_ic_sampler_empty_neighbors(self, rng):
        result = ic_trigger_sampler(0, np.empty(0, dtype=np.int32), np.empty(0), rng)
        assert result.size == 0

    def test_ic_sampler_probability_one(self, rng):
        neighbors = np.array([1, 2, 3], dtype=np.int32)
        result = ic_trigger_sampler(0, neighbors, np.ones(3), rng)
        assert sorted(result.tolist()) == [1, 2, 3]

    def test_lt_sampler_at_most_one(self, rng):
        neighbors = np.array([1, 2, 3], dtype=np.int32)
        probs = np.array([0.3, 0.3, 0.3])
        for _ in range(50):
            result = lt_trigger_sampler(0, neighbors, probs, rng)
            assert result.size <= 1

    def test_lt_sampler_marginals(self):
        neighbors = np.array([1, 2], dtype=np.int32)
        probs = np.array([0.2, 0.5])
        rng = np.random.default_rng(1)
        counts = {1: 0, 2: 0, None: 0}
        trials = 30000
        for _ in range(trials):
            picked = lt_trigger_sampler(0, neighbors, probs, rng)
            key = int(picked[0]) if picked.size else None
            counts[key] += 1
        assert counts[1] / trials == pytest.approx(0.2, abs=0.01)
        assert counts[2] / trials == pytest.approx(0.5, abs=0.01)
        assert counts[None] / trials == pytest.approx(0.3, abs=0.01)


class TestEquivalence:
    """TriggeringModel(IC sampler) must be distributionally IC; same for LT."""

    def test_ic_equivalence_spread(self):
        g = assign_weighted_cascade(erdos_renyi(60, 0.1, seed=2), alpha=1.0)
        trig = TriggeringModel(g, ic_trigger_sampler)
        ic = IndependentCascade(g)
        seeds = [0, 1, 2]
        s1 = estimate_spread(trig, seeds, num_samples=4000, seed=3).mean
        s2 = estimate_spread(ic, seeds, num_samples=4000, seed=4).mean
        assert s1 == pytest.approx(s2, rel=0.1)

    def test_lt_equivalence_spread(self):
        g = assign_weighted_cascade(erdos_renyi(60, 0.1, seed=5), alpha=1.0)
        trig = TriggeringModel(g, lt_trigger_sampler)
        lt = LinearThreshold(g)
        seeds = [0, 1, 2]
        s1 = estimate_spread(trig, seeds, num_samples=4000, seed=6).mean
        s2 = estimate_spread(lt, seeds, num_samples=4000, seed=7).mean
        assert s1 == pytest.approx(s2, rel=0.1)

    def test_default_sampler_is_ic(self):
        g = path_graph(3, probability=1.0)
        trig = TriggeringModel(g)
        assert estimate_spread(trig, [0], num_samples=20, seed=8).mean == pytest.approx(3.0)


class TestCascadeSemantics:
    def test_trigger_set_sampled_once_per_cascade(self, rng):
        """A node's triggering set must be fixed within one realization.

        On 0 -> 2 <- 1 with IC p = 0.5, if both seeds are active and node
        2's set were re-sampled per exposure, its activation probability
        would be 1 - 0.25 = 0.75 regardless — but with a *cached* set the
        answer is identical; the regression here is that the cascade does
        not double-count node 2.
        """
        g = from_edges([(0, 2, 1.0), (1, 2, 1.0)], num_nodes=3)
        trig = TriggeringModel(g)
        cascade = trig.sample_cascade([0, 1], rng)
        assert sorted(cascade.tolist()) == [0, 1, 2]
        assert len(cascade) == 3

    def test_custom_sampler_none(self, rng):
        """A sampler returning empty sets freezes all propagation."""

        def never(node, neighbors, probs, rng_):
            return neighbors[:0]

        g = path_graph(5, probability=1.0)
        trig = TriggeringModel(g, never)
        assert trig.sample_cascade([0], rng).tolist() == [0]

    def test_custom_sampler_all(self, rng):
        """A sampler returning all in-neighbors gives full reachability."""

        def always(node, neighbors, probs, rng_):
            return neighbors

        g = path_graph(5, probability=0.0)  # probabilities ignored by sampler
        trig = TriggeringModel(g, always)
        assert sorted(trig.sample_cascade([0], rng).tolist()) == [0, 1, 2, 3, 4]

    def test_rr_set_with_custom_sampler(self, rng):
        def always(node, neighbors, probs, rng_):
            return neighbors

        g = path_graph(4, probability=0.0)
        trig = TriggeringModel(g, always)
        assert sorted(trig.sample_rr_set(3, rng).tolist()) == [0, 1, 2, 3]

    def test_rr_root_out_of_range(self, rng):
        trig = TriggeringModel(path_graph(3))
        with pytest.raises(IndexError):
            trig.sample_rr_set(9, rng)
