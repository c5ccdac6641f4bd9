"""Unit tests for RIS discrete influence maximization."""

import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.montecarlo import estimate_spread
from repro.exceptions import SolverError
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi, star_graph
from repro.graphs.weights import assign_weighted_cascade
from repro.discrete.ris import ris_influence_maximization
from repro.rrset.hypergraph import RRHypergraph


class TestRIS:
    def test_hub_selected_on_star(self):
        g = star_graph(6, probability=0.5)
        ic = IndependentCascade(g)
        result = ris_influence_maximization(ic, 1, num_hyperedges=5000, seed=1)
        assert result.seeds == [0]

    def test_seed_count_respected(self):
        g = assign_weighted_cascade(erdos_renyi(60, 0.1, seed=2), alpha=1.0)
        ic = IndependentCascade(g)
        result = ris_influence_maximization(ic, 5, num_hyperedges=3000, seed=3)
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_spread_estimate_close_to_mc(self):
        g = assign_weighted_cascade(erdos_renyi(80, 0.08, seed=4), alpha=1.0)
        ic = IndependentCascade(g)
        result = ris_influence_maximization(ic, 4, num_hyperedges=20000, seed=5)
        mc = estimate_spread(ic, result.seeds, num_samples=4000, seed=6).mean
        assert result.spread_estimate == pytest.approx(mc, rel=0.1)

    def test_reuses_supplied_hypergraph(self):
        g = star_graph(4, probability=0.5)
        ic = IndependentCascade(g)
        hg = RRHypergraph.build(ic, 2000, seed=7)
        result = ris_influence_maximization(ic, 1, hypergraph=hg)
        assert result.hypergraph is hg
        assert "hypergraph" not in result.timings.phases  # no rebuild

    def test_timings_recorded(self):
        g = star_graph(4, probability=0.5)
        ic = IndependentCascade(g)
        result = ris_influence_maximization(ic, 1, num_hyperedges=500, seed=8)
        assert "hypergraph" in result.timings.phases
        assert "selection" in result.timings.phases

    def test_approximation_bound_in_unit_range(self):
        g = assign_weighted_cascade(erdos_renyi(60, 0.1, seed=9), alpha=1.0)
        ic = IndependentCascade(g)
        result = ris_influence_maximization(ic, 5, num_hyperedges=5000, seed=10)
        assert 0.0 <= result.approximation_bound < 1 - 1 / 2.718

    def test_negative_k_rejected(self):
        ic = IndependentCascade(star_graph(3))
        with pytest.raises(SolverError):
            ris_influence_maximization(ic, -1, num_hyperedges=10)

    def test_deterministic_with_seed(self):
        g = assign_weighted_cascade(erdos_renyi(40, 0.1, seed=11), alpha=1.0)
        ic = IndependentCascade(g)
        a = ris_influence_maximization(ic, 3, num_hyperedges=2000, seed=12)
        b = ris_influence_maximization(ic, 3, num_hyperedges=2000, seed=12)
        assert a.seeds == b.seeds
