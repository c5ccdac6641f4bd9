"""Unit tests for the IMM sampling procedure."""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.montecarlo import estimate_spread
from repro.exceptions import EstimationError
from repro.graphs.generators import erdos_renyi, star_graph
from repro.graphs.weights import assign_weighted_cascade
from repro.parallel.pool import WORKERS_ENV_VAR
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.imm import imm_hypergraph


@pytest.fixture(scope="module")
def imm_model():
    graph = assign_weighted_cascade(erdos_renyi(100, 0.06, seed=1), alpha=1.0)
    return IndependentCascade(graph)


class TestIMM:
    def test_basic_run(self, imm_model):
        result = imm_hypergraph(imm_model, k=5, epsilon=0.5, seed=2)
        assert len(result.seeds) == 5
        assert result.theta == result.hypergraph.num_hyperedges
        assert result.opt_lower_bound >= 1.0

    def test_one_sampling_plan_at_every_worker_count(self, imm_model, monkeypatch):
        """Phases are instalments of one plan: worker-invariant, and equal
        to a one-shot build of the final theta from the same seed."""
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            runs.append(imm_hypergraph(imm_model, k=5, epsilon=0.5, seed=2))
        one, two = runs
        assert one.seeds == two.seeds
        assert one.theta == two.theta
        assert one.spread_estimate == two.spread_estimate
        assert one.opt_lower_bound == two.opt_lower_bound
        oneshot = RRHypergraph.build(imm_model, one.theta, seed=2, workers=1)
        for result in runs:
            assert np.array_equal(result.hypergraph.edge_offsets, oneshot.edge_offsets)
            assert np.array_equal(result.hypergraph.edge_nodes, oneshot.edge_nodes)

    def test_theta_grows_as_epsilon_shrinks(self, imm_model):
        loose = imm_hypergraph(imm_model, k=5, epsilon=0.5, seed=3)
        tight = imm_hypergraph(imm_model, k=5, epsilon=0.2, seed=3)
        assert tight.theta > loose.theta

    def test_deterministic(self, imm_model):
        a = imm_hypergraph(imm_model, k=5, epsilon=0.5, seed=4)
        b = imm_hypergraph(imm_model, k=5, epsilon=0.5, seed=4)
        assert a.seeds == b.seeds
        assert a.theta == b.theta

    def test_estimate_tracks_monte_carlo(self, imm_model):
        result = imm_hypergraph(imm_model, k=5, epsilon=0.3, seed=5)
        mc = estimate_spread(imm_model, result.seeds, num_samples=4000, seed=6)
        assert result.spread_estimate == pytest.approx(mc.mean, rel=0.15)

    def test_lower_bound_is_a_lower_bound(self, imm_model):
        """LB must not exceed the true spread of the best-known seed set."""
        result = imm_hypergraph(imm_model, k=5, epsilon=0.3, seed=7)
        mc = estimate_spread(imm_model, result.seeds, num_samples=6000, seed=8)
        # OPT >= I(greedy seeds); LB <= OPT must hold with slack for noise.
        assert result.opt_lower_bound <= mc.mean * 1.2

    def test_hub_found_on_star(self):
        graph = star_graph(8, probability=0.8)
        model = IndependentCascade(graph)
        result = imm_hypergraph(model, k=1, epsilon=0.4, seed=9)
        assert result.seeds == [0]

    def test_max_theta_cap(self, imm_model):
        result = imm_hypergraph(imm_model, k=5, epsilon=0.05, seed=10, max_theta=3000)
        assert result.theta <= 3000

    def test_invalid_args(self, imm_model):
        with pytest.raises(EstimationError):
            imm_hypergraph(imm_model, k=0)
        with pytest.raises(EstimationError):
            imm_hypergraph(imm_model, k=5, epsilon=0.0)
        with pytest.raises(EstimationError):
            imm_hypergraph(imm_model, k=5, ell=0.0)

    def test_tiny_graph_rejected(self):
        model = IndependentCascade(star_graph(0))
        with pytest.raises(EstimationError):
            imm_hypergraph(model, k=1)

    def test_hypergraph_reusable_by_solvers(self, imm_model):
        """The IMM hyper-graph plugs into the CIM solver stack."""
        from repro.core.population import paper_mixture
        from repro.core.problem import CIMProblem
        from repro.core.solvers import solve

        result = imm_hypergraph(imm_model, k=5, epsilon=0.5, seed=11)
        problem = CIMProblem(imm_model, paper_mixture(100, seed=12), budget=5.0)
        ud = solve(problem, "ud", hypergraph=result.hypergraph)
        assert ud.spread_estimate > 0
