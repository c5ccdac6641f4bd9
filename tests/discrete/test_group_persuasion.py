"""Unit tests for the group-persuasion baseline."""

import numpy as np
import pytest

from repro.diffusion.independent_cascade import IndependentCascade
from repro.discrete.group_persuasion import group_persuasion
from repro.exceptions import SolverError
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset.hypergraph import RRHypergraph


@pytest.fixture(scope="module")
def gp_setup():
    graph = assign_weighted_cascade(erdos_renyi(60, 0.1, seed=1), alpha=1.0)
    model = IndependentCascade(graph)
    hypergraph = RRHypergraph.build(model, 4000, seed=2)
    groups = [list(range(i, min(i + 10, 60))) for i in range(0, 60, 10)]
    probs = np.full(60, 0.3)
    return graph, hypergraph, groups, probs


class TestGroupPersuasion:
    def test_budget_respected(self, gp_setup):
        _, hypergraph, groups, probs = gp_setup
        result = group_persuasion(hypergraph, groups, probs, budget=25.0)
        assert result.total_cost <= 25.0 + 1e-9
        assert len(result.groups) == 2  # two size-10 groups affordable

    def test_targeted_nodes_union_of_groups(self, gp_setup):
        _, hypergraph, groups, probs = gp_setup
        result = group_persuasion(hypergraph, groups, probs, budget=25.0)
        expected = set()
        for g in result.groups:
            expected.update(groups[g])
        assert set(result.targeted_nodes.tolist()) == expected

    def test_marginal_gains_decreasing(self, gp_setup):
        _, hypergraph, groups, probs = gp_setup
        result = group_persuasion(hypergraph, groups, probs, budget=60.0)
        assert all(a >= b - 1e-9 for a, b in zip(result.gains, result.gains[1:]))

    def test_spread_matches_hypergraph_objective(self, gp_setup):
        """The reported spread must equal the Theorem-9 estimate of the
        induced configuration (fixed probabilities on targeted nodes)."""
        from repro.rrset.estimator import HypergraphObjective

        _, hypergraph, groups, probs = gp_setup
        result = group_persuasion(hypergraph, groups, probs, budget=25.0)
        q = np.zeros(60)
        q[result.targeted_nodes] = probs[result.targeted_nodes]
        objective = HypergraphObjective(hypergraph, q)
        assert result.spread_estimate == pytest.approx(objective.value(), rel=1e-9)

    def test_zero_probability_groups_not_chosen(self, gp_setup):
        _, hypergraph, groups, _ = gp_setup
        probs = np.zeros(60)
        result = group_persuasion(hypergraph, groups, probs, budget=60.0)
        assert result.groups == []
        assert result.spread_estimate == 0.0

    def test_custom_group_costs(self, gp_setup):
        _, hypergraph, groups, probs = gp_setup
        costs = [1.0] * len(groups)
        result = group_persuasion(hypergraph, groups, probs, budget=3.0, group_costs=costs)
        assert len(result.groups) == 3

    def test_cim_beats_fixed_probability_targeting(self, gp_setup):
        """The paper's motivation vs Eftekhar et al.: choosing discounts
        (and thereby probabilities) beats fixed-probability groups at equal
        worst-case spend."""
        from repro.core.population import paper_mixture
        from repro.core.problem import CIMProblem
        from repro.core.solvers import solve

        graph, hypergraph, groups, probs = gp_setup
        # Group baseline: budget of 20 impressions at 0.25 discount-worth
        # each = worst-case spend 5.
        baseline = group_persuasion(
            hypergraph, groups, np.full(60, 0.25), budget=20.0
        )
        problem = CIMProblem(
            IndependentCascade(graph), paper_mixture(60, seed=3), budget=5.0
        )
        cd = solve(problem, "cd", hypergraph=hypergraph, seed=4)
        assert cd.spread_estimate > baseline.spread_estimate

    def test_validation_errors(self, gp_setup):
        _, hypergraph, groups, probs = gp_setup
        with pytest.raises(SolverError):
            group_persuasion(hypergraph, groups, probs[:10], budget=5.0)
        with pytest.raises(SolverError):
            group_persuasion(hypergraph, groups, probs, budget=0.0)
        with pytest.raises(SolverError):
            group_persuasion(hypergraph, [[0], [0, 1]], probs, budget=5.0)  # overlap
        with pytest.raises(SolverError):
            group_persuasion(hypergraph, [[]], probs, budget=5.0)  # empty group
        with pytest.raises(SolverError):
            group_persuasion(hypergraph, [[999]], probs, budget=5.0)
        with pytest.raises(SolverError):
            group_persuasion(hypergraph, groups, probs, budget=5.0, group_costs=[1.0])

    def test_nan_probability_rejected(self, gp_setup):
        _, hypergraph, groups, probs = gp_setup
        bad = probs.copy()
        bad[0] = np.nan
        with pytest.raises(SolverError, match="must lie in"):
            group_persuasion(hypergraph, groups, bad, budget=5.0)
