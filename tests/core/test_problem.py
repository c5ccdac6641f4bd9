"""Unit tests for CIMProblem."""

import pytest

from repro.core.configuration import Configuration
from repro.core.curves import LinearCurve
from repro.core.population import CurvePopulation, paper_mixture
from repro.core.problem import CIMProblem
from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import ConfigurationError
from repro.graphs.generators import isolated_nodes, star_graph


def make_problem(num_nodes=5, budget=1.0):
    model = IndependentCascade(star_graph(num_nodes - 1, probability=0.1))
    population = CurvePopulation.uniform(num_nodes, LinearCurve())
    return CIMProblem(model, population, budget=budget)


class TestValidation:
    def test_valid_problem(self):
        problem = make_problem()
        assert problem.num_nodes == 5
        assert problem.graph.num_nodes == 5

    def test_population_size_mismatch(self):
        model = IndependentCascade(star_graph(3))
        population = CurvePopulation.uniform(99, LinearCurve())
        with pytest.raises(ConfigurationError):
            CIMProblem(model, population, budget=1.0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            make_problem(budget=0.0)

    def test_budget_above_n_rejected(self):
        with pytest.raises(ConfigurationError):
            make_problem(num_nodes=5, budget=6.0)

    def test_budget_equal_n_allowed(self):
        make_problem(num_nodes=5, budget=5.0)


class TestFeasibility:
    def test_feasible_configuration(self):
        problem = make_problem(budget=1.0)
        assert problem.feasible(Configuration([0.5, 0.5, 0, 0, 0]))
        assert not problem.feasible(Configuration([0.6, 0.6, 0, 0, 0]))

    def test_wrong_length_infeasible(self):
        problem = make_problem()
        assert not problem.feasible(Configuration([1.0]))


class TestEvaluate:
    def test_evaluate_matches_known_value(self):
        problem = make_problem(budget=1.0)
        config = Configuration.integer([0], 5)
        estimate = problem.evaluate(config, num_samples=20000, seed=1)
        assert estimate.mean == pytest.approx(1.4, abs=0.05)

    def test_evaluate_wrong_length_raises(self):
        problem = make_problem()
        with pytest.raises(ConfigurationError):
            problem.evaluate(Configuration([1.0]), num_samples=10)

    def test_evaluate_applies_curves(self):
        """With linear curves on isolated nodes, UI = budget."""
        model = IndependentCascade(isolated_nodes(4))
        population = CurvePopulation.uniform(4, LinearCurve())
        problem = CIMProblem(model, population, budget=2.0)
        estimate = problem.evaluate(
            Configuration.uniform(2.0, 4), num_samples=20000, seed=2
        )
        assert estimate.mean == pytest.approx(2.0, abs=0.06)


class TestEvaluationEngines:
    def test_engines_agree(self):
        """``evaluate`` agrees at 5σ with the live-edge oracle and exact UI."""
        from repro.core.exact import exact_ui_ic
        from repro.diffusion.batch import batch_configuration_spread_ic

        problem = make_problem(budget=1.0)
        config = Configuration([0.6, 0.3, 0.1, 0.0, 0.0])
        q = problem.population.probabilities(config.discounts)
        estimate = problem.evaluate(config, num_samples=20000, seed=5)
        oracle = batch_configuration_spread_ic(problem.graph, q, num_samples=20000, seed=6)
        exact = exact_ui_ic(problem.graph, q)
        combined = (estimate.stderr**2 + oracle.stderr**2) ** 0.5
        assert abs(estimate.mean - oracle.mean) < 5 * combined
        assert abs(estimate.mean - exact) < 5 * estimate.stderr

    def test_auto_falls_back_for_lt(self):
        """LT evaluates on the same Monte-Carlo engine as IC."""
        from repro.diffusion.linear_threshold import LinearThreshold
        from repro.graphs.build import from_edges

        graph = from_edges([(0, 1, 0.5)], num_nodes=2)
        population = CurvePopulation.uniform(2, LinearCurve())
        problem = CIMProblem(LinearThreshold(graph), population, budget=1.0)
        estimate = problem.evaluate(Configuration.integer([0], 2), num_samples=200, seed=8)
        assert estimate.mean >= 1.0


class TestBuildHypergraph:
    def test_default_size(self):
        problem = make_problem()
        hg = problem.build_hypergraph(seed=3)
        assert hg.num_hyperedges >= problem.num_nodes  # n log n >= n

    def test_explicit_size(self):
        problem = make_problem()
        hg = problem.build_hypergraph(num_hyperedges=123, seed=4)
        assert hg.num_hyperedges == 123
