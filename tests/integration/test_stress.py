"""Stress tests: the full pipeline at the largest sizes the suite runs.

These guard against quadratic blow-ups and memory regressions that small
unit-test graphs cannot reveal.  Sizes are chosen to finish in seconds on
a laptop while still being ~10x the typical unit-test instance.
"""

import numpy as np
import pytest

from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.core.solvers import solve
from repro.diffusion.independent_cascade import IndependentCascade
from repro.experiments.datasets import load_dataset
from repro.graphs.stats import describe


@pytest.fixture(scope="module")
def large_analogue():
    """The com-DBLP analogue at 1% scale: ~3,200 nodes, ~21,000 edges."""
    graph, _ = load_dataset("com-dblp", scale=0.01, alpha=1.0, seed=1)
    return graph


class TestLargePipeline:
    def test_graph_construction_sane(self, large_analogue):
        stats = describe(large_analogue)
        assert stats.num_nodes > 3000
        assert stats.num_edges > 15000

    def test_full_solve_pipeline(self, large_analogue):
        population = paper_mixture(large_analogue.num_nodes, seed=2)
        problem = CIMProblem(
            IndependentCascade(large_analogue), population, budget=10.0
        )
        hypergraph = problem.build_hypergraph(num_hyperedges=5000, seed=3)
        results = {}
        for method in ("im", "ud"):
            results[method] = solve(problem, method, hypergraph=hypergraph, seed=4)
        assert results["ud"].spread_estimate >= results["im"].spread_estimate - 1e-6

    def test_gradient_cd_scales(self, large_analogue):
        """CD with the gradient heuristic must finish quickly even with a
        large warm-start support."""
        from repro.core.cd_hypergraph import coordinate_descent_hypergraph
        from repro.core.unified_discount import unified_discount

        population = paper_mixture(large_analogue.num_nodes, seed=5)
        problem = CIMProblem(
            IndependentCascade(large_analogue), population, budget=10.0
        )
        hypergraph = problem.build_hypergraph(num_hyperedges=4000, seed=6)
        ud = unified_discount(problem, hypergraph)
        result = coordinate_descent_hypergraph(
            problem,
            hypergraph,
            ud.configuration,
            pair_strategy="gradient",
            max_rounds=3,
        )
        assert result.objective_value >= ud.spread_estimate - 1e-6

    def test_evaluation_scales(self, large_analogue):
        population = paper_mixture(large_analogue.num_nodes, seed=7)
        problem = CIMProblem(
            IndependentCascade(large_analogue), population, budget=10.0
        )
        from repro.core.configuration import Configuration

        config = Configuration.uniform(10.0, large_analogue.num_nodes)
        estimate = problem.evaluate(config, num_samples=500, seed=8)
        assert estimate.mean > 0

    def test_deep_cascade_no_recursion_limits(self):
        """A 5,000-node chain with p = 1: the BFS must not recurse."""
        from repro.diffusion.independent_cascade import IndependentCascade
        from repro.graphs.generators import path_graph

        g = path_graph(5000, probability=1.0)
        ic = IndependentCascade(g)
        rng = np.random.default_rng(9)
        assert ic.sample_cascade_size([0], rng) == 5000
        assert ic.sample_rr_set(4999, rng).size == 5000
