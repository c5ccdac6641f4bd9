"""Bit-exact regression pinning of the vectorized CD kernel swap.

The kernel overhaul (incremental covered-sum, reduceat rebuild, cached
pair topology, vectorized CSR build) promises that not a single output
bit changes: for a fixed seed, ``coordinate_descent_hypergraph`` must
produce identical ``round_values`` floats and identical final
configurations through the vectorized kernels and through the preserved
pre-change implementation (the test tree's oracle, passed in as CD's
``objective``), at every worker count used to build the hyper-graph.
"""

import numpy as np
import pytest

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.core.unified_discount import unified_discount
from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import SolverError
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset.estimator import HypergraphObjective

from tests.rrset.reference_kernels import ReferenceObjective


@pytest.fixture(scope="module")
def cd_problem():
    graph = assign_weighted_cascade(erdos_renyi(60, 0.08, seed=1), alpha=1.0)
    population = paper_mixture(60, seed=2)
    problem = CIMProblem(IndependentCascade(graph), population, budget=3.0)
    hypergraph = problem.build_hypergraph(num_hyperedges=3000, seed=3)
    ud = unified_discount(problem, hypergraph)
    return problem, hypergraph, ud


def _oracle(problem, hypergraph, ud):
    """The reference objective at the warm start's seed probabilities."""
    probs = problem.population.probabilities(ud.configuration.discounts)
    return ReferenceObjective(hypergraph, probs)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("refine_iterations", [0, 25])
    def test_round_values_and_config_identical(self, cd_problem, refine_iterations):
        """Vectorized vs reference: every float equal, bit for bit."""
        problem, hypergraph, ud = cd_problem
        ref, vec = (
            coordinate_descent_hypergraph(
                problem,
                hypergraph,
                ud.configuration,
                refine_iterations=refine_iterations,
                objective=objective,
            )
            for objective in (_oracle(problem, hypergraph, ud), None)
        )
        assert ref.round_values == vec.round_values
        assert ref.objective_value == vec.objective_value
        assert np.array_equal(
            ref.configuration.discounts, vec.configuration.discounts
        )
        assert ref.rounds_run == vec.rounds_run
        assert ref.pair_updates == vec.pair_updates
        assert ref.converged == vec.converged

    def test_gradient_strategy_parity(self, cd_problem):
        """The kernel swap also leaves the gradient pair heuristic intact."""
        problem, hypergraph, ud = cd_problem
        ref = coordinate_descent_hypergraph(
            problem, hypergraph, ud.configuration,
            pair_strategy="gradient", objective=_oracle(problem, hypergraph, ud),
        )
        vec = coordinate_descent_hypergraph(
            problem, hypergraph, ud.configuration, pair_strategy="gradient"
        )
        assert ref.round_values == vec.round_values
        assert np.array_equal(
            ref.configuration.discounts, vec.configuration.discounts
        )

    def test_workers_invariance(self, cd_problem):
        """Hyper-graphs built at workers 1/2/4 yield identical CD runs."""
        problem, _, ud = cd_problem
        baseline = None
        for workers in (1, 2, 4):
            hypergraph = problem.build_hypergraph(
                num_hyperedges=3000, seed=3, workers=workers
            )
            result = coordinate_descent_hypergraph(
                problem, hypergraph, ud.configuration
            )
            key = (
                hypergraph.edge_offsets.tobytes(),
                hypergraph.edge_nodes.tobytes(),
                tuple(result.round_values),
                result.configuration.discounts.tobytes(),
            )
            if baseline is None:
                baseline = key
            else:
                assert key == baseline, f"workers={workers} diverged"

    def test_unknown_kernel_rejected(self, cd_problem):
        """CD has one objective kernel: there is no option to pick one."""
        problem, hypergraph, ud = cd_problem
        with pytest.raises(TypeError, match="kernel"):
            coordinate_descent_hypergraph(
                problem, hypergraph, ud.configuration, kernel="reference"
            )

    def test_objective_bound_to_another_hypergraph_rejected(self, cd_problem):
        problem, hypergraph, ud = cd_problem
        other = problem.build_hypergraph(num_hyperedges=500, seed=4)
        probs = problem.population.probabilities(ud.configuration.discounts)
        for foreign in (
            HypergraphObjective(other, probs),
            ReferenceObjective(other, probs),
        ):
            with pytest.raises(SolverError, match="different hyper-graph"):
                coordinate_descent_hypergraph(
                    problem, hypergraph, ud.configuration, objective=foreign
                )
