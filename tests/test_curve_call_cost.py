"""Deterministic guard on array-path curve calls in the CD pair step.

``SeedProbabilityCurve.__call__`` evaluates a ``float`` discount with
plain float arithmetic and everything else through numpy arrays, at
about twenty times the cost per scalar.  A CD pair step needs the array
path only for its two grid-candidate vectors; the golden-section refine
and the accepted update evaluate one float at a time, about 54 calls per
pair.  This test counts the array-path entries instead of timing them:
at most 2 per pair evaluation, after the run's one whole-vector
``probabilities()`` pass (one array call per curve group).

The array path hands ``_evaluate`` numpy input and the scalar path a
Python float, so counting ``_evaluate`` calls by argument type counts
the path taken.
"""

import numpy as np
import pytest

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.curves import ConcaveCurve, LinearCurve, QuadraticCurve
from repro.core.population import CurvePopulation
from repro.core.problem import CIMProblem
from repro.diffusion.independent_cascade import IndependentCascade
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.obs import MetricsRegistry, observe

N = 150


@pytest.fixture(scope="module")
def curves():
    return [ConcaveCurve(), LinearCurve(), QuadraticCurve()]


@pytest.fixture(scope="module")
def problem(curves):
    graph = assign_weighted_cascade(erdos_renyi(N, 0.04, seed=21), alpha=1.0)
    assignment = np.random.default_rng(22).integers(0, len(curves), size=N)
    population = CurvePopulation([curves[k] for k in assignment])
    return CIMProblem(IndependentCascade(graph), population, budget=4.0)


@pytest.fixture
def array_calls(monkeypatch, curves):
    """A one-element list holding the count of array-path curve calls."""
    calls = [0]
    for curve in curves:
        original = curve._evaluate

        def counting(c, original=original):
            if type(c) is not float:
                calls[0] += 1
            return original(c)

        monkeypatch.setattr(curve, "_evaluate", counting)
    return calls


@pytest.mark.parametrize("pair_strategy", ["cyclic", "lazy"])
def test_array_path_only_for_grid_candidates(problem, curves, array_calls, pair_strategy):
    hypergraph = problem.build_hypergraph(num_hyperedges=2000, seed=23)
    warm = np.zeros(N)
    warm[:8] = 0.5
    registry = MetricsRegistry()
    array_calls[0] = 0
    with observe(metrics=registry):
        result = coordinate_descent_hypergraph(
            problem,
            hypergraph,
            Configuration(warm),
            grid_step=0.05,
            max_rounds=3,
            refine_iterations=25,
            pair_strategy=pair_strategy,
        )
    counters = registry.snapshot()["counters"]
    pair_evals = counters["cd.pair_evals_total"]
    assert pair_evals >= 28  # every pair of the 8-node support, at least once
    assert result.pair_updates > 0  # the accepted-update path ran too
    setup = len(curves)
    assert array_calls[0] - setup <= 2 * pair_evals, (
        f"{array_calls[0]} array-path curve calls for {pair_evals} pair evaluations"
    )
