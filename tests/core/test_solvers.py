"""Unit tests for the solver facade."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.curves import ConcaveCurve
from repro.core.population import CurvePopulation
from repro.core.problem import CIMProblem
from repro.core.solvers import available_methods, solve
from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import SolverError
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.obs.context import get_tracer, observe
from repro.obs.tracer import NULL_TRACER, Tracer


class TestRegistry:
    def test_available_methods(self):
        methods = available_methods()
        for expected in ("im", "ud", "cd", "cd-im", "uniform", "random", "degree"):
            assert expected in methods

    def test_unknown_method_rejected(self, medium_problem):
        with pytest.raises(SolverError, match="unknown method"):
            solve(medium_problem, "nope")


class TestAllMethods:
    @pytest.mark.parametrize("method", ["im", "ud", "cd", "cd-im", "uniform", "random", "degree"])
    def test_feasible_output(self, method, medium_problem, medium_hypergraph):
        result = solve(medium_problem, method, hypergraph=medium_hypergraph, seed=1)
        assert result.configuration.is_feasible(medium_problem.budget)
        assert len(result.configuration) == medium_problem.num_nodes
        assert result.spread_estimate > 0.0
        assert result.method == method

    def test_im_integer_configuration(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "im", hypergraph=medium_hypergraph)
        assert result.configuration.is_integer
        assert len(result.configuration.seed_set()) == int(medium_problem.budget)

    def test_ud_extras(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "ud", hypergraph=medium_hypergraph)
        assert 0.0 < result.extras["best_discount"] <= 1.0
        assert result.extras["targets"]

    def test_cd_extras(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "cd", hypergraph=medium_hypergraph)
        assert result.extras["warm_start"] == "ud"
        assert result.extras["rounds_run"] >= 1

    def test_paper_ordering(self, medium_problem, medium_hypergraph):
        """The paper's headline: CD >= UD >= IM on the shared estimator."""
        spreads = {
            method: solve(medium_problem, method, hypergraph=medium_hypergraph, seed=2).spread_estimate
            for method in ("im", "ud", "cd")
        }
        assert spreads["cd"] >= spreads["ud"] - 1e-6
        assert spreads["ud"] >= spreads["im"] - 1e-6

    def test_cd_im_no_worse_than_im(self, medium_problem, medium_hypergraph):
        """Section 6: warm-starting CD from IM can only improve it."""
        im = solve(medium_problem, "im", hypergraph=medium_hypergraph)
        cd_im = solve(medium_problem, "cd-im", hypergraph=medium_hypergraph)
        assert cd_im.spread_estimate >= im.spread_estimate - 1e-6

    def test_cd_im_strictly_improves_on_sensitive_population(
        self, medium_problem, medium_hypergraph
    ):
        """With discount-sensitive users, budget must flow out of the
        integer seeds: cd-im's configuration cannot remain integer.

        Regression guard: an integer start whose pair set is limited to its
        own support is a fixed point (every support pair sits at (1, 1)),
        so this test fails if cd-im stops adding zero coordinates.
        """
        im = solve(medium_problem, "im", hypergraph=medium_hypergraph)
        cd_im = solve(medium_problem, "cd-im", hypergraph=medium_hypergraph)
        assert not cd_im.configuration.is_integer
        assert cd_im.spread_estimate > im.spread_estimate

    def test_random_deterministic_with_seed(self, medium_problem, medium_hypergraph):
        a = solve(medium_problem, "random", hypergraph=medium_hypergraph, seed=42)
        b = solve(medium_problem, "random", hypergraph=medium_hypergraph, seed=42)
        assert a.configuration == b.configuration

    def test_uniform_configuration(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "uniform", hypergraph=medium_hypergraph)
        expected = medium_problem.budget / medium_problem.num_nodes
        assert np.allclose(result.configuration.discounts, expected)


class TestHypergraphHandling:
    def test_builds_hypergraph_when_missing(self, medium_problem):
        result = solve(medium_problem, "im", num_hyperedges=500, seed=3)
        assert "hypergraph" in result.timings.phases
        assert result.extras["num_hyperedges"] == 500

    def test_shared_hypergraph_not_rebuilt(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "im", hypergraph=medium_hypergraph)
        assert "hypergraph" not in result.timings.phases
        assert result.extras["num_hyperedges"] == medium_hypergraph.num_hyperedges

    def test_method_phase_timed(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "cd", hypergraph=medium_hypergraph)
        assert result.timings.phases["cd"] > 0.0


def _outermost(span, names):
    """The outermost spans named in ``names``, depth-first."""
    if span.name in names:
        return [span]
    return [hit for child in span.children for hit in _outermost(child, names)]


def _seconds(span, *names):
    return sum(hit.duration for hit in _outermost(span, names))


class TestTimingsFromSpans:
    """``SolveResult.timings`` is Figure 6's split of the call's spans."""

    def _traced(self, problem, method, **kwargs):
        tracer = Tracer()
        with observe(tracer=tracer):
            result = solve(problem, method, **kwargs)
        (root,) = tracer.roots
        return result, root

    def test_adaptive_split(self, medium_problem):
        result, root = self._traced(
            medium_problem,
            "cd",
            num_hyperedges="auto",
            seed=4,
            adaptive={"max_theta": 1024, "epsilon": 1e-9, "stability_window": 0},
        )
        assert len(result.extras["adaptive"]["stages"]) >= 2
        phases = result.timings.phases
        assert phases["cd"] >= _seconds(root, "solver.ud", "solver.cd") > 0.0
        build = ("rrset.sample", "hypergraph.extend", "hypergraph.index")
        assert phases["hypergraph"] == _seconds(root, "hypergraph.build", *build)
        # The first instalment's index build is booked to the build.
        assert [s.name for s in _outermost(root, build)][:4] == [
            "rrset.sample",
            "hypergraph.index",
            "rrset.sample",
            "hypergraph.extend",
        ]
        assert result.timings.total == pytest.approx(root.duration, abs=1e-9)

    def test_fixed_theta_build_is_the_build_span(self, medium_problem):
        result, root = self._traced(medium_problem, "ud", num_hyperedges=500, seed=3)
        (build,) = _outermost(root, ("hypergraph.build",))
        assert result.timings.phases["hypergraph"] == build.duration
        assert list(result.timings.phases) == ["hypergraph", "ud"]

    def test_null_context(self, medium_problem, medium_hypergraph):
        with observe(tracer=NULL_TRACER):
            built = solve(medium_problem, "ud", num_hyperedges=500, seed=3)
            reused = solve(medium_problem, "ud", hypergraph=medium_hypergraph)
            assert get_tracer() is NULL_TRACER
        assert built.timings.phases["hypergraph"] > 0.0
        assert built.timings.phases["ud"] > 0.0
        assert list(reused.timings.phases) == ["ud"]
        assert reused.timings.phases["ud"] > 0.0

    def test_one_root_under_a_caller_tracer(self, medium_problem):
        forests = []
        for workers in (1, 2):
            tracer = Tracer()
            with observe(tracer=tracer):
                solve(medium_problem, "cd", num_hyperedges=500, seed=3, workers=workers)
            assert [root.name for root in tracer.roots] == ["solve"]
            forests.append(tracer.canonical())
        assert forests[0] == forests[1]


class TestBudgetEdgeCases:
    def test_fractional_budget_im_rejected(self):
        graph = assign_weighted_cascade(erdos_renyi(30, 0.1, seed=4), alpha=1.0)
        population = CurvePopulation.uniform(30, ConcaveCurve())
        problem = CIMProblem(IndependentCascade(graph), population, budget=0.5)
        with pytest.raises(SolverError):
            solve(problem, "im", num_hyperedges=200, seed=5)

    def test_fractional_budget_ud_works(self):
        graph = assign_weighted_cascade(erdos_renyi(30, 0.1, seed=6), alpha=1.0)
        population = CurvePopulation.uniform(30, ConcaveCurve())
        problem = CIMProblem(IndependentCascade(graph), population, budget=0.5)
        result = solve(problem, "ud", num_hyperedges=500, seed=7)
        assert result.configuration.is_feasible(0.5)
        assert result.configuration.cost > 0.0

    def test_cost_property(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "im", hypergraph=medium_hypergraph)
        assert result.cost == pytest.approx(result.configuration.cost)


class TestExtrasContract:
    """Every solve, whatever the method or path, emits the same extras
    keys with the same types — downstream consumers (the experiment
    runner's JSON payloads, the CLI partial banner, report CSVs) rely on
    them and must never hit key drift."""

    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_mandatory_keys_and_types(self, medium_problem, medium_hypergraph, method):
        result = solve(medium_problem, method, hypergraph=medium_hypergraph, seed=3)
        extras = result.extras
        assert type(extras["partial"]) is bool
        assert type(extras["num_hyperedges"]) is int
        assert extras["num_hyperedges"] == medium_hypergraph.num_hyperedges
        assert isinstance(extras["metrics"], dict)

    def test_metrics_snapshot_shape(self, medium_problem, medium_hypergraph):
        result = solve(medium_problem, "ud", hypergraph=medium_hypergraph, seed=3)
        metrics = result.extras["metrics"]
        assert sorted(metrics) == ["counters", "gauges", "histograms"]
        counters = metrics["counters"]
        assert counters["solver.runs_total"] == 1
        assert counters["solver.hypergraph_reuse_total"] == 1
        assert counters["ud.runs_total"] == 1
        assert metrics["gauges"]["solver.num_hyperedges"] == float(
            medium_hypergraph.num_hyperedges
        )
        for snapshot in metrics["histograms"].values():
            assert set(snapshot) == {"count", "mean", "stddev", "min", "max"}

    def test_built_hypergraph_metrics(self, medium_problem):
        result = solve(medium_problem, "degree", num_hyperedges=300, seed=3)
        counters = result.extras["metrics"]["counters"]
        assert counters["hypergraph.builds_total"] == 1
        assert counters["rrset.requested_total"] == 300
        assert "solver.hypergraph_reuse_total" not in counters

    def test_extras_survive_experiment_payload_round_trip(
        self, medium_problem, medium_hypergraph
    ):
        import json

        from repro.experiments.runner import ExperimentResult

        result = solve(medium_problem, "ud", hypergraph=medium_hypergraph, seed=3)
        cell = ExperimentResult(
            method="ud",
            budget=medium_problem.budget,
            spread_mean=1.0,
            spread_std=0.1,
            hypergraph_estimate=result.spread_estimate,
            hypergraph_ms=0.0,
            method_ms=0.0,
            extras=result.extras,
        )
        payload = json.loads(json.dumps(cell.to_payload()))
        restored = ExperimentResult.from_payload(payload)
        assert restored.extras["partial"] == result.extras["partial"]
        assert restored.extras["num_hyperedges"] == result.extras["num_hyperedges"]
        assert restored.extras["metrics"] == result.extras["metrics"]
