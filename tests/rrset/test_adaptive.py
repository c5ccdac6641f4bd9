"""Unit tests for adaptive RR sampling (`repro.rrset.adaptive`).

Covers the three legs of the adaptive driver:

* incremental growth — `RRHypergraph.extend` / `HypergraphObjective.extend`
  must be bit-identical to a one-shot build of the same total theta, at
  every worker count (the chunked plan guarantees it);
* the doubling schedule and the Chernoff stopping rule;
* the driver itself — determinism, every stop reason, deadline handling,
  and content-keyed checkpoint resume.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.core.population import paper_mixture
from repro.core.problem import CIMProblem
from repro.core.solvers import solve
from repro.diffusion.independent_cascade import IndependentCascade
from repro.exceptions import ConfigurationError, EstimationError, SolverError
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import assign_weighted_cascade
from repro.rrset.adaptive import (
    adaptive_hypergraph,
    relative_error_bound,
    theta_schedule,
)
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sampler import sample_rr_sets
from repro.runtime.deadline import Deadline, ManualClock

SEED = 11
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def adaptive_problem():
    graph = assign_weighted_cascade(erdos_renyi(60, 0.08, seed=1), alpha=1.0)
    population = paper_mixture(60, seed=2)
    return CIMProblem(IndependentCascade(graph), population, budget=3.0)


def _hypergraph_digest(hypergraph):
    # Hash a canonical int64 view so the pin tracks the sampled *values*,
    # independent of the storage dtype policy's narrowing.
    payload = b"".join(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
        for arr in (
            hypergraph.edge_offsets,
            hypergraph.edge_nodes,
            hypergraph.node_offsets,
            hypergraph.node_edges,
        )
    )
    return hashlib.sha256(payload).hexdigest()


class TestThetaSchedule:
    def test_docstring_cases(self):
        assert theta_schedule(100, 1000, factor=2.0, chunk_size=256) == [256, 512, 1000]
        assert theta_schedule(1000, 1000) == [1000]

    def test_all_but_last_chunk_aligned(self):
        schedule = theta_schedule(10, 10_000, factor=2.0, chunk_size=256)
        for target in schedule[:-1]:
            assert target % 256 == 0
        assert schedule[-1] == 10_000

    def test_strictly_increasing_and_ends_at_max(self):
        for factor in (1.3, 2.0, 4.0):
            schedule = theta_schedule(7, 5000, factor=factor, chunk_size=64)
            assert all(b > a for a, b in zip(schedule, schedule[1:]))
            assert schedule[-1] == 5000

    def test_slow_factor_still_terminates(self):
        """Alignment rounding can eat a small factor; the schedule must
        still advance at least one chunk per instalment."""
        schedule = theta_schedule(256, 2048, factor=1.01, chunk_size=256)
        assert all(b > a for a, b in zip(schedule, schedule[1:]))
        assert schedule[-1] == 2048

    def test_theta0_at_max(self):
        assert theta_schedule(300, 300, chunk_size=256) == [300]

    def test_validation(self):
        with pytest.raises(EstimationError):
            theta_schedule(0, 100)
        with pytest.raises(EstimationError):
            theta_schedule(200, 100)
        with pytest.raises(EstimationError):
            theta_schedule(10, 100, factor=1.0)
        with pytest.raises(EstimationError):
            theta_schedule(10, 100, chunk_size=0)


class TestRelativeErrorBound:
    def test_unachievable_without_coverage(self):
        assert relative_error_bound(0.0, 100, 50) == math.inf
        assert relative_error_bound(-1.0, 100, 50) == math.inf

    def test_decreases_with_theta(self):
        bounds = [relative_error_bound(20.0, theta, 60) for theta in (100, 1000, 10000)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_decreases_with_value(self):
        loose = relative_error_bound(5.0, 1000, 60)
        tight = relative_error_bound(40.0, 1000, 60)
        assert tight < loose

    def test_tightens_with_larger_delta(self):
        strict = relative_error_bound(20.0, 1000, 60, delta=0.001)
        lax = relative_error_bound(20.0, 1000, 60, delta=0.1)
        assert lax < strict

    def test_scales_like_inverse_sqrt_theta(self):
        """In the Chernoff regime the bound halves every 4x samples."""
        a = relative_error_bound(20.0, 10**4, 60)
        b = relative_error_bound(20.0, 4 * 10**4, 60)
        assert b == pytest.approx(a / 2.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(EstimationError):
            relative_error_bound(1.0, 0, 60)
        with pytest.raises(EstimationError):
            relative_error_bound(1.0, 100, 0)
        with pytest.raises(EstimationError):
            relative_error_bound(1.0, 100, 60, delta=0.0)
        with pytest.raises(EstimationError):
            relative_error_bound(1.0, 100, 60, delta=1.0)


class TestExtendBitIdentity:
    """The grown hyper-graph must equal a one-shot build, bit for bit."""

    # sha256 over the four CSR arrays of the one-shot build below
    # (n=60 erdos_renyi(0.08, seed=1) weighted-cascade, theta=600,
    # seed=11).  Pinned so a plan/RNG regression cannot hide behind a
    # self-consistent pair of wrong builds.
    PINNED_DIGEST = "a305d7355a788387fec82675e8bbe15b154b4eb4980597eebc6de64a8d4ac604"

    def test_pinned_digest(self, adaptive_problem):
        model = adaptive_problem.model
        one_shot = RRHypergraph(
            model.num_nodes, sample_rr_sets(model, 600, seed=SEED)
        )
        assert _hypergraph_digest(one_shot) == self.PINNED_DIGEST

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_extend_matches_one_shot(self, adaptive_problem, workers):
        model = adaptive_problem.model
        one_shot = RRHypergraph(
            model.num_nodes,
            sample_rr_sets(model, 600, seed=SEED, workers=workers),
        )
        first = sample_rr_sets(model, 512, seed=SEED, workers=workers)
        tail = sample_rr_sets(
            model, 88, seed=SEED, workers=workers, start_at=512
        )
        grown = RRHypergraph(model.num_nodes, first).extend(tail)
        assert _hypergraph_digest(grown) == _hypergraph_digest(one_shot)

    def test_chained_extends_match(self, adaptive_problem):
        model = adaptive_problem.model
        one_shot = RRHypergraph(
            model.num_nodes, sample_rr_sets(model, 768, seed=SEED)
        )
        grown = RRHypergraph(
            model.num_nodes, sample_rr_sets(model, 256, seed=SEED)
        )
        for start in (256, 512):
            grown = grown.extend(
                sample_rr_sets(model, 256, seed=SEED, start_at=start)
            )
        assert _hypergraph_digest(grown) == _hypergraph_digest(one_shot)

    def test_worker_counts_agree(self, adaptive_problem):
        model = adaptive_problem.model
        digests = set()
        for workers in WORKER_COUNTS:
            first = sample_rr_sets(model, 512, seed=SEED, workers=workers)
            tail = sample_rr_sets(
                model, 88, seed=SEED, workers=workers, start_at=512
            )
            digests.add(
                _hypergraph_digest(RRHypergraph(model.num_nodes, first).extend(tail))
            )
        assert len(digests) == 1

    def test_objective_extend_matches_fresh(self, adaptive_problem):
        model = adaptive_problem.model
        probs = adaptive_problem.population.probabilities(
            np.full(model.num_nodes, 0.05)
        )
        first = sample_rr_sets(model, 512, seed=SEED)
        tail = sample_rr_sets(model, 88, seed=SEED, start_at=512)
        base = RRHypergraph(model.num_nodes, first)
        grown = base.extend(tail)

        incremental = HypergraphObjective(base, probs)
        incremental.extend(grown)
        fresh = HypergraphObjective(grown, probs)

        assert incremental.value() == fresh.value()
        assert np.array_equal(incremental._zero_count, fresh._zero_count)
        assert np.array_equal(incremental._nonzero_prod, fresh._nonzero_prod)

    def test_objective_extend_rejects_non_prefix(self, adaptive_problem):
        model = adaptive_problem.model
        rr = sample_rr_sets(model, 512, seed=SEED)
        base = RRHypergraph(model.num_nodes, rr)
        other = RRHypergraph(
            model.num_nodes, sample_rr_sets(model, 600, seed=SEED + 1)
        )
        probs = adaptive_problem.population.probabilities(
            np.full(model.num_nodes, 0.05)
        )
        objective = HypergraphObjective(base, probs)
        with pytest.raises(EstimationError):
            objective.extend(other)


class TestAdaptiveDriver:
    def test_deterministic(self, adaptive_problem):
        runs = [
            adaptive_hypergraph(
                adaptive_problem, max_theta=1024, epsilon=0.2, seed=SEED
            )
            for _ in range(2)
        ]
        a, b = runs
        assert a.theta == b.theta
        assert a.stop_reason == b.stop_reason
        assert a.objective_value == b.objective_value
        assert np.array_equal(
            a.configuration.discounts, b.configuration.discounts
        )
        assert [s["value"] for s in a.stages] == [s["value"] for s in b.stages]

    def test_worker_counts_agree(self, adaptive_problem):
        results = [
            adaptive_hypergraph(
                adaptive_problem,
                max_theta=1024,
                epsilon=0.2,
                seed=SEED,
                workers=workers,
            )
            for workers in (1, 2)
        ]
        a, b = results
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.configuration.discounts, b.configuration.discounts)
        assert _hypergraph_digest(a.hypergraph) == _hypergraph_digest(b.hypergraph)

    def test_certified_stop(self, adaptive_problem):
        result = adaptive_hypergraph(
            adaptive_problem, max_theta=4096, epsilon=0.9, seed=SEED
        )
        assert result.stop_reason == "certified"
        assert result.epsilon_bound <= 0.9
        assert result.theta < 4096
        assert len(result.stages) == 1

    def test_max_theta_stop(self, adaptive_problem):
        result = adaptive_hypergraph(
            adaptive_problem,
            max_theta=512,
            epsilon=1e-9,
            stability_window=0,
            seed=SEED,
        )
        assert result.stop_reason == "max_theta"
        assert result.theta == 512
        assert result.hypergraph.num_hyperedges == 512

    def test_stable_stop(self, adaptive_problem):
        result = adaptive_hypergraph(
            adaptive_problem,
            max_theta=4096,
            epsilon=1e-9,
            stability_window=1,
            stability_rtol=10.0,  # any change counts as stable
            seed=SEED,
        )
        assert result.stop_reason == "stable"
        assert len(result.stages) == 2

    def test_deadline_stop_returns_incumbent(self, adaptive_problem):
        clock = ManualClock(tick=1.0)
        deadline = Deadline.after(40.0, clock=clock)
        result = adaptive_hypergraph(
            adaptive_problem,
            max_theta=4096,
            epsilon=1e-9,
            stability_window=0,
            seed=SEED,
            deadline=deadline,
        )
        assert result.stop_reason == "deadline"
        assert result.configuration.cost <= adaptive_problem.budget + 1e-9
        assert result.theta == result.hypergraph.num_hyperedges

    def test_monotone_epsilon_bounds(self, adaptive_problem):
        """Each doubling must tighten the certificate."""
        result = adaptive_hypergraph(
            adaptive_problem,
            max_theta=2048,
            epsilon=1e-9,
            stability_window=0,
            seed=SEED,
        )
        bounds = [s["epsilon_bound"] for s in result.stages]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_defaults_bounded_by_fixed_budget(self, adaptive_problem):
        result = adaptive_hypergraph(adaptive_problem, seed=SEED)
        from repro.rrset.sample_size import default_num_rr_sets

        assert result.theta <= default_num_rr_sets(adaptive_problem.num_nodes)

    def test_invalid_epsilon(self, adaptive_problem):
        with pytest.raises(EstimationError):
            adaptive_hypergraph(adaptive_problem, epsilon=0.0, seed=SEED)


class TestAdaptiveCheckpoint:
    def test_resume_replays_instalments(self, adaptive_problem, tmp_path):
        kwargs = dict(
            max_theta=1024,
            epsilon=1e-9,
            stability_window=0,
            seed=SEED,
            checkpoint_dir=tmp_path,
        )
        cold = adaptive_hypergraph(adaptive_problem, **kwargs)
        warm = adaptive_hypergraph(adaptive_problem, **kwargs)
        assert cold.checkpoint_hits == 0
        assert warm.checkpoint_hits == len(cold.stages)
        assert warm.theta == cold.theta
        assert warm.stop_reason == cold.stop_reason
        assert np.array_equal(
            warm.configuration.discounts, cold.configuration.discounts
        )
        assert _hypergraph_digest(warm.hypergraph) == _hypergraph_digest(
            cold.hypergraph
        )
        assert [s["value"] for s in warm.stages] == [
            s["value"] for s in cold.stages
        ]

    def test_requires_integer_seed(self, adaptive_problem, tmp_path):
        with pytest.raises(EstimationError):
            adaptive_hypergraph(
                adaptive_problem, checkpoint_dir=tmp_path, seed=None
            )


class TestAutoWiring:
    def test_build_hypergraph_auto(self, adaptive_problem):
        hypergraph = adaptive_problem.build_hypergraph(
            num_hyperedges="auto", seed=SEED, epsilon=0.5
        )
        assert isinstance(hypergraph, RRHypergraph)
        assert hypergraph.num_hyperedges >= 1

    def test_build_hypergraph_rejects_unknown_string(self, adaptive_problem):
        with pytest.raises(ConfigurationError):
            adaptive_problem.build_hypergraph(num_hyperedges="bogus", seed=SEED)

    def test_build_hypergraph_rejects_stray_adaptive_options(
        self, adaptive_problem
    ):
        with pytest.raises(ConfigurationError):
            adaptive_problem.build_hypergraph(
                num_hyperedges=100, seed=SEED, epsilon=0.5
            )

    def test_solve_auto_cd_reuses_driver_incumbent(self, adaptive_problem):
        result = solve(
            adaptive_problem,
            "cd",
            num_hyperedges="auto",
            seed=SEED,
            adaptive={"max_theta": 1024, "epsilon": 0.2},
        )
        adaptive = result.extras["adaptive"]
        assert adaptive["stop_reason"] in {"certified", "stable", "max_theta"}
        assert adaptive["theta"] == result.extras["num_hyperedges"]
        assert result.extras["warm_start"] == "ud"
        assert result.configuration.cost <= adaptive_problem.budget + 1e-9

    def test_solve_auto_same_hypergraph_under_both_transports(
        self, adaptive_problem, monkeypatch
    ):
        """The adaptive driver samples every instalment through
        ``sample_rr_csr`` — one ``rrset.sample`` span each, whose
        ``storage`` attribute names the transport — and grows the same
        hyper-graph under either transport."""
        from repro.obs.context import observe
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer
        from repro.rrset import adaptive as adaptive_mod

        grown = {}
        driver = adaptive_mod.adaptive_hypergraph

        def spy(*args, **kwargs):
            outcome = driver(*args, **kwargs)
            grown[kwargs["storage"]] = outcome
            return outcome

        monkeypatch.setattr(adaptive_mod, "adaptive_hypergraph", spy)

        def spans(nodes, name):
            for node in nodes:
                if node["name"] == name:
                    yield node
                yield from spans(node["children"], name)

        plans = {}
        for storage in ("heap", "shared"):
            tracer = Tracer()
            with observe(tracer=tracer, metrics=MetricsRegistry(), merge_up=False):
                plans[storage] = solve(
                    adaptive_problem,
                    "cd",
                    num_hyperedges="auto",
                    seed=SEED,
                    workers=2,
                    storage=storage,
                    adaptive={"max_theta": 1024, "epsilon": 0.2},
                )
            samples = list(spans(tracer.canonical(), "rrset.sample"))
            assert len(samples) == len(grown[storage].stages)
            assert {span["attrs"]["storage"] for span in samples} == {storage}
        assert _hypergraph_digest(grown["heap"].hypergraph) == _hypergraph_digest(
            grown["shared"].hypergraph
        )
        assert np.array_equal(
            plans["heap"].configuration.discounts,
            plans["shared"].configuration.discounts,
        )

    def test_solve_auto_other_methods_share_graph(self, adaptive_problem):
        result = solve(
            adaptive_problem,
            "ud",
            num_hyperedges="auto",
            seed=SEED,
            adaptive={"max_theta": 1024, "epsilon": 0.2},
        )
        assert "adaptive" in result.extras
        assert result.extras["num_hyperedges"] == result.extras["adaptive"]["theta"]

    def test_solve_auto_rejects_prebuilt_hypergraph(self, adaptive_problem):
        hypergraph = adaptive_problem.build_hypergraph(
            num_hyperedges=256, seed=SEED
        )
        with pytest.raises(SolverError):
            solve(
                adaptive_problem,
                "cd",
                num_hyperedges="auto",
                hypergraph=hypergraph,
                seed=SEED,
            )

    def test_solve_adaptive_options_require_auto(self, adaptive_problem):
        with pytest.raises(SolverError):
            solve(
                adaptive_problem,
                "cd",
                num_hyperedges=256,
                seed=SEED,
                adaptive={"epsilon": 0.2},
            )
