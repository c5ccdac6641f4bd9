"""Ablation: the Monte-Carlo engine vs the live-edge oracle.

Two independent IC implementations must agree statistically: the
per-cascade BFS engine that every library evaluation runs on
(``estimate_configuration_spread``) and the live-edge boolean-fixpoint
oracle (``batch_configuration_spread_ic``).  The benchmark also times
both and reports which one was faster on this analogue network, as
measured; it asserts nothing about speed.
"""

from __future__ import annotations

import time

from conftest import DATASET, SCALE, SEED, run_once

from repro.diffusion.batch import batch_configuration_spread_ic
from repro.diffusion.independent_cascade import IndependentCascade
from repro.diffusion.montecarlo import estimate_configuration_spread
from repro.experiments.runner import build_problem

BUDGET = 10
SAMPLES = 3000


def test_ablation_simulators(benchmark):
    def comparison():
        problem = build_problem(DATASET, budget=BUDGET, scale=SCALE, seed=SEED)
        from repro.core.solvers import solve

        plan = solve(problem, "ud", num_hyperedges=4000, seed=SEED)
        q = problem.population.probabilities(plan.configuration.discounts)

        model = IndependentCascade(problem.graph)
        start = time.perf_counter()
        scalar = estimate_configuration_spread(model, q, num_samples=SAMPLES, seed=SEED)
        scalar_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch = batch_configuration_spread_ic(
            problem.graph, q, num_samples=SAMPLES, seed=SEED
        )
        batch_seconds = time.perf_counter() - start
        return scalar, scalar_seconds, batch, batch_seconds

    scalar, scalar_seconds, batch, batch_seconds = run_once(benchmark, comparison)

    faster = (
        "Monte-Carlo engine" if scalar_seconds <= batch_seconds else "live-edge oracle"
    )
    ratio = max(scalar_seconds, batch_seconds) / min(scalar_seconds, batch_seconds)
    print(f"\nAblation — IC simulators ({DATASET}, {SAMPLES} simulations)")
    print(
        f"  Monte-Carlo engine: {scalar.mean:8.2f} ± {scalar.stddev:6.2f}  "
        f"in {scalar_seconds:6.2f}s"
    )
    print(
        f"  live-edge oracle:   {batch.mean:8.2f} ± {batch.stddev:6.2f}  "
        f"in {batch_seconds:6.2f}s"
    )
    print(f"  faster as measured: {faster} ({ratio:.1f}x)")

    # Agreement within combined standard errors (6 sigma).
    combined_stderr = (scalar.stderr**2 + batch.stderr**2) ** 0.5
    assert abs(scalar.mean - batch.mean) < 6 * combined_stderr + 0.5
