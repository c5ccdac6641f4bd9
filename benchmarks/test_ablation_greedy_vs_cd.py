"""Ablation: greedy fractional allocation vs the paper's UD + CD pipeline.

An alternative the paper does not evaluate: instead of fixing a unified
discount and locally exchanging budget between pairs (UD + CD), pour the
budget into the best marginal-gain user delta at a time.  The comparison
shows where each wins: greedy searches *all* users (CD is confined to the
UD support) and is much cheaper than the cyclic CD sweep; CD starts from
UD's globally-chosen support.  On the analogue networks they finish
within a percent of each other.
"""

from __future__ import annotations

from conftest import DATASET, SCALE, SEED, THETA, run_once

from repro.core.greedy_allocation import greedy_allocation
from repro.core.solvers import solve
from repro.experiments.runner import build_problem
from repro.rrset.bench import _best_of

BUDGETS = (5, 10, 20)


def test_ablation_greedy_vs_cd(benchmark):
    def comparison():
        rows = []
        for budget in BUDGETS:
            problem = build_problem(DATASET, budget=float(budget), scale=SCALE, seed=SEED)
            hypergraph = problem.build_hypergraph(num_hyperedges=THETA, seed=SEED)
            greedy, cd = _best_of(
                1,
                lambda: greedy_allocation(problem, hypergraph, delta=0.05),
                lambda: solve(problem, "cd", hypergraph=hypergraph, seed=SEED),
            )
            rows.append(
                {
                    "budget": budget,
                    "greedy": greedy.result.objective_value,
                    "greedy_s": greedy.seconds,
                    "cd": cd.result.spread_estimate,
                    "cd_s": cd.seconds,
                }
            )
        return rows

    rows = run_once(benchmark, comparison)

    print(f"\nAblation — greedy fractional allocation vs UD+CD ({DATASET})")
    print(f"{'B':>5s} {'greedy':>9s} {'time':>7s} {'ud+cd':>9s} {'time':>7s} {'ratio':>6s}")
    for row in rows:
        ratio = row["greedy"] / row["cd"]
        print(
            f"{row['budget']:5d} {row['greedy']:9.2f} {row['greedy_s']:6.2f}s "
            f"{row['cd']:9.2f} {row['cd_s']:6.2f}s {ratio:6.3f}"
        )

    for row in rows:
        # The two heuristics must land in the same quality band.
        assert row["greedy"] >= 0.95 * row["cd"]
        assert row["cd"] >= 0.95 * row["greedy"]
        # Greedy must be much cheaper than the cyclic UD+CD pipeline.
        assert row["greedy_s"] < row["cd_s"]
