#!/usr/bin/env python
"""Scenario: pay-on-redemption budgeting.

The paper's budget is a *safe* (worst-case) budget: money is reserved for
every targeted user.  Its future-work section suggests the alternative a
finance team usually prefers — an *expected* budget, because a discount is
only paid when the user actually redeems it.  This script:

1. plans the same campaign under both budget semantics and shows how many
   more users the expected budget reaches;
2. refines the expected-budget plan with spend-preserving coordinate
   descent; and
3. persists the final plan to JSON and reloads it, as a campaign system
   would.

Run:  python examples/expected_budget_campaign.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    CIMProblem,
    IndependentCascade,
    assign_weighted_cascade,
    expected_cost,
    load_configuration,
    paper_mixture,
    save_configuration,
    unified_discount,
    unified_discount_expected,
)
from repro.core.expected_budget import coordinate_descent_expected
from repro.graphs import wiki_vote_like


def main() -> None:
    graph = assign_weighted_cascade(wiki_vote_like(scale=0.04, seed=31), alpha=1.0)
    population = paper_mixture(graph.num_nodes, seed=32)
    budget = 8.0
    problem = CIMProblem(IndependentCascade(graph), population, budget=budget)
    hypergraph = problem.build_hypergraph(seed=33)

    print(f"network: n={graph.num_nodes}, m={graph.num_edges}, budget={budget:g}\n")

    # --- 1. safe vs expected budget -------------------------------------
    safe = unified_discount(problem, hypergraph)
    expected = unified_discount_expected(problem, hypergraph)
    print("=== same budget, two semantics ===")
    print(
        f"  safe (reserve per user):    {len(safe.targets):4d} users at "
        f"{safe.best_discount:.0%}, spread {safe.spread_estimate:7.1f}"
    )
    print(
        f"  expected (pay on redeem):   {len(expected.targets):4d} users at "
        f"{expected.best_discount:.0%}, spread {expected.spread_estimate:7.1f} "
        f"(expected spend {expected.expected_spend:.2f})\n"
    )

    # --- 2. spend-preserving refinement ---------------------------------
    refined = coordinate_descent_expected(
        problem, hypergraph, expected.configuration, max_rounds=1, grid_step=0.1
    )
    print(
        f"expected-budget CD: spread {expected.spread_estimate:.1f} -> "
        f"{refined.objective_value:.1f} at unchanged expected spend "
        f"{refined.expected_spend:.2f}\n"
    )

    # --- 3. persistence ----------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign_plan.json"
        save_configuration(refined.configuration, path)
        reloaded = load_configuration(path)
        assert reloaded == refined.configuration
        print(
            f"plan saved and reloaded from {path.name}: "
            f"{reloaded.support.size} users, expected spend "
            f"{expected_cost(reloaded, population):.2f}"
        )


if __name__ == "__main__":
    main()
