"""Ablation: cyclic all-pairs sweep vs gradient-guided pair selection.

The paper's CD visits every pair of non-zero coordinates per round —
``O(k^2)`` pair optimizations with ``k = |UD support|`` — and flags a
derivative-based pairing heuristic as future work.  This ablation measures
both: the gradient heuristic should match the cyclic objective while
performing roughly ``O(k)`` pair updates per round.
"""

from __future__ import annotations

from conftest import DATASET, SCALE, SEED, THETA, run_once

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.unified_discount import unified_discount
from repro.experiments.runner import build_problem
from repro.rrset.bench import _best_of

BUDGET = 10


def test_ablation_pair_strategy(benchmark):
    def ablation():
        problem = build_problem(DATASET, budget=BUDGET, scale=SCALE, seed=SEED)
        hypergraph = problem.build_hypergraph(num_hyperedges=THETA, seed=SEED)
        ud = unified_discount(problem, hypergraph)
        rows = {}
        for strategy in ("cyclic", "gradient"):
            ((seconds, _runs, result),) = _best_of(
                1,
                lambda: coordinate_descent_hypergraph(
                    problem, hypergraph, ud.configuration, pair_strategy=strategy
                ),
            )
            rows[strategy] = {
                "objective": result.objective_value,
                "pair_updates": result.pair_updates,
                "rounds": result.rounds_run,
                "seconds": seconds,
            }
        rows["ud_baseline"] = {"objective": ud.spread_estimate}
        rows["support"] = int(ud.configuration.support.size)
        return rows

    rows = run_once(benchmark, ablation)

    print(f"\nAblation — CD pair-selection strategy ({DATASET}, B={BUDGET})")
    print(f"  UD warm start objective: {rows['ud_baseline']['objective']:.2f}")
    print(f"  support size k = {rows['support']}")
    for strategy in ("cyclic", "gradient"):
        row = rows[strategy]
        print(
            f"  {strategy:>8s}: objective={row['objective']:8.2f}  "
            f"updates={row['pair_updates']:5d}  rounds={row['rounds']}  "
            f"time={row['seconds']:6.2f}s"
        )

    cyclic, gradient = rows["cyclic"], rows["gradient"]
    # Same quality (within 2%), far fewer updates, faster wall clock.
    assert gradient["objective"] >= 0.98 * cyclic["objective"]
    assert gradient["pair_updates"] < cyclic["pair_updates"]
    assert gradient["seconds"] < cyclic["seconds"]
