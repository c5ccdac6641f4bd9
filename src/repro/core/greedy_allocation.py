"""Greedy fractional budget allocation — an alternative CIM heuristic.

The obvious competitor to coordinate descent that the paper does not
evaluate: split the budget into small increments ``delta`` and repeatedly
give the next increment to the user with the best marginal gain

    UI(C + delta * e_u) - UI(C),

evaluated in closed form on the hyper-graph (the objective is affine in
each ``q_u``, so the gain of an increment on ``u`` is
``[p_u(c_u + delta) - p_u(c_u)] * dUI/dq_u``).  Lazy evaluation applies:
a user's slope ``dUI/dq_u`` only decreases as others gain probability
mass, and own-curve concavity only helps; for non-concave curves (e.g.
``c^2``) stale bounds can under-estimate, so entries are refreshed when
popped (standard CELF discipline keeps this correct because the final
re-check always uses a fresh gain).

Registered with the solver facade as ``"greedy"`` so experiments can
compare it directly against UD / CD.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.configuration import Configuration
from repro.core.problem import CIMProblem
from repro.exceptions import SolverError
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph

__all__ = ["GreedyAllocationResult", "greedy_allocation"]


@dataclass
class GreedyAllocationResult:
    """Outcome of greedy fractional allocation."""

    configuration: Configuration
    objective_value: float
    increments: int


def greedy_allocation(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    delta: float = 0.05,
    tolerance: float = 1e-12,
) -> GreedyAllocationResult:
    """Allocate the budget in ``delta`` increments by marginal gain.

    Parameters
    ----------
    delta:
        Increment size (the budget's "minimum unit"); the number of
        increments is ``floor(B / delta)``.
    """
    if delta <= 0.0 or delta > 1.0:
        raise SolverError(f"delta must lie in (0, 1], got {delta}")
    population = problem.population
    n = problem.num_nodes

    discounts = np.zeros(n)
    objective = HypergraphObjective(hypergraph, np.zeros(n))
    total_increments = int(np.floor(problem.budget / delta + 1e-9))

    def gain_of(node: int) -> float:
        c = discounts[node]
        if c >= 1.0 - 1e-12:
            return -1.0  # saturated
        curve = population.curve(node)
        next_c = min(1.0, c + delta)
        probability_jump = float(curve(next_c)) - float(curve(c))
        return probability_jump * objective.gradient_coordinate(node)

    heap = [(-gain_of(u), -1, u) for u in range(n)]
    heapq.heapify(heap)
    spent_increments = 0
    version = 0
    while spent_increments < total_increments and heap:
        neg_gain, stamp, node = heapq.heappop(heap)
        if stamp != version:
            heapq.heappush(heap, (-gain_of(node), version, node))
            continue
        if -neg_gain <= tolerance:
            break
        new_c = min(1.0, discounts[node] + delta)
        discounts[node] = new_c
        objective.set_probability(node, float(population.curve(node)(new_c)))
        spent_increments += 1
        version += 1
        if discounts[node] < 1.0 - 1e-12:
            heapq.heappush(heap, (-gain_of(node), version, node))

    configuration = Configuration(discounts).require_feasible(problem.budget)
    return GreedyAllocationResult(
        configuration=configuration,
        objective_value=objective.value(),
        increments=spent_increments,
    )
