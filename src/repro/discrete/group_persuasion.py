"""Group persuasion — the paper's closest prior work (Eftekhar et al.).

Section 2: "Eftekhar et al. assumed that the probability that a user is
persuaded to be a seed user is given and *fixed*, if she/he is targeted.
A more realistic strategy is that we can adjust the resource spent on a
specific individual ... which is the subject studied in this paper."

This module implements that predecessor as a baseline: users are
partitioned into groups (demographics, regions, ad segments); the
marketer picks *groups* to target; every member of a targeted group
independently becomes a seed with a fixed, exogenous probability.  The
expected spread is the usual probabilistic-seed objective, estimated on
the RR hyper-graph, and is monotone submodular in the set of targeted
groups (the group objective is a coarsening of Theorem 8's), so lazy
greedy applies.

Comparing this baseline against UD/CD quantifies exactly what the paper's
generalization buys: the freedom to *choose* the persuasion probability
via the discount.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.rrset.hypergraph import RRHypergraph

__all__ = ["GroupPersuasionResult", "group_persuasion"]


@dataclass
class GroupPersuasionResult:
    """Outcome of group-persuasion targeting."""

    groups: List[int]
    targeted_nodes: np.ndarray
    covered: float
    spread_estimate: float
    total_cost: float
    gains: List[float] = field(default_factory=list)


def group_persuasion(
    hypergraph: RRHypergraph,
    groups: Sequence[Sequence[int]],
    persuasion_probabilities: np.ndarray,
    budget: float,
    group_costs: Sequence[float] | None = None,
) -> GroupPersuasionResult:
    """Greedy group targeting under a budget.

    Parameters
    ----------
    hypergraph:
        The RR hyper-graph.
    groups:
        Partition (or any disjoint cover) of node ids into target groups.
    persuasion_probabilities:
        Per-node *fixed* seed probability if the node's group is targeted.
    budget:
        Total targeting budget.
    group_costs:
        Cost of targeting each group; defaults to the group's size
        (one ad impression per member).

    Lazy greedy adds the affordable group with the best marginal coverage
    gain until the budget is exhausted.
    """
    probs = np.asarray(persuasion_probabilities, dtype=np.float64)
    if probs.shape != (hypergraph.num_nodes,):
        raise SolverError(
            f"persuasion_probabilities must have length n={hypergraph.num_nodes}"
        )
    if np.any(probs < 0.0) or np.any(probs > 1.0) or np.any(np.isnan(probs)):
        raise SolverError("persuasion probabilities must lie in [0, 1]")
    if budget <= 0.0:
        raise SolverError(f"budget must be positive, got {budget}")

    group_arrays: List[np.ndarray] = []
    seen: set[int] = set()
    for index, members in enumerate(groups):
        arr = np.unique(np.asarray(list(members), dtype=np.int64))
        if arr.size == 0:
            raise SolverError(f"group {index} is empty")
        if arr[0] < 0 or arr[-1] >= hypergraph.num_nodes:
            raise SolverError(f"group {index} contains out-of-range node")
        overlap = seen.intersection(arr.tolist())
        if overlap:
            raise SolverError(f"groups overlap on nodes {sorted(overlap)[:5]}")
        seen.update(arr.tolist())
        group_arrays.append(arr)

    if group_costs is None:
        costs = np.asarray([float(arr.size) for arr in group_arrays])
    else:
        costs = np.asarray(list(group_costs), dtype=np.float64)
        if costs.shape != (len(group_arrays),):
            raise SolverError("group_costs must match the number of groups")
        if np.any(costs <= 0.0):
            raise SolverError("group costs must be positive")

    survival = np.ones(hypergraph.num_hyperedges, dtype=np.float64)

    def gain_of(group_index: int) -> float:
        total = 0.0
        trial = {}
        for node in group_arrays[group_index]:
            q = probs[node]
            if q <= 0.0:
                continue
            for edge in hypergraph.incident_edges(int(node)):
                trial[edge] = trial.get(edge, survival[edge]) * (1.0 - q)
        for edge, new_survival in trial.items():
            total += survival[edge] - new_survival
        return total

    heap = [
        (-gain_of(g), -1, g)
        for g in range(len(group_arrays))
        if costs[g] <= budget
    ]
    heapq.heapify(heap)
    chosen: List[int] = []
    gains: List[float] = []
    spent = 0.0
    round_index = 0
    taken = np.zeros(len(group_arrays), dtype=bool)
    while heap:
        neg_gain, stamp, group_index = heapq.heappop(heap)
        if taken[group_index] or spent + costs[group_index] > budget + 1e-12:
            continue
        if stamp != round_index:
            heapq.heappush(heap, (-gain_of(group_index), round_index, group_index))
            continue
        if -neg_gain <= 0.0:
            break
        chosen.append(group_index)
        gains.append(-neg_gain)
        taken[group_index] = True
        spent += float(costs[group_index])
        for node in group_arrays[group_index]:
            q = probs[node]
            if q > 0.0:
                survival[hypergraph.incident_edges(int(node))] *= 1.0 - q
        round_index += 1

    covered = float((1.0 - survival).sum())
    theta = max(hypergraph.num_hyperedges, 1)
    targeted = (
        np.concatenate([group_arrays[g] for g in chosen])
        if chosen
        else np.empty(0, dtype=np.int64)
    )
    return GroupPersuasionResult(
        groups=chosen,
        targeted_nodes=targeted,
        covered=covered,
        spread_estimate=hypergraph.num_nodes * covered / theta,
        total_cost=spent,
        gains=gains,
    )
