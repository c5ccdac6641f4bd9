"""Algorithm 1: the general coordinate-descent framework.

Model-agnostic: takes *any* :class:`~repro.core.objective.SpreadOracle`
(exact, Monte-Carlo, or hyper-graph), so it solves CIM for any influence
model whose spread can be scored.  Each iteration picks a coordinate pair
``(c_i, c_j)``, holds everything else and the pair sum ``B' = c_i + c_j``
fixed, and maximizes the objective over
``c_i in [max(0, B' - 1), min(1, B')]`` (Eq. 7).

The 1-D maximization follows the paper's practical trick (Section 7.1): the
three coefficient sums of Eq. 9 are hard to estimate reliably, so instead
of solving ``dUI/dc_i = 0`` we evaluate the oracle on a discount grid (a
budget carries a minimum unit anyway) and keep the best point.

The objective never decreases across iterations (each pair step keeps the
incumbent as a candidate), which is the convergence argument of Section 5.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import Configuration
from repro.core.objective import SpreadOracle
from repro.exceptions import ConfigurationError, SolverError
from repro.obs.context import get_metrics, get_tracer
from repro.runtime.deadline import DeadlineLike, as_deadline
from repro.utils.spill import peak_rss_mb
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "CoordinateDescentResult",
    "coordinate_descent",
    "saturate_budget",
    "pair_grid_candidates",
]


@dataclass
class CoordinateDescentResult:
    """Outcome of a coordinate-descent run."""

    configuration: Configuration
    objective_value: float
    round_values: List[float] = field(default_factory=list)
    rounds_run: int = 0
    pair_updates: int = 0
    converged: bool = False
    #: True when a deadline stopped the descent before convergence or the
    #: round limit; the configuration is still feasible and no worse than
    #: the warm start (monotone improvement, Section 5.2).
    deadline_expired: bool = False


def saturate_budget(configuration: Configuration, budget: float) -> Configuration:
    """Scale a feasible configuration up to spend the budget exactly.

    Theorem 5 (monotonicity of ``UI``) implies the optimum uses the whole
    budget, so coordinate descent should start from a configuration with
    ``cost == min(B, n)``.  Leftover budget is poured uniformly into the
    coordinates with headroom, repeatedly, until exhausted.
    """
    arr = configuration.discounts.copy()
    target = min(budget, float(arr.size))
    if configuration.cost > target + 1e-9:
        raise ConfigurationError(
            f"configuration cost {configuration.cost:.6g} exceeds budget {budget:.6g}"
        )
    remaining = target - arr.sum()
    while remaining > 1e-12:
        headroom = 1.0 - arr
        open_nodes = np.flatnonzero(headroom > 1e-15)
        if open_nodes.size == 0:
            break
        per_node = remaining / open_nodes.size
        add = np.minimum(headroom[open_nodes], per_node)
        arr[open_nodes] += add
        remaining -= float(add.sum())
    return Configuration(arr)


def pair_grid_candidates(
    c_i: float, c_j: float, step: float, cap_i: float = 1.0, cap_j: float = 1.0
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Candidate values for a pair step.

    Returns ``(candidates_i, candidates_j, pair_budget)`` where
    ``candidates_j = pair_budget - candidates_i`` and the feasible interval
    is ``[max(0, B' - 1), min(1, B')]`` (Eq. 7).  The current ``c_i`` is
    always included so the incumbent can never be lost.

    Per-user caps shrink the interval to ``[max(0, B' - cap_j),
    min(cap_i, B')]`` — the feasible slice of the constrained problem at a
    fixed pair sum.  The defaults reproduce Eq. 7 exactly.
    """
    if step <= 0.0:
        raise SolverError(f"grid step must be positive, got {step}")
    pair_budget = c_i + c_j
    lo = max(0.0, pair_budget - cap_j)
    hi = min(cap_i, pair_budget)
    if hi < lo:  # numerically empty interval; keep the incumbent
        return np.asarray([c_i]), np.asarray([c_j]), pair_budget
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    grid = lo + step * np.arange(count)
    grid = np.append(grid, (hi, c_i))
    grid = np.unique(np.clip(grid, lo, hi))
    return grid, pair_budget - grid, pair_budget


def _iterate_pairs(
    strategy: str,
    pairs: Sequence[Tuple[int, int]],
    rng: np.random.Generator,
) -> Iterator[Tuple[int, int]]:
    """Yield the coordinate pairs of one round under the given strategy.

    ``pairs`` is the pre-materialized cyclic schedule (a pure function of
    the coordinate set, so it is enumerated once per run, not per round);
    ``"random"`` shuffles a per-round copy, consuming the same RNG stream
    as the historical per-round materialization.
    """
    if strategy == "cyclic":
        yield from pairs
    elif strategy == "random":
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        yield from shuffled
    else:
        raise SolverError(f"unknown pair strategy {strategy!r}")


def coordinate_descent(
    oracle: SpreadOracle,
    budget: float,
    initial: Configuration,
    grid_step: float = 0.05,
    max_rounds: int = 10,
    tolerance: float = 1e-9,
    pair_strategy: str = "cyclic",
    coordinates: Optional[Sequence[int]] = None,
    seed: SeedLike = None,
    deadline: DeadlineLike = None,
) -> CoordinateDescentResult:
    """Algorithm 1 with grid-based pair maximization.

    Parameters
    ----------
    oracle:
        Scores configurations; called ``O(pairs * grid)`` times per round.
    budget:
        The budget ``B``; the initial configuration is saturated to it.
    initial:
        Starting configuration (e.g. a discrete-IM integer configuration,
        per the Section-6 warm-start argument, or a UD configuration).
    grid_step:
        Discount granularity of the 1-D search (the "minimum budget unit").
    max_rounds:
        Each round visits every selected pair once; the paper uses <= 10.
    coordinates:
        Restrict pair selection to these coordinates (the Section-8 CD
        algorithm only optimizes over the non-zero coordinates of its warm
        start, for efficiency).  Default: all coordinates.
    pair_strategy:
        ``"cyclic"`` (deterministic sweep) or ``"random"``.
    deadline:
        Optional run budget (seconds or :class:`~repro.runtime.Deadline`),
        polled at every pair boundary.  On expiry the incumbent — always
        feasible, never worse than the warm start — is returned with
        ``deadline_expired=True``.
    """
    rng = as_generator(seed)
    budget_clock = as_deadline(deadline)
    config = saturate_budget(initial.require_feasible(budget), budget)
    n = len(config)
    if coordinates is None:
        coords = np.arange(n, dtype=np.int64)
    else:
        coords = np.unique(np.asarray(list(coordinates), dtype=np.int64))
        if coords.size and (coords[0] < 0 or coords[-1] >= n):
            raise SolverError("coordinate index out of range")
    if coords.size < 2:
        value = oracle.evaluate(config)
        return CoordinateDescentResult(
            configuration=config,
            objective_value=value,
            round_values=[value],
            rounds_run=0,
            converged=True,
        )

    current_value = oracle.evaluate(config)
    round_values = [current_value]
    all_pairs = list(itertools.combinations(coords.tolist(), 2))
    pair_updates = 0
    converged = False
    rounds_run = 0
    expired = False
    polls = 0
    metrics = get_metrics()
    with get_tracer().span(
        "solver.cd",
        engine="oracle",
        coordinates=int(coords.size),
        max_rounds=max_rounds,
        pair_strategy=pair_strategy,
    ) as span:
        for _ in range(max_rounds):
            rounds_run += 1
            round_start_value = current_value
            for i, j in _iterate_pairs(pair_strategy, all_pairs, rng):
                polls += 1
                if budget_clock.expired():
                    expired = True
                    break
                cand_i, cand_j, _ = pair_grid_candidates(config[i], config[j], grid_step)
                best_value = current_value
                best_pair = (config[i], config[j])
                for c_i, c_j in zip(cand_i, cand_j):
                    if c_i == config[i]:
                        continue  # incumbent already scored
                    candidate = config.with_pair(i, float(c_i), j, float(c_j))
                    value = oracle.evaluate(candidate)
                    if value > best_value + tolerance:
                        best_value = value
                        best_pair = (float(c_i), float(c_j))
                if best_pair != (config[i], config[j]):
                    config = config.with_pair(i, best_pair[0], j, best_pair[1])
                    current_value = best_value
                    pair_updates += 1
            round_values.append(current_value)
            span.event(
                "round",
                index=rounds_run - 1,
                value=float(current_value),
                gain=float(current_value - round_start_value),
                pair_updates=pair_updates,
            )
            if expired:
                break
            if current_value - round_start_value <= tolerance:
                converged = True
                break
        span.set(
            rounds_run=rounds_run,
            pair_updates=pair_updates,
            converged=converged,
            truncated=expired,
            objective_value=float(current_value),
        )
        metrics.inc("cd.runs_total")
        metrics.inc("cd.rounds_total", rounds_run)
        metrics.inc("cd.pair_updates_total", pair_updates)
        metrics.inc("cd.deadline_polls_total", polls)
        if expired:
            metrics.inc("cd.deadline_expired_total")
        span.note(peak_rss_mb=peak_rss_mb())
    return CoordinateDescentResult(
        configuration=config,
        objective_value=current_value,
        round_values=round_values,
        rounds_run=rounds_run,
        pair_updates=pair_updates,
        converged=converged,
        deadline_expired=expired,
    )
