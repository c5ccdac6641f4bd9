"""The Coordinate Descent (CD) algorithm of Section 8.

Coordinate descent specialized to the RR hyper-graph objective (Eq. 14)::

    maximize  sum_h [ 1 - prod_{u in h} (1 - p_u(c_u)) ]
    s.t.      0 <= c_u <= 1,  sum_u c_u <= B

Warm-started from the Unified Discount configuration; per the paper, pairs
are picked only among coordinates that are *non-zero in the warm start*
(the UD support has at most ``B / 5% = O(B)`` entries, and ``B << n``), and
at most 10 rounds are run — "The algorithm converges within 10 rounds in
all cases in our experiments."

Each pair step is exact up to grid resolution: the objective restricted to
``(c_i, c_j = B' - c_i)`` has the closed form of Eq. 9, whose coefficients
the incremental :class:`~repro.rrset.estimator.HypergraphObjective`
maintains, so scoring a whole grid of candidates is one vectorized
evaluation — no re-estimation noise, no Theorem-7 small-gain detection
problem.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constraints import ResolvedConstraints

from repro.core.configuration import Configuration
from repro.core.coordinate_descent import pair_grid_candidates
from repro.core.problem import CIMProblem
from repro.exceptions import SolverError
from repro.obs.context import get_metrics, get_tracer
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph
from repro.runtime.deadline import DeadlineLike, as_deadline

__all__ = ["HypergraphCDResult", "coordinate_descent_hypergraph"]


@dataclass
class HypergraphCDResult:
    """Outcome of hyper-graph coordinate descent."""

    configuration: Configuration
    objective_value: float
    round_values: List[float] = field(default_factory=list)
    rounds_run: int = 0
    pair_updates: int = 0
    converged: bool = False
    #: True when a deadline stopped the descent early; the configuration
    #: is the feasible incumbent at that moment (never worse than the
    #: warm start — pair steps only ever improve the objective).
    deadline_expired: bool = False


def _gradient_ordered_pairs(
    objective: HypergraphObjective,
    population,
    discounts: np.ndarray,
    coords: np.ndarray,
):
    """The paper's suggested pair heuristic (Section 5.2, left as future
    work there): pair coordinates with a *large* partial derivative of
    ``UI`` against coordinates with a *small* one.

    The true partial is ``dUI/dc_u = p_u'(c_u) * dUI/dq_u`` (chain rule on
    Eq. 6); both factors are cheap — the curve derivative is analytic and
    the objective slope is the incident-survival sum.
    """
    slopes = np.asarray(
        [objective.gradient_coordinate(int(u)) for u in coords], dtype=np.float64
    )
    curve_derivs = population.derivatives(discounts)[coords]
    scores = slopes * curve_derivs
    order = coords[np.argsort(-scores, kind="stable")]
    half = order.size // 2
    high, low = order[:half], order[half:][::-1]
    pairs = [(int(a), int(b)) for a, b in zip(high, low) if a != b]
    # Cover leftovers (odd counts) by pairing disjoint adjacent ranks — a
    # coordinate must not appear in two pairs of the same round, or the
    # second step re-optimizes a stale axis.
    paired = {node for pair in pairs for node in pair}
    rest = [int(u) for u in order if int(u) not in paired]
    pairs.extend(zip(rest[::2], rest[1::2]))
    return pairs


def coordinate_descent_hypergraph(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    initial: Configuration,
    grid_step: float = 0.01,
    max_rounds: int = 10,
    tolerance: float = 1e-9,
    coordinates: Optional[Sequence[int]] = None,
    refine_iterations: int = 25,
    pair_strategy: str = "cyclic",
    deadline: DeadlineLike = None,
    objective: Optional[HypergraphObjective] = None,
    constraints: Optional["ResolvedConstraints"] = None,
) -> HypergraphCDResult:
    """Run CD over the Eq.-14 hyper-graph objective.

    Parameters
    ----------
    initial:
        Warm-start configuration (typically the UD result).
    grid_step:
        Discount granularity of the pair line search (0.01 — the paper's
        "absolute error up to .01 ... at most we only need to try 101
        different values").
    coordinates:
        Coordinates eligible for pair selection; defaults to the non-zero
        support of ``initial`` (the paper's efficiency measure).
    refine_iterations:
        Golden-section refinement steps inside the best grid cell; 0
        disables refinement (grid-only, exactly the Section-7.1 trick).
    pair_strategy:
        ``"cyclic"`` — every pair, every round (the paper's experiment
        setting); ``"gradient"`` — the paper's future-work heuristic
        pairing large-derivative coordinates with small-derivative ones,
        visiting only O(|support|) pairs per round; ``"lazy"`` — CELF-style
        scheduling over the cyclic pair set: each pair carries a stale
        upper bound on its achievable gain (its last measured gain —
        pair steps are deterministic and round gains shrink monotonically,
        the Theorem-7 regime), pairs are visited in decreasing-bound
        order from a max-heap, bounds of pairs sharing a coordinate with
        an applied update are invalidated, and a round stops as soon as
        the best remaining bound falls below ``tolerance`` — skipping the
        long tail of pairs that cannot improve the incumbent.
    deadline:
        Optional run budget, polled at every pair boundary; on expiry the
        feasible incumbent is returned with ``deadline_expired=True``
        (anytime behaviour — the descent is a monotone improvement over
        the warm start, so stopping early is always safe).
    objective:
        Optional pre-built objective over ``hypergraph`` to use instead of
        constructing a fresh
        :class:`~repro.rrset.estimator.HypergraphObjective` — the adaptive
        driver's warm start, which saves the O(members) survival rebuild
        between doubling stages.  Any object bound to ``hypergraph`` with
        the objective's solver methods is accepted (the test tree passes
        its pre-vectorization oracle this way); its probabilities are
        reset to match ``initial`` unless they already do bit-for-bit.
    constraints:
        Optional resolved solver constraints.  Pair selection is restricted
        to coordinates with a positive cap, each pair line search is
        clamped to its feasible slice (``pair_caps``), and grid candidates
        violating generic constraint parts are masked out.  An infeasible
        warm start is projected onto the feasible set first.  ``None``
        (and trivial constraints, reduced upstream) runs the historical
        code path untouched.
    """
    budget_clock = as_deadline(deadline)
    initial.require_feasible(problem.budget)
    if len(initial) != problem.num_nodes:
        raise SolverError("initial configuration has the wrong length")
    if constraints is not None and not constraints.is_satisfied(initial.discounts):
        initial = Configuration(constraints.project(initial.discounts))
    if coordinates is None:
        coords = initial.support
    else:
        coords = np.unique(np.asarray(list(coordinates), dtype=np.int64))
        if coords.size and (coords[0] < 0 or coords[-1] >= problem.num_nodes):
            raise SolverError("coordinate index out of range")
    if constraints is not None and constraints.upper is not None:
        # A pair touching a zero-cap coordinate can never move it; capped
        # coordinates stay eligible (their slice is just shorter).
        coords = coords[constraints.upper[coords] > 0.0]

    population = problem.population
    discounts = initial.discounts.copy()
    if objective is not None:
        if objective.hypergraph is not hypergraph:
            raise SolverError(
                "the reusable objective is bound to a different hyper-graph"
            )
        wanted = population.probabilities(discounts)
        if not np.array_equal(objective.probabilities, wanted):
            objective.set_probabilities(wanted)
    else:
        objective = HypergraphObjective(hypergraph, population.probabilities(discounts))
    current_value = objective.value()
    round_values = [current_value]

    metrics = get_metrics()
    tracer = get_tracer()
    if coords.size < 2:
        with tracer.span(
            "solver.cd", engine="hypergraph", coordinates=int(coords.size)
        ) as span:
            span.set(rounds_run=0, pair_updates=0, converged=True, truncated=False)
        metrics.inc("cd.runs_total")
        return HypergraphCDResult(
            configuration=Configuration(discounts),
            objective_value=current_value,
            round_values=round_values,
            converged=True,
        )

    if pair_strategy not in ("cyclic", "gradient", "lazy"):
        raise SolverError(f"unknown pair strategy {pair_strategy!r}")

    # The cyclic schedule is a pure function of the (immutable) coordinate
    # set — materialize it once instead of re-enumerating every round.
    # The lazy scheduler draws from the same pair universe, reordered.
    cyclic_pairs = (
        list(itertools.combinations(coords.tolist(), 2))
        if pair_strategy in ("cyclic", "lazy")
        else None
    )
    # Lazy state: per-pair stale gain upper bound.  +inf = never measured
    # (or invalidated by a neighbouring update), so round 1 visits every
    # pair in the heap's (bound, i, j) order — lexicographic, matching the
    # cyclic schedule exactly.
    lazy_bounds = (
        {pair: np.inf for pair in cyclic_pairs} if pair_strategy == "lazy" else None
    )

    pair_updates = 0
    rounds_run = 0
    converged = False
    expired = False
    polls = 0
    pair_evals = 0
    lazy_skips = 0

    def step_pair(i: int, j: int) -> float:
        """Grid + golden-section line search on the (c_i, c_j) pair.

        Returns the *measured potential gain* (best value on the segment
        minus the incumbent); applies the move only when it clears the
        tolerance.  This is the unit of work every strategy counts as one
        pair evaluation.
        """
        nonlocal current_value, pair_updates, pair_evals
        pair_evals += 1
        c_i, c_j = float(discounts[i]), float(discounts[j])
        if constraints is None:
            cap_i = cap_j = 1.0
            cand_i, cand_j, _ = pair_grid_candidates(c_i, c_j, grid_step)
        else:
            cap_i, cap_j = constraints.pair_caps(i, j)
            cand_i, cand_j, _ = pair_grid_candidates(
                c_i, c_j, grid_step, cap_i, cap_j
            )
            mask = constraints.pair_candidate_mask(discounts, i, j, cand_i, cand_j)
            if mask is not None and not mask.all():
                # The incumbent is feasible, so the mask never empties the
                # candidate set.
                cand_i, cand_j = cand_i[mask], cand_j[mask]
        coefficients = objective.pair_coefficients(i, j)
        curve_i, curve_j = population.curve(i), population.curve(j)
        q_i = np.asarray(curve_i(cand_i), dtype=np.float64)
        q_j = np.asarray(curve_j(cand_j), dtype=np.float64)
        values = coefficients.value_vectorized(q_i, q_j)
        best_index = int(np.argmax(values))
        best_c_i = float(cand_i[best_index])
        best_value = float(values[best_index])

        refinable = constraints is None or not constraints.has_generic
        if refine_iterations > 0 and cand_i.size > 2 and refinable:
            best_c_i, best_value = _golden_refine(
                coefficients,
                curve_i,
                curve_j,
                pair_budget=c_i + c_j,
                center=best_c_i,
                width=grid_step,
                iterations=refine_iterations,
                fallback=(best_c_i, best_value),
                cap_i=cap_i,
                cap_j=cap_j,
            )

        gain = best_value - current_value
        if gain > tolerance:
            best_c_j = (c_i + c_j) - best_c_i
            discounts[i] = best_c_i
            discounts[j] = best_c_j
            objective.set_probability(i, float(curve_i(best_c_i)))
            objective.set_probability(j, float(curve_j(best_c_j)))
            current_value = objective.value()
            pair_updates += 1
        return gain

    with tracer.span(
        "solver.cd",
        engine="hypergraph",
        coordinates=int(coords.size),
        max_rounds=max_rounds,
        pair_strategy=pair_strategy,
    ) as span:
        for _ in range(max_rounds):
            rounds_run += 1
            round_start_value = current_value
            if pair_strategy == "lazy":
                # Pairs in decreasing order of their stale gain bound; ties
                # (notably the initial all-+inf round) fall back to (i, j)
                # order, so round 1 replays the cyclic schedule exactly.
                heap = [(-lazy_bounds[pair], pair) for pair in cyclic_pairs]
                heapq.heapify(heap)
                while heap:
                    neg_bound, pair = heapq.heappop(heap)
                    if -neg_bound <= tolerance:
                        # Every remaining bound is no larger — the whole
                        # tail is certified unable to beat the tolerance.
                        lazy_skips += len(heap) + 1
                        break
                    polls += 1
                    if budget_clock.expired():
                        expired = True
                        break
                    i, j = pair
                    gain = step_pair(i, j)
                    lazy_bounds[pair] = gain
                    if gain > tolerance:
                        # The applied move changed c_i/c_j: any bound that
                        # was measured against the old values is void.
                        for other in cyclic_pairs:
                            if other is not pair and (i in other or j in other):
                                lazy_bounds[other] = np.inf
            else:
                if pair_strategy == "gradient":
                    round_pairs = _gradient_ordered_pairs(
                        objective, population, discounts, coords
                    )
                else:
                    round_pairs = cyclic_pairs
                for i, j in round_pairs:
                    polls += 1
                    if budget_clock.expired():
                        expired = True
                        break
                    step_pair(i, j)
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
        # Wash out float drift accumulated by incremental survival updates.
        objective.rebuild()
        current_value = objective.value()
        span.set(
            rounds_run=rounds_run,
            pair_updates=pair_updates,
            pair_evals=pair_evals,
            converged=converged,
            truncated=expired,
            objective_value=float(current_value),
        )
        metrics.inc("cd.runs_total")
        metrics.inc("cd.rounds_total", rounds_run)
        metrics.inc("cd.pair_updates_total", pair_updates)
        metrics.inc("cd.pair_evals_total", pair_evals)
        metrics.inc("cd.deadline_polls_total", polls)
        if pair_strategy == "lazy":
            span.set(lazy_skips=lazy_skips)
            metrics.inc("cd.lazy_pair_skips_total", lazy_skips)
        if expired:
            metrics.inc("cd.deadline_expired_total")

    if constraints is not None:
        constraints.require_satisfied(discounts)
    return HypergraphCDResult(
        configuration=Configuration(discounts).require_feasible(problem.budget),
        objective_value=current_value,
        round_values=round_values,
        rounds_run=rounds_run,
        pair_updates=pair_updates,
        converged=converged,
        deadline_expired=expired,
    )


def _golden_refine(
    coefficients,
    curve_i,
    curve_j,
    pair_budget: float,
    center: float,
    width: float,
    iterations: int,
    fallback,
    cap_i: float = 1.0,
    cap_j: float = 1.0,
):
    """Golden-section maximization within one grid cell around ``center``.

    The restricted objective need not be unimodal globally, but within one
    grid cell of the best grid point a local search can only improve on the
    grid value (the fallback guards against pathological cells).  Per-user
    caps shrink the search bracket to the constrained feasible slice; the
    defaults reproduce the Eq.-7 interval.

    Everything here is a Python float (``inv_phi`` included), so the
    curves take their scalar path and no bracket update becomes
    numpy-scalar arithmetic.
    """
    inv_phi = (5.0 ** 0.5 - 1.0) / 2.0
    lo = max(max(0.0, pair_budget - cap_j), center - width)
    hi = min(min(cap_i, pair_budget), center + width)
    if hi - lo < 1e-12:
        return fallback

    value = coefficients.value

    def value_at(c_i: float) -> float:
        return value(curve_i(c_i), curve_j(pair_budget - c_i))

    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = value_at(x1), value_at(x2)
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = value_at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = value_at(x1)
    best_c = x1 if f1 >= f2 else x2
    best_value = max(f1, f2)
    if best_value > fallback[1]:
        return float(best_c), float(best_value)
    return fallback
