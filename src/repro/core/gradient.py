"""Continuous-gradient solvers on the RR hyper-graph objective.

The per-edge survival products maintained by
:class:`~repro.rrset.estimator.HypergraphObjective` *are* the gradient
coefficients: ``dUI/dq_u = (n/theta) * sum_{h ∋ u} survival_{h\\u}`` (the
objective is multilinear in ``q``), and the chain rule through the seed
probability curves gives ``dUI/dc_u = dUI/dq_u * p'_u(c_u)``.  This module
turns that one vectorized kernel pass into two full solvers in the spirit
of Chen, Zhang & Zhao (arXiv:1911.09100):

* :func:`projected_gradient_ascent` — ascent steps projected onto the
  capped simplex ``{0 <= c <= 1, sum c <= B}`` with Armijo backtracking
  and a *budget-saving* stopping rule: because the budget constraint is an
  inequality, coordinates with vanishing gradient are never filled just to
  exhaust ``B``, and the ascent stops as soon as the certified remaining
  gain (see below) or the achievable Armijo improvement drops under the
  tolerance — saving both discount budget and objective evaluations.
* :func:`frank_wolfe` — conditional gradient whose linear-maximization
  step over the capped simplex is a closed-form top-k greedy fill
  (coordinates sorted by partial derivative, filled to 1 while budget
  remains, fractional remainder to the next).

Both report *duality-gap certificates*: ``UI`` is monotone and
DR-submodular in ``q`` (every Hessian entry is ``<= 0``), so for any
feasible ``c'``::

    UI(c') <= UI(c) + <dUI/dq, q'>  <=  UI(c) + bound(dUI/dq)

where ``bound`` is the fractional-knapsack maximum of
``sum_u w_u * min(1, s_u * c'_u)`` over the budget simplex, with ``s_u``
the per-curve maximal chord slope ``sup_c p_u(c)/c`` (exact for the
paper's concave/linear/convex curves; a dense-grid envelope otherwise).
``extras["duality_gap"]`` therefore upper-bounds the true suboptimality
``UI* - UI(c)`` — verified against exhaustive enumeration on tiny graphs.

Telemetry (``gradient.*``) is recorded coordinator-side from the
deterministic descent loop, so counters and spans are worker-count
invariant like the rest of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.configuration import Configuration
from repro.core.problem import CIMProblem
from repro.exceptions import SolverError
from repro.obs.context import get_metrics, get_tracer
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph
from repro.runtime.deadline import DeadlineLike, as_deadline
from repro.utils.spill import peak_rss_mb

__all__ = [
    "GradientResult",
    "project_capped_simplex",
    "project_box_simplex",
    "fw_linear_maximizer",
    "projected_gradient_ascent",
    "frank_wolfe",
]

_SUM_TOLERANCE = 1e-12


def _require_finite(x: np.ndarray, budget: float) -> None:
    """Reject NaN/inf before the breakpoint scan sees them.

    A single non-finite coordinate poisons the sorted-prefix arithmetic
    silently (NaN comparisons are all False), so the scan can hand back a
    vector that violates the budget without any error surfacing.
    """
    if not np.all(np.isfinite(x)):
        raise SolverError(
            "projection input contains NaN or infinite entries; "
            "clean the vector before projecting"
        )
    if not np.isfinite(budget):
        raise SolverError(f"projection budget must be finite, got {budget}")


@dataclass
class GradientResult:
    """Outcome of a projected-gradient or Frank-Wolfe run."""

    configuration: Configuration
    objective_value: float
    step_values: List[float] = field(default_factory=list)
    steps_run: int = 0
    backtracks: int = 0
    objective_evals: int = 0
    gradient_evals: int = 0
    converged: bool = False
    deadline_expired: bool = False
    #: Certified upper bound on ``UI* - UI(c)`` (DR-submodular linearization
    #: + fractional knapsack); ``inf`` when the run produced no certificate.
    duality_gap: float = float("inf")
    #: Classical Frank-Wolfe gap ``<grad, s - c>`` at the last iterate
    #: (``None`` for projected gradient ascent).
    fw_gap: Optional[float] = None
    #: ``sum_u c_u`` actually spent — may be < B (budget saving).
    budget_spent: float = 0.0


def project_capped_simplex(x: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of ``x`` onto ``{0 <= c <= 1, sum c <= B}``.

    Exact in ``O(n log n)``: if the box clip already fits the budget it is
    the projection (the budget constraint is an inequality); otherwise the
    KKT conditions give ``c_i = clip(x_i - tau, 0, 1)`` for the unique
    ``tau > 0`` with ``sum_i clip(x_i - tau, 0, 1) = B``.  The residual
    ``g(tau)`` is piecewise linear with breakpoints at ``x_i`` and
    ``x_i - 1``, so one sort plus prefix sums locates the crossing segment
    and solves it in closed form.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise SolverError("projection input must be a 1-d vector")
    budget = float(budget)
    _require_finite(x, budget)
    if budget < 0.0:
        raise SolverError(f"budget must be non-negative, got {budget}")
    clipped = np.clip(x, 0.0, 1.0)
    if float(clipped.sum()) <= budget + _SUM_TOLERANCE:
        return clipped

    xs = np.sort(x)
    prefix = np.concatenate([[0.0], np.cumsum(xs)])
    taus = np.unique(np.concatenate([xs - 1.0, xs, [0.0]]))
    taus = taus[taus >= 0.0]
    # g(tau) = count_sat + band_sum - band_count * tau, with the band
    # membership taken on the *open segment to the right* of each
    # breakpoint (side="right" on both ends): boundary coordinates
    # contribute the same value either way, so g stays continuous, while
    # the slope -band_count is the correct one for the segment the
    # crossing lies in.
    lo = np.searchsorted(xs, taus, side="right")
    hi = np.searchsorted(xs, taus + 1.0, side="right")
    count_sat = xs.size - hi
    band_sum = prefix[hi] - prefix[lo]
    band_count = hi - lo
    g = count_sat + band_sum - band_count * taus
    # g is continuous and non-increasing with g(0) > budget; the crossing
    # segment starts at the last breakpoint where g still meets the budget.
    k = int(np.searchsorted(-g, -budget, side="right")) - 1
    k = max(k, 0)
    if band_count[k] > 0:
        tau = (count_sat[k] + band_sum[k] - budget) / band_count[k]
    else:
        tau = float(taus[k])
    projected = np.clip(x - tau, 0.0, 1.0)
    # Wash out float dust so require_feasible never trips on round-off.
    for _ in range(2):
        over = float(projected.sum()) - budget
        if over <= _SUM_TOLERANCE:
            break
        active = (projected > 0.0) & (projected < 1.0)
        if not active.any():
            break
        tau += over / int(active.sum())
        projected = np.clip(x - tau, 0.0, 1.0)
    return projected


def project_box_simplex(
    x: np.ndarray, budget: float, upper: Optional[np.ndarray] = None
) -> np.ndarray:
    """Euclidean projection onto ``{0 <= c <= u, sum c <= B}``.

    The constrained generalization of :func:`project_capped_simplex`:
    per-coordinate upper bounds ``u`` (e.g. per-user discount caps, or 0
    on inaccessible users) replace the uniform cap of 1.  ``upper=None``
    delegates to :func:`project_capped_simplex` — same code path, so
    slack constraints reproduce unconstrained results bit for bit.

    Exact in ``O(n log n)`` by the same KKT argument: if the box clip
    already fits the budget it is the projection; otherwise
    ``c_i = clip(x_i - tau, 0, u_i)`` for the unique ``tau > 0`` solving
    ``g(tau) = sum_i clip(x_i - tau, 0, u_i) = B``.  With heterogeneous
    caps the breakpoints are ``x_i`` (where coordinate ``i`` leaves the
    band for 0) and ``x_i - u_i`` (where it saturates at ``u_i``); two
    sorted prefix-sum passes evaluate ``g`` at every breakpoint and the
    crossing segment is solved in closed form.
    """
    if upper is None:
        return project_capped_simplex(x, budget)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise SolverError("projection input must be a 1-d vector")
    budget = float(budget)
    _require_finite(x, budget)
    if budget < 0.0:
        raise SolverError(f"budget must be non-negative, got {budget}")
    u = np.asarray(upper, dtype=np.float64)
    if u.shape != x.shape:
        raise SolverError(
            f"upper bounds shape {u.shape} does not match input shape {x.shape}"
        )
    if not np.all(np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise SolverError("per-coordinate upper bounds must lie in [0, 1]")
    clipped = np.clip(x, 0.0, u)
    if float(clipped.sum()) <= budget + _SUM_TOLERANCE:
        return clipped

    # g(tau) = sum_{a_i >= tau} u_i + sum_{a_i < tau < b_i} (x_i - tau)
    # with a_i = x_i - u_i (saturation threshold) and b_i = x_i (exit
    # threshold).  Prefix sums over the two independently sorted axes give
    # g at every breakpoint in one vectorized pass; boundary coordinates
    # contribute the same value on either side, so g stays continuous.
    a = x - u
    order_a = np.argsort(a, kind="stable")
    a_sorted = a[order_a]
    prefix_u_by_a = np.concatenate([[0.0], np.cumsum(u[order_a])])
    prefix_x_by_a = np.concatenate([[0.0], np.cumsum(x[order_a])])
    b_sorted = np.sort(x)
    prefix_x_by_b = np.concatenate([[0.0], np.cumsum(b_sorted)])
    total_u = float(u.sum())

    taus = np.unique(np.concatenate([a, x, [0.0]]))
    taus = taus[taus >= 0.0]
    released = np.searchsorted(a_sorted, taus, side="right")  # a_i < tau (+ties)
    gone = np.searchsorted(b_sorted, taus, side="right")  # b_i <= tau
    saturated_mass = total_u - prefix_u_by_a[released]
    band_sum = prefix_x_by_a[released] - prefix_x_by_b[gone]
    band_count = released - gone
    g = saturated_mass + band_sum - band_count * taus
    k = int(np.searchsorted(-g, -budget, side="right")) - 1
    k = max(k, 0)
    if band_count[k] > 0:
        tau = (saturated_mass[k] + band_sum[k] - budget) / band_count[k]
    else:
        tau = float(taus[k])
    projected = np.clip(x - tau, 0.0, u)
    # Wash out float dust so require_feasible never trips on round-off.
    for _ in range(2):
        over = float(projected.sum()) - budget
        if over <= _SUM_TOLERANCE:
            break
        active = (projected > 0.0) & (projected < u)
        if not active.any():
            break
        tau += over / int(active.sum())
        projected = np.clip(x - tau, 0.0, u)
    return projected


def fw_linear_maximizer(
    gradient: np.ndarray, budget: float, upper: Optional[np.ndarray] = None
) -> np.ndarray:
    """``argmax <g, s>`` over the capped simplex: top-k greedy fill.

    Coordinates with positive partial derivative are filled to 1 in
    decreasing-derivative order while a whole unit of budget remains; the
    fractional remainder goes to the next one.  Non-positive coordinates
    stay at 0 (the budget constraint is an inequality).

    ``upper`` restricts the fill per coordinate (per-user caps; 0 on
    inaccessible users): the greedy fills ``min(u_i, remaining budget)``
    instead of a whole unit, which is the exact linear maximizer over the
    box-intersected simplex.  ``upper=None`` keeps the historical
    uniform-cap code path bit for bit.
    """
    g = np.asarray(gradient, dtype=np.float64)
    s = np.zeros_like(g)
    budget = float(budget)
    if budget <= 0.0:
        return s
    if upper is None:
        order = np.argsort(-g, kind="stable")
        positive = int(np.count_nonzero(g > 0.0))
        full = min(int(np.floor(budget + _SUM_TOLERANCE)), positive, g.size)
        s[order[:full]] = 1.0
        remainder = budget - full
        if remainder > _SUM_TOLERANCE and full < positive:
            s[order[full]] = min(1.0, remainder)
        return s
    u = np.asarray(upper, dtype=np.float64)
    if u.shape != g.shape:
        raise SolverError(
            f"upper bounds shape {u.shape} does not match gradient shape {g.shape}"
        )
    order = np.argsort(-g, kind="stable")
    caps = np.where(g[order] > 0.0, u[order], 0.0)
    spent_before = np.concatenate([[0.0], np.cumsum(caps)[:-1]])
    fill = np.clip(budget - spent_before, 0.0, caps)
    s[order] = fill
    return s


def _chord_slopes(population, num_nodes: int, grid_size: int = 129) -> np.ndarray:
    """Per-node maximal chord slope ``s_u >= sup_c p_u(c)/c``.

    The supremum is ``p'_u(0)`` for concave curves and is attained on the
    grid (which includes ``c = 1``, where ``p_u(1) = 1``) for convex ones;
    general S-curves get the max of both, a dense-grid envelope.
    """
    slopes = population.derivatives(np.zeros(num_nodes))
    for t in np.linspace(1.0 / grid_size, 1.0, grid_size):
        slopes = np.maximum(slopes, population.probabilities_at(float(t)) / t)
    return np.maximum(slopes, 1.0)  # p_u(1) = 1 makes the unit chord a floor


def _certified_gap(
    grad_q: np.ndarray,
    chord_slopes: np.ndarray,
    budget: float,
    upper: Optional[np.ndarray] = None,
) -> float:
    """Fractional-knapsack bound on ``max <grad_q, q'>`` over feasible c'.

    Each node contributes at most ``w_u * min(1, s_u * c'_u)`` (concave in
    ``c'_u``), so the continuous knapsack greedy by density ``w_u * s_u``
    is exact: items saturate at cost ``1/s_u`` (capped at 1) for value
    ``w_u``, and the marginal item is taken fractionally.

    ``upper`` tightens the per-item cap to ``u_u`` (per-user discount
    limits; 0 on inaccessible users): items then saturate at cost
    ``min(u_u, 1/s_u)`` for value ``w_u * min(1, s_u * u_u)``.  Any
    additional (generic) constraints only shrink the feasible set, so the
    bound stays a valid certificate over the intersection.
    """
    w = np.maximum(np.asarray(grad_q, dtype=np.float64), 0.0)
    s = np.asarray(chord_slopes, dtype=np.float64)
    cap = np.ones_like(s) if upper is None else np.asarray(upper, dtype=np.float64)
    cost = np.minimum(cap, np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0))
    value = w * np.minimum(1.0, s * cap)
    density = w * s
    order = np.argsort(-density, kind="stable")
    costs = cost[order]
    cum = np.cumsum(costs)
    taken = int(np.searchsorted(cum, budget + _SUM_TOLERANCE, side="right"))
    bound = float(value[order[:taken]].sum())
    if taken < order.size:
        spent = float(cum[taken - 1]) if taken > 0 else 0.0
        slack = budget - spent
        if slack > 0.0:
            bound += float(density[order[taken]]) * slack
    return bound


def _prepare_objective(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    initial: Configuration,
    objective: Optional[HypergraphObjective],
):
    """Shared warm-start plumbing: validate, bind or build the objective."""
    initial.require_feasible(problem.budget)
    if len(initial) != problem.num_nodes:
        raise SolverError("initial configuration has the wrong length")
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
        objective = HypergraphObjective(
            hypergraph, population.probabilities(discounts)
        )
    return population, discounts, objective


def projected_gradient_ascent(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    initial: Configuration,
    step_size: float = 0.5,
    max_steps: int = 200,
    tolerance: float = 1e-6,
    armijo: float = 1e-4,
    max_backtracks: int = 30,
    deadline: DeadlineLike = None,
    objective: Optional[HypergraphObjective] = None,
    constraints: Optional["ResolvedConstraints"] = None,
) -> GradientResult:
    """Maximize the Eq.-14 hyper-graph objective by projected gradient ascent.

    ``constraints`` (a resolved set from :mod:`repro.core.constraints`)
    replaces the plain capped simplex with the constrained feasible set:
    every trial point is projected onto it, the warm start is projected
    in if it violates the constraints (graceful degradation from an
    unconstrained warm start), and the duality-gap certificate is taken
    over the constrained region — so it certifies the *constrained*
    optimum.  ``None`` keeps the historical capped-simplex path bit for
    bit.

    Every iteration takes one full-vector gradient (one pass over the
    member stream), projects the trial point onto the capped simplex, and
    Armijo-backtracks the step length until the sufficient-increase test
    holds.  The step length carries over between iterations (doubling
    after a clean accept), so a well-scaled instance settles into one
    objective evaluation per step.

    Stopping — the budget-saving rule — fires on the *first* of:

    * the certified duality gap (see module docstring) falls below
      ``tolerance``: no feasible point can beat the incumbent by more,
      so further evaluations (and further budget) cannot pay;
    * the projected step collapses (``P(c + eta*g) = c``): a KKT point;
    * backtracking exhausts ``max_backtracks`` without an improving step;
    * the accepted improvement falls below ``tolerance``.

    The deadline is polled at every step boundary; on expiry the feasible
    incumbent is returned with ``deadline_expired=True`` (ascent is a
    monotone improvement over the warm start, so stopping is always safe).
    """
    budget_clock = as_deadline(deadline)
    population, discounts, objective = _prepare_objective(
        problem, hypergraph, initial, objective
    )
    if step_size <= 0.0:
        raise SolverError(f"step_size must be positive, got {step_size}")
    budget = problem.budget
    upper: Optional[np.ndarray] = None
    if constraints is not None:
        budget = min(budget, constraints.budget)
        upper = constraints.upper
        if not constraints.is_satisfied(discounts):
            # Degrade gracefully: an unconstrained warm start (e.g. UD)
            # enters through its projection onto the feasible set.
            discounts = constraints.project(discounts)
            objective.set_probabilities(population.probabilities(discounts))
    metrics = get_metrics()
    tracer = get_tracer()
    chord = _chord_slopes(population, problem.num_nodes)

    objective_evals = 0
    gradient_evals = 0
    backtracks = 0
    steps_run = 0
    converged = False
    expired = False
    duality_gap = float("inf")

    def evaluate(c: np.ndarray) -> float:
        nonlocal objective_evals
        objective_evals += 1
        objective.set_probabilities(population.probabilities(c))
        return objective.value()

    def project(x: np.ndarray) -> np.ndarray:
        if constraints is not None:
            return constraints.project(x)
        return project_capped_simplex(x, budget)

    with tracer.span(
        "solver.gradient",
        engine="hypergraph",
        max_steps=max_steps,
        step_size=step_size,
    ) as span:
        current_value = evaluate(discounts)
        step_values = [current_value]
        state_matches = True  # objective probabilities == p(discounts)
        eta = float(step_size)
        for _ in range(max_steps):
            if budget_clock.expired():
                expired = True
                break
            if not state_matches:
                objective.set_probabilities(population.probabilities(discounts))
                state_matches = True
            grad_q = objective.gradient()
            gradient_evals += 1
            grad_c = grad_q * population.derivatives(discounts)
            duality_gap = _certified_gap(grad_q, chord, budget, upper)
            if duality_gap <= tolerance:
                converged = True
                break

            accepted = False
            step_backtracks = 0
            for _attempt in range(max_backtracks):
                candidate = project(discounts + eta * grad_c)
                move = candidate - discounts
                if float(np.abs(move).max(initial=0.0)) <= _SUM_TOLERANCE:
                    converged = True  # projected-stationary point
                    break
                expected = float(grad_c @ move)
                candidate_value = evaluate(candidate)
                state_matches = False
                if candidate_value >= current_value + armijo * expected:
                    gain = candidate_value - current_value
                    discounts = candidate
                    current_value = candidate_value
                    state_matches = True
                    accepted = True
                    break
                eta *= 0.5
                step_backtracks += 1
            backtracks += step_backtracks
            if converged:
                break
            if not accepted:
                converged = True  # no affordable improving step remains
                break
            steps_run += 1
            step_values.append(current_value)
            span.event(
                "step",
                index=steps_run - 1,
                value=float(current_value),
                gain=float(gain),
                backtracks=step_backtracks,
                eta=float(eta),
            )
            if step_backtracks == 0:
                eta *= 2.0
            if gain <= tolerance:
                converged = True
                break

        # Certify the final iterate (the loop may exit right after an
        # accepted step, before the next gap computation).
        if not state_matches:
            objective.set_probabilities(population.probabilities(discounts))
            state_matches = True
        current_value = objective.value()
        grad_q = objective.gradient()
        gradient_evals += 1
        duality_gap = min(duality_gap, _certified_gap(grad_q, chord, budget, upper))

        span.set(
            steps_run=steps_run,
            backtracks=backtracks,
            objective_evals=objective_evals,
            gradient_evals=gradient_evals,
            converged=converged,
            truncated=expired,
            duality_gap=float(duality_gap),
            objective_value=float(current_value),
        )
        metrics.inc("gradient.runs_total")
        metrics.inc("gradient.steps_total", steps_run)
        metrics.inc("gradient.backtracks_total", backtracks)
        metrics.inc("gradient.objective_evals_total", objective_evals)
        metrics.inc("gradient.gradient_evals_total", gradient_evals)
        metrics.set_gauge("gradient.duality_gap", float(duality_gap))
        if expired:
            metrics.inc("gradient.deadline_expired_total")
        span.note(peak_rss_mb=peak_rss_mb())

    configuration = Configuration(discounts).require_feasible(problem.budget)
    return GradientResult(
        configuration=configuration,
        objective_value=current_value,
        step_values=step_values,
        steps_run=steps_run,
        backtracks=backtracks,
        objective_evals=objective_evals,
        gradient_evals=gradient_evals,
        converged=converged,
        deadline_expired=expired,
        duality_gap=float(duality_gap),
        budget_spent=float(discounts.sum()),
    )


def frank_wolfe(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    initial: Optional[Configuration] = None,
    max_steps: int = 100,
    tolerance: float = 1e-6,
    armijo: float = 1e-4,
    max_backtracks: int = 25,
    deadline: DeadlineLike = None,
    objective: Optional[HypergraphObjective] = None,
    constraints: Optional["ResolvedConstraints"] = None,
) -> GradientResult:
    """Frank-Wolfe (conditional gradient) over the capped simplex.

    Each iteration calls :func:`fw_linear_maximizer` — projection-free:
    iterates stay feasible as convex combinations — and backtracks the
    step ``gamma`` from 1 until the Armijo test against the per-step gap
    ``<g, s - c>`` holds.  Stops when that gap, the certified duality
    gap, or the accepted improvement falls below ``tolerance``.

    ``initial`` defaults to the all-zeros configuration (FW builds its
    own support greedily); pass the UD warm start to make it directly
    comparable with CD.

    ``constraints`` restricts the linear maximizer to the constrained
    feasible set (accessible coordinates filled greedily up to their
    caps), so every iterate stays feasible by convexity.  Frank-Wolfe
    requires the constraint set to be box∩budget-representable — a
    generic constraint would make the linear step inexact — and raises
    :class:`~repro.exceptions.ConstraintError` otherwise (use
    :func:`projected_gradient_ascent` there instead).
    """
    budget_clock = as_deadline(deadline)
    if initial is None:
        initial = Configuration.zeros(problem.num_nodes)
    population, discounts, objective = _prepare_objective(
        problem, hypergraph, initial, objective
    )
    budget = problem.budget
    upper: Optional[np.ndarray] = None
    if constraints is not None:
        if constraints.has_generic:
            from repro.exceptions import ConstraintError

            raise ConstraintError(
                "frank_wolfe supports only box/budget-representable "
                "constraints (caps, access sets, budgets); use "
                "projected_gradient_ascent for generic constraints"
            )
        budget = min(budget, constraints.budget)
        upper = constraints.upper
        if not constraints.is_satisfied(discounts):
            discounts = constraints.project(discounts)
            objective.set_probabilities(population.probabilities(discounts))
    metrics = get_metrics()
    tracer = get_tracer()
    chord = _chord_slopes(population, problem.num_nodes)

    objective_evals = 0
    gradient_evals = 0
    backtracks = 0
    steps_run = 0
    converged = False
    expired = False
    duality_gap = float("inf")
    fw_gap = float("inf")

    def evaluate(c: np.ndarray) -> float:
        nonlocal objective_evals
        objective_evals += 1
        objective.set_probabilities(population.probabilities(c))
        return objective.value()

    with tracer.span(
        "solver.fw", engine="hypergraph", max_steps=max_steps
    ) as span:
        current_value = evaluate(discounts)
        step_values = [current_value]
        state_matches = True
        # The accepted step length carries over (doubled, capped at 1) so
        # the backtracking line search settles into ~1 evaluation per step
        # instead of re-probing gamma=1 every iteration.
        gamma_start = 1.0
        for _ in range(max_steps):
            if budget_clock.expired():
                expired = True
                break
            if not state_matches:
                objective.set_probabilities(population.probabilities(discounts))
                state_matches = True
            grad_q = objective.gradient()
            gradient_evals += 1
            grad_c = grad_q * population.derivatives(discounts)
            duality_gap = _certified_gap(grad_q, chord, budget, upper)
            vertex = fw_linear_maximizer(grad_c, budget, upper)
            direction = vertex - discounts
            fw_gap = float(grad_c @ direction)
            if fw_gap <= tolerance or duality_gap <= tolerance:
                converged = True
                break

            accepted = False
            step_backtracks = 0
            gamma = gamma_start
            for _attempt in range(max_backtracks):
                candidate = discounts + gamma * direction
                candidate_value = evaluate(candidate)
                state_matches = False
                if candidate_value >= current_value + armijo * gamma * fw_gap:
                    gain = candidate_value - current_value
                    discounts = candidate
                    current_value = candidate_value
                    state_matches = True
                    accepted = True
                    break
                gamma *= 0.5
                step_backtracks += 1
            backtracks += step_backtracks
            if not accepted:
                converged = True  # no affordable improving step remains
                break
            steps_run += 1
            step_values.append(current_value)
            span.event(
                "step",
                index=steps_run - 1,
                value=float(current_value),
                gain=float(gain),
                gamma=float(gamma),
                fw_gap=float(fw_gap),
                backtracks=step_backtracks,
            )
            gamma_start = min(1.0, gamma * 2.0)
            if gain <= tolerance:
                converged = True
                break

        if not state_matches:
            objective.set_probabilities(population.probabilities(discounts))
            state_matches = True
        current_value = objective.value()
        grad_q = objective.gradient()
        gradient_evals += 1
        grad_c = grad_q * population.derivatives(discounts)
        vertex = fw_linear_maximizer(grad_c, budget, upper)
        fw_gap = float(grad_c @ (vertex - discounts))
        duality_gap = min(duality_gap, _certified_gap(grad_q, chord, budget, upper))

        span.set(
            steps_run=steps_run,
            backtracks=backtracks,
            objective_evals=objective_evals,
            gradient_evals=gradient_evals,
            converged=converged,
            truncated=expired,
            duality_gap=float(duality_gap),
            fw_gap=float(fw_gap),
            objective_value=float(current_value),
        )
        metrics.inc("gradient.runs_total")
        metrics.inc("gradient.steps_total", steps_run)
        metrics.inc("gradient.backtracks_total", backtracks)
        metrics.inc("gradient.objective_evals_total", objective_evals)
        metrics.inc("gradient.gradient_evals_total", gradient_evals)
        metrics.set_gauge("gradient.duality_gap", float(duality_gap))
        if expired:
            metrics.inc("gradient.deadline_expired_total")
        span.note(peak_rss_mb=peak_rss_mb())

    configuration = Configuration(discounts).require_feasible(problem.budget)
    return GradientResult(
        configuration=configuration,
        objective_value=current_value,
        step_values=step_values,
        steps_run=steps_run,
        backtracks=backtracks,
        objective_evals=objective_evals,
        gradient_evals=gradient_evals,
        converged=converged,
        deadline_expired=expired,
        duality_gap=float(duality_gap),
        fw_gap=float(fw_gap),
        budget_spent=float(discounts.sum()),
    )
