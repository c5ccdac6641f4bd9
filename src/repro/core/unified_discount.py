"""The Unified Discount (UD) algorithm of Section 8.

Strategy (Section 7.2): offer one shared discount ``c`` to a chosen set of
users ``S`` and nothing to everyone else.  For fixed ``c`` the objective
``UI(S; c)`` is monotone and submodular in ``S`` (Theorem 8), so lazy
greedy on the RR hyper-graph earns the ``(1 - 1/e)`` guarantee; the outer
loop exhaustively searches ``c`` over a grid of "round" discounts
(5%, 10%, ..., 100% by default — "normally discount offered by companies is
a multiple of 5%").

Offering discount ``c`` to ``k`` users costs ``k * c``, so the seed budget
at discount ``c`` is ``k = floor(B / c)`` (capped at ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import Configuration
from repro.core.problem import CIMProblem
from repro.exceptions import SolverError
from repro.obs.context import get_metrics, get_tracer
from repro.rrset.coverage import weighted_max_coverage
from repro.rrset.hypergraph import RRHypergraph
from repro.runtime.deadline import DeadlineLike, as_deadline
from repro.utils.spill import peak_rss_mb

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constraints import ResolvedConstraints

__all__ = ["UDResult", "UDGridPoint", "default_discount_grid", "unified_discount"]


@dataclass(frozen=True)
class UDGridPoint:
    """One evaluated unified discount: the data behind Figure 5."""

    discount: float
    num_targets: int
    spread_estimate: float


@dataclass
class UDResult:
    """Outcome of the Unified Discount algorithm."""

    configuration: Configuration
    best_discount: float
    targets: List[int]
    spread_estimate: float
    grid: List[UDGridPoint] = field(default_factory=list)
    #: True when a deadline cut the discount grid search short; the result
    #: is the best (c, S) among the grid points actually evaluated.
    deadline_expired: bool = False


def default_discount_grid(step: float = 0.05) -> np.ndarray:
    """The paper's search grid: multiples of ``step`` up to 100%.

    Table 3 compares ``step = 0.05`` (default) against ``step = 0.01`` and
    finds the coarser grid loses almost nothing.
    """
    if not 0.0 < step <= 1.0:
        raise SolverError(f"step must lie in (0, 1], got {step}")
    count = int(round(1.0 / step))
    grid = step * np.arange(1, count + 1)
    return np.clip(grid, 0.0, 1.0)


def unified_discount(
    problem: CIMProblem,
    hypergraph: RRHypergraph,
    discount_grid: Optional[Sequence[float]] = None,
    step: float = 0.05,
    deadline: DeadlineLike = None,
    constraints: Optional["ResolvedConstraints"] = None,
) -> UDResult:
    """Run UD: grid-search the unified discount, greedy-select targets.

    Parameters
    ----------
    problem:
        The CIM instance (supplies curves and budget).
    hypergraph:
        Pre-built RR hyper-graph (shared with IM / CD in experiments).
    discount_grid:
        Explicit grid of unified discounts to try; overrides ``step``.
    step:
        Grid spacing when ``discount_grid`` is not given.
    deadline:
        Optional run budget, polled between grid points.  On expiry the
        best affordable ``(c, S)`` evaluated so far is returned with
        ``deadline_expired=True``; expiring before *any* grid point was
        scored raises :class:`~repro.exceptions.DeadlineExceeded`.
    constraints:
        Optional resolved solver constraints.  At each grid discount ``c``
        the greedy target pool is restricted to users whose cap admits
        ``c``, the per-discount seed budget uses the constrained budget,
        and grid points whose unified configuration violates a generic
        constraint part are skipped.  ``None`` runs the historical code
        path untouched.

    Returns the best ``(c, S)`` found plus the whole grid trace (Figure 5).
    """
    budget_clock = as_deadline(deadline)
    grid = (
        np.asarray(list(discount_grid), dtype=np.float64)
        if discount_grid is not None
        else default_discount_grid(step)
    )
    if grid.size == 0:
        raise SolverError("discount grid is empty")
    if np.any(grid <= 0.0) or np.any(grid > 1.0):
        raise SolverError("unified discounts must lie in (0, 1]")

    n = problem.num_nodes
    budget = problem.budget
    if constraints is not None:
        budget = min(budget, constraints.budget)
    trace: List[UDGridPoint] = []
    best: Optional[Tuple[float, List[int], float]] = None

    expired = False
    metrics = get_metrics()
    polls = 0
    with get_tracer().span("solver.ud", grid_size=int(grid.size)) as span:
        for discount in grid:
            polls += 1
            if budget_clock.expired():
                if best is None:
                    budget_clock.check("the first UD grid point")
                expired = True
                break
            num_targets = int(min(n, np.floor(budget / discount + 1e-9)))
            candidates = None
            if constraints is not None:
                candidates = constraints.eligible_at(float(discount))
                if candidates is not None:
                    num_targets = min(num_targets, int(candidates.size))
            if num_targets == 0:
                continue
            node_probs = problem.population.probabilities_at(float(discount))
            coverage = weighted_max_coverage(
                hypergraph, node_probs, num_targets, candidates=candidates
            )
            if constraints is not None and constraints.has_generic:
                unified = np.zeros(n, dtype=np.float64)
                unified[np.asarray(coverage.seeds, dtype=np.int64)] = float(
                    discount
                )
                if not constraints.is_satisfied(unified):
                    span.event(
                        "grid_point_skipped",
                        discount=float(discount),
                        reason="generic-constraint",
                    )
                    continue
            trace.append(
                UDGridPoint(
                    discount=float(discount),
                    num_targets=len(coverage.seeds),
                    spread_estimate=coverage.spread_estimate,
                )
            )
            span.event(
                "grid_point",
                discount=float(discount),
                num_targets=len(coverage.seeds),
                spread=float(coverage.spread_estimate),
            )
            if best is None or coverage.spread_estimate > best[2]:
                best = (float(discount), coverage.seeds, coverage.spread_estimate)
        span.set(evaluated=len(trace), truncated=expired)
        if best is not None:
            span.set(best_discount=best[0], best_spread=float(best[2]))
        metrics.inc("ud.runs_total")
        metrics.inc("ud.grid_points_total", len(trace))
        metrics.inc("ud.deadline_polls_total", polls)
        if expired:
            metrics.inc("ud.deadline_expired_total")
        span.note(peak_rss_mb=peak_rss_mb())

    if best is None:
        raise SolverError(
            f"no grid discount is affordable under budget {budget}; "
            "add smaller discounts to the grid"
        )
    best_c, targets, spread = best
    configuration = Configuration.unified(targets, best_c, n).require_feasible(budget)
    if constraints is not None:
        constraints.require_satisfied(configuration.discounts)
    return UDResult(
        configuration=configuration,
        best_discount=best_c,
        targets=list(targets),
        spread_estimate=spread,
        grid=trace,
        deadline_expired=expired,
    )
