"""Installation self-check: fast internal consistency verification.

``repro-cim selfcheck`` runs a battery of sub-second checks that exercise
every layer against closed-form or cross-implementation ground truth —
the "is this install sane?" test a user runs before trusting longer
experiments.  Each check returns (name, passed, detail); the CLI prints a
report and exits non-zero on any failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

__all__ = ["CheckResult", "run_selfcheck", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check."""

    name: str
    passed: bool
    detail: str


def _check_graph_substrate() -> CheckResult:
    from repro.graphs.build import from_edges

    g = from_edges([(0, 1, 0.25), (1, 2, 0.5)], num_nodes=3)
    t = g.transpose()
    ok = (
        g.num_edges == 2
        and t.has_edge(1, 0)
        and abs(t.edge_probability(1, 0) - 0.25) < 1e-12
    )
    return CheckResult("graph substrate (CSR + transpose)", ok, "2-edge path round-trip")


def _check_ic_closed_form() -> CheckResult:
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.diffusion.montecarlo import estimate_spread
    from repro.graphs.generators import star_graph

    ic = IndependentCascade(star_graph(4, probability=0.1))
    spread = estimate_spread(ic, [0], num_samples=8000, seed=11).mean
    ok = abs(spread - 1.4) < 0.06
    return CheckResult(
        "IC simulator vs closed form", ok, f"star I(hub) = {spread:.3f} (expect 1.4)"
    )


def _check_monte_carlo_vs_exact() -> CheckResult:
    from repro.core.exact import exact_ui_ic
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.diffusion.montecarlo import estimate_configuration_spread
    from repro.graphs.build import from_edges

    g = from_edges([(0, 1, 0.5), (1, 2, 0.4), (0, 2, 0.3)], num_nodes=3)
    q = np.array([0.6, 0.3, 0.1])
    exact = exact_ui_ic(g, q)
    estimate = estimate_configuration_spread(
        IndependentCascade(g), q, num_samples=20000, seed=12
    )
    ok = abs(estimate.mean - exact) < 5 * estimate.stderr + 1e-6
    return CheckResult(
        "Monte-Carlo UI vs exact UI", ok, f"{estimate.mean:.4f} vs exact {exact:.4f}"
    )


def _check_theorem9_estimator() -> CheckResult:
    from repro.core.exact import exact_ui_ic
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.graphs.build import from_edges
    from repro.rrset.estimator import HypergraphObjective
    from repro.rrset.hypergraph import RRHypergraph

    g = from_edges([(0, 1, 0.5), (1, 2, 0.4), (0, 2, 0.3)], num_nodes=3)
    q = np.array([0.6, 0.3, 0.1])
    hg = RRHypergraph.build(IndependentCascade(g), 20000, seed=13)
    estimate = HypergraphObjective(hg, q).value()
    exact = exact_ui_ic(g, q)
    ok = abs(estimate - exact) < 0.06
    return CheckResult(
        "Theorem-9 hyper-graph estimator", ok, f"{estimate:.4f} vs exact {exact:.4f}"
    )


def _check_solver_ordering() -> CheckResult:
    from repro.core.population import paper_mixture
    from repro.core.problem import CIMProblem
    from repro.core.solvers import solve
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.graphs.generators import erdos_renyi
    from repro.graphs.weights import assign_weighted_cascade

    g = assign_weighted_cascade(erdos_renyi(60, 0.08, seed=14), alpha=1.0)
    problem = CIMProblem(IndependentCascade(g), paper_mixture(60, seed=15), budget=3.0)
    hg = problem.build_hypergraph(num_hyperedges=2000, seed=16)
    im = solve(problem, "im", hypergraph=hg).spread_estimate
    ud = solve(problem, "ud", hypergraph=hg).spread_estimate
    cd = solve(problem, "cd", hypergraph=hg).spread_estimate
    ok = cd >= ud - 1e-6 and ud >= im - 1e-6
    return CheckResult(
        "solver ordering CD >= UD >= IM", ok, f"im={im:.1f} ud={ud:.1f} cd={cd:.1f}"
    )


def _check_toy_example() -> CheckResult:
    from repro.core.configuration import Configuration
    from repro.core.curves import ConcaveCurve
    from repro.core.exact import exact_ui_ic
    from repro.core.population import CurvePopulation
    from repro.graphs.generators import star_graph

    g = star_graph(4, probability=0.1)
    population = CurvePopulation.uniform(5, ConcaveCurve())
    value = exact_ui_ic(g, population.probabilities(Configuration.integer([0], 5).discounts))
    ok = abs(value - 1.4) < 1e-9
    return CheckResult("paper Example 2 anchor (UI = 1.4)", ok, f"UI = {value:.6f}")


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    _check_graph_substrate,
    _check_ic_closed_form,
    _check_monte_carlo_vs_exact,
    _check_theorem9_estimator,
    _check_solver_ordering,
    _check_toy_example,
]


def run_selfcheck(verbose: bool = True) -> List[CheckResult]:
    """Run every check; optionally print a report.  Never raises."""
    results: List[CheckResult] = []
    for check in ALL_CHECKS:
        try:
            result = check()
        except Exception as exc:  # a crash is a failed check, not a crash
            result = CheckResult(check.__name__, False, f"raised {exc!r}")
        results.append(result)
        if verbose:
            status = "ok  " if result.passed else "FAIL"
            print(f"  [{status}] {result.name} — {result.detail}")
    if verbose:
        failed = sum(1 for r in results if not r.passed)
        total = len(results)
        print(f"selfcheck: {total - failed}/{total} checks passed")
    return results
