"""Core CIM library: curves, configurations, problem, oracles, solvers."""

from repro.core.cd_hypergraph import HypergraphCDResult, coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.constraints import (
    AccessSet,
    BudgetConstraint,
    ComposedConstraint,
    Constraint,
    PerUserCap,
    ResolvedConstraints,
    TopKAccess,
    constraint_spec,
    constraints_from_spec,
    resolve_constraints,
    spillover_scores,
)
from repro.core.coordinate_descent import (
    CoordinateDescentResult,
    coordinate_descent,
    saturate_budget,
)
from repro.core.curves import (
    INSENSITIVE,
    LINEAR,
    SENSITIVE,
    CallableCurve,
    ConcaveCurve,
    LinearCurve,
    LogisticCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    QuadraticCurve,
    SeedProbabilityCurve,
)
from repro.core.estimation import theorem2_sample_count, theorem4_time_bound
from repro.core.exact_lt import ExactLTComputer, exact_spread_lt, exact_ui_lt
from repro.core.expected_budget import (
    coordinate_descent_expected,
    expected_cost,
    invert_expected_cost,
    unified_discount_expected,
)
from repro.core.exact import ExactICComputer, exact_spread_ic, exact_ui_ic
from repro.core.objective import (
    ExactOracle,
    FixedSampleOracle,
    HypergraphOracle,
    MonteCarloOracle,
    SpreadOracle,
)
from repro.core.population import CurvePopulation, paper_mixture
from repro.core.problem import CIMProblem
from repro.core.gradient import (
    GradientResult,
    frank_wolfe,
    fw_linear_maximizer,
    project_box_simplex,
    project_capped_simplex,
    projected_gradient_ascent,
)
from repro.core.solvers import (
    SolveResult,
    available_methods,
    register_solver,
    reset_solvers,
    solve,
    solver_supports_constraints,
    unregister_solver,
)
from repro.core.unified_discount import (
    UDGridPoint,
    UDResult,
    default_discount_grid,
    unified_discount,
)

__all__ = [
    "Configuration",
    "CIMProblem",
    "CurvePopulation",
    "paper_mixture",
    "SeedProbabilityCurve",
    "LinearCurve",
    "QuadraticCurve",
    "ConcaveCurve",
    "PowerCurve",
    "LogisticCurve",
    "PiecewiseLinearCurve",
    "CallableCurve",
    "SENSITIVE",
    "LINEAR",
    "INSENSITIVE",
    "SpreadOracle",
    "ExactOracle",
    "MonteCarloOracle",
    "HypergraphOracle",
    "FixedSampleOracle",
    "coordinate_descent",
    "CoordinateDescentResult",
    "saturate_budget",
    "unified_discount",
    "UDResult",
    "UDGridPoint",
    "default_discount_grid",
    "coordinate_descent_hypergraph",
    "HypergraphCDResult",
    "solve",
    "SolveResult",
    "available_methods",
    "register_solver",
    "unregister_solver",
    "reset_solvers",
    "solver_supports_constraints",
    "GradientResult",
    "projected_gradient_ascent",
    "frank_wolfe",
    "project_capped_simplex",
    "project_box_simplex",
    "fw_linear_maximizer",
    "Constraint",
    "BudgetConstraint",
    "PerUserCap",
    "AccessSet",
    "TopKAccess",
    "ComposedConstraint",
    "ResolvedConstraints",
    "resolve_constraints",
    "constraint_spec",
    "constraints_from_spec",
    "spillover_scores",
    "ExactICComputer",
    "exact_spread_ic",
    "exact_ui_ic",
    "theorem2_sample_count",
    "theorem4_time_bound",
    "expected_cost",
    "invert_expected_cost",
    "unified_discount_expected",
    "coordinate_descent_expected",
    "ExactLTComputer",
    "exact_spread_lt",
    "exact_ui_lt",
]
