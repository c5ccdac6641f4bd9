"""repro — Continuous Influence Maximization (SIGMOD 2016 reproduction).

What discounts should we offer to social network users?  This library
implements the continuous influence maximization (CIM) problem of Yang,
Mao, Pei & He (SIGMOD 2016) end to end: graph substrate, IC/LT/triggering
diffusion models, RR-set polling, discrete-IM baselines, and the paper's
Unified Discount and Coordinate Descent solvers.

Quickstart::

    from repro import (
        CIMProblem, IndependentCascade, paper_mixture, solve,
        erdos_renyi, assign_weighted_cascade,
    )

    graph = assign_weighted_cascade(erdos_renyi(500, 0.02, seed=1), alpha=1.0)
    problem = CIMProblem(
        IndependentCascade(graph), paper_mixture(500, seed=2), budget=10,
    )
    result = solve(problem, "cd", seed=3)
    print(result.spread_estimate, result.configuration)

See README.md and DESIGN.md for the full architecture.
"""

from repro.analysis import budget_frontier, compare_methods, summarize_plan
from repro.core import (
    AccessSet,
    BudgetConstraint,
    CIMProblem,
    CallableCurve,
    ComposedConstraint,
    ConcaveCurve,
    Configuration,
    Constraint,
    CurvePopulation,
    ExactOracle,
    FixedSampleOracle,
    HypergraphOracle,
    INSENSITIVE,
    LINEAR,
    LinearCurve,
    LogisticCurve,
    MonteCarloOracle,
    PerUserCap,
    PiecewiseLinearCurve,
    PowerCurve,
    QuadraticCurve,
    SENSITIVE,
    SeedProbabilityCurve,
    SolveResult,
    SpreadOracle,
    TopKAccess,
    available_methods,
    constraints_from_spec,
    coordinate_descent,
    coordinate_descent_hypergraph,
    exact_spread_ic,
    exact_ui_ic,
    expected_cost,
    frank_wolfe,
    paper_mixture,
    project_capped_simplex,
    projected_gradient_ascent,
    register_solver,
    reset_solvers,
    solve,
    unified_discount,
    unified_discount_expected,
    unregister_solver,
)
from repro.core.exact_lt import exact_spread_lt, exact_ui_lt
from repro.diffusion import (
    DiffusionModel,
    IndependentCascade,
    LinearThreshold,
    TriggeringModel,
    estimate_configuration_spread,
    estimate_spread,
)
from repro.discrete import celf_greedy, degree_seeds, random_seeds, ris_influence_maximization
from repro.exceptions import (
    BudgetError,
    CheckpointError,
    ConfigurationError,
    ConstraintError,
    CurveError,
    DeadlineExceeded,
    EstimationError,
    GraphError,
    ObservabilityError,
    PartialResultWarning,
    PoisonChunkError,
    PoolBrokenError,
    ReproError,
    SolverError,
    WorkerPoolError,
)
from repro.graphs import (
    DiGraph,
    GraphBuilder,
    assign_constant_probabilities,
    assign_weighted_cascade,
    barabasi_albert,
    erdos_renyi,
    from_edges,
    powerlaw_configuration,
    read_edge_list,
    star_graph,
    watts_strogatz,
    write_edge_list,
)
from repro.io import (
    load_configuration,
    load_solve_result,
    save_configuration,
    save_solve_result,
)
from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    Tracer,
    get_metrics,
    get_tracer,
    observe,
)
from repro.parallel import (
    SupervisionPolicy,
    partition_chunks,
    resolve_supervision,
    resolve_workers,
    run_chunks,
)
from repro.rrset import RRHypergraph, HypergraphObjective, sample_rr_sets
from repro.rrset.imm import imm_hypergraph
from repro.runtime import (
    CheckpointStore,
    Deadline,
    FaultInjector,
    InjectedFault,
    ManualClock,
    RunBudget,
    as_deadline,
    content_key,
    retry,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CIMProblem",
    "Configuration",
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
    "coordinate_descent_hypergraph",
    "unified_discount",
    "solve",
    "SolveResult",
    "available_methods",
    "register_solver",
    "unregister_solver",
    "reset_solvers",
    "projected_gradient_ascent",
    "frank_wolfe",
    "project_capped_simplex",
    # constraints (constrained scenarios)
    "Constraint",
    "BudgetConstraint",
    "PerUserCap",
    "AccessSet",
    "TopKAccess",
    "ComposedConstraint",
    "constraints_from_spec",
    "exact_spread_ic",
    "exact_ui_ic",
    "exact_spread_lt",
    "exact_ui_lt",
    "expected_cost",
    "unified_discount_expected",
    # analysis
    "summarize_plan",
    "compare_methods",
    "budget_frontier",
    # io
    "save_configuration",
    "load_configuration",
    "save_solve_result",
    "load_solve_result",
    # diffusion
    "DiffusionModel",
    "IndependentCascade",
    "LinearThreshold",
    "TriggeringModel",
    "estimate_spread",
    "estimate_configuration_spread",
    # discrete
    "celf_greedy",
    "ris_influence_maximization",
    "degree_seeds",
    "random_seeds",
    # graphs
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_configuration",
    "star_graph",
    "assign_weighted_cascade",
    "assign_constant_probabilities",
    "read_edge_list",
    "write_edge_list",
    # rrset
    "RRHypergraph",
    "HypergraphObjective",
    "sample_rr_sets",
    "imm_hypergraph",
    # parallel (deterministic worker-pool sampling)
    "partition_chunks",
    "resolve_workers",
    "run_chunks",
    "SupervisionPolicy",
    "resolve_supervision",
    # obs (tracing spans + metrics)
    "Tracer",
    "MetricsRegistry",
    "observe",
    "get_tracer",
    "get_metrics",
    "NULL_TRACER",
    "NULL_METRICS",
    # runtime (fault-tolerant execution)
    "Deadline",
    "RunBudget",
    "ManualClock",
    "as_deadline",
    "CheckpointStore",
    "content_key",
    "retry",
    "FaultInjector",
    "InjectedFault",
    # exceptions
    "ReproError",
    "GraphError",
    "CurveError",
    "ConfigurationError",
    "BudgetError",
    "SolverError",
    "ConstraintError",
    "EstimationError",
    "DeadlineExceeded",
    "CheckpointError",
    "ObservabilityError",
    "PartialResultWarning",
    "WorkerPoolError",
    "PoisonChunkError",
    "PoolBrokenError",
]
