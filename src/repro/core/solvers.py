"""Uniform solver facade: one entry point for IM / UD / CD and baselines.

``solve(problem, method=...)`` runs any registered strategy and returns a
:class:`SolveResult` whose spread estimate is computed with the *same*
Theorem-9 hyper-graph estimator for every method, so results are directly
comparable (the experimental protocol of Section 9: all algorithms run on
the same random hyper-graph ``H``).

Registered methods
------------------
``im``       discrete influence maximization (RR-set max coverage),
             embedded as an integer configuration with ``floor(B)`` seeds.
``ud``       Unified Discount (Section 8).
``cd``       Coordinate Descent warm-started from UD (Section 8).
``cd-im``    Coordinate Descent warm-started from the IM integer
             configuration (the Section-6 "no worse than IM" argument).
``gradient`` projected gradient ascent on the hyper-graph objective
             (capped-simplex projection + Armijo backtracking), warm-started
             from UD; reports a certified duality gap in ``extras``.
``fw``       Frank-Wolfe: projection-free conditional gradient whose
             linear step is a top-k greedy fill of the budget.
``greedy``   greedy fractional allocation: the budget flows in small
             increments to the best marginal-gain user (an alternative
             heuristic the paper does not evaluate).
``uniform``  spread the budget evenly over all users (Example 1 optimum).
``random``   random feasible configuration (sanity floor).
``degree``   integer configuration on the top out-degree nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.core.cd_hypergraph import coordinate_descent_hypergraph
from repro.core.configuration import Configuration
from repro.core.objective import HypergraphOracle
from repro.core.problem import CIMProblem
from repro.core.unified_discount import unified_discount
from repro.discrete.heuristics import degree_seeds
from repro.exceptions import PartialResultWarning, SolverError
from repro.obs.context import observe, recording
from repro.obs.metrics import MetricsRegistry
from repro.rrset.coverage import max_coverage
from repro.rrset.hypergraph import RRHypergraph
from repro.rrset.sample_size import default_num_rr_sets
from repro.runtime.deadline import Deadline, DeadlineLike, as_deadline
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import TimingBreakdown, span_timings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constraints import ConstraintLike, ResolvedConstraints

__all__ = [
    "SolveResult",
    "solve",
    "available_methods",
    "register_solver",
    "unregister_solver",
    "reset_solvers",
    "solver_supports_constraints",
]


@dataclass
class SolveResult:
    """Outcome of one solver run."""

    method: str
    configuration: Configuration
    spread_estimate: float
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Budget actually spent by the returned configuration."""
        return self.configuration.cost


def _solve_im(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    k = int(np.floor(problem.budget + 1e-9))
    if k == 0:
        raise SolverError("discrete IM needs budget >= 1 (whole seeds)")
    coverage = max_coverage(hypergraph, k)
    config = Configuration.integer(coverage.seeds, problem.num_nodes)
    return config, {"seeds": coverage.seeds, "coverage": coverage.covered}


def _solve_ud(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    result = _unified(problem, hypergraph, options)
    return result.configuration, {
        "best_discount": result.best_discount,
        "targets": result.targets,
        "grid": result.grid,
        "deadline_expired": result.deadline_expired,
    }


def _unified(problem, hypergraph, options):
    """UD under ``options``: the ``ud`` method and the descents' warm start."""
    return unified_discount(
        problem,
        hypergraph,
        discount_grid=options["discount_grid"],
        step=options["step"],
        deadline=options.get("deadline"),
        constraints=options.get("constraints"),
    )


def _ud_warm_start(problem, hypergraph, options) -> tuple[Configuration, dict]:
    ud_result = _unified(problem, hypergraph, options)
    return ud_result.configuration, {
        "warm_start": "ud",
        "ud_discount": ud_result.best_discount,
        "deadline_expired": ud_result.deadline_expired,
    }


def _cd_warm_start(problem, hypergraph, options) -> tuple[Configuration, dict]:
    constraints = options.get("constraints")
    try:
        return _ud_warm_start(problem, hypergraph, options)
    except SolverError:
        # Under generic constraints the whole unified family c·1_S can be
        # infeasible (UD then has no grid point to offer).  Descent does
        # not need the warm start to exist — degrade to a feasible cold
        # start instead of failing the solve.
        if constraints is None or not constraints.has_generic:
            raise
        cold = Configuration(constraints.project(np.zeros(problem.num_nodes)))
        extras = {"warm_start": "cold", "ud_discount": None, "deadline_expired": False}
        return cold, extras


def _gradient_warm_start(problem, hypergraph, options) -> tuple[Configuration, dict]:
    """Resolve the ``warm_start`` option shared by gradient and FW."""
    warm = options["warm_start"]
    if warm == "ud":
        return _ud_warm_start(problem, hypergraph, options)
    if warm == "zeros":
        config = Configuration.zeros(problem.num_nodes)
    elif warm == "uniform":
        config = Configuration.uniform(problem.budget, problem.num_nodes)
    else:
        raise SolverError(
            f"unknown warm_start {warm!r}; choose 'ud', 'zeros' or 'uniform'"
        )
    return config, {"warm_start": warm, "deadline_expired": False}


def _descend_cd(problem, hypergraph, warm, options, objective=None, coordinates=None):
    return coordinate_descent_hypergraph(
        problem,
        hypergraph,
        warm,
        grid_step=options["grid_step"],
        max_rounds=options["max_rounds"],
        refine_iterations=options["refine_iterations"],
        pair_strategy=options["pair_strategy"],
        coordinates=coordinates,
        deadline=options.get("deadline"),
        objective=objective,
        constraints=options.get("constraints"),
    )


def _descend_gradient(problem, hypergraph, warm, options, objective=None):
    from repro.core.gradient import projected_gradient_ascent

    return projected_gradient_ascent(
        problem,
        hypergraph,
        warm,
        step_size=options["step_size"],
        max_steps=options["max_steps"],
        tolerance=options["tolerance"],
        deadline=options.get("deadline"),
        objective=objective,
        constraints=options.get("constraints"),
    )


def _descend_fw(problem, hypergraph, warm, options, objective=None):
    from repro.core.gradient import frank_wolfe

    return frank_wolfe(
        problem,
        hypergraph,
        warm,
        max_steps=options["max_steps"],
        tolerance=options["tolerance"],
        deadline=options.get("deadline"),
        objective=objective,
        constraints=options.get("constraints"),
    )


def _reported(*fields: str) -> Callable[[object], dict]:
    """The ``extras(result)`` of a descent: the named fields of its result."""
    return lambda result: {name: getattr(result, name) for name in fields}


_cd_extras = _reported("rounds_run", "pair_updates", "round_values", "converged")
_GRADIENT_FIELDS = (
    "steps_run",
    "backtracks",
    "objective_evals",
    "gradient_evals",
    "step_values",
    "converged",
    "duality_gap",
    "budget_spent",
)


def _descended(descend, extras, problem, hypergraph, warm, warm_extras, options):
    """Descend from ``warm``; the descent's extras join the warm start's."""
    result = descend(problem, hypergraph, warm, options)
    expired = warm_extras["deadline_expired"] or result.deadline_expired
    extras = {**warm_extras, **extras(result), "deadline_expired": expired}
    return result.configuration, extras


def _solve_cd_im(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    im_config, im_extras = _solve_im(problem, hypergraph, seed, options)
    # An integer warm start is a fixed point of support-restricted pairwise
    # CD: every support pair sits at (1, 1), so its feasible interval
    # [max(0, B'-1), min(1, B')] collapses to the single point {1}.  Budget
    # can only flow *out* of the seeds if promising zero coordinates join
    # the pair set — we add the highest hyper-graph-degree non-seeds.
    support = im_config.support
    degrees = hypergraph.degrees()
    by_degree = np.argsort(-degrees, kind="stable")
    in_support = np.zeros(problem.num_nodes, dtype=bool)
    in_support[support] = True
    extra = [int(u) for u in by_degree if not in_support[u]][: max(1, support.size)]
    coordinates = np.concatenate([support, np.asarray(extra, dtype=np.int64)])

    def descend(problem, hypergraph, warm, options):
        return _descend_cd(problem, hypergraph, warm, options, coordinates=coordinates)

    warm_extras = {
        "warm_start": "im",
        "im_seeds": im_extras["seeds"],
        "deadline_expired": False,
    }
    return _descended(
        descend, _cd_extras, problem, hypergraph, im_config, warm_extras, options
    )


def _solve_greedy(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    from repro.core.greedy_allocation import greedy_allocation

    result = greedy_allocation(
        problem, hypergraph, delta=options.get("delta", 0.05)
    )
    return result.configuration, {"increments": result.increments}


def _solve_uniform(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    return Configuration.uniform(problem.budget, problem.num_nodes), {}


def _solve_random(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    rng = as_generator(seed)
    # Random point of the budget simplex via Dirichlet, clipped to [0, 1];
    # clipping only lowers cost, so feasibility is preserved.
    weights = rng.dirichlet(np.ones(problem.num_nodes))
    discounts = np.minimum(1.0, weights * problem.budget)
    return Configuration(discounts), {}


def _solve_degree(problem, hypergraph, seed, options) -> tuple[Configuration, dict]:
    k = int(np.floor(problem.budget + 1e-9))
    if k == 0:
        raise SolverError("degree seeding needs budget >= 1 (whole seeds)")
    seeds = degree_seeds(problem.graph, k)
    return Configuration.integer(seeds, problem.num_nodes), {"seeds": seeds}


_SolverFn = Callable[[CIMProblem, RRHypergraph, SeedLike, dict], tuple]


#: The UD warm start's options: those of ``ud`` and every descent that
#: warm-starts from it.
_UD_OPTIONS = {"step": 0.05, "discount_grid": None}
#: The CD descent's options (``cd`` and ``cd-im``).
_CD_OPTIONS = {
    "grid_step": 0.01,
    "max_rounds": 10,
    "refine_iterations": 25,
    "pair_strategy": "cyclic",
}
#: The Frank-Wolfe descent's options; projected gradient adds its step.
_FW_OPTIONS = {"max_steps": 200, "tolerance": 1e-3}


@dataclass(frozen=True)
class _SolverEntry:
    """One registry row: the strategy, its capability flags and its options.

    ``supports_constraints`` marks strategies that consume
    ``options["constraints"]`` natively; :func:`solve` projects the output
    of unaware strategies onto the feasible set instead (and tags the
    result ``extras["constraints_projected"]``).

    ``options`` holds the default of every option the strategy reads;
    :func:`solve` merges the caller's options over it.  A descent entry
    (see :func:`_descent`) also carries the descent itself, which the
    adaptive driver (:func:`repro.rrset.adaptive.adaptive_hypergraph`)
    runs once per instalment: ``descend(problem, hypergraph, warm,
    options, objective=None)`` returns the descent's result, and
    ``extras(result)`` reports it.
    """

    fn: _SolverFn
    supports_constraints: bool = False
    options: Mapping[str, object] = field(default_factory=dict)
    descend: Optional[Callable] = None
    extras: Optional[Callable[[object], dict]] = None

    def resolve(self, options: Mapping[str, object]) -> Dict[str, object]:
        """This entry's options, with the given values over the defaults."""
        return {
            name: options.get(name, default) for name, default in self.options.items()
        }


def _descent(warm_start, descend, extras, options) -> _SolverEntry:
    """A constraint-aware entry that warm-starts, then descends."""

    def solver(problem, hypergraph, seed, options):
        warm, warm_extras = warm_start(problem, hypergraph, options)
        return _descended(
            descend, extras, problem, hypergraph, warm, warm_extras, options
        )

    return _SolverEntry(
        solver, supports_constraints=True, options=options, descend=descend, extras=extras
    )


_REGISTRY: Dict[str, _SolverEntry] = {
    "im": _SolverEntry(_solve_im),
    "ud": _SolverEntry(_solve_ud, supports_constraints=True, options=_UD_OPTIONS),
    "cd": _descent(
        _cd_warm_start, _descend_cd, _cd_extras, {**_UD_OPTIONS, **_CD_OPTIONS}
    ),
    "cd-im": _SolverEntry(_solve_cd_im, supports_constraints=True, options=_CD_OPTIONS),
    "gradient": _descent(
        _gradient_warm_start,
        _descend_gradient,
        _reported(*_GRADIENT_FIELDS),
        {"warm_start": "ud", **_UD_OPTIONS, "step_size": 0.5, **_FW_OPTIONS},
    ),
    "fw": _descent(
        _gradient_warm_start,
        _descend_fw,
        _reported(*_GRADIENT_FIELDS, "fw_gap"),
        {"warm_start": "zeros", **_UD_OPTIONS, **_FW_OPTIONS},
    ),
    "greedy": _SolverEntry(_solve_greedy),
    "uniform": _SolverEntry(_solve_uniform),
    "random": _SolverEntry(_solve_random),
    "degree": _SolverEntry(_solve_degree),
}

#: Immutable snapshot of the built-in strategies *with their capability
#: flags*, taken at import time — the restore point of
#: :func:`reset_solvers`.  Snapshotting whole entries (not bare callables)
#: is what lets a reset restore a built-in's constraint support after it
#: was shadowed by a constraint-wrapped re-registration.
_BUILTINS: Dict[str, _SolverEntry] = dict(_REGISTRY)


def descent_entry(method: str) -> _SolverEntry:
    """The registry entry of ``method``, which must descend from a warm start."""
    entry = _REGISTRY.get(method)
    if entry is None or entry.descend is None:
        descents = sorted(name for name, e in _REGISTRY.items() if e.descend is not None)
        raise SolverError(
            f"method {method!r} has no descent to run per instalment; "
            f"choose from {descents}"
        )
    return entry


def available_methods() -> List[str]:
    """Names accepted by :func:`solve`."""
    return sorted(_REGISTRY)


def solver_supports_constraints(name: str) -> bool:
    """Whether a registered strategy consumes ``constraints=`` natively.

    Unaware strategies still work under constraints — :func:`solve`
    projects their output onto the feasible set — but only native support
    optimizes *within* the feasible set.
    """
    try:
        return _REGISTRY[name].supports_constraints
    except KeyError:
        raise SolverError(f"no solver named {name!r}") from None


def register_solver(
    name: str,
    solver: _SolverFn,
    overwrite: bool = False,
    supports_constraints: bool = False,
) -> None:
    """Register a custom strategy with :func:`solve`.

    ``solver`` receives ``(problem, hypergraph, seed, options)`` and must
    return ``(configuration, extras_dict)``; the returned configuration is
    feasibility-checked and scored with the shared Theorem-9 estimator
    like every built-in.  Overwriting a built-in requires
    ``overwrite=True`` (guards against accidental shadowing).

    Pass ``supports_constraints=True`` when the strategy consumes
    ``options["constraints"]`` (a
    :class:`~repro.core.constraints.ResolvedConstraints`) itself;
    otherwise :func:`solve` enforces active constraints by projecting the
    strategy's output onto the feasible set.
    """
    if not name or not isinstance(name, str):
        raise SolverError(f"solver name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise SolverError(
            f"solver {name!r} already registered; pass overwrite=True to replace"
        )
    if not callable(solver):
        raise SolverError("solver must be callable")
    _REGISTRY[name] = _SolverEntry(solver, supports_constraints=supports_constraints)


def unregister_solver(name: str) -> None:
    """Remove a strategy from the registry.

    Built-ins may also be removed (e.g. to shadow-test a replacement);
    :func:`reset_solvers` restores the pristine built-in registry at any
    time — no interpreter restart needed.
    """
    try:
        del _REGISTRY[name]
    except KeyError:
        raise SolverError(f"no solver named {name!r}") from None


def reset_solvers() -> None:
    """Restore the registry to the import-time built-in snapshot.

    Re-registers every built-in strategy *with its original capability
    flags* (undoing any :func:`unregister_solver` of them, and undoing
    flag changes from overwriting re-registrations) and drops all custom
    strategies added with :func:`register_solver`.
    """
    _REGISTRY.clear()
    _REGISTRY.update(_BUILTINS)


def solve(
    problem: CIMProblem,
    method: str = "cd",
    hypergraph: Optional[RRHypergraph] = None,
    num_hyperedges: Union[int, str, None] = None,
    seed: SeedLike = None,
    deadline: DeadlineLike = None,
    workers: Optional[int] = None,
    supervision: "SupervisionLike" = None,
    constraints: "ConstraintLike" = None,
    storage: Optional[str] = None,
    slab_dir=None,
    backing: Optional[str] = None,
    spill_dir=None,
    **options,
) -> SolveResult:
    """Run one CIM strategy end to end.

    Parameters
    ----------
    problem:
        The CIM instance.
    method:
        One of :func:`available_methods`.
    hypergraph:
        Pass a pre-built hyper-graph to share it across methods; otherwise
        one is built (and its build time recorded in the ``hypergraph``
        timing phase — the decomposition of Figure 6).
    num_hyperedges / seed:
        Hyper-graph size and RNG seed when building here.  ``"auto"``
        runs the adaptive doubling driver
        (:func:`repro.rrset.adaptive.adaptive_hypergraph`) instead of a
        fixed-θ build: sampling stops once the incumbent UI(C) estimate
        is certified.  Driver knobs travel in ``options["adaptive"]``
        (a dict of ``epsilon``, ``max_theta``, ``checkpoint_dir``, ...).
        For the descents (``cd``, ``gradient``, ``fw``) the driver runs
        this method's descent, with these ``options``, on every
        instalment; its certified configuration *is* the solve result,
        with the doubling trace in ``extras["adaptive"]``.  There CD
        defaults to the ``"lazy"`` pair scheduler, and ``warm_start``
        raises :class:`~repro.exceptions.SolverError` (every instalment
        warm-starts from UD against the incumbent).  Other methods run
        normally on the adaptively-sized hyper-graph.  Incompatible with
        a prebuilt ``hypergraph``.
    deadline:
        Optional wall-clock budget for the *whole* run (seconds or a
        shared :class:`~repro.runtime.Deadline`): hyper-graph construction
        and the solver draw it down together.  On expiry the run degrades
        instead of failing — it returns a budget-feasible configuration
        built from the work done so far, tags it ``extras["partial"] is
        True`` and issues a :class:`~repro.exceptions.PartialResultWarning`.
        Only if *nothing* usable was produced (e.g. the deadline expired
        before a single RR set was sampled) does
        :class:`~repro.exceptions.DeadlineExceeded` escape.
    workers:
        Parallel sampling processes for hyper-graph construction
        (``"auto"`` = one per CPU).  Never changes results — only
        wall-clock time.
    supervision:
        Worker-pool recovery policy for the pooled build (a
        :class:`~repro.parallel.SupervisionPolicy` or a dict of its
        fields; see :mod:`repro.parallel.supervisor`).  A quarantined
        poison chunk or salvaged instalment degrades through the same
        partial-result contract as a deadline expiry.
    constraints:
        Optional solver constraints — a single
        :class:`~repro.core.constraints.Constraint` or a list of them
        (their intersection).  Constraint-aware methods (``ud``, ``cd``,
        ``cd-im``, ``gradient``, ``fw``) optimize *within* the feasible
        set; the output of unaware strategies is projected onto it (and
        tagged ``extras["constraints_projected"]``).  Constraints whose
        feasible set contains the plain budget simplex are *trivial* and
        reduce to the unconstrained code path, so slack constraints
        reproduce unconstrained results bit for bit at any worker count.
        Active constraints are recorded in ``extras["constraints"]`` and
        the returned configuration is verified feasible.
    storage / slab_dir:
        RR-set transport for the hyper-graph build: ``"heap"`` (default)
        pickles sampled chunks back through the pool, ``"shared"`` has
        workers write member streams into memory-mapped slabs under
        ``slab_dir`` (:mod:`repro.rrset.storage`).  Never changes
        results — both modes are bit-identical; ignored when a prebuilt
        ``hypergraph`` is passed.
    backing / spill_dir:
        Where the assembled hyper-graph CSR lives: ``"heap"`` (default)
        or ``"mmap"`` — spill files under ``spill_dir``
        (``REPRO_SPILL_DIR`` or the system temp dir), keeping the
        coordinator's resident set independent of θ.  Works with either
        ``storage``; like ``storage``, never changes results and is
        ignored with a prebuilt ``hypergraph``.
    options:
        Method-specific knobs (``step``, ``grid_step``, ``max_rounds``...),
        merged over the method's registered defaults.
    """
    try:
        entry = _REGISTRY[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; choose from {available_methods()}"
        ) from None
    solver = entry.fn

    run_budget: Deadline = as_deadline(deadline)
    adaptive_options = dict(options.pop("adaptive", None) or {})
    method_options = dict(options)
    options = {**entry.options, **options}
    options.setdefault("deadline", run_budget)
    if num_hyperedges == "auto" and hypergraph is not None:
        raise SolverError(
            "num_hyperedges='auto' cannot be combined with a prebuilt hypergraph"
        )
    if adaptive_options and num_hyperedges != "auto":
        raise SolverError("options['adaptive'] requires num_hyperedges='auto'")

    def resolve(bound_hypergraph) -> Optional["ResolvedConstraints"]:
        """Bind ``constraints`` and drop them when trivially slack.

        The trivial→``None`` reduction is the no-op composition
        guarantee: a slack constraint list runs the *identical* code
        path as no constraints at all, so results match bit for bit.
        """
        if constraints is None:
            return None
        from repro.core.constraints import resolve_constraints

        resolved = resolve_constraints(constraints, problem, bound_hypergraph)
        if resolved is not None and resolved.is_trivial(problem.budget):
            return None
        return resolved

    resolved_constraints: Optional["ResolvedConstraints"] = None
    sampled = hypergraph is None
    adaptive_result = None
    hypergraph_truncated = False
    # Metrics for this call land in a private registry so the
    # extras["metrics"] snapshot depends only on this run, then merge
    # into whatever registry the caller installed (see repro.obs).
    run_metrics = MetricsRegistry()
    with recording() as tracer, observe(metrics=run_metrics), tracer.span(
        "solve", method=method
    ) as span:
        if hypergraph is None and num_hyperedges == "auto":
            from repro.rrset.adaptive import adaptive_hypergraph

            if entry.descend is not None:
                # Let the driver run *this* method's descent per instalment
                # so its certified incumbent is the solve result.
                adaptive_options.setdefault("method", method)
                adaptive_options.setdefault("options", method_options)
            # The driver needs constraints before any hyper-graph exists,
            # so TopKAccess binds against the weighted out-degree proxy
            # here (deterministic, hyper-graph-free).
            resolved_constraints = resolve(None)
            adaptive_options.setdefault("storage", storage)
            adaptive_options.setdefault("slab_dir", slab_dir)
            adaptive_options.setdefault("backing", backing)
            adaptive_options.setdefault("spill_dir", spill_dir)
            adaptive_result = adaptive_hypergraph(
                problem,
                seed=seed,
                deadline=run_budget,
                workers=workers,
                supervision=supervision,
                constraints=resolved_constraints,
                **adaptive_options,
            )
            hypergraph = adaptive_result.hypergraph
            hypergraph_truncated = adaptive_result.stop_reason in (
                "deadline",
                "fault",
            )
        elif hypergraph is None:
            requested = (
                num_hyperedges
                if num_hyperedges is not None
                else default_num_rr_sets(problem.num_nodes)
            )
            hypergraph = problem.build_hypergraph(
                num_hyperedges=requested,
                seed=seed,
                deadline=run_budget,
                workers=workers,
                supervision=supervision,
                storage=storage,
                slab_dir=slab_dir,
                backing=backing,
                spill_dir=spill_dir,
            )
            hypergraph_truncated = hypergraph.num_hyperedges < requested
        else:
            run_metrics.inc("solver.hypergraph_reuse_total")
            if num_hyperedges is not None:
                # A caller handing over a prebuilt hyper-graph *and* a
                # requested size is declaring intent; a smaller graph (e.g.
                # deadline-truncated sampling) taints every estimate
                # computed on it.
                hypergraph_truncated = hypergraph.num_hyperedges < num_hyperedges
        if adaptive_result is None:
            resolved_constraints = resolve(hypergraph)
        if resolved_constraints is not None and entry.supports_constraints:
            options["constraints"] = resolved_constraints
        if (
            adaptive_result is not None
            and adaptive_options.get("method", "cd") == method
        ):
            # The driver already alternated UD warm-start with this
            # method's descent at every doubling — its incumbent IS the
            # solution on the final hyper-graph; re-running would
            # duplicate the work.
            configuration = adaptive_result.configuration
            extras = {"warm_start": "ud"}
            if adaptive_result.cd_result is not None:
                extras.update(entry.extras(adaptive_result.cd_result))
            extras["deadline_expired"] = adaptive_result.stop_reason == "deadline"
        else:
            configuration, extras = solver(problem, hypergraph, seed, options)
        if resolved_constraints is not None and not entry.supports_constraints:
            # Constraint-unaware strategy: enforce feasibility by
            # projecting its output onto the feasible set.
            projected = resolved_constraints.project(configuration.discounts)
            if not np.array_equal(projected, configuration.discounts):
                configuration = Configuration(projected)
                extras["constraints_projected"] = True
        if adaptive_result is not None:
            extras["adaptive"] = {
                "stop_reason": adaptive_result.stop_reason,
                "theta": adaptive_result.theta,
                "epsilon_bound": adaptive_result.epsilon_bound,
                "stages": adaptive_result.stages,
                "checkpoint_hits": adaptive_result.checkpoint_hits,
            }

        configuration.require_feasible(problem.budget)
        if resolved_constraints is not None:
            resolved_constraints.require_satisfied(configuration.discounts)
            extras["constraints"] = resolved_constraints.spec()
            span.set(constrained=True)
        oracle = HypergraphOracle(hypergraph, problem.population)
        estimate = oracle.evaluate(configuration)
        extras["num_hyperedges"] = hypergraph.num_hyperedges
        partial = bool(hypergraph_truncated or extras.get("deadline_expired", False))
        extras["partial"] = partial
        span.set(
            num_hyperedges=hypergraph.num_hyperedges,
            partial=partial,
            spread_estimate=float(estimate),
        )
        run_metrics.inc("solver.runs_total")
        run_metrics.set_gauge("solver.num_hyperedges", hypergraph.num_hyperedges)
        if partial:
            run_metrics.inc("solver.partial_total")
        extras["metrics"] = run_metrics.snapshot()
    if partial:
        warnings.warn(
            f"solver {method!r} hit its deadline and returned a truncated "
            "(but budget-feasible) result",
            PartialResultWarning,
            stacklevel=2,
        )
    return SolveResult(
        method=method,
        configuration=configuration,
        spread_estimate=estimate,
        timings=span_timings(span, method, sampled),
        extras=extras,
    )
