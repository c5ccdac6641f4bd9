"""Adaptive RR sampling: grow the hyper-graph only until UI(C) is certified.

Every fixed-θ solver pays for ``default_num_rr_sets`` = O(n log n)
hyper-edges up front (Section 8's "predefined number"), even when far fewer
samples already pin the objective down.  This module is the library's
one automatic-θ rule, adapted from IMM (Tang, Shi & Xiao, SIGMOD 2015)
to the *continuous* problem: sample in geometrically growing
instalments, re-optimize the discount configuration after each one (a
warm-started descent: by default coordinate descent), and stop as soon as
either

* a Theorem-2-style relative-error bound certifies the incumbent UI(C)
  estimate to ``epsilon`` at confidence ``1 - delta``
  (:func:`relative_error_bound`), or
* the incumbent objective value is *stable* across consecutive doublings
  (IMM's martingale argument: earlier instalments are reused, never
  discarded).

Determinism is inherited from the chunked sampling plan
(:func:`repro.rrset.sampler.sample_rr_csr` with ``start_at``): instalment
boundaries always sit on chunk boundaries, so the grown hyper-graph is
bit-identical to a one-shot build of the same total θ — at any worker
count — and intermediate hyper-graphs can be checkpointed and resumed
content-keyed, like every other long-running stage in this library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.constraints import ResolvedConstraints

from repro.exceptions import (
    CheckpointError,
    EstimationError,
    SolverError,
    WorkerPoolError,
)
from repro.obs.context import get_metrics, get_tracer
from repro.parallel.pool import DEFAULT_CHUNK_SIZE
from repro.parallel.supervisor import SupervisionLike
from repro.rrset.estimator import HypergraphObjective
from repro.rrset.hypergraph import RRHypergraph, csr_offsets
from repro.rrset.sample_size import default_num_rr_sets
from repro.rrset.sampler import sample_rr_csr
from repro.runtime.checkpoint import CheckpointStore, content_key, problem_fingerprint
from repro.runtime.deadline import DeadlineLike, as_deadline
from repro.utils.rng import SeedLike, as_root_sequence

__all__ = [
    "AdaptiveResult",
    "adaptive_hypergraph",
    "relative_error_bound",
    "theta_schedule",
]


def theta_schedule(
    theta0: int,
    max_theta: int,
    factor: float = 2.0,
    chunk_size: Optional[int] = None,
) -> List[int]:
    """The instalment targets of the doubling driver.

    Targets grow geometrically by ``factor`` from ``theta0`` and are
    rounded *up* to multiples of the sampling chunk size — every target
    except possibly the last must be chunk-aligned, because it becomes the
    ``start_at`` offset of the next extension and the sampling plan's
    chunk boundaries are fixed.  The final target is exactly
    ``max_theta`` (alignment is not needed there: nothing extends past
    it).  The list is strictly increasing and always ends at
    ``max_theta``.

    >>> theta_schedule(100, 1000, factor=2.0, chunk_size=256)
    [256, 512, 1000]
    >>> theta_schedule(1000, 1000)
    [1000]
    """
    size = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    if size <= 0:
        raise EstimationError(f"chunk_size must be positive, got {size}")
    if theta0 < 1:
        raise EstimationError(f"theta0 must be at least 1, got {theta0}")
    if max_theta < theta0:
        raise EstimationError(
            f"max_theta ({max_theta}) must be at least theta0 ({theta0})"
        )
    if not factor > 1.0:
        raise EstimationError(f"factor must exceed 1, got {factor}")

    targets: List[int] = []
    goal = float(theta0)
    while True:
        aligned = ((int(math.ceil(goal)) + size - 1) // size) * size
        if targets and aligned <= targets[-1]:
            aligned = targets[-1] + size
        if aligned >= max_theta:
            targets.append(max_theta)
            return targets
        targets.append(aligned)
        goal = aligned * factor


def relative_error_bound(
    value: float, theta: int, num_nodes: int, delta: float = 0.01
) -> float:
    """Two-sided relative error of the Theorem-9 estimate at confidence ``1-delta``.

    ``UI(C) = n/theta * sum_h X_h`` averages ``theta`` i.i.d. per-edge
    coverage indicators ``X_h in [0, 1]``.  The multiplicative Chernoff
    bound ``2 exp(-eps^2 * M / (2 + 2 eps / 3)) <= delta`` — with
    ``M = theta * mu`` the expected covered mass, estimated by the
    empirical ``value * theta / n`` — solves in closed form to::

        eps = (L/3 + sqrt(L^2/9 + 2 M L)) / M,   L = ln(2 / delta)

    This is the same Chernoff regime as the paper's Theorem 2 (and Tang et
    al.'s stopping conditions), expressed in the observable quantities of
    a run.  Returns ``inf`` when nothing is covered yet (no certificate is
    possible).
    """
    if theta <= 0:
        raise EstimationError(f"theta must be positive, got {theta}")
    if num_nodes <= 0:
        raise EstimationError(f"num_nodes must be positive, got {num_nodes}")
    if not 0.0 < delta < 1.0:
        raise EstimationError(f"delta must lie in (0, 1), got {delta}")
    if not value > 0.0:
        return math.inf
    mass = theta * (value / num_nodes)
    log_term = math.log(2.0 / delta)
    return (log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * mass * log_term)) / mass


@dataclass
class AdaptiveResult:
    """Outcome of the adaptive sampling driver."""

    hypergraph: RRHypergraph
    configuration: "Configuration"
    objective_value: float
    theta: int
    #: Certified relative error of ``objective_value`` at the final theta.
    epsilon_bound: float
    #: Why sampling stopped: ``"certified"`` (error bound met),
    #: ``"stable"`` (martingale stability across doublings),
    #: ``"max_theta"`` (budget of hyper-edges exhausted — the fixed-θ
    #: default), ``"deadline"``, or ``"fault"`` (a later instalment's
    #: worker pool failed past its recovery budgets; the completed
    #: instalments — bit-identical to a fault-free build of their θ —
    #: were salvaged as the result).
    stop_reason: str
    #: One record per instalment: theta, value, epsilon_bound, descent effort.
    stages: List[Dict[str, object]] = field(default_factory=list)
    #: The last instalment's descent result: a
    #: :class:`~repro.core.cd_hypergraph.HypergraphCDResult` for the default
    #: ``method="cd"``, a :class:`~repro.core.gradient.GradientResult` for
    #: ``"gradient"``/``"fw"``.
    cd_result: Optional[object] = None
    checkpoint_hits: int = 0


#: The descent-effort counts each stage record carries (CD reports the
#: first two, the gradient family the last two).
_STAGE_EFFORT = ("rounds_run", "pair_updates", "steps_run", "objective_evals")


def _stable(values: List[float], window: int, rtol: float) -> bool:
    """True when the last ``window`` doublings changed the value by < rtol."""
    if window <= 0 or len(values) < window + 1:
        return False
    recent = values[-(window + 1) :]
    for a, b in zip(recent, recent[1:]):
        scale = max(abs(a), abs(b), 1e-12)
        if abs(b - a) > rtol * scale:
            return False
    return True


def adaptive_hypergraph(
    problem,
    theta0: Optional[int] = None,
    max_theta: Optional[int] = None,
    factor: float = 2.0,
    epsilon: float = 0.05,
    delta: float = 0.01,
    stability_window: int = 2,
    stability_rtol: float = 1e-3,
    seed: SeedLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    deadline: DeadlineLike = None,
    supervision: SupervisionLike = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    method: str = "cd",
    options: Optional[Mapping[str, object]] = None,
    constraints: Optional["ResolvedConstraints"] = None,
    storage: Optional[str] = None,
    slab_dir: Optional[Union[str, Path]] = None,
    backing: Optional[str] = None,
    spill_dir: Optional[Union[str, Path]] = None,
) -> AdaptiveResult:
    """Sample adaptively and return the certified descent solution.

    Alternates instalments of RR sampling (through the deterministic
    chunk plan, so the grown hyper-graph matches a one-shot build bit for
    bit) with a warm-started descent, and stops at the first of:
    relative error certified to ``epsilon`` at confidence ``1 - delta``
    (:func:`relative_error_bound`), objective stable across
    ``stability_window`` doublings within ``stability_rtol``, ``max_theta``
    reached, or deadline expiry.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.CIMProblem` instance.
    theta0, max_theta, factor:
        Doubling schedule (see :func:`theta_schedule`).  ``max_theta``
        defaults to :func:`~repro.rrset.sample_size.default_num_rr_sets`
        — the fixed-θ budget — so adaptive never samples *more* than the
        default path; ``theta0`` defaults to ``max(chunk, max_theta/64)``.
    epsilon, delta:
        The certificate target: stop once the UI(C) estimate's two-sided
        relative error bound is at most ``epsilon`` with probability at
        least ``1 - delta``.
    stability_window, stability_rtol:
        Martingale stability test: also stop when the incumbent objective
        moved by less than ``stability_rtol`` (relative) across the last
        ``stability_window`` consecutive doublings; ``0`` disables it.
    seed:
        Root seed of the sampling plan.  Required to be an ``int`` when
        ``checkpoint_dir`` is given (content keys must be serializable).
    workers, chunk_size:
        Parallel sampling controls, forwarded to
        :func:`~repro.rrset.sampler.sample_rr_csr`; results are
        bit-identical for every worker count.
    deadline:
        Optional run budget shared by sampling and descent.  On expiry the
        incumbent (feasible, never worse than the warm start) is returned
        with ``stop_reason="deadline"``.
    supervision:
        Pool recovery policy forwarded to
        :func:`~repro.rrset.sampler.sample_rr_csr`.  When a later
        instalment's pool fails past its budgets
        (:class:`~repro.exceptions.WorkerPoolError`), the completed
        instalments are *salvaged*: the incumbent is returned with
        ``stop_reason="fault"`` instead of discarding certified work.
        The error propagates only when no instalment completed.
    checkpoint_dir:
        Optional directory for content-keyed instalment snapshots
        (hyper-graph CSR + incumbent discounts per completed stage); a
        rerun with identical inputs resumes past completed instalments.
        Snapshots are integrity-checked on restore; a corrupt or torn
        instalment is quarantined and recomputed rather than crashing
        the resume (see :meth:`~repro.runtime.CheckpointStore.salvage_json`).
    method, options:
        The :func:`~repro.core.solvers.solve` method whose descent
        re-optimizes the incumbent per instalment — ``"cd"`` (default),
        ``"gradient"`` or ``"fw"`` — and its options, under ``solve()``'s
        names and defaults.  The driver's one default of its own is CD's
        ``pair_strategy="lazy"``: after the first instalment most pairs
        have nothing left to give.  ``warm_start`` raises
        :class:`~repro.exceptions.SolverError`, as every instalment
        warm-starts from the better of a fresh UD and the incumbent;
        options the method does not read are ignored, as in ``solve()``.
        The method and its options over the defaults key the checkpoints.
    constraints:
        Optional solver constraints — a
        :class:`~repro.core.constraints.ResolvedConstraints` (what
        :func:`~repro.core.solvers.solve` passes) or raw
        :class:`~repro.core.constraints.Constraint` objects, resolved
        here against the problem.  Every per-instalment warm start and
        descent honours them, and the constraint spec becomes part of the
        checkpoint content key — a constrained run never resumes an
        unconstrained run's instalments (or vice versa).
    storage, slab_dir, backing, spill_dir:
        Chunk transport and placement of each instalment, forwarded to
        :func:`~repro.rrset.sampler.sample_rr_csr`; every instalment is
        appended with :meth:`RRHypergraph.extend_csr`, and extensions
        inherit a spill-backed placement.  Never part of the checkpoint
        content key: none of them changes a byte of the hyper-graph, so
        checkpoints written under one choice resume under another.
    """
    # Function-level imports: repro.core imports repro.rrset at module
    # scope, so the reverse edge must be deferred to call time.
    from repro.core.configuration import Configuration
    from repro.core.constraints import ResolvedConstraints, resolve_constraints
    from repro.core.solvers import descent_entry
    from repro.core.unified_discount import unified_discount

    entry = descent_entry(method)
    options = dict(options or {})
    resolved = entry.resolve({"pair_strategy": "lazy", **options})
    if "warm_start" in options and "warm_start" in resolved:
        raise SolverError(
            "warm_start cannot apply per instalment: every instalment "
            "warm-starts from the better of UD and the incumbent"
        )
    if constraints is not None and not isinstance(constraints, ResolvedConstraints):
        constraints = resolve_constraints(constraints, problem, None)
        if constraints is not None and constraints.is_trivial(problem.budget):
            constraints = None

    n = problem.num_nodes
    if n <= 0:
        raise EstimationError("cannot sample RR sets of an empty graph")
    size = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    if max_theta is None:
        max_theta = default_num_rr_sets(n)
    if theta0 is None:
        theta0 = min(max_theta, max(size, -(-max_theta // 64)))
    if not 0.0 < epsilon:
        raise EstimationError(f"epsilon must be positive, got {epsilon}")
    schedule = theta_schedule(theta0, max_theta, factor=factor, chunk_size=size)
    budget_clock = as_deadline(deadline)

    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        if not isinstance(seed, (int, np.integer)):
            raise EstimationError(
                "checkpointed adaptive sampling requires an integer seed "
                "(content keys must be stable and serializable)"
            )
        key_fields = dict(
            kind="adaptive-v2",
            problem=problem_fingerprint(problem),
            seed=int(seed),
            chunk=size,
            schedule=schedule,
            method=method,
            options=resolved,
        )
        if constraints is not None:
            # Keyed only when active: a constrained run can never collide
            # with (or resume) an unconstrained run's instalments.
            key_fields["constraints"] = constraints.spec()
        key = content_key(**key_fields)
        store = CheckpointStore(checkpoint_dir, key)

    root = as_root_sequence(seed)  # normalize ONCE: the plan must not drift
    run_options = dict(resolved, deadline=budget_clock, constraints=constraints)
    metrics = get_metrics()
    tracer = get_tracer()

    hypergraph: Optional[RRHypergraph] = None
    objective: Optional[HypergraphObjective] = None
    warm: Optional[Configuration] = None
    cd_result = None
    stages: List[Dict[str, object]] = []
    values: List[float] = []
    checkpoint_hits = 0
    sampled = 0
    stop_reason = "max_theta"

    with tracer.span(
        "adaptive.run",
        theta0=schedule[0],
        max_theta=max_theta,
        factor=factor,
        epsilon=epsilon,
        delta=delta,
        schedule_len=len(schedule),
    ) as span:
        for target in schedule:
            name = f"theta-{target:09d}"
            truncated = False
            restored = False
            if store is not None:
                arrays = store.salvage_arrays(name)
                payload = None if arrays is None else store.salvage_json(name)
                if arrays is not None and payload is not None:
                    try:
                        restored_graph = RRHypergraph.from_arrays(arrays)
                        restored_warm = Configuration(
                            np.asarray(arrays["discounts"], dtype=np.float64)
                        )
                        record = dict(payload)
                        value = float(record["value"])
                    except (CheckpointError, KeyError, TypeError, ValueError):
                        # Verified bytes but semantically unusable (e.g. a
                        # snapshot from an older layout): quarantine the
                        # pair and recompute the instalment.
                        store.quarantine(name)
                    else:
                        hypergraph = restored_graph
                        warm = restored_warm
                        objective = None  # rebuilt over the restored graph
                        checkpoint_hits += 1
                        metrics.inc("adaptive.checkpoint_hits_total")
                        restored = True
                elif arrays is not None or store.has(name):
                    # Half a snapshot (the other half missing or already
                    # quarantined by salvage): drop the stray half too, so
                    # the recompute below rewrites a coherent pair.
                    store.quarantine(name)
            if not restored:
                built = 0 if hypergraph is None else hypergraph.num_hyperedges
                salvaged_fault: Optional[WorkerPoolError] = None
                try:
                    new_sizes, new_members = sample_rr_csr(
                        problem.model,
                        target - built,
                        seed=root,
                        deadline=budget_clock,
                        workers=workers,
                        chunk_size=chunk_size,
                        start_at=built,
                        supervision=supervision,
                        storage=storage,
                        slab_dir=slab_dir,
                        backing=backing,
                        spill_dir=spill_dir,
                    )
                except WorkerPoolError as exc:
                    if hypergraph is None or hypergraph.num_hyperedges == 0:
                        raise  # nothing completed yet: nothing to salvage
                    salvaged_fault = exc
                else:
                    sampled += int(new_sizes.size)
                    if hypergraph is None:
                        hypergraph = RRHypergraph.from_csr(
                            n, csr_offsets(new_sizes), new_members
                        )
                    else:
                        hypergraph = hypergraph.extend_csr(new_sizes, new_members)
                        if objective is not None:
                            objective.extend(hypergraph)
                if salvaged_fault is not None:
                    stop_reason = "fault"
                    metrics.inc("adaptive.salvaged_total")
                    span.event(
                        "fault_salvage",
                        theta=int(hypergraph.num_hyperedges),
                        error=type(salvaged_fault).__name__,
                    )
                    break
                truncated = hypergraph.num_hyperedges < target
                # Re-derive the UD warm start on every instalment: the
                # support picked at a small theta is noisy, and CD only
                # redistributes budget *within* the warm support — the
                # incumbent must compete with a fresh UD on the current
                # (tighter) estimator or early support mistakes stick.
                ud = unified_discount(
                    problem,
                    hypergraph,
                    discount_grid=resolved["discount_grid"],
                    step=resolved["step"],
                    deadline=budget_clock,
                    constraints=constraints,
                )
                if objective is None:
                    objective = HypergraphObjective(
                        hypergraph,
                        problem.population.probabilities(ud.configuration.discounts),
                    )
                if warm is None:
                    warm = ud.configuration
                else:
                    objective.set_probabilities(
                        problem.population.probabilities(ud.configuration.discounts)
                    )
                    ud_value = objective.value()
                    objective.set_probabilities(
                        problem.population.probabilities(warm.discounts)
                    )
                    if ud_value > objective.value():
                        warm = ud.configuration
                cd_result = entry.descend(
                    problem, hypergraph, warm, run_options, objective=objective
                )
                warm = cd_result.configuration
                value = float(cd_result.objective_value)
                record = {"theta": int(hypergraph.num_hyperedges), "value": value}
                effort = entry.extras(cd_result)
                record.update((k, int(effort[k])) for k in _STAGE_EFFORT if k in effort)
                if store is not None and not truncated:
                    store.save_arrays(
                        name, discounts=warm.discounts, **hypergraph.to_arrays()
                    )

            theta = int(hypergraph.num_hyperedges)
            eps_bound = relative_error_bound(value, theta, n, delta=delta)
            record["epsilon_bound"] = eps_bound
            if store is not None and not truncated and not store.has(name):
                store.save_json(name, record)
            stages.append(record)
            values.append(value)
            span.event(
                "stage",
                theta=theta,
                value=value,
                epsilon_bound=eps_bound,
                truncated=truncated,
            )
            metrics.inc("adaptive.stages_total")

            if eps_bound <= epsilon:
                stop_reason = "certified"
                break
            if _stable(values, stability_window, stability_rtol):
                stop_reason = "stable"
                break
            if truncated or budget_clock.expired():
                # A truncation without deadline expiry means the sampler
                # quarantined a poison chunk (partial-result contract).
                stop_reason = "deadline" if budget_clock.expired() else "fault"
                break
        else:
            stop_reason = "max_theta"

        final_theta = int(hypergraph.num_hyperedges)
        final_eps = float(stages[-1]["epsilon_bound"])
        span.set(
            final_theta=final_theta,
            stop_reason=stop_reason,
            stages=len(stages),
            epsilon_bound=final_eps,
            checkpoint_hits=checkpoint_hits,
        )
        metrics.inc("adaptive.runs_total")
        metrics.inc(f"adaptive.stop_{stop_reason}_total")
        metrics.inc("adaptive.sampled_hyperedges_total", sampled)
        metrics.set_gauge("adaptive.final_theta", final_theta)
        metrics.set_gauge("adaptive.epsilon_bound", final_eps)

    return AdaptiveResult(
        hypergraph=hypergraph,
        configuration=warm,
        objective_value=values[-1],
        theta=final_theta,
        epsilon_bound=final_eps,
        stop_reason=stop_reason,
        stages=stages,
        cd_result=cd_result,
        checkpoint_hits=checkpoint_hits,
    )
