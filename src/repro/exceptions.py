"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish the failure categories below.
"""

from __future__ import annotations

import copyreg

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "CurveError",
    "ConfigurationError",
    "BudgetError",
    "SolverError",
    "ConstraintError",
    "ConvergenceWarning",
    "EstimationError",
    "StorageError",
    "DeadlineExceeded",
    "CheckpointError",
    "PartialResultWarning",
    "ObservabilityError",
    "WorkerPoolError",
    "PoisonChunkError",
    "PoolBrokenError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""

    def __reduce__(self):
        # Restore ``args`` and the attributes without calling ``__init__``
        # again: a subclass whose constructor takes other arguments than
        # its ``args`` would otherwise fail to unpickle, and an error
        # raised in a pool worker would reach the coordinator as a broken
        # pool.
        return (copyreg.__newobj__, (type(self),), {**vars(self), "args": self.args})


class GraphError(ReproError):
    """Raised for structurally invalid graphs or malformed graph input."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when a node id is outside the graph's ``[0, n)`` range."""

    def __init__(self, node: int, num_nodes: int) -> None:
        super().__init__(f"node {node} not in graph with {num_nodes} nodes")
        self.node = node
        self.num_nodes = num_nodes


class CurveError(ReproError, ValueError):
    """Raised when a seed-probability curve violates the paper's axioms.

    A valid curve must satisfy ``p(0) == 0``, ``p(1) == 1``, be monotone
    non-decreasing and map ``[0, 1]`` into ``[0, 1]`` (Section 3 of the
    paper).
    """


class ConfigurationError(ReproError, ValueError):
    """Raised when a discount configuration is malformed.

    Examples: wrong length, discounts outside ``[0, 1]``, NaNs.
    """


class BudgetError(ConfigurationError):
    """Raised when a configuration or problem violates the budget constraint."""

    def __init__(self, spent: float, budget: float) -> None:
        super().__init__(f"configuration spends {spent:.6g} > budget {budget:.6g}")
        self.spent = spent
        self.budget = budget


class SolverError(ReproError, RuntimeError):
    """Raised when a solver cannot produce a feasible solution."""


class ConstraintError(SolverError):
    """Raised for malformed or unsatisfiable solver constraints.

    Examples: per-user caps outside ``[0, 1]``, an access set naming
    nodes outside the graph, a returned configuration that violates an
    active constraint.  Subclasses :class:`SolverError` so existing
    ``except SolverError`` call sites keep working.
    """


class ConvergenceWarning(UserWarning):
    """Warned when an iterative solver stops before reaching its tolerance."""


class EstimationError(ReproError, ValueError):
    """Raised for invalid estimation parameters (epsilon, delta, samples)."""


class StorageError(ReproError, ValueError):
    """Raised for hyper-graph storage failures: dtype-policy overflow
    (a member stream too wide for any supported width) or a torn /
    incomplete slab file that cannot be assembled.
    """


class DeadlineExceeded(ReproError, TimeoutError):
    """Raised when a run budget expires and no feasible partial result exists.

    Phases that *can* degrade gracefully (sampling, coordinate descent)
    never raise this — they return their best-so-far feasible result and
    tag it partial; only work that has produced nothing usable raises.
    """


class CheckpointError(ReproError, OSError):
    """Raised for unreadable, corrupt, or mismatched checkpoint data.

    ``path`` names the offending artifact file when the failure can be
    pinned to one (a truncated NPZ, a torn JSON document, a sidecar
    digest mismatch), so a multi-cell resume can report *which* cell is
    damaged — and quarantine exactly that file.
    """

    def __init__(self, message: str, path: "object" = None) -> None:
        super().__init__(message)
        self.path = None if path is None else str(path)


class PartialResultWarning(UserWarning):
    """Warned when a solver returns a truncated (deadline-expired) result."""


class WorkerPoolError(ReproError, RuntimeError):
    """Base class for unrecoverable failures of the supervised worker pool.

    The supervision layer (:mod:`repro.parallel.supervisor`) absorbs
    worker crashes, stragglers and transient chunk exceptions by
    restarting the pool and re-dispatching lost chunks; only when its
    bounded budgets are exhausted does one of the subclasses below
    escape.
    """


class PoisonChunkError(WorkerPoolError):
    """A chunk kept failing past its retry budget and could not be salvaged.

    Carries enough context to reproduce the failure deterministically:
    the chunk's index in the fixed plan (its seed stream is child
    ``chunk_index`` of the root seed, so re-running it is bit-identical)
    and one summary line per failed attempt.
    """

    def __init__(
        self,
        chunk_index: int,
        attempts: int,
        causes: "tuple[str, ...]" = (),
    ) -> None:
        detail = f"; attempts: {'; '.join(causes)}" if causes else ""
        super().__init__(
            f"chunk {chunk_index} failed {attempts} time(s) and exhausted its "
            f"retry budget{detail}"
        )
        self.chunk_index = int(chunk_index)
        self.attempts = int(attempts)
        self.causes = tuple(causes)


class PoolBrokenError(WorkerPoolError):
    """The process pool kept breaking past its restart budget.

    Raised only when serial in-process fallback is disabled
    (``max_pool_restarts`` exhausted with ``serial_fallback=False``);
    with the default policy the supervisor degrades to inline execution
    instead.
    """

    def __init__(self, restarts: int) -> None:
        super().__init__(
            f"process pool broke {restarts} time(s), exceeding the restart budget"
        )
        self.restarts = int(restarts)


class ObservabilityError(ReproError):
    """Raised for misuse of the tracing/metrics layer.

    Examples: registering one metric name as two different instrument
    kinds, or closing spans out of nesting order.  Instrumented pipeline
    code never triggers these; they guard direct API use.
    """
