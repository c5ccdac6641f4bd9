"""Deterministic parallel execution layer.

``repro.parallel`` turns the library's sampling loops — RR-set polling and
Monte-Carlo spread estimation — into pre-partitioned chunk plans executed
either inline or on a process pool, with the guarantee that the worker
count never changes results: same seed, same numbers, whether
``workers=1`` or ``workers=8``.  See :mod:`repro.parallel.pool` for the
mechanism and ``docs/performance.md`` for the user-facing story.

Pooled execution is supervised (:mod:`repro.parallel.supervisor`):
worker crashes, hung chunks and transient chunk failures are recovered
by restarting the pool and re-dispatching only the lost chunks — which
is bit-identical by construction, because each chunk's seed stream is
fixed at planning time.  :class:`SupervisionPolicy` bounds the recovery
budgets; see ``docs/resilience.md`` for the failure-mode table.

Consumers: :func:`repro.rrset.sampler.sample_rr_csr`,
:func:`repro.diffusion.montecarlo.estimate_spread`,
:func:`repro.diffusion.montecarlo.estimate_configuration_spread`, and
everything layered on top of them
(:meth:`RRHypergraph.build <repro.rrset.hypergraph.RRHypergraph.build>`,
:meth:`CIMProblem.evaluate <repro.core.problem.CIMProblem.evaluate>`,
:func:`~repro.experiments.runner.run_methods`, the CLI ``--workers``
flag).
"""

from repro.parallel.pool import (
    DEFAULT_CHUNK_SIZE,
    MAX_CHUNKS,
    WORKERS_ENV_VAR,
    partition_chunks,
    resolve_workers,
    run_chunks,
)
from repro.parallel.supervisor import (
    SupervisionLike,
    SupervisionPolicy,
    SupervisionReport,
    resolve_supervision,
    run_supervised,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "MAX_CHUNKS",
    "WORKERS_ENV_VAR",
    "partition_chunks",
    "resolve_workers",
    "run_chunks",
    "SupervisionLike",
    "SupervisionPolicy",
    "SupervisionReport",
    "resolve_supervision",
    "run_supervised",
]
