"""Ambient observability context: which tracer/metrics the pipeline uses.

Instrumented functions never take ``tracer=``/``metrics=`` parameters —
they call :func:`get_tracer` / :func:`get_metrics`, which resolve to
no-op singletons unless a caller installed real collectors::

    tracer, registry = Tracer(), MetricsRegistry()
    with observe(tracer=tracer, metrics=registry):
        solve(problem, "cd", num_hyperedges=2000, seed=7)
    tracer.export_jsonl("trace.jsonl")

Contexts nest, and on exit an overridden *metrics* registry is merged
into whatever was installed before it (counters add, histograms fold via
Chan's update), so scoped registries — ``solve`` keeps one per call to
build its ``extras["metrics"]`` snapshot — still accumulate into the
session totals.  Pass ``merge_up=False`` to suppress that.

The context is deliberately process-local and not inherited by pool
workers: chunk tasks are uninstrumented by design, and every span event
and counter is recorded coordinator-side from chunk-ordered results, so
traces and metric values are bit-identical at any worker count.

Environment hooks (read once, at first import):

* ``REPRO_TRACE=FILE`` — install a base tracer that streams every root
  span tree to ``FILE`` as JSONL (appending; flushed per tree).  Lets CI
  trace a whole test-suite run without touching the suite.
* ``REPRO_METRICS_OUT=FILE`` — install a base registry and dump its
  snapshot to ``FILE`` at interpreter exit.

Both hooks export from the bootstrapping process only (guarded by PID),
so forked pool workers never clobber the output files.
"""

from __future__ import annotations

import atexit
import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ObsContext",
    "get_context",
    "get_tracer",
    "get_metrics",
    "observe",
    "recording",
    "TRACE_ENV_VAR",
    "METRICS_ENV_VAR",
]

TRACE_ENV_VAR = "REPRO_TRACE"
METRICS_ENV_VAR = "REPRO_METRICS_OUT"


class ObsContext:
    """An immutable (tracer, metrics) pair."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer, metrics):
        self.tracer = tracer
        self.metrics = metrics


_CURRENT = ObsContext(NULL_TRACER, NULL_METRICS)


def get_context() -> ObsContext:
    """The active observability context."""
    return _CURRENT


def get_tracer():
    """The active tracer (:data:`~repro.obs.tracer.NULL_TRACER` unless
    a caller installed one via :func:`observe`)."""
    return _CURRENT.tracer


def get_metrics():
    """The active metrics registry (no-op singleton by default)."""
    return _CURRENT.metrics


@contextmanager
def observe(
    tracer=None,
    metrics: Optional[MetricsRegistry] = None,
    merge_up: bool = True,
) -> Iterator[ObsContext]:
    """Install collectors for the duration of a ``with`` block.

    Omitted arguments inherit from the enclosing context.  On exit, an
    overridden ``metrics`` registry is merged into the previous one
    unless ``merge_up=False``.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = ObsContext(
        previous.tracer if tracer is None else tracer,
        previous.metrics if metrics is None else metrics,
    )
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
        if metrics is not None and merge_up:
            previous.metrics.merge(metrics)


@contextmanager
def recording() -> Iterator[Tracer]:
    """Yield a tracer that records spans for the duration of a block.

    Spans are the one clock: code times a block by a span it opens on the
    yielded tracer.  That is the ambient tracer when it records, so no span
    lands twice; under :data:`NULL_TRACER`, a private one for the block.
    """
    if not isinstance(_CURRENT.tracer, NullTracer):
        yield _CURRENT.tracer
        return
    with observe(tracer=Tracer()) as context:
        yield context.tracer


_BOOTSTRAPPED = False


def _bootstrap_from_env() -> None:
    """Install base collectors requested via environment variables."""
    global _BOOTSTRAPPED, _CURRENT
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True
    trace_path = os.environ.get(TRACE_ENV_VAR)
    metrics_path = os.environ.get(METRICS_ENV_VAR)
    if not trace_path and not metrics_path:
        return
    owner_pid = os.getpid()
    tracer = Tracer(sink=trace_path) if trace_path else NULL_TRACER
    metrics = MetricsRegistry() if metrics_path else NULL_METRICS
    _CURRENT = ObsContext(tracer, metrics)

    def _flush() -> None:
        # Forked pool workers inherit the hook; only the process that
        # installed it may write the files.
        if os.getpid() != owner_pid:
            return
        if not isinstance(tracer, NullTracer):
            tracer.close()
        if metrics_path:
            metrics.export_json(metrics_path)

    atexit.register(_flush)


_bootstrap_from_env()
