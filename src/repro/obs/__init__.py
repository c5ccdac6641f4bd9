"""Observability layer: tracing spans + metrics registry.

Deterministic telemetry for the CIM pipeline — span *content* and metric
*values* are bit-identical across worker counts for a fixed seed, just
like the results they describe.  See ``docs/observability.md`` for the
span and metric taxonomy and usage recipes.
"""

from repro.obs.context import (
    METRICS_ENV_VAR,
    TRACE_ENV_VAR,
    ObsContext,
    get_context,
    get_metrics,
    get_tracer,
    observe,
    recording,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullSpan, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullSpan",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "ObsContext",
    "get_context",
    "get_tracer",
    "get_metrics",
    "observe",
    "recording",
    "TRACE_ENV_VAR",
    "METRICS_ENV_VAR",
]
