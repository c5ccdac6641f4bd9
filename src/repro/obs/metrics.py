"""Counters, gauges and streaming histograms for the pipeline.

A :class:`MetricsRegistry` holds three instrument kinds, all keyed by a
flat dotted name (taxonomy in ``docs/observability.md``):

* :class:`Counter` — monotonically increasing integer totals
  (samples drawn, chunks dispatched, deadline polls, retry attempts,
  checkpoint hits).
* :class:`Gauge` — last-written scalar (hyper-edge count of the most
  recent build).
* :class:`Histogram` — a streaming distribution built on
  :class:`repro.utils.stats.RunningStat` (Welford/Chan) plus min/max,
  used for chunk sizes and per-phase sample counts.

Everything recorded is *content*, never wall-clock time, so for a fixed
seed a registry snapshot is bit-identical at every worker count —
timings belong to spans (:mod:`repro.obs.tracer`).

Registries nest: ``solve`` records into a fresh registry so its
``extras["metrics"]`` snapshot is independent of history, then
:meth:`MetricsRegistry.merge` folds the local registry into whatever the
caller had installed (see :func:`repro.obs.context.observe`).  The
default registry is :data:`NULL_METRICS`, whose instruments are shared
no-op singletons.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Union

from repro.exceptions import ObservabilityError
from repro.utils.stats import RunningStat

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]

Number = Union[int, float]


class Counter:
    """A monotonically non-decreasing integer total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        amount = int(amount)
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ObservabilityError(f"gauge {self.name!r} must be finite, got {value}")
        self.value = value


class Histogram:
    """Streaming distribution: Welford mean/variance plus min/max."""

    __slots__ = ("name", "stat", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.stat = RunningStat()
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        self.stat.add(value)  # rejects non-finite values
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def count(self) -> int:
        return self.stat.count

    def merge_from(self, other: "Histogram") -> None:
        self.stat.merge(other.stat)
        for bound, pick in (("min", min), ("max", max)):
            theirs = getattr(other, bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(self, bound, theirs if ours is None else pick(ours, theirs))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary with a fixed key set.

        ``stddev`` is reported as 0.0 below two observations (where the
        sample deviation is undefined) so snapshots stay NaN-free and
        comparable with ``==``.
        """
        count = self.stat.count
        return {
            "count": count,
            "mean": self.stat.mean if count else None,
            "stddev": self.stat.stddev if count >= 2 else (0.0 if count else None),
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    >>> registry = MetricsRegistry()
    >>> registry.inc("rrset.sampled_total", 128)
    >>> registry.observe("rrset.chunk_items", 64.0)
    >>> registry.counter("rrset.sampled_total").value
    128
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------

    def _claim(self, name: str, table: Dict[str, Any], kind: str):
        name = str(name)
        for other_kind, other in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other is not table and name in other:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot reuse it as a {kind}"
                )
        return name

    def counter(self, name: str) -> Counter:
        name = self._claim(name, self._counters, "counter")
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        name = self._claim(name, self._gauges, "gauge")
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        name = self._claim(name, self._histograms, "histogram")
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- one-shot conveniences (the instrumented call sites use these) -----

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        self.histogram(name).observe(value)

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry: counters add, gauges take
        the other's latest value, histograms merge via Chan's update."""
        if isinstance(other, NullMetrics):
            return
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            if gauge.value is not None:
                self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge_from(histogram)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe, deterministically ordered dump of every instrument."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: self._histograms[n].snapshot() for n in sorted(self._histograms)
            },
        }

    def export_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: Number) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: Number) -> None:
        return None


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullMetrics(MetricsRegistry):
    """Default registry: constant-time no-ops, records nothing."""

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def set_gauge(self, name: str, value: Number) -> None:
        return None

    def observe(self, name: str, value: Number) -> None:
        return None

    def merge(self, other: MetricsRegistry) -> None:
        return None


NULL_METRICS = NullMetrics()
