"""Nested span tracing with deterministic content and JSONL export.

A :class:`Tracer` records a tree of *spans* — one per pipeline phase
(``rrset.sample``, ``solver.cd``, ...) — each carrying:

* **attrs** — deterministic content set at creation or via
  :meth:`Span.set`.  For a fixed seed these are bit-identical at every
  worker count, so two traces of the same run can be compared with
  :meth:`Tracer.canonical` (the engine's determinism guarantee extended
  to its telemetry).
* **events** — an ordered list of point annotations (one per chunk,
  grid point, or CD round).  The parallel pool collects chunk results in
  chunk order regardless of completion order, and span events for those
  chunks are emitted from that ordered list, so event order is
  deterministic too.
* **runtime** — execution details that legitimately vary between runs
  (wall-clock timings, resolved worker counts, host facts), set via
  :meth:`Span.note`.  Excluded from :meth:`Span.canonical`.

The default tracer everywhere is :data:`NULL_TRACER`, whose spans are a
shared no-op singleton; the instrumented hot paths cost a handful of
attribute lookups per *chunk* (never per sample), which the overhead
guard in ``tests/obs/test_overhead.py`` pins below 2%.

Export is JSON Lines: one object per span with ``id``/``parent`` links.
Pass ``sink=`` to stream each finished root tree straight to disk (used
by the ``REPRO_TRACE`` environment hook so a whole test-suite run never
accumulates spans in memory).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Union

import numpy as np

from repro.exceptions import ObservabilityError

__all__ = ["Span", "Tracer", "NullSpan", "NullTracer", "NULL_SPAN", "NULL_TRACER"]


def _clean(value: Any) -> Any:
    """Convert numpy scalars/arrays and tuples to JSON-native types."""
    # numpy scalars first: np.float64 subclasses float but is not
    # JSON-native, and json.dumps would serialize np.bool_ incorrectly.
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    return repr(value)


class Span:
    """One node of a trace tree.  Created via :meth:`Tracer.span`."""

    __slots__ = ("name", "attrs", "events", "runtime", "children", "error", "start", "end")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = str(name)
        self.attrs = attrs
        self.events: List[Dict[str, Any]] = []
        self.runtime: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.error: Optional[str] = None
        self.start: float = 0.0
        self.end: float = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach deterministic attributes (results, counts, flags)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> "Span":
        """Append an ordered point annotation (e.g. one per chunk)."""
        self.events.append({"name": str(name), "attrs": attrs})
        return self

    def note(self, **runtime: Any) -> "Span":
        """Attach execution details (timings, worker counts) that may
        differ between otherwise-identical runs; excluded from
        :meth:`canonical`."""
        self.runtime.update(runtime)
        return self

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def seconds(self, *names: str) -> float:
        """Summed duration of the outermost subtree spans named ``names``."""
        if self.name in names:
            return self.duration
        return sum((child.seconds(*names) for child in self.children), 0.0)

    def canonical(self) -> Dict[str, Any]:
        """Deterministic view: name, attrs, events, error, children —
        no timings, no runtime notes."""
        node: Dict[str, Any] = {
            "name": self.name,
            "attrs": _clean(self.attrs),
            "events": [
                {"name": e["name"], "attrs": _clean(e["attrs"])} for e in self.events
            ],
            "children": [child.canonical() for child in self.children],
        }
        if self.error is not None:
            node["error"] = self.error
        return node


class _SpanHandle:
    """Context manager binding one span to a tracer's active stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._start(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.error = exc_type.__name__
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Collects nested spans on a monotonic clock.

    >>> tracer = Tracer()
    >>> with tracer.span("outer", seed=7) as outer:
    ...     with tracer.span("inner") as inner:
    ...         _ = inner.event("chunk", index=0, produced=4)
    ...     _ = outer.set(done=True)
    >>> [root["name"] for root in tracer.canonical()]
    ['outer']
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        sink: Optional[Union[str, TextIO]] = None,
    ):
        self._clock = clock
        self._stack: List[Span] = []
        self._next_id = 0
        self.roots: List[Span] = []
        self._sink_path: Optional[str] = None
        self._sink_handle: Optional[TextIO] = None
        if isinstance(sink, str):
            self._sink_path = sink
        elif sink is not None:
            self._sink_handle = sink

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        return _SpanHandle(self, Span(name, attrs))

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    # -- lifecycle ---------------------------------------------------------

    def _start(self, span: Span) -> None:
        span.start = self._clock()
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order (open: "
                f"{[s.name for s in self._stack]})"
            )
        span.end = self._clock()
        self._stack.pop()
        if not self._stack:
            if self._sink_path is not None or self._sink_handle is not None:
                self._write_root(span)
            else:
                self.roots.append(span)

    # -- export ------------------------------------------------------------

    def _span_line(self, span: Span, span_id: int, parent: Optional[int]) -> str:
        record = {
            "kind": "span",
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "attrs": _clean(span.attrs),
            "events": [
                {"name": e["name"], "attrs": _clean(e["attrs"])} for e in span.events
            ],
            "error": span.error,
            "start_s": round(span.start, 6),
            "duration_s": round(span.duration, 6),
            "runtime": _clean(span.runtime),
        }
        return json.dumps(record, sort_keys=True)

    def _emit_tree(self, span: Span, parent: Optional[int], out: List[str]) -> None:
        span_id = self._next_id
        self._next_id += 1
        out.append(self._span_line(span, span_id, parent))
        for child in span.children:
            self._emit_tree(child, span_id, out)

    def _write_root(self, span: Span) -> None:
        if self._sink_handle is None:
            self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
        lines: List[str] = []
        self._emit_tree(span, None, lines)
        self._sink_handle.write("\n".join(lines) + "\n")
        self._sink_handle.flush()

    def iter_jsonl(self) -> Iterator[str]:
        """JSONL lines (depth-first, ids assigned in emit order) for the
        accumulated root spans."""
        start_id = self._next_id
        try:
            for root in self.roots:
                lines: List[str] = []
                self._emit_tree(root, None, lines)
                yield from lines
        finally:
            self._next_id = start_id

    def export_jsonl(self, path: str) -> None:
        """Write every accumulated root tree to ``path`` as JSON Lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.iter_jsonl():
                handle.write(line + "\n")

    def canonical(self) -> List[Dict[str, Any]]:
        """Deterministic forest for cross-run/cross-worker comparison."""
        return [root.canonical() for root in self.roots]

    def close(self) -> None:
        """Flush and close a streaming sink (no-op otherwise)."""
        if self._sink_handle is not None:
            try:
                self._sink_handle.close()
            finally:
                self._sink_handle = None


class NullSpan:
    """Shared do-nothing span: every method is a constant-time no-op."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> "NullSpan":
        return self

    def note(self, **runtime: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class NullTracer:
    """Default tracer: hands out :data:`NULL_SPAN` and records nothing."""

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    @property
    def current(self) -> None:
        return None

    @property
    def roots(self) -> List[Span]:
        return []

    def canonical(self) -> List[Dict[str, Any]]:
        return []

    def iter_jsonl(self) -> Iterator[str]:
        return iter(())

    def export_jsonl(self, path: str) -> None:
        open(path, "w", encoding="utf-8").close()

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()
