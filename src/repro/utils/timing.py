"""Figure 6's running-time decomposition, read from spans.

The paper's Figure 6 splits each solver's running time into "hypergraph
build" and "everything else"; :func:`span_timings` reads that split off
the span a call opened (spans are the one clock, see :mod:`repro.obs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["BUILD_SPANS", "TimingBreakdown", "span_timings"]

#: The hyper-graph build, one-shot or in the adaptive driver's instalments.
BUILD_SPANS = ("hypergraph.build", "rrset.sample", "hypergraph.extend", "hypergraph.index")


@dataclass
class TimingBreakdown:
    """Named timing phases of one solver run, in seconds."""

    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Sum of all recorded phases, in seconds."""
        return sum(self.phases.values())

    def as_millis(self) -> Dict[str, float]:
        """Phases converted to milliseconds (the unit used in Figure 6)."""
        return {name: seconds * 1000.0 for name, seconds in self.phases.items()}


def span_timings(span, phase: str, sampled: bool) -> TimingBreakdown:
    """Split a closed call span into ``hypergraph`` (its :data:`BUILD_SPANS`,
    when the call ``sampled``) and ``phase``, the rest of its duration."""
    build = span.seconds(*BUILD_SPANS)
    phases = {"hypergraph": build} if sampled else {}
    phases[phase] = span.duration - build
    return TimingBreakdown(phases)
