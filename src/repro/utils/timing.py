"""Lightweight timing helpers for the experiment harness.

The paper's Figure 6 decomposes solver running time into "hypergraph build"
and "everything else"; :class:`TimingBreakdown` records named phases so the
benchmark harness can report the same decomposition.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = ["TimingBreakdown"]


@dataclass
class TimingBreakdown:
    """Accumulates named timing phases for a solver run."""

    phases: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager adding the block's wall time to phase ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - start

    @property
    def total(self) -> float:
        """Sum of all recorded phases, in seconds."""
        return sum(self.phases.values())

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        """Return a new breakdown combining this one with ``other``."""
        merged = TimingBreakdown(dict(self.phases))
        for name, seconds in other.phases.items():
            merged.phases[name] = merged.phases.get(name, 0.0) + seconds
        return merged

    def as_millis(self) -> Dict[str, float]:
        """Phases converted to milliseconds (the unit used in Figure 6)."""
        return {name: seconds * 1000.0 for name, seconds in self.phases.items()}
