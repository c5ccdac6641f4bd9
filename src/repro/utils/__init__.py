"""Shared utilities: RNG plumbing, timing, streaming statistics."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.stats import RunningStat, mean_confidence_interval
from repro.utils.timing import TimingBreakdown

__all__ = [
    "as_generator",
    "spawn_generators",
    "RunningStat",
    "mean_confidence_interval",
    "TimingBreakdown",
]
