"""Monte-Carlo estimation of influence spread.

Two estimation targets:

* ``I(S)`` — expected cascade size of a *fixed* seed set
  (:func:`estimate_spread`), and
* ``UI(C)`` — expected cascade size under a *probabilistic* seed set where
  each node ``u`` joins independently with probability ``q_u = p_u(c_u)``
  (:func:`estimate_configuration_spread`, Eq. 1–2 of the paper).

Both return a :class:`SpreadEstimate` carrying the sample mean, standard
deviation, and a normal-approximation confidence interval — the paper's
Figure 3 reports exactly these (mean ± one standard deviation over 20,000
simulations).

Simulations are i.i.d., so both estimators run through the deterministic
parallel engine (:mod:`repro.parallel`): samples are pre-partitioned into
fixed chunks, each chunk draws from its own child seed stream and returns
a :class:`~repro.utils.stats.RunningStat`, and the coordinator Chan-merges
the per-chunk statistics in chunk order.  The reported estimate is
therefore bit-identical for any ``workers`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.exceptions import EstimationError
from repro.obs.context import get_metrics, get_tracer
from repro.parallel.pool import partition_chunks, run_chunks
from repro.runtime.deadline import Deadline, DeadlineLike, as_deadline, deadline_iter
from repro.utils.rng import SeedLike, spawn_sequences
from repro.utils.stats import RunningStat

__all__ = [
    "SpreadEstimate",
    "estimate_spread",
    "estimate_configuration_spread",
    "sample_seed_set",
]

#: Default Monte-Carlo samples per work chunk.  Fixed — the chunk layout is
#: part of the determinism contract (see ``docs/performance.md``).
DEFAULT_SAMPLE_CHUNK = 512


@dataclass(frozen=True)
class SpreadEstimate:
    """Result of a Monte-Carlo spread estimation.

    With a single sample the standard deviation is ``nan`` (dispersion is
    unknowable, and the zero formerly reported here produced misleading
    zero-width confidence intervals); with zero samples ``stderr`` is
    ``inf``.
    """

    mean: float
    stddev: float
    num_samples: int

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.num_samples == 0:
            return float("inf")
        return self.stddev / math.sqrt(self.num_samples)

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation CI for the mean."""
        half = z * self.stderr
        return (self.mean - half, self.mean + half)

    def one_sigma_band(self) -> Tuple[float, float]:
        """``mean ± stddev`` — the band plotted in the paper's Figure 3."""
        return (self.mean - self.stddev, self.mean + self.stddev)


def _chunk_deadline(remaining: Optional[float]) -> Deadline:
    if remaining is None:
        return Deadline.never()
    return Deadline.after(float(remaining))


def _spread_chunk_task(
    payload: tuple,
    count: int,
    seed_seq: np.random.SeedSequence,
    remaining: Optional[float],
) -> RunningStat:
    """One chunk of ``I(S)`` cascades (runs inline or in a worker)."""
    model, seeds = payload
    rng = np.random.default_rng(seed_seq)
    stat = RunningStat()
    for _ in deadline_iter(count, _chunk_deadline(remaining)):
        stat.add(float(model.sample_cascade_size(seeds, rng)))
    return stat


def _configuration_chunk_task(
    payload: tuple,
    count: int,
    seed_seq: np.random.SeedSequence,
    remaining: Optional[float],
) -> RunningStat:
    """One chunk of ``UI(C)`` cascades (seed-set draw + cascade each).

    ``estimate_configuration_spread`` validated the probabilities once,
    so each draw skips :func:`sample_seed_set`'s check.
    """
    model, seed_probabilities = payload
    rng = np.random.default_rng(seed_seq)
    stat = RunningStat()
    for _ in deadline_iter(count, _chunk_deadline(remaining)):
        seeds = _draw_seed_set(seed_probabilities, rng)
        if seeds.size == 0:
            stat.add(0.0)
        else:
            stat.add(float(model.sample_cascade_size(seeds, rng)))
    return stat


def _merged_estimate(
    task,
    payload: tuple,
    num_samples: int,
    seed: SeedLike,
    workers: Optional[int],
    chunk_size: Optional[int],
    deadline: DeadlineLike,
    what: str,
) -> SpreadEstimate:
    """Plan chunks, run them, Chan-merge the per-chunk stats in order."""
    budget = as_deadline(deadline)
    sizes = partition_chunks(num_samples, chunk_size or DEFAULT_SAMPLE_CHUNK)
    sequences = spawn_sequences(seed, len(sizes))
    chunk_args = list(zip(sizes, sequences))
    kind = "UI(C)" if task is _configuration_chunk_task else "I(S)"
    metrics = get_metrics()
    with get_tracer().span(
        "mc.estimate", kind=kind, requested=num_samples, chunks=len(sizes)
    ) as span:
        stats, expired = run_chunks(
            task,
            payload,
            chunk_args,
            workers=workers,
            deadline=budget,
            inject_site="montecarlo.chunk",
        )
        total = RunningStat()
        for index, stat in enumerate(stats):
            total.merge(stat)
            span.event("chunk", index=index, planned=sizes[index], produced=stat.count)
            metrics.observe("mc.chunk_items", stat.count)
        span.set(produced=total.count, truncated=expired)
        metrics.inc("mc.estimates_total")
        metrics.inc("mc.requested_total", num_samples)
        metrics.inc("mc.samples_total", total.count)
        if expired:
            metrics.inc("mc.truncated_total")
        if total.count == 0:
            budget.check(what)
    return SpreadEstimate(
        mean=total.mean, stddev=total.stddev, num_samples=total.count
    )


def estimate_spread(
    model: DiffusionModel,
    seeds: Sequence[int],
    num_samples: int = 1000,
    seed: SeedLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    deadline: DeadlineLike = None,
) -> SpreadEstimate:
    """Estimate ``I(S)`` by ``num_samples`` forward cascades.

    ``workers`` parallelizes the simulations (``0`` = one per CPU; results
    are identical for every worker count).  With a ``deadline`` the
    estimate may cover fewer samples — ``num_samples`` on the returned
    estimate reports the count actually simulated; expiring before any
    sample raises :class:`~repro.exceptions.DeadlineExceeded`.
    """
    if num_samples <= 0:
        raise EstimationError(f"num_samples must be positive, got {num_samples}")
    return _merged_estimate(
        _spread_chunk_task,
        (model, model._validate_seeds(seeds)),
        num_samples,
        seed,
        workers,
        chunk_size,
        deadline,
        "estimating I(S)",
    )


def sample_seed_set(
    seed_probabilities: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one random seed set ``S ~ Pr[S; V, C]`` (Eq. 1).

    Because users become seeds independently, sampling reduces to one
    Bernoulli draw per node with probability ``q_u = p_u(c_u)``.
    """
    seed_probabilities = np.asarray(seed_probabilities, dtype=np.float64)
    if seed_probabilities.ndim != 1:
        raise EstimationError("seed_probabilities must be a 1-D vector")
    _check_unit_interval(seed_probabilities)
    return _draw_seed_set(seed_probabilities, rng)


def _check_unit_interval(seed_probabilities: np.ndarray) -> None:
    # Written so that NaN fails too: it compares False both ways.
    if not np.all((seed_probabilities >= 0.0) & (seed_probabilities <= 1.0)):
        raise EstimationError("seed probabilities must lie in [0, 1]")


def _draw_seed_set(
    seed_probabilities: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    return np.flatnonzero(rng.random(seed_probabilities.size) < seed_probabilities)


def estimate_configuration_spread(
    model: DiffusionModel,
    seed_probabilities: np.ndarray,
    num_samples: int = 1000,
    seed: SeedLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    deadline: DeadlineLike = None,
) -> SpreadEstimate:
    """Estimate ``UI(C)`` (Eq. 2) by sampling seed sets then cascades.

    Each iteration draws ``S ~ Pr[S; V, C]`` and one cascade from ``S``; the
    resulting cascade sizes are i.i.d. unbiased samples of ``UI(C)``.  The
    reported standard deviation therefore includes *both* sources of
    randomness — seed-set uncertainty and cascade uncertainty — matching the
    paper's note that CIM "introduces extra uncertainty in the seed set".

    ``workers``/``chunk_size``/``deadline`` behave exactly as in
    :func:`estimate_spread`.
    """
    if num_samples <= 0:
        raise EstimationError(f"num_samples must be positive, got {num_samples}")
    seed_probabilities = np.asarray(seed_probabilities, dtype=np.float64)
    if seed_probabilities.shape != (model.num_nodes,):
        raise EstimationError(
            f"seed_probabilities must have length n={model.num_nodes}, "
            f"got {seed_probabilities.shape}"
        )
    _check_unit_interval(seed_probabilities)
    return _merged_estimate(
        _configuration_chunk_task,
        (model, seed_probabilities),
        num_samples,
        seed,
        workers,
        chunk_size,
        deadline,
        "estimating UI(C)",
    )
