"""Live-edge batch simulation of Independent Cascade: the test oracle.

The library estimates every spread through one engine,
:mod:`repro.diffusion.montecarlo`, which runs one BFS cascade per sample
(:meth:`IndependentCascade.sample_cascade
<repro.diffusion.independent_cascade.IndependentCascade.sample_cascade>`).
This module is a second, independent implementation of the same
distribution, kept so tests can check that engine against it at 5σ.  It
uses the live-edge view of IC: a cascade outcome is exactly reachability
over a random subgraph that keeps each edge ``e`` with probability
``p_e``, so many outcomes advance together with dense boolean matrix
operations:

* ``live``     — an ``(m, batch)`` boolean matrix of per-sample edge coins;
* ``active``   — an ``(n, batch)`` boolean activation matrix;
* one frontier step ORs, per node, the ``frontier[source] & live`` rows of
  its in-edges — a single ``np.logical_or.reduceat`` over the in-CSR
  layout — and iterates to the reachability fixpoint.

Each sample flips all ``m`` edge coins, so the cost scales with ``m``
times the cascade depth rather than with the spread; on every graph past
a few hundred nodes it is slower than the BFS engine, which is why no
production path uses it.  It lives in ``src/`` rather than the test tree
only because the pipeline benchmark (``perfbench/pipeline.py``) imports
it.  IC-only: LT's live-edge distribution couples a node's in-edges.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.diffusion.montecarlo import SpreadEstimate
from repro.exceptions import EstimationError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.stats import RunningStat

__all__ = ["batch_spread_ic", "batch_configuration_spread_ic", "batch_cascade_sizes_ic"]

_DEFAULT_BATCH = 256


def _edge_order_by_target(graph: DiGraph) -> np.ndarray:
    """Permutation putting out-CSR edges into in-CSR (target-grouped) order."""
    return np.argsort(graph.out_targets, kind="stable")


def _run_batch(
    graph: DiGraph,
    active: np.ndarray,
    rng: np.random.Generator,
    in_order_probs: np.ndarray,
    in_order_sources: np.ndarray,
    reduce_starts: np.ndarray,
    nodes_with_in_edges: np.ndarray,
) -> np.ndarray:
    """Advance one batch to its reachability fixpoint; returns sizes."""
    batch = active.shape[1]
    live = rng.random((in_order_probs.size, batch)) < in_order_probs[:, None]
    frontier = active.copy()
    while frontier.any():
        contrib = frontier[in_order_sources] & live
        # reduceat over the in-CSR segments ORs each node's in-edge rows.
        reached = np.logical_or.reduceat(contrib, reduce_starts, axis=0)
        newly = np.zeros_like(active)
        newly[nodes_with_in_edges] = reached
        frontier = newly & ~active
        active |= frontier
    return active.sum(axis=0)


def batch_cascade_sizes_ic(
    graph: DiGraph,
    num_samples: int,
    rng: np.random.Generator,
    seeds: Optional[Sequence[int]] = None,
    seed_probabilities: Optional[np.ndarray] = None,
    batch_size: int = _DEFAULT_BATCH,
) -> np.ndarray:
    """Simulate ``num_samples`` IC cascades; returns the size of each.

    Exactly one of ``seeds`` (fixed seed set) or ``seed_probabilities``
    (independent per-node seeding, Eq. 1) must be given.
    """
    if (seeds is None) == (seed_probabilities is None):
        raise EstimationError("pass exactly one of seeds / seed_probabilities")
    if num_samples <= 0:
        raise EstimationError(f"num_samples must be positive, got {num_samples}")
    if batch_size <= 0:
        raise EstimationError(f"batch_size must be positive, got {batch_size}")
    n = graph.num_nodes

    seed_mask = None
    if seeds is not None:
        seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if seed_arr.size and (seed_arr[0] < 0 or seed_arr[-1] >= n):
            raise EstimationError("seed id out of range")
        seed_mask = np.zeros(n, dtype=bool)
        seed_mask[seed_arr] = True
    else:
        q = np.asarray(seed_probabilities, dtype=np.float64)
        if q.shape != (n,):
            raise EstimationError(f"seed_probabilities must have length n={n}")
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise EstimationError("seed probabilities must lie in [0, 1]")

    order = _edge_order_by_target(graph)
    sources = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(graph.out_offsets).astype(np.int64)
    )
    in_order_sources = sources[order]
    in_order_probs = graph.out_probs[order]
    in_degrees = graph.in_degrees()
    nodes_with_in_edges = np.flatnonzero(in_degrees > 0)
    reduce_starts = graph.in_offsets[nodes_with_in_edges]

    sizes = np.empty(num_samples, dtype=np.int64)
    done = 0
    while done < num_samples:
        batch = min(batch_size, num_samples - done)
        if seed_mask is not None:
            active = np.repeat(seed_mask[:, None], batch, axis=1)
        else:
            active = rng.random((n, batch)) < q[:, None]
        sizes[done : done + batch] = _run_batch(
            graph,
            active,
            rng,
            in_order_probs,
            in_order_sources,
            reduce_starts,
            nodes_with_in_edges,
        )
        done += batch
    return sizes


def _estimate(sizes: np.ndarray) -> SpreadEstimate:
    stat = RunningStat()
    stat.add_many(sizes.astype(np.float64))
    return SpreadEstimate(mean=stat.mean, stddev=stat.stddev, num_samples=sizes.size)


def batch_spread_ic(
    graph: DiGraph,
    seeds: Sequence[int],
    num_samples: int = 1000,
    seed: SeedLike = None,
    batch_size: int = _DEFAULT_BATCH,
) -> SpreadEstimate:
    """Vectorized estimate of ``I(S)`` under IC."""
    return _estimate(
        batch_cascade_sizes_ic(
            graph, num_samples, as_generator(seed), seeds=seeds, batch_size=batch_size
        )
    )


def batch_configuration_spread_ic(
    graph: DiGraph,
    seed_probabilities: np.ndarray,
    num_samples: int = 1000,
    seed: SeedLike = None,
    batch_size: int = _DEFAULT_BATCH,
) -> SpreadEstimate:
    """Vectorized estimate of ``UI(C)`` under IC (Eq. 2)."""
    return _estimate(
        batch_cascade_sizes_ic(
            graph,
            num_samples,
            as_generator(seed),
            seed_probabilities=seed_probabilities,
            batch_size=batch_size,
        )
    )
