"""General triggering model.

Kempe et al. (2003): each node ``v`` independently samples a *triggering
set* ``T(v)`` from some distribution over subsets of its in-neighbors; ``v``
becomes active when any node of ``T(v)`` is active.  IC and LT are the two
canonical instances (IC: include each in-neighbor independently with the
edge probability; LT: at most one in-neighbor, chosen with probability equal
to the edge weight).

This class exposes the general mechanism so the library's claim of
model-genericity can be exercised: any distribution supplied as a
``sampler(node, in_neighbors, in_probs, rng) -> np.ndarray`` works with the
whole stack — Monte-Carlo spread, RR-set polling, and all CIM solvers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.graphs.digraph import DiGraph

__all__ = ["TriggeringModel", "ic_trigger_sampler", "lt_trigger_sampler"]

TriggerSampler = Callable[[int, np.ndarray, np.ndarray, np.random.Generator], np.ndarray]


def ic_trigger_sampler(
    node: int,
    in_neighbors: np.ndarray,
    in_probs: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """IC triggering distribution: each in-neighbor kept independently."""
    if in_neighbors.size == 0:
        return in_neighbors
    return in_neighbors[rng.random(in_neighbors.size) < in_probs]


def lt_trigger_sampler(
    node: int,
    in_neighbors: np.ndarray,
    in_probs: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """LT triggering distribution: at most one in-neighbor by edge weight."""
    if in_neighbors.size == 0:
        return in_neighbors
    draw = rng.random()
    cumulative = np.cumsum(in_probs)
    if draw >= cumulative[-1]:
        return in_neighbors[:0]
    pick = int(np.searchsorted(cumulative, draw, side="right"))
    return in_neighbors[pick : pick + 1]


class TriggeringModel(DiffusionModel):
    """Triggering model parameterized by a triggering-set sampler.

    Parameters
    ----------
    graph:
        The social network.
    sampler:
        Callable drawing one triggering set for a node.  Defaults to the IC
        distribution, making ``TriggeringModel(graph)`` behaviorally
        identical (in distribution) to
        :class:`~repro.diffusion.independent_cascade.IndependentCascade`.
    """

    def __init__(self, graph: DiGraph, sampler: TriggerSampler = ic_trigger_sampler) -> None:
        super().__init__(graph)
        self._sampler = sampler
        self._stamp = np.zeros(graph.num_nodes, dtype=np.int64)
        self._epoch = 0

    def _next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def _in_views(self) -> tuple:
        """Plain views of the in-CSR arrays, taken once per cascade: as in
        the IC kernels, per-node slices of a spill-backed graph's memmaps
        would each go through the subclass's Python-level ``__getitem__``."""
        graph = self.graph
        return tuple(map(np.asarray, (graph.in_offsets, graph.in_sources, graph.in_probs)))

    def _draw_trigger_set(
        self, node: int, rng: np.random.Generator, in_csr: tuple
    ) -> np.ndarray:
        offsets, sources, probs = in_csr
        lo, hi = offsets[node], offsets[node + 1]
        return self._sampler(node, sources[lo:hi], probs[lo:hi], rng)

    def sample_cascade(self, seeds: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """One forward cascade.

        Triggering sets are sampled lazily: the set ``T(v)`` is drawn the
        first time an active node could trigger ``v``, then cached for the
        rest of the cascade (each node's set must be drawn exactly once per
        realization for correctness).
        """
        seeds = self._validate_seeds(seeds)
        epoch = self._next_epoch()
        stamp = self._stamp
        trigger_sets: dict[int, frozenset[int]] = {}

        activated = list(seeds.tolist())
        stamp[seeds] = epoch
        head = 0
        offsets = np.asarray(self.graph.out_offsets)
        targets = np.asarray(self.graph.out_targets)
        in_csr = self._in_views()
        while head < len(activated):
            u = activated[head]
            head += 1
            lo, hi = int(offsets[u]), int(offsets[u + 1])
            for idx in range(lo, hi):
                v = int(targets[idx])
                if stamp[v] == epoch:
                    continue
                if v not in trigger_sets:
                    trigger_sets[v] = frozenset(
                        self._draw_trigger_set(v, rng, in_csr).tolist()
                    )
                if u in trigger_sets[v]:
                    stamp[v] = epoch
                    activated.append(v)
        return np.asarray(activated, dtype=np.int64)

    def sample_rr_set(self, root: int, rng: np.random.Generator) -> np.ndarray:
        """One RR set: reverse closure through freshly sampled trigger sets."""
        graph = self.graph
        if not 0 <= root < graph.num_nodes:
            raise IndexError(f"root {root} not in graph with {graph.num_nodes} nodes")
        epoch = self._next_epoch()
        stamp = self._stamp

        reached = [root]
        stamp[root] = epoch
        head = 0
        in_csr = self._in_views()
        while head < len(reached):
            v = reached[head]
            head += 1
            for u in self._draw_trigger_set(v, rng, in_csr):
                u = int(u)
                if stamp[u] != epoch:
                    stamp[u] = epoch
                    reached.append(u)
        return np.asarray(reached, dtype=np.int64)
