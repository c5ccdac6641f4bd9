"""Linear Threshold (LT) model.

Kempe, Kleinberg & Tardos (2003).  Each node ``v`` draws a threshold
``theta_v ~ U[0, 1]``; ``v`` activates once the summed weight of its active
in-neighbors reaches ``theta_v``.  Edge probabilities double as the LT edge
weights and must satisfy ``sum_u w(u, v) <= 1`` for every ``v`` — the
weighted-cascade scheme ``alpha / in_degree(v)`` guarantees this for
``alpha <= 1``.

LT is a triggering model whose live-edge distribution picks *at most one*
in-edge per node (edge ``(u, v)`` with probability ``w(u, v)``, no edge with
probability ``1 - sum_u w(u, v)``).  That equivalence gives the RR-set
sampler: a reverse random walk that, at each node, either steps to one
in-neighbor (chosen proportionally to edge weight) or stops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph

__all__ = ["LinearThreshold"]

_WEIGHT_SUM_TOLERANCE = 1e-9


class LinearThreshold(DiffusionModel):
    """LT model using the graph's edge probabilities as influence weights."""

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        in_weight_sums = np.zeros(graph.num_nodes, dtype=np.float64)
        np.add.at(in_weight_sums, graph.out_targets, graph.out_probs)
        if np.any(in_weight_sums > 1.0 + _WEIGHT_SUM_TOLERANCE):
            worst = int(np.argmax(in_weight_sums))
            raise GraphError(
                "LT requires per-node in-weight sums <= 1; "
                f"node {worst} has {in_weight_sums[worst]:.6f}"
            )
        self._in_weight_sums = np.minimum(in_weight_sums, 1.0)
        self._stamp = np.zeros(graph.num_nodes, dtype=np.int64)
        self._epoch = 0

    def _next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def sample_cascade(self, seeds: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """One forward LT cascade.

        Thresholds are sampled lazily on a node's first exposure; incoming
        active weight is accumulated incrementally, so each edge is
        processed at most once.
        """
        seeds = self._validate_seeds(seeds)
        graph = self.graph
        epoch = self._next_epoch()
        stamp = self._stamp
        thresholds: dict[int, float] = {}
        accumulated: dict[int, float] = {}

        activated = list(seeds.tolist())
        stamp[seeds] = epoch
        head = 0
        # Plain views, as in the IC kernels: no per-node memmap slicing.
        offsets, targets, probs = map(
            np.asarray, (graph.out_offsets, graph.out_targets, graph.out_probs)
        )
        while head < len(activated):
            u = activated[head]
            head += 1
            lo, hi = int(offsets[u]), int(offsets[u + 1])
            for idx in range(lo, hi):
                v = int(targets[idx])
                if stamp[v] == epoch:
                    continue
                if v not in thresholds:
                    thresholds[v] = float(rng.random())
                    accumulated[v] = 0.0
                accumulated[v] += float(probs[idx])
                if accumulated[v] >= thresholds[v]:
                    stamp[v] = epoch
                    activated.append(v)
        return np.asarray(activated, dtype=np.int64)

    def sample_rr_set(self, root: int, rng: np.random.Generator) -> np.ndarray:
        """One RR set for ``root`` via the single-in-edge live-edge walk."""
        graph = self.graph
        if not 0 <= root < graph.num_nodes:
            raise IndexError(f"root {root} not in graph with {graph.num_nodes} nodes")
        epoch = self._next_epoch()
        stamp = self._stamp

        reached = [root]
        stamp[root] = epoch
        current = root
        offsets, sources, probs = map(
            np.asarray, (graph.in_offsets, graph.in_sources, graph.in_probs)
        )
        while True:
            lo, hi = int(offsets[current]), int(offsets[current + 1])
            if lo == hi:
                break
            draw = rng.random()
            if draw >= self._in_weight_sums[current]:
                break  # live-edge distribution picked "no in-edge"
            # Pick the in-edge whose weight interval contains the draw.
            cumulative = np.cumsum(probs[lo:hi])
            pick = int(np.searchsorted(cumulative, draw, side="right"))
            pick = min(pick, hi - lo - 1)
            nxt = int(sources[lo + pick])
            if stamp[nxt] == epoch:
                break  # walked into a node already in the RR set: cycle
            stamp[nxt] = epoch
            reached.append(nxt)
            current = nxt
        return np.asarray(reached, dtype=np.int64)
