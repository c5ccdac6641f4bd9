"""Independent Cascade (IC) model.

Kempe, Kleinberg & Tardos (2003).  When node ``u`` becomes active it gets a
single chance to activate each currently inactive out-neighbor ``v``,
succeeding independently with the edge probability ``p(u, v)``.

This is the model used throughout the paper's evaluation (Section 9) with
weighted-cascade probabilities ``alpha / in_degree(v)``.

Implementation notes
--------------------
Forward cascades and reverse RR sampling are array-based BFS loops: the
frontier is a growing ``int64`` buffer, visitation is a reusable ``uint8``
stamp array (stamped with a per-call epoch so it never needs clearing), and
each node's coin flips are one vectorized ``rng.random(deg) < probs``
comparison.  Both kernels read plain ``ndarray`` views of the graph's CSR
arrays, taken once per call: on a spill-backed graph those arrays are
``np.memmap`` instances, and every per-node slice of one would go through
the subclass's Python-level ``__getitem__``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.graphs.digraph import DiGraph

__all__ = ["IndependentCascade"]


class IndependentCascade(DiffusionModel):
    """IC model over ``graph``'s per-edge probabilities."""

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        # Reusable visitation stamps; epoch increments per traversal, so a
        # node is "visited" iff its stamp equals the current epoch.
        self._stamp = np.zeros(graph.num_nodes, dtype=np.int64)
        self._epoch = 0

    def _next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def sample_cascade(self, seeds: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """One forward IC cascade; returns activated nodes in BFS order."""
        seeds = self._validate_seeds(seeds)
        graph = self.graph
        epoch = self._next_epoch()
        stamp = self._stamp

        activated = list(seeds.tolist())
        stamp[seeds] = epoch
        head = 0
        offsets, targets, probs = map(
            np.asarray, (graph.out_offsets, graph.out_targets, graph.out_probs)
        )
        while head < len(activated):
            u = activated[head]
            head += 1
            lo, hi = offsets[u], offsets[u + 1]
            if lo == hi:
                continue
            # DiGraph's constructor rejects duplicate targets within a
            # neighbor slice, so the stamp mask needs no in-batch dedup.
            # Masking preserves slice order, and the coin flips are drawn
            # before filtering — RNG consumption and BFS order are
            # identical to the historical per-neighbor loop.
            success = rng.random(hi - lo) < probs[lo:hi]
            fresh = targets[lo:hi][success]
            fresh = fresh[stamp[fresh] != epoch]
            stamp[fresh] = epoch
            activated.extend(fresh.tolist())
        return np.asarray(activated, dtype=np.int64)

    def sample_rr_set(self, root: int, rng: np.random.Generator) -> np.ndarray:
        """One reverse-reachable set for ``root``.

        Reverse BFS on the transpose graph: the in-edge ``(u -> root path)``
        is traversed with the *original* edge's probability, exactly the
        poll of Section 8 ("the propagation probability of an edge (v, u) in
        G^T is pp_uv").
        """
        graph = self.graph
        if not 0 <= root < graph.num_nodes:
            raise IndexError(f"root {root} not in graph with {graph.num_nodes} nodes")
        epoch = self._next_epoch()
        stamp = self._stamp

        reached = [root]
        stamp[root] = epoch
        head = 0
        offsets, sources, probs = map(
            np.asarray, (graph.in_offsets, graph.in_sources, graph.in_probs)
        )
        while head < len(reached):
            v = reached[head]
            head += 1
            lo, hi = offsets[v], offsets[v + 1]
            if lo == hi:
                continue
            # Same vectorized frontier step as ``sample_cascade`` (simple
            # graph: in-neighbor slices carry no duplicates).
            success = rng.random(hi - lo) < probs[lo:hi]
            fresh = sources[lo:hi][success]
            fresh = fresh[stamp[fresh] != epoch]
            stamp[fresh] = epoch
            reached.extend(fresh.tolist())
        return np.asarray(reached, dtype=np.int64)
