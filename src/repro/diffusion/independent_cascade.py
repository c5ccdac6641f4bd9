"""Independent Cascade (IC) model.

Kempe, Kleinberg & Tardos (2003).  When node ``u`` becomes active it gets a
single chance to activate each currently inactive out-neighbor ``v``,
succeeding independently with the edge probability ``p(u, v)``.

This is the model used throughout the paper's evaluation (Section 9) with
weighted-cascade probabilities ``alpha / in_degree(v)``.

Implementation notes
--------------------
Forward cascades and reverse RR sampling are one per-node BFS,
:func:`_reach`, on the out-CSR and the in-CSR.  A node's coin flips are
one ``draw(deg) < probs`` comparison; the successes (about one per node
under weighted cascade) are deduplicated through a Python ``set``.  It
reads plain ``ndarray`` views of the CSR arrays: sliced per node, a
spill-backed ``np.memmap`` would run its Python-level ``__getitem__``.
:meth:`IndependentCascade.rr_sampler` serves the coins from blocks drawn
ahead; ``random(a)`` then ``random(b)`` give the bits of ``random(a + b)``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.diffusion.base import DiffusionModel

__all__ = ["IndependentCascade"]

#: Uniforms drawn per refill of :meth:`IndependentCascade.rr_sampler`'s buffer.
_BLOCK = 4096


def _reach(start: List[int], draw, offsets, neighbors, probs) -> List[int]:
    """Nodes reached from ``start`` in one IC realization, in BFS order.

    ``draw(k)`` returns ``k`` uniforms.  A node's coins are drawn before
    filtering and masking keeps slice order, so stream use and BFS order
    are those of a per-neighbor loop.  ``DiGraph`` rejects duplicate
    neighbors within a slice, so only earlier visits need filtering.
    """
    reached = list(start)
    seen = set(reached)
    for node in reached:  # the list grows while it is walked: BFS order
        lo, hi = offsets[node : node + 2].tolist()
        if lo == hi:
            continue
        for fresh in neighbors[lo:hi][draw(hi - lo) < probs[lo:hi]].tolist():
            if fresh not in seen:
                seen.add(fresh)
                reached.append(fresh)
    return reached


def _block_draws(rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """``rng.random`` served from buffers drawn :data:`_BLOCK` at a time."""
    buffer = np.empty(0)
    position = 0

    def draw(count: int) -> np.ndarray:
        nonlocal buffer, position
        if position + count > buffer.size:  # keep the unread tail in front
            buffer = np.concatenate((buffer[position:], rng.random(max(_BLOCK, count))))
            position = 0
        position += count
        return buffer[position - count : position]

    return draw


class IndependentCascade(DiffusionModel):
    """IC model over ``graph``'s per-edge probabilities."""

    def sample_cascade(self, seeds: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """One forward IC cascade; returns activated nodes in BFS order."""
        graph = self.graph
        out_csr = map(np.asarray, (graph.out_offsets, graph.out_targets, graph.out_probs))
        activated = _reach(self._validate_seeds(seeds).tolist(), rng.random, *out_csr)
        return np.asarray(activated, dtype=np.int64)

    def sample_rr_set(self, root: int, rng: np.random.Generator) -> np.ndarray:
        """One reverse-reachable set for ``root``.

        Reverse BFS on the transpose graph: the in-edge ``(u -> root path)``
        is traversed with the *original* edge's probability, exactly the
        poll of Section 8 ("the propagation probability of an edge (v, u) in
        G^T is pp_uv").
        """
        return np.asarray(self._rr_sampler(rng.random)(root), dtype=np.int64)

    def rr_sampler(self, rng: np.random.Generator) -> Callable[[int], Sequence[int]]:
        """:meth:`sample_rr_set` as lists, its coins drawn ahead in blocks."""
        return self._rr_sampler(_block_draws(rng))

    def _rr_sampler(self, draw: Callable[[int], np.ndarray]) -> Callable[[int], List[int]]:
        graph = self.graph
        num_nodes = graph.num_nodes
        in_csr = tuple(map(np.asarray, (graph.in_offsets, graph.in_sources, graph.in_probs)))

        def sample(root: int) -> List[int]:
            if not 0 <= root < num_nodes:
                raise IndexError(f"root {root} not in graph with {num_nodes} nodes")
            return _reach([root], draw, *in_csr)

        return sample
