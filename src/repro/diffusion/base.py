"""The :class:`DiffusionModel` interface.

A diffusion (influence) model wraps a graph and defines the random cascade
process triggered by a seed set.  The paper's framework is model-agnostic:
everything above this layer only needs

* :meth:`DiffusionModel.sample_cascade` — one forward Monte-Carlo cascade
  (the influence-spread "oracle" of Theorem 2), and
* :meth:`DiffusionModel.sample_rr_set` — one reverse-reachable set, the
  polling primitive of Section 8 (available for triggering models).

The RR-set sampler draws a chunk of sets through one hook,
:meth:`DiffusionModel.rr_sampler`: a per-root callable over a generator
the caller hands over for good.  Its default calls ``sample_rr_set``; a
model may override it to draw ahead of the sets it returns (IC draws its
coins in blocks), so the caller must not reuse ``rng`` afterwards.

Concrete models: :class:`repro.diffusion.independent_cascade.IndependentCascade`,
:class:`repro.diffusion.linear_threshold.LinearThreshold`, and the general
:class:`repro.diffusion.triggering.TriggeringModel`.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graphs.digraph import DiGraph

__all__ = ["DiffusionModel"]


class DiffusionModel(abc.ABC):
    """Abstract influence-cascade model over a fixed :class:`DiGraph`."""

    def __init__(self, graph: DiGraph) -> None:
        if not isinstance(graph, DiGraph):
            raise GraphError(f"graph must be a DiGraph, got {type(graph).__name__}")
        self.graph = graph

    # ------------------------------------------------------------------
    # abstract primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample_cascade(self, seeds: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Run one random cascade from ``seeds``.

        Returns the array of all activated node ids (including the seeds),
        in activation order.
        """

    @abc.abstractmethod
    def sample_rr_set(self, root: int, rng: np.random.Generator) -> np.ndarray:
        """Sample one reverse-reachable (RR) set for ``root``.

        The RR set contains every node that would have influenced ``root``
        in one random realization of the model — i.e. the nodes reached by a
        reverse cascade on the transpose graph (Section 8 of the paper).
        ``root`` itself is always a member.
        """

    # ------------------------------------------------------------------
    # shared conveniences
    # ------------------------------------------------------------------
    def rr_sampler(self, rng: np.random.Generator) -> Callable[[int], Sequence[int]]:
        """A callable ``root -> RR set`` that samples from ``rng``.

        Successive calls return exactly the sets that successive
        ``sample_rr_set(root, rng)`` calls would.  An override may draw
        from ``rng`` ahead of the sets it has returned, so ``rng`` belongs
        to the sampler: the caller must not draw from it again.
        """
        return lambda root: self.sample_rr_set(root, rng)

    def sample_cascade_size(self, seeds: Sequence[int], rng: np.random.Generator) -> int:
        """Size of one random cascade (``|cascade|``)."""
        return int(self.sample_cascade(seeds, rng).size)

    def _validate_seeds(self, seeds: Iterable[int]) -> np.ndarray:
        """Normalize and bound-check a seed collection."""
        arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= self.graph.num_nodes):
            bad = int(arr[0] if arr[0] < 0 else arr[-1])
            raise NodeNotFoundError(bad, self.graph.num_nodes)
        return arr

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the underlying graph."""
        return self.graph.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.graph!r})"
