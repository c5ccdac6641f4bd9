"""Edge-probability assignment schemes.

The paper (Section 9.1) uses the *weighted cascade* convention: the
propagation probability of a directed edge ``(u, v)`` is
``alpha / in_degree(v)`` with ``alpha`` in ``{0.7, 0.85, 1.0}``.  Two other
standard schemes from the IM literature (constant and trivalency) are also
provided for completeness.

All functions return a *new* :class:`DiGraph`; the input is never mutated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.spill import empty_array, is_spill_backed, release_pages

__all__ = [
    "assign_weighted_cascade",
    "assign_constant_probabilities",
    "assign_trivalency_probabilities",
]

#: Edges per gather/repeat step of :func:`assign_weighted_cascade`.
_CHUNK = 1 << 23


def assign_weighted_cascade(graph: DiGraph, alpha: float = 1.0) -> DiGraph:
    """Weighted-cascade probabilities: ``p(u, v) = alpha / in_degree(v)``.

    ``alpha`` must satisfy ``0 < alpha <= 1`` (the paper uses 0.7/0.85/1.0).
    All edges into ``v`` get one value, so the adjacency is adopted with no
    transpose rebuild; ``out_probs`` and ``in_probs`` follow the graph's
    placement and equal ``with_probabilities`` on ``alpha / in_degree`` bitwise.
    """
    if not 0.0 < alpha <= 1.0:
        raise GraphError(f"alpha must lie in (0, 1], got {alpha}")
    n = graph.num_nodes
    in_offsets = graph.in_offsets
    backing = "mmap" if is_spill_backed(graph.out_targets) else None
    with np.errstate(divide="ignore"):
        # Isolated targets (in-degree 0) produce inf here but are never
        # gathered (they appear in no edge) nor repeated (count 0).
        per_target = alpha / np.diff(in_offsets).astype(np.float64)
    m = graph.num_edges
    out_probs = empty_array(m, np.float64, backing=backing, name_hint="wc-out-probs")
    for start in range(0, m, _CHUNK):
        block = np.asarray(graph.out_targets[start : start + _CHUNK])
        out_probs[start : start + block.size] = per_target[block]
    release_pages(out_probs)
    in_probs = empty_array(m, np.float64, backing=backing, name_hint="wc-in-probs")
    node = 0
    while node < n:
        limit = in_offsets[node] + _CHUNK
        end = int(np.searchsorted(in_offsets, limit, side="right")) - 1
        end = min(max(end, node + 1), n)
        lo, hi = int(in_offsets[node]), int(in_offsets[end])
        in_probs[lo:hi] = np.repeat(
            per_target[node:end], np.diff(in_offsets[node : end + 1])
        )
        node = end
    release_pages(in_probs)
    return DiGraph.from_csr_pair(
        n,
        graph.out_offsets,
        graph.out_targets,
        out_probs,
        in_offsets,
        graph.in_sources,
        in_probs,
    )


def assign_constant_probabilities(graph: DiGraph, probability: float) -> DiGraph:
    """Uniform probability on every edge (e.g. 0.01 or 0.1 in IC literature)."""
    if not 0.0 <= probability <= 1.0:
        raise GraphError(f"probability must lie in [0, 1], got {probability}")
    return graph.with_probabilities(np.full(graph.num_edges, probability))


def assign_trivalency_probabilities(
    graph: DiGraph,
    values: Sequence[float] = (0.1, 0.01, 0.001),
    seed: SeedLike = None,
) -> DiGraph:
    """Trivalency scheme: each edge draws uniformly from ``values``.

    The classic setting (Chen et al.) uses ``{0.1, 0.01, 0.001}``.
    """
    values_arr = np.asarray(values, dtype=np.float64)
    if values_arr.size == 0:
        raise GraphError("values must be non-empty")
    if np.any(values_arr < 0.0) or np.any(values_arr > 1.0):
        raise GraphError("all values must lie in [0, 1]")
    rng = as_generator(seed)
    probs = rng.choice(values_arr, size=graph.num_edges)
    return graph.with_probabilities(probs)
