"""Assignment of seed-probability curves to the user population.

The paper synthesizes curves (Section 9.1): 85% of nodes get the sensitive
curve ``2c - c^2``, 10% the linear curve ``c``, 5% the insensitive curve
``c^2``, assigned uniformly at random.  Table 4 re-runs with (75/15/10) and
(65/20/15) mixtures.  :func:`paper_mixture` builds any of these.

:class:`CurvePopulation` stores one small-int label per node and
evaluates *vectorized by curve group*: nodes sharing a curve object are
evaluated in one array operation, which matters for hyper-graph objectives
over large ``n``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.curves import (
    INSENSITIVE,
    LINEAR,
    SENSITIVE,
    SeedProbabilityCurve,
)
from repro.exceptions import CurveError
from repro.utils.rng import SeedLike, as_generator

__all__ = ["CurvePopulation", "paper_mixture"]


class CurvePopulation:
    """Per-node seed-probability curves with group-vectorized evaluation.

    The population is stored as its distinct curve objects, in order of
    their first node, and one small-int label per node that indexes
    them; each label's nodes, ascending, are kept for evaluation.
    """

    def __init__(self, curves: Sequence[SeedProbabilityCurve]) -> None:
        # One C-level pass labels each node with the first node that holds
        # its curve object, so the distinct curves come in first-node order.
        first_node: Dict[int, int] = {}
        labels = np.fromiter(
            map(first_node.setdefault, map(id, curves), itertools.count()),
            dtype=np.intp,
            count=len(curves),
        )
        firsts = np.fromiter(first_node.values(), dtype=np.intp, count=len(first_node))
        self._assign(np.searchsorted(firsts, labels), [curves[node] for node in firsts.tolist()])

    def _assign(self, labels: np.ndarray, candidates: Sequence[SeedProbabilityCurve]) -> None:
        """Store ``candidates[labels[node]]`` as each node's curve.

        Candidates that no node takes are dropped, the rest are
        renumbered in order of their first node, and each distinct curve
        is type-checked and validated once, in that order, so the first
        bad node is the one named.
        """
        if not labels.size:
            raise CurveError("population must contain at least one curve")
        labels = labels.astype(np.min_scalar_type(len(candidates) - 1), copy=False)
        by_label = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels, minlength=len(candidates))
        starts = np.cumsum(sizes) - sizes
        used = np.flatnonzero(sizes)
        firsts = by_label[starts[used]]
        rank = np.argsort(firsts)
        used, firsts = used[rank], firsts[rank]
        renumber = np.zeros(len(candidates), dtype=labels.dtype)
        renumber[used] = np.arange(used.size)
        self._labels = renumber[labels]
        self._curves: List[SeedProbabilityCurve] = [candidates[k] for k in used.tolist()]
        self._nodes = [by_label[starts[k] : starts[k] + sizes[k]] for k in used.tolist()]
        for node, curve in zip(firsts.tolist(), self._curves):
            if not isinstance(curve, SeedProbabilityCurve):
                raise CurveError(
                    f"node {node}: expected SeedProbabilityCurve, got {type(curve).__name__}"
                )
            curve.validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_nodes: int, curve: SeedProbabilityCurve) -> "CurvePopulation":
        """Every node shares one curve object."""
        population = cls.__new__(cls)
        population._assign(np.zeros(max(num_nodes, 0), dtype=np.uint8), [curve])
        return population

    @classmethod
    def from_mixture(
        cls,
        num_nodes: int,
        mixture: Sequence[Tuple[SeedProbabilityCurve, float]],
        seed: SeedLike = None,
    ) -> "CurvePopulation":
        """Randomly assign curves by the given ``(curve, fraction)`` mixture.

        Fractions must be finite, non-negative and sum to 1 (within
        tolerance).  Counts are rounded to integers with the largest
        group absorbing the remainder, then the assignment is shuffled —
        exactly the paper's "randomly picked x% of nodes" protocol.
        """
        fractions = np.asarray([fraction for _, fraction in mixture], dtype=np.float64)
        if (
            not np.all(np.isfinite(fractions))
            or np.any(fractions < 0.0)
            or abs(float(fractions.sum()) - 1.0) > 1e-9
        ):
            raise CurveError(
                f"mixture fractions must be finite, >= 0 and sum to 1, got {fractions}"
            )
        counts = np.floor(fractions * num_nodes).astype(np.int64)
        counts[int(np.argmax(counts))] += num_nodes - int(counts.sum())
        # Entries that list one curve object share the label of its first
        # entry.  Node i takes the entry at position permutation[i] of the
        # unshuffled assignment, whose blocks follow the mixture's order.
        keys = [id(curve) for curve, _ in mixture]
        entry_labels = np.asarray(
            [keys.index(key) for key in keys], dtype=np.min_scalar_type(len(keys) - 1)
        )
        labels = np.repeat(entry_labels, counts)[as_generator(seed).permutation(num_nodes)]
        population = cls.__new__(cls)
        population._assign(labels, [curve for curve, _ in mixture])
        return population

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._labels.size

    @property
    def num_nodes(self) -> int:
        """Number of users in the population."""
        return self._labels.size

    def curve(self, node: int) -> SeedProbabilityCurve:
        """The curve assigned to ``node``."""
        return self._curves[self._labels[node]]

    def probabilities(self, discounts: np.ndarray) -> np.ndarray:
        """Vectorized ``q_u = p_u(c_u)`` for a full discount vector."""
        discounts = np.asarray(discounts, dtype=np.float64)
        if discounts.shape != (self.num_nodes,):
            raise CurveError(
                f"discounts must have length n={self.num_nodes}, got {discounts.shape}"
            )
        out = np.empty(self.num_nodes, dtype=np.float64)
        for curve, nodes in zip(self._curves, self._nodes):
            out[nodes] = curve(discounts[nodes])
        return out

    def derivatives(self, discounts: np.ndarray) -> np.ndarray:
        """Vectorized ``p_u'(c_u)`` for a full discount vector."""
        discounts = np.asarray(discounts, dtype=np.float64)
        if discounts.shape != (self.num_nodes,):
            raise CurveError(
                f"discounts must have length n={self.num_nodes}, got {discounts.shape}"
            )
        out = np.empty(self.num_nodes, dtype=np.float64)
        for curve, nodes in zip(self._curves, self._nodes):
            out[nodes] = curve.derivative(discounts[nodes])
        return out

    def probabilities_at(self, discount: float) -> np.ndarray:
        """``q_u = p_u(c)`` at one shared discount (the UD inner loop)."""
        out = np.empty(self.num_nodes, dtype=np.float64)
        for curve, nodes in zip(self._curves, self._nodes):
            out[nodes] = curve(discount)
        return out

    def spec(self) -> Dict[str, object]:
        """The population as plain data, for checkpoint content keys.

        ``curves`` lists the distinct curve specs in first-node order and
        ``assignment`` maps each node to its index there, so two
        populations share a spec exactly when every node has the same
        curve function — whichever objects carry them.
        """
        specs: List[Dict[str, object]] = []
        index: List[int] = []
        for curve in self._curves:
            spec = curve.spec()
            if spec not in specs:
                specs.append(spec)
            index.append(specs.index(spec))
        assignment = np.asarray(index, dtype=np.int64)[self._labels]
        return {"curves": specs, "assignment": assignment}

    def all_insensitive(self) -> bool:
        """Theorem 6 precondition: every user's curve has ``p(c) <= c``."""
        return all(curve.is_insensitive() for curve in self._curves)

    def curve_counts(self) -> Dict[str, int]:
        """Histogram of curve names (for experiment reporting)."""
        histogram: Dict[str, int] = {}
        for curve, nodes in zip(self._curves, self._nodes):
            histogram[curve.name] = histogram.get(curve.name, 0) + int(nodes.size)
        return histogram


def paper_mixture(
    num_nodes: int,
    sensitive_fraction: float = 0.85,
    linear_fraction: float = 0.10,
    insensitive_fraction: float = 0.05,
    seed: SeedLike = None,
) -> CurvePopulation:
    """The experiment population of Section 9.1 (and Table 4 variants).

    Defaults to the paper's 85% sensitive (``2c - c^2``), 10% linear
    (``c``), 5% insensitive (``c^2``) split; Table 4 uses
    ``(0.75, 0.15, 0.10)`` and ``(0.65, 0.20, 0.15)``.
    """
    return CurvePopulation.from_mixture(
        num_nodes,
        [
            (SENSITIVE, sensitive_fraction),
            (LINEAR, linear_fraction),
            (INSENSITIVE, insensitive_fraction),
        ],
        seed=seed,
    )
