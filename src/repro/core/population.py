"""Assignment of seed-probability curves to the user population.

The paper synthesizes curves (Section 9.1): 85% of nodes get the sensitive
curve ``2c - c^2``, 10% the linear curve ``c``, 5% the insensitive curve
``c^2``, assigned uniformly at random.  Table 4 re-runs with (75/15/10) and
(65/20/15) mixtures.  :func:`paper_mixture` builds any of these.

:class:`CurvePopulation` stores one curve per node but evaluates
*vectorized by curve group*: nodes sharing a curve object are evaluated in
one array operation, which matters for hyper-graph objectives over large
``n``.
"""

from __future__ import annotations

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
    """Per-node seed-probability curves with group-vectorized evaluation."""

    def __init__(self, curves: Sequence[SeedProbabilityCurve]) -> None:
        if not curves:
            raise CurveError("population must contain at least one curve")
        self._curves: List[SeedProbabilityCurve] = list(curves)
        # Group node ids by curve identity for vectorized evaluation; each
        # distinct curve object is validated once, at its first node.
        groups: Dict[int, List[int]] = {}
        self._group_curves: Dict[int, SeedProbabilityCurve] = {}
        for node, curve in enumerate(self._curves):
            if not isinstance(curve, SeedProbabilityCurve):
                raise CurveError(
                    f"node {node}: expected SeedProbabilityCurve, got {type(curve).__name__}"
                )
            key = id(curve)
            if key not in groups:
                curve.validate()
                groups[key] = []
                self._group_curves[key] = curve
            groups[key].append(node)
        self._groups = {key: np.asarray(nodes, dtype=np.int64) for key, nodes in groups.items()}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_nodes: int, curve: SeedProbabilityCurve) -> "CurvePopulation":
        """Every node shares one curve object."""
        return cls([curve] * num_nodes)

    @classmethod
    def from_mixture(
        cls,
        num_nodes: int,
        mixture: Sequence[Tuple[SeedProbabilityCurve, float]],
        seed: SeedLike = None,
    ) -> "CurvePopulation":
        """Randomly assign curves by the given ``(curve, fraction)`` mixture.

        Fractions must sum to 1 (within tolerance).  Counts are rounded to
        integers with the largest group absorbing the remainder, then the
        assignment is shuffled — exactly the paper's "randomly picked x%
        of nodes" protocol.
        """
        fractions = np.asarray([fraction for _, fraction in mixture], dtype=np.float64)
        if np.any(fractions < 0.0) or abs(float(fractions.sum()) - 1.0) > 1e-9:
            raise CurveError(f"mixture fractions must be >= 0 and sum to 1, got {fractions}")
        counts = np.floor(fractions * num_nodes).astype(np.int64)
        counts[int(np.argmax(counts))] += num_nodes - int(counts.sum())
        assignment: List[SeedProbabilityCurve] = []
        for (curve, _), count in zip(mixture, counts):
            assignment.extend([curve] * int(count))
        rng = as_generator(seed)
        order = rng.permutation(num_nodes)
        shuffled = [assignment[i] for i in order]
        return cls(shuffled)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._curves)

    @property
    def num_nodes(self) -> int:
        """Number of users in the population."""
        return len(self._curves)

    def curve(self, node: int) -> SeedProbabilityCurve:
        """The curve assigned to ``node``."""
        return self._curves[node]

    def probabilities(self, discounts: np.ndarray) -> np.ndarray:
        """Vectorized ``q_u = p_u(c_u)`` for a full discount vector."""
        discounts = np.asarray(discounts, dtype=np.float64)
        if discounts.shape != (self.num_nodes,):
            raise CurveError(
                f"discounts must have length n={self.num_nodes}, got {discounts.shape}"
            )
        out = np.empty(self.num_nodes, dtype=np.float64)
        for key, nodes in self._groups.items():
            out[nodes] = self._group_curves[key](discounts[nodes])
        return out

    def derivatives(self, discounts: np.ndarray) -> np.ndarray:
        """Vectorized ``p_u'(c_u)`` for a full discount vector."""
        discounts = np.asarray(discounts, dtype=np.float64)
        if discounts.shape != (self.num_nodes,):
            raise CurveError(
                f"discounts must have length n={self.num_nodes}, got {discounts.shape}"
            )
        out = np.empty(self.num_nodes, dtype=np.float64)
        for key, nodes in self._groups.items():
            out[nodes] = self._group_curves[key].derivative(discounts[nodes])
        return out

    def probabilities_at(self, discount: float) -> np.ndarray:
        """``q_u = p_u(c)`` at one shared discount (the UD inner loop)."""
        out = np.empty(self.num_nodes, dtype=np.float64)
        for key, nodes in self._groups.items():
            out[nodes] = self._group_curves[key](discount)
        return out

    def spec(self) -> Dict[str, object]:
        """The population as plain data, for checkpoint content keys.

        ``curves`` lists the distinct curve specs in first-node order and
        ``assignment`` maps each node to its index there, so two
        populations share a spec exactly when every node has the same
        curve function — whichever objects carry them.
        """
        specs: List[Dict[str, object]] = []
        assignment = np.empty(self.num_nodes, dtype=np.int64)
        for key, nodes in self._groups.items():
            spec = self._group_curves[key].spec()
            if spec not in specs:
                specs.append(spec)
            assignment[nodes] = specs.index(spec)
        return {"curves": specs, "assignment": assignment}

    def all_insensitive(self) -> bool:
        """Theorem 6 precondition: every user's curve has ``p(c) <= c``."""
        return all(
            self._group_curves[key].is_insensitive() for key in self._groups
        )

    def curve_counts(self) -> Dict[str, int]:
        """Histogram of curve names (for experiment reporting)."""
        histogram: Dict[str, int] = {}
        for key, nodes in self._groups.items():
            name = self._group_curves[key].name
            histogram[name] = histogram.get(name, 0) + int(nodes.size)
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
