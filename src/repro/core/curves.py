"""Seed-probability functions (purchase-probability curves).

Section 3 of the paper: each user ``u`` has ``p_u : [0, 1] -> [0, 1]``
mapping a discount to the probability of becoming a seed, with

1. ``p_u(0) = 0``  (no discount, never a spontaneous seed),
2. ``p_u(1) = 1``  (free product, certain seed),
3. monotone non-decreasing, and
4. continuously differentiable.

The experiments (Section 9.1) use three concrete curves:

* ``p(c) = 2c - c^2`` — *sensitive* users (85% of the population),
* ``p(c) = c``       — *benchmark* linear users (10%),
* ``p(c) = c^2``     — *insensitive* users (5%).

Theorem 6's condition "``p_u(c) <= c`` for all c" (discount-insensitive)
is exposed as :meth:`SeedProbabilityCurve.is_insensitive`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import CurveError

__all__ = [
    "SeedProbabilityCurve",
    "LinearCurve",
    "QuadraticCurve",
    "ConcaveCurve",
    "PowerCurve",
    "LogisticCurve",
    "PiecewiseLinearCurve",
    "CallableCurve",
    "SENSITIVE",
    "LINEAR",
    "INSENSITIVE",
]

_ENDPOINT_TOLERANCE = 1e-9
_VALIDATION_GRID = 257  # grid size for numeric monotonicity / range checks


def _clip_unit(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` on one float: -0.0 and NaN pass through."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


class SeedProbabilityCurve(abc.ABC):
    """Abstract seed-probability function.

    Subclasses implement scalar :meth:`_evaluate` and :meth:`_derivative`;
    vectorized evaluation, axiom validation and utility predicates are
    provided here.

    A subclass whose ``_evaluate`` also takes a Python float, and returns
    the same bits as on a 0-d array, sets ``_float_evaluate = True``: a
    ``float`` discount (``np.float64`` included) then skips the array
    machinery in :meth:`__call__`.  Every other input, and every curve
    without the flag, takes the array path.

    :meth:`spec` names the function as plain data (class plus parameters)
    for checkpoint content keys; a subclass with parameters overrides it.
    """

    name: str = "curve"
    _float_evaluate: bool = False

    @abc.abstractmethod
    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        """Vectorized ``p(c)`` for ``c`` already validated to ``[0, 1]``."""

    @abc.abstractmethod
    def _derivative(self, c: np.ndarray) -> np.ndarray:
        """Vectorized ``p'(c)``."""

    # ------------------------------------------------------------------
    # public evaluation
    # ------------------------------------------------------------------
    def __call__(self, c):
        """Evaluate ``p(c)``; accepts scalars or arrays in ``[0, 1]``."""
        if self._float_evaluate and isinstance(c, float):
            x = float(c)
            if x < -_ENDPOINT_TOLERANCE or x > 1.0 + _ENDPOINT_TOLERANCE:
                raise CurveError(f"discount must lie in [0, 1], got {c!r}")
            return _clip_unit(float(self._evaluate(_clip_unit(x))))
        arr = np.asarray(c, dtype=np.float64)
        if np.any(arr < -_ENDPOINT_TOLERANCE) or np.any(arr > 1.0 + _ENDPOINT_TOLERANCE):
            raise CurveError(f"discount must lie in [0, 1], got {c!r}")
        result = np.clip(self._evaluate(np.clip(arr, 0.0, 1.0)), 0.0, 1.0)
        if np.isscalar(c) or arr.ndim == 0:
            return float(result)
        return result

    def derivative(self, c):
        """Evaluate ``p'(c)``; accepts scalars or arrays in ``[0, 1]``.

        The slope of the *public* curve: where :meth:`__call__` clips the
        raw ``_evaluate`` into ``[0, 1]`` (e.g. float overshoot past an
        endpoint), the visible curve is flat, so the derivative is 0 there
        — keeping finite differences of ``p(c)`` and ``p'(c)`` consistent
        for gradient-based solvers.
        """
        arr = np.asarray(c, dtype=np.float64)
        if np.any(arr < -_ENDPOINT_TOLERANCE) or np.any(arr > 1.0 + _ENDPOINT_TOLERANCE):
            raise CurveError(f"discount must lie in [0, 1], got {c!r}")
        boxed = np.clip(arr, 0.0, 1.0)
        result = np.asarray(self._derivative(boxed), dtype=np.float64)
        raw = np.asarray(self._evaluate(boxed), dtype=np.float64)
        clip_active = (raw < 0.0) | (raw > 1.0)
        if np.any(clip_active):
            result = np.where(clip_active, 0.0, result)
        if np.isscalar(c) or arr.ndim == 0:
            return float(result)
        return result

    def spec(self) -> Dict[str, object]:
        """The curve as plain data: its class and parameters.

        Checkpoint content keys hash it, so two curves with equal specs
        must be the same function.  The base class knows no parameters and
        raises; every built-in curve overrides it.
        """
        raise CurveError(
            f"{type(self).__qualname__} has no spec(); override spec() to "
            "name its parameters so checkpoints can key it"
        )

    def _spec(self, **parameters) -> Dict[str, object]:
        cls = type(self)
        return {"class": f"{cls.__module__}.{cls.__qualname__}", **parameters}

    # ------------------------------------------------------------------
    # validation and predicates
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the Section-3 axioms on a dense grid; raise on violation.

        Also checks clip consistency: wherever the raw ``_evaluate`` leaves
        ``[0, 1]`` (so :meth:`__call__` clips), the public derivative must
        report the flat clipped slope, 0 — otherwise finite differences of
        ``p(c)`` disagree with ``p'(c)`` and gradient solvers chase phantom
        ascent directions.
        """
        grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        values = np.asarray(self._evaluate(grid), dtype=np.float64)
        clip_active = (values < 0.0) | (values > 1.0)
        if np.any(clip_active):
            slopes = np.asarray(self.derivative(grid), dtype=np.float64)
            if np.any(slopes[clip_active] != 0.0):
                raise CurveError(
                    f"{self.name}: derivative must be 0 where p(c) is "
                    "clipped into [0, 1]"
                )
        if abs(float(values[0])) > _ENDPOINT_TOLERANCE:
            raise CurveError(f"{self.name}: p(0) must be 0, got {values[0]:.6g}")
        if abs(float(values[-1]) - 1.0) > _ENDPOINT_TOLERANCE:
            raise CurveError(f"{self.name}: p(1) must be 1, got {values[-1]:.6g}")
        if np.any(np.diff(values) < -1e-9):
            raise CurveError(f"{self.name}: p must be monotone non-decreasing")
        if np.any(values < -1e-9) or np.any(values > 1.0 + 1e-9):
            raise CurveError(f"{self.name}: p must map [0,1] into [0,1]")

    def is_insensitive(self, grid_size: int = _VALIDATION_GRID) -> bool:
        """Theorem 6's condition: ``p(c) <= c`` for all ``c`` in ``[0, 1]``."""
        grid = np.linspace(0.0, 1.0, grid_size)
        return bool(np.all(self(grid) <= grid + _ENDPOINT_TOLERANCE))

    def is_sensitive(self, grid_size: int = _VALIDATION_GRID) -> bool:
        """Whether ``p(c) >= c`` everywhere (users eager to convert)."""
        grid = np.linspace(0.0, 1.0, grid_size)
        return bool(np.all(self(grid) >= grid - _ENDPOINT_TOLERANCE))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LinearCurve(SeedProbabilityCurve):
    """``p(c) = c`` — the benchmark curve (dashed reference in Figure 2)."""

    name = "linear"
    _float_evaluate = True

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return c

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        return np.ones_like(c)

    def spec(self) -> Dict[str, object]:
        return self._spec()


class QuadraticCurve(SeedProbabilityCurve):
    """``p(c) = c^2`` — discount-insensitive users (5% in the paper)."""

    name = "quadratic"
    _float_evaluate = True

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return c * c

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        return 2.0 * c

    def spec(self) -> Dict[str, object]:
        return self._spec()


class ConcaveCurve(SeedProbabilityCurve):
    """``p(c) = 2c - c^2`` — discount-sensitive users (85% in the paper).

    Near ``c = 0`` the conversion probability is roughly ``2c``; the
    marginal effect of discount decays as ``c`` grows.
    """

    name = "concave"
    _float_evaluate = True

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return 2.0 * c - c * c

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        return 2.0 - 2.0 * c

    def spec(self) -> Dict[str, object]:
        return self._spec()


class PowerCurve(SeedProbabilityCurve):
    """``p(c) = c^exponent`` for any ``exponent > 0``.

    ``exponent > 1`` is insensitive, ``exponent < 1`` sensitive,
    ``exponent == 1`` linear.
    """

    _float_evaluate = True

    def __init__(self, exponent: float) -> None:
        if exponent <= 0.0:
            raise CurveError(f"exponent must be positive, got {exponent}")
        self.exponent = float(exponent)
        self.name = f"power({exponent:g})"

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return np.power(c, self.exponent)

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            d = self.exponent * np.power(c, self.exponent - 1.0)
        return np.nan_to_num(d, nan=0.0, posinf=0.0)

    def spec(self) -> Dict[str, object]:
        return self._spec(exponent=self.exponent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PowerCurve({self.exponent!r})"


class LogisticCurve(SeedProbabilityCurve):
    """Rescaled logistic S-curve satisfying the endpoint axioms.

    ``p(c) = (sigma(k (c - mid)) - sigma(-k mid)) / (sigma(k (1 - mid)) -
    sigma(-k mid))`` — models users with an adoption "tipping point" at
    ``mid``; steeper for larger ``k``.
    """

    _float_evaluate = True

    def __init__(self, steepness: float = 8.0, midpoint: float = 0.5) -> None:
        if steepness <= 0.0:
            raise CurveError(f"steepness must be positive, got {steepness}")
        if not 0.0 < midpoint < 1.0:
            raise CurveError(f"midpoint must lie in (0, 1), got {midpoint}")
        self.steepness = float(steepness)
        self.midpoint = float(midpoint)
        self.name = f"logistic(k={steepness:g}, mid={midpoint:g})"
        lo = self._sigma(np.asarray(0.0))
        hi = self._sigma(np.asarray(1.0))
        self._offset = float(lo)
        self._scale = float(hi - lo)
        if self._scale <= 0.0:
            raise CurveError("degenerate logistic parameters")

    def _sigma(self, c: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.steepness * (c - self.midpoint)))

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return (self._sigma(c) - self._offset) / self._scale

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        sig = self._sigma(c)
        return self.steepness * sig * (1.0 - sig) / self._scale

    def spec(self) -> Dict[str, object]:
        return self._spec(steepness=self.steepness, midpoint=self.midpoint)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogisticCurve(steepness={self.steepness!r}, midpoint={self.midpoint!r})"


class PiecewiseLinearCurve(SeedProbabilityCurve):
    """Monotone piecewise-linear interpolation through given knots.

    The practical form when curves are *learned from data* (the paper notes
    real curves must be estimated): fit knot values at a few discount
    levels and interpolate.  Knots must start at ``(0, 0)``, end at
    ``(1, 1)`` and be non-decreasing in both coordinates.
    """

    _float_evaluate = True

    def __init__(self, knots: Sequence[Tuple[float, float]]) -> None:
        pts = sorted((float(x), float(y)) for x, y in knots)
        if len(pts) < 2:
            raise CurveError("need at least two knots")
        xs = np.asarray([p[0] for p in pts])
        ys = np.asarray([p[1] for p in pts])
        if abs(xs[0]) > _ENDPOINT_TOLERANCE or abs(xs[-1] - 1.0) > _ENDPOINT_TOLERANCE:
            raise CurveError("knot x-coordinates must span [0, 1]")
        if abs(ys[0]) > _ENDPOINT_TOLERANCE or abs(ys[-1] - 1.0) > _ENDPOINT_TOLERANCE:
            raise CurveError("knot y-coordinates must run from 0 to 1")
        if np.any(np.diff(xs) <= 0.0):
            raise CurveError("knot x-coordinates must be strictly increasing")
        if np.any(np.diff(ys) < 0.0):
            raise CurveError("knot y-coordinates must be non-decreasing")
        self._xs = xs
        self._ys = ys
        self.name = f"piecewise({len(pts)} knots)"

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return np.interp(c, self._xs, self._ys)

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        slopes = np.diff(self._ys) / np.diff(self._xs)
        segment = np.clip(np.searchsorted(self._xs, c, side="right") - 1, 0, slopes.size - 1)
        return slopes[segment]

    def spec(self) -> Dict[str, object]:
        return self._spec(knots=[[float(x), float(y)] for x, y in zip(self._xs, self._ys)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PiecewiseLinearCurve({list(zip(self._xs, self._ys))!r})"


class CallableCurve(SeedProbabilityCurve):
    """Wrap arbitrary callables as a curve (validated on construction).

    The derivative defaults to a central finite difference when no
    analytic derivative is supplied.  A function cannot be hashed by
    content, so ``key`` names it for checkpoint content keys: two curves
    with the same key must be the same function.  ``func`` always receives
    numpy input (an array, or a numpy scalar for a scalar discount).
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        derivative: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str = "callable",
        *,
        key: str,
    ) -> None:
        if not isinstance(key, str) or not key:
            raise CurveError(f"key must be a non-empty string, got {key!r}")
        self._func = func
        self._deriv = derivative
        self.name = name
        self.key = key
        self.validate()

    def _evaluate(self, c: np.ndarray) -> np.ndarray:
        return np.asarray(self._func(c), dtype=np.float64)

    def _derivative(self, c: np.ndarray) -> np.ndarray:
        if self._deriv is not None:
            return np.asarray(self._deriv(c), dtype=np.float64)
        h = 1e-6
        lo = np.clip(c - h, 0.0, 1.0)
        hi = np.clip(c + h, 0.0, 1.0)
        return (self._evaluate(hi) - self._evaluate(lo)) / np.maximum(hi - lo, 1e-12)

    def spec(self) -> Dict[str, object]:
        return self._spec(key=self.key)


# The paper's three experiment curves, as shared singletons.
SENSITIVE = ConcaveCurve()
LINEAR = LinearCurve()
INSENSITIVE = QuadraticCurve()
