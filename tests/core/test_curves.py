"""Unit tests for seed-probability curves."""

import numpy as np
import pytest

from repro.core.curves import (
    INSENSITIVE,
    LINEAR,
    SENSITIVE,
    CallableCurve,
    ConcaveCurve,
    LinearCurve,
    LogisticCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    QuadraticCurve,
    SeedProbabilityCurve,
)
from repro.exceptions import CurveError

ALL_CURVES = [
    LinearCurve(),
    QuadraticCurve(),
    ConcaveCurve(),
    PowerCurve(0.5),
    PowerCurve(3.0),
    LogisticCurve(steepness=6.0, midpoint=0.4),
    PiecewiseLinearCurve([(0, 0), (0.3, 0.6), (1, 1)]),
]


class TestAxioms:
    @pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
    def test_endpoints(self, curve):
        assert curve(0.0) == pytest.approx(0.0, abs=1e-9)
        assert curve(1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
    def test_monotone(self, curve):
        grid = np.linspace(0, 1, 101)
        values = curve(grid)
        assert np.all(np.diff(values) >= -1e-9)

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
    def test_range(self, curve):
        grid = np.linspace(0, 1, 101)
        values = curve(grid)
        assert np.all(values >= -1e-9)
        assert np.all(values <= 1 + 1e-9)

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
    def test_validate_passes(self, curve):
        curve.validate()

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
    def test_derivative_nonnegative(self, curve):
        grid = np.linspace(0.01, 0.99, 50)
        assert np.all(curve.derivative(grid) >= -1e-9)

    @pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
    def test_derivative_matches_finite_difference(self, curve):
        # Irrational-ish offsets avoid landing exactly on piecewise knots,
        # where the two-sided difference quotient is undefined.
        grid = np.linspace(0.0537, 0.9537, 19)
        h = 1e-6
        numeric = (curve(grid + h) - curve(grid - h)) / (2 * h)
        analytic = curve.derivative(grid)
        assert np.allclose(numeric, analytic, atol=1e-4)


class TestDomainChecks:
    def test_out_of_domain_rejected(self):
        curve = LinearCurve()
        with pytest.raises(CurveError):
            curve(1.5)
        with pytest.raises(CurveError):
            curve(-0.1)
        with pytest.raises(CurveError):
            curve.derivative(2.0)

    def test_scalar_and_array_forms(self):
        curve = ConcaveCurve()
        assert isinstance(curve(0.5), float)
        result = curve(np.array([0.25, 0.5]))
        assert isinstance(result, np.ndarray)
        assert result.shape == (2,)


class TestSpecificValues:
    def test_paper_curves(self):
        # Section 9.1: sensitive 2c - c^2, linear c, insensitive c^2.
        assert SENSITIVE(0.2) == pytest.approx(0.36)
        assert LINEAR(0.2) == pytest.approx(0.2)
        assert INSENSITIVE(0.2) == pytest.approx(0.04)

    def test_power_curve(self):
        assert PowerCurve(2.0)(0.5) == pytest.approx(0.25)
        assert PowerCurve(0.5)(0.25) == pytest.approx(0.5)

    def test_piecewise_interpolation(self):
        curve = PiecewiseLinearCurve([(0, 0), (0.5, 0.8), (1, 1)])
        assert curve(0.25) == pytest.approx(0.4)
        assert curve(0.75) == pytest.approx(0.9)

    def test_piecewise_derivative_by_segment(self):
        curve = PiecewiseLinearCurve([(0, 0), (0.5, 0.8), (1, 1)])
        assert curve.derivative(0.25) == pytest.approx(1.6)
        assert curve.derivative(0.75) == pytest.approx(0.4)


class TestSensitivityPredicates:
    def test_insensitive_detection(self):
        assert QuadraticCurve().is_insensitive()
        assert LinearCurve().is_insensitive()  # p(c) = c satisfies p <= c
        assert not ConcaveCurve().is_insensitive()

    def test_sensitive_detection(self):
        assert ConcaveCurve().is_sensitive()
        assert LinearCurve().is_sensitive()
        assert not QuadraticCurve().is_sensitive()

    def test_power_exponent_controls_sensitivity(self):
        assert PowerCurve(2.0).is_insensitive()
        assert PowerCurve(0.5).is_sensitive()


class TestInvalidCurves:
    def test_power_invalid_exponent(self):
        with pytest.raises(CurveError):
            PowerCurve(0.0)
        with pytest.raises(CurveError):
            PowerCurve(-1.0)

    def test_logistic_invalid_params(self):
        with pytest.raises(CurveError):
            LogisticCurve(steepness=0.0)
        with pytest.raises(CurveError):
            LogisticCurve(midpoint=1.0)

    def test_piecewise_bad_endpoints(self):
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0, 0.1), (1, 1)])
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0, 0), (1, 0.9)])
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0.1, 0), (1, 1)])

    def test_piecewise_non_monotone(self):
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0, 0), (0.5, 0.9), (0.7, 0.3), (1, 1)])

    def test_piecewise_too_few_knots(self):
        with pytest.raises(CurveError):
            PiecewiseLinearCurve([(0, 0)])

    def test_callable_violating_axioms_rejected(self):
        with pytest.raises(CurveError):
            CallableCurve(lambda c: 0.5 * c, key="half")  # p(1) = 0.5 != 1
        with pytest.raises(CurveError):
            CallableCurve(lambda c: 1.0 - c, key="flip")  # decreasing


class TestCallableCurve:
    def test_wraps_valid_function(self):
        curve = CallableCurve(lambda c: np.asarray(c) ** 3, name="cubic", key="cube")
        assert curve(0.5) == pytest.approx(0.125)
        curve.validate()

    def test_finite_difference_derivative(self):
        curve = CallableCurve(lambda c: np.asarray(c) ** 2, key="square")
        assert curve.derivative(0.5) == pytest.approx(1.0, abs=1e-4)

    def test_analytic_derivative_used_when_given(self):
        curve = CallableCurve(
            lambda c: np.asarray(c) ** 2,
            derivative=lambda c: 2 * np.asarray(c),
            key="square",
        )
        assert curve.derivative(0.3) == pytest.approx(0.6)


class TestClipConsistency:
    """derivative() must report the *public* (post-clip) curve's slope."""

    class Overshoot(SeedProbabilityCurve):
        # Raw p(c) = 2.2c - 1.2c^2 exceeds 1 on (~0.55, 1), where
        # __call__ clips it flat; p(0) = 0 and p(1) = 1 still hold.
        name = "overshoot"

        def _evaluate(self, c):
            return 2.2 * c - 1.2 * c * c

        def _derivative(self, c):
            return 2.2 - 2.4 * c

    def test_derivative_zero_where_clipped(self):
        curve = self.Overshoot()
        assert curve(0.9) == 1.0  # raw 1.008 clipped to the [0, 1] box
        assert curve.derivative(0.0) == pytest.approx(2.2)
        # Raw p(0.8) = 0.992 < 1: not clipped, analytic slope survives.
        assert curve.derivative(0.8) == pytest.approx(2.2 - 2.4 * 0.8)
        # Raw p(0.9) = 1.008 > 1: clipped flat, slope must be 0.
        assert curve.derivative(0.9) == 0.0
        arr = curve.derivative(np.array([0.0, 0.9, 0.95]))
        assert arr[1] == 0.0 and arr[2] == 0.0

    def test_finite_differences_agree_with_derivative(self):
        curve = self.Overshoot()
        h = 1e-6
        for c in (0.3, 0.9, 0.95):
            fd = (curve(c + h) - curve(c - h)) / (2 * h)
            assert curve.derivative(c) == pytest.approx(fd, abs=1e-4)

    def test_validate_rejects_inconsistent_derivative(self):
        class Liar(self.Overshoot):
            name = "liar"

            def derivative(self, c):  # bypasses the base-class clip fix
                arr = np.asarray(c, dtype=np.float64)
                out = np.asarray(self._derivative(np.clip(arr, 0.0, 1.0)))
                if np.isscalar(c) or arr.ndim == 0:
                    return float(out)
                return out

        with pytest.raises(CurveError, match="derivative must be 0"):
            Liar().validate()

    def test_builtin_curves_pass_clip_check(self):
        for curve in ALL_CURVES:
            curve.validate()  # no raw overshoot, so the check is vacuous
