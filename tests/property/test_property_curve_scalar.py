"""The scalar path of ``SeedProbabilityCurve.__call__`` is the array path.

A ``float`` discount (``np.float64`` included) skips the array machinery;
every built-in curve must still return the exact bits of its 0-d-array
evaluation — the sign of zero and NaN included, compared through
``tobytes`` — and reject out-of-range input with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import (
    CallableCurve,
    ConcaveCurve,
    LinearCurve,
    LogisticCurve,
    PiecewiseLinearCurve,
    PowerCurve,
    QuadraticCurve,
)
from repro.exceptions import CurveError

from tests.property.test_property_curves import curve_strategy

TOLERANCE = 1e-9
EDGES = [
    0.0,
    -0.0,
    1.0,
    -TOLERANCE,
    1.0 + TOLERANCE,
    -TOLERANCE / 2,
    1.0 + TOLERANCE / 2,
    np.nextafter(0.0, 1.0),
    np.nextafter(1.0, 0.0),
    np.nextafter(-TOLERANCE, 0.0),
    np.nextafter(1.0 + TOLERANCE, 1.0),
    float("nan"),
    -float("nan"),
]
in_range = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=-TOLERANCE, max_value=1.0 + TOLERANCE, allow_nan=False),
)
out_of_range = st.one_of(
    st.floats(max_value=-TOLERANCE, exclude_max=True, allow_nan=False),
    st.floats(min_value=1.0 + TOLERANCE, exclude_min=True, allow_nan=False),
    st.sampled_from([np.nextafter(-TOLERANCE, -1.0), np.nextafter(1.0 + TOLERANCE, 2.0)]),
)
as_float = st.sampled_from([float, np.float64])

CLASSES = [
    LinearCurve(),
    QuadraticCurve(),
    ConcaveCurve(),
    PowerCurve(0.5),
    PowerCurve(3.0),
    LogisticCurve(steepness=12.0, midpoint=0.3),
    PiecewiseLinearCurve([(0.0, 0.0), (0.3, 0.6), (0.7, 0.65), (1.0, 1.0)]),
]


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestScalarMatchesArray:
    @given(curve=curve_strategy(), x=in_range, kind=as_float)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical(self, curve, x, kind):
        c = kind(x)
        scalar = curve(c)
        assert type(scalar) is float
        assert _bits(scalar) == _bits(float(curve(np.asarray(c))))

    @pytest.mark.parametrize("curve", CLASSES, ids=lambda curve: curve.name)
    def test_edges_of_every_class(self, curve):
        for x in EDGES:
            for c in (float(x), np.float64(x)):
                assert _bits(curve(c)) == _bits(float(curve(np.asarray(c)))), repr(c)

    @given(curve=curve_strategy(), x=out_of_range, kind=as_float)
    @settings(max_examples=200, deadline=None)
    def test_same_error(self, curve, x, kind):
        c = kind(x)
        with pytest.raises(CurveError) as raised:
            curve(c)
        assert str(raised.value) == f"discount must lie in [0, 1], got {c!r}"


class TestArrayOnlyCallable:
    def test_array_only_function_works_on_scalars(self):
        # ``astype`` exists on ndarrays and numpy scalars, not on a
        # Python float: a scalar discount must still reach the function
        # in numpy form.
        def cube(c):
            return c.astype(np.float64) ** 3

        curve = CallableCurve(cube, key="cube")
        for c in (0.5, np.float64(0.5)):
            assert curve(c) == 0.125
            assert type(curve(c)) is float
