"""The one scalar point rule (`families._as_point`): a point is a real number,
converted once to float before any arithmetic, so every numpy or rational
point computes in float64 and returns Python floats."""

import math
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigratio.chebyshev import corollary_bounds
from trigratio.envelopes import ratio_bounds
from trigratio.families import HALF_PI, DomainError, FamilyKind, eval_f, eval_ratio

TC, TS = FamilyKind.TRIG_COS, FamilyKind.TRIG_SIN

# the four scalar point functions, each as (family, p, x) -> float or tuple
FOUR = {
    "eval_f": eval_f,
    "eval_ratio": eval_ratio,
    "ratio_bounds": ratio_bounds,
    "corollary_bounds": lambda family, p, y: corollary_bounds(p, y),
}

# real points that are not Python floats; the longdouble one carries bits
# below float64's where longdouble is x87 80-bit
CONVERSIONS = {
    "float16": np.float16,
    "float32": np.float32,
    "float64": np.float64,
    "longdouble": lambda x: np.longdouble(x) * (1 + np.longdouble(2.0) ** -60),
    "int64": lambda x: np.int64(round(x)),
    "int": round,
    "Fraction": lambda x: Fraction(x).limit_denominator(10**6),
}


def _outcome(call):
    """The bits of call()'s float or floats, or the class of its error."""
    try:
        value = call()
    except DomainError:
        return DomainError
    values = value if isinstance(value, tuple) else (value,)
    assert all(type(v) is float for v in values)
    return tuple(struct.pack("<d", v) for v in values)


@given(
    name=st.sampled_from(sorted(FOUR)),
    conversion=st.sampled_from(sorted(CONVERSIONS)),
    family=st.sampled_from(list(FamilyKind)),
    p=st.sampled_from([2, 3, 7, 16]),
    x=st.floats(min_value=1e-6, max_value=HALF_PI, exclude_max=True),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_a_point_computes_at_its_float(name, conversion, family, p, x):
    """A numpy scalar, an int or a Fraction point gives bitwise the call at
    float(x), in Python floats: the arithmetic never runs in float16/32 or
    in rationals.  Out of range (an int 0 or 2) both raise DomainError."""
    point = CONVERSIONS[conversion](x / p if name == "corollary_bounds" else x)
    got = _outcome(lambda: FOUR[name](family, p, point))
    assert got == _outcome(lambda: FOUR[name](family, p, float(point)))


def test_a_float32_point_keeps_ratio_bounds_strict():
    """At a float32 point the bounds contain the 40-digit ratio at that
    point: float32 arithmetic gave 0.9999989 and 0.999999 around
    0.99999898914768865.  None of 960 float32 points on a log grid of
    [1e-3, 1.5] misses (below ~1e-3 float64 rounding does, ROADMAP item 2)."""
    lo, hi = ratio_bounds(TC, 2, np.float32(0.0016418300801888108))
    assert type(lo) is type(hi) is float and lo < 0.99999898914768865 < hi
    g = {TC: mpmath.cos, TS: mpmath.sin, FamilyKind.HYP_COS: mpmath.cosh, FamilyKind.HYP_SIN: mpmath.sinh}
    for family in FamilyKind:
        for p in (2, 3, 5, 16):
            for x in np.geomspace(1e-3, 1.5, 60).astype(np.float32):
                lo, hi = ratio_bounds(family, p, x)
                with mpmath.workdps(40):
                    xm = mpmath.mpf(float(x))
                    assert lo < g[family](xm) / g[family](xm / p) < hi, (family, p, x)


def test_numpy_and_rational_points_compute_in_float64():
    """float16 0.5 is 0.5: f is not float16 arithmetic's 2.623046875.  A
    float32 y = 1e-4 would give the empty bounds (2.0, 2.0) in float32."""
    assert eval_f(TS, 16, np.float16(0.5)) == eval_f(TS, 16, 0.5)
    lo, hi = corollary_bounds(2, np.float32(1e-4))
    assert lo < hi < 2.0 and (lo, hi) == corollary_bounds(2, float(np.float32(1e-4)))
    # a Fraction computes at its float, 0.43643692572069637 in exact arithmetic
    assert eval_f(TS, 3, Fraction(7, 10)) == eval_f(TS, 3, 0.7) == 0.4364369257206964


@pytest.mark.parametrize("name", sorted(FOUR))
def test_out_of_range_numpy_points_say_where(name):
    """A real point out of range or NaN keeps the "outside" message, with
    the point as given."""
    for x in (np.float32(2.0), np.float64(math.nan), -1, 10**400):
        with pytest.raises(DomainError, match=" outside "):
            FOUR[name](TS, 2, x)
