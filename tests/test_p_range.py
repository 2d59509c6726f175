"""The one range of p every entry point takes: a real 3/2 <= |p| <= 2^53 of
either sign, or an integer 2 <= p <= 2^53.  Inside it g(x/p) has no pole on
(0, pi/2) and every series and table fits float64, so nothing there raises."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigratio import (
    FamilyKind,
    ParameterError,
    Sign,
    VerificationConfig,
    corollary_bounds,
    d_general,
    d_sum,
    envelope_constants,
    eval_f,
    eval_f_grid,
    eval_ratio,
    limit_at_half_pi,
    limit_at_zero,
    ratio_bounds,
    vanishing_limits_check,
    verify_sign_D,
)
from trigratio.families import HALF_PI

TC, TS = FamilyKind.TRIG_COS, FamilyKind.TRIG_SIN
X = math.nextafter(HALF_PI, 0.0)  # at p = 1 a zero of cos(x/p) in floats, a pole outside the range

# name -> call on p: the functions that take a real p, then those that take an integer p
REAL_P_CALLS = {
    "eval_f": lambda p: eval_f(TC, p, X),
    "eval_ratio": lambda p: eval_ratio(TC, p, X),
    "eval_f_grid": lambda p: eval_f_grid(TS, p, [0.0, 5e-324, X]),
    "d_general": lambda p: d_general(TS, p, [5e-324, 0.5, X]),
    "vanishing_limits_check": lambda p: vanishing_limits_check(TS, p),
}
INT_P_CALLS = {
    "d_sum": lambda p: d_sum(TS, p, 0.5),
    "envelope_constants": lambda p: envelope_constants(TS, p),
    "limit_at_zero": lambda p: limit_at_zero(TS, p),
    "limit_at_half_pi": lambda p: limit_at_half_pi(TS, p),
    "ratio_bounds": lambda p: ratio_bounds(TS, p, 0.5),
    "corollary_bounds": lambda p: corollary_bounds(p, 1e-17),  # y < pi/(2p) at every p of the range
    "verify_sign_D": lambda p: verify_sign_D(TC, p, Sign.POS if p == 2 else Sign.NEG, VerificationConfig()),
}
# name -> the edges of p's range it takes: d_sum has no sum form past MAX_SUM_P = 2^16
EDGES = {
    **{name: (1.5, -1.5, 2.0**53, -(2.0**53)) for name in REAL_P_CALLS},
    **{name: (2, 2**53) for name in INT_P_CALLS},
    "d_sum": (2,),
}
OUTSIDE = [
    math.nextafter(1.5, 0.0), 1.0, -1.0, 0.5, 0, 2**53 + 2, -(2**53 + 2), 2.0**53 + 2, 1e300, 10**400,
    math.nan, math.inf, -math.inf,
]
RANGE_MESSAGE = r"^p must (satisfy 3/2 <= \|p\| <= 2\^53|be in \[2, 2\^53\]|be an integer), got "


def _finite(value) -> bool:
    if hasattr(value, "status"):  # a VerificationReport
        return value.status.value == "certified"
    if hasattr(value, "lower"):  # EnvelopeConstants
        value = (value.lower, value.upper)
    return bool(np.isfinite(np.asarray(value, dtype=float)).all())


@pytest.mark.parametrize("name", [*REAL_P_CALLS, *INT_P_CALLS])
def test_one_range_for_p(name):
    """Every public function that takes p answers, finitely, at the edges of
    its range it allows, and raises ParameterError naming the range just
    outside it, at either end, for NaN, inf and an integer past float64."""
    call = {**REAL_P_CALLS, **INT_P_CALLS}[name]
    for p in EDGES[name]:
        assert _finite(call(p)), p
    for p in OUTSIDE:
        with pytest.raises(ParameterError, match=RANGE_MESSAGE):
            call(p)


@pytest.mark.parametrize("p", ["3", " 2.5 ", b"3", "nan"])
def test_string_p_fails_loudly(p):
    """A string p is no number, even where float() would parse it."""
    for call in (lambda: eval_f(TS, p, 0.5), lambda: eval_ratio(TS, p, 0.5), lambda: d_general(TS, p, 0.9)):
        with pytest.raises(ParameterError, match=r"^p must satisfy 3/2 <= \|p\| <= 2\^53, got "):
            call()


@pytest.mark.parametrize("p", [np.float64(2.5), np.float32(2.5), np.int64(3), 3, Fraction(5, 2), Fraction(3)])
def test_real_types_of_p_are_their_float(p):
    """numpy reals, ints and Fractions are p as float(p), bit for bit."""
    for call in (
        lambda q: eval_f(TS, q, 0.5),
        lambda q: eval_ratio(TS, q, 0.5),
        lambda q: d_general(TS, q, 0.9),
        lambda q: eval_f_grid(TC, q, [0.005, 0.5]).tobytes(),
    ):
        assert call(p) == call(float(p))


@given(
    family=st.sampled_from(list(FamilyKind)),
    p=st.floats(1.5, 2.0**53),
    negative=st.booleans(),
    xs=st.lists(st.floats(0.0, X), min_size=1, max_size=8),
)
@example(family=TS, p=1.5, negative=False, xs=[5e-324, 2.2e-308, X])
@example(family=TC, p=2.0**53, negative=True, xs=[5e-324, 1e-300, 0.3])
@settings(max_examples=200, deadline=None)
def test_in_range_values_are_finite(family, p, negative, xs):
    """For every p in the range and x in the domain, subnormal x included,
    f and D are finite: no pole, no overflow, nothing left to guard."""
    p = -p if negative else p
    assert np.isfinite(eval_f_grid(family, p, xs)).all()
    positive = [x for x in xs if x > 0.0]
    if positive:
        assert np.isfinite(d_general(family, p, positive)).all()
