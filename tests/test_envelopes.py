"""Tests for the envelope constants and the derived ratio bounds."""

import math
import re
from decimal import Decimal

import numpy as np
import pytest

from trigratio.envelopes import Direction, _envelope_constants, envelope_constants, ratio_bounds
from trigratio.families import (
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    eval_f,
    eval_ratio,
    f_series_coeffs,
    limit_at_half_pi,
    limit_at_zero,
    _ratio_rows,
)

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)


def test_p2_cos_constants_exact():
    ec = envelope_constants(TC, 2)
    assert ec.lower == 0.375
    assert ec.upper == 4.0 / math.pi**2
    assert ec.direction is Direction.INCREASING


def test_p2_sin_constants_exact():
    ec = envelope_constants(TS, 2)
    assert ec.upper == 0.25
    assert ec.lower == (4.0 / math.pi**2) * (2.0 - 1.0 / math.sin(math.pi / 4.0))
    assert ec.lower == pytest.approx(0.237410300887945908685, rel=5e-16)
    assert ec.direction is Direction.DECREASING


# frozen oracle values of the non-trivial endpoint constants
CONSTANTS_ORACLE = [
    (TC, 5, 0.405284734569351085776, 0.48, Direction.DECREASING),
    (TS, 7, 1.01566007743469894826, 48.0 / 42.0, Direction.DECREASING),
    (HC, 2, -0.375, -0.362437412259877142077, Direction.INCREASING),
    (HC, 4, -0.537976164223693445461, -0.46875, Direction.DECREASING),
    (HS, 2, -0.263118217152595971899, -0.25, Direction.DECREASING),
    (HS, 9, -1.66927319587421189815, -80.0 / 54.0, Direction.DECREASING),
]


@pytest.mark.parametrize("family,p,lower,upper,direction", CONSTANTS_ORACLE)
def test_constants_oracle(family, p, lower, upper, direction):
    ec = envelope_constants(family, p)
    assert ec.lower == pytest.approx(lower, rel=5e-15)
    assert ec.upper == pytest.approx(upper, rel=5e-15)
    assert ec.direction is direction


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", range(2, 17))
def test_lower_strictly_below_upper(family, p):
    ec = envelope_constants(family, p)
    assert ec.lower < ec.upper


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", [2, 3, 7, 12])
def test_envelope_contains_f(family, p):
    ec = envelope_constants(family, p)
    for x in np.linspace(1e-3, HALF_PI - 1e-3, 400):
        f = eval_f(family, p, float(x))
        assert ec.lower < f < ec.upper


def test_only_cos_p2_increasing():
    increasing = {
        (family, p)
        for family in FamilyKind
        for p in range(2, 17)
        if envelope_constants(family, p).direction is Direction.INCREASING
    }
    assert increasing == {(TC, 2), (HC, 2)}


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", [2, 3, 5, 9])
def test_ratio_bounds_contain_ratio(family, p):
    for x in np.linspace(1e-3, HALF_PI - 1e-3, 300):
        lo, hi = ratio_bounds(family, p, float(x))
        r = eval_ratio(family, p, float(x))
        assert lo < r < hi


def test_ratio_bounds_collapse_at_zero():
    """Width shrinks like (upper - lower) * x^2 near the origin."""
    family, p = TS, 3
    ec = envelope_constants(family, p)
    for x in (1e-1, 1e-2, 1e-3):
        lo, hi = ratio_bounds(family, p, x)
        assert hi - lo == pytest.approx((ec.upper - ec.lower) * x * x, rel=1e-12)


def test_ratio_bounds_domain_error():
    with pytest.raises(DomainError):
        ratio_bounds(TS, 2, 0.0)
    with pytest.raises(DomainError):
        ratio_bounds(TS, 2, HALF_PI)


@pytest.mark.parametrize("x", [True, np.True_])
def test_ratio_bounds_rejects_bool_x(x):
    with pytest.raises(DomainError):
        ratio_bounds(TS, 2, x)


@pytest.mark.parametrize(
    "x",
    ["0.5", None, 0.5j]
    + [pytest.param(b"0.5", id="bytes"), pytest.param(Decimal("0.5"), id="Decimal"), True, pytest.param(np.True_, id="np-true")],
)
def test_ratio_bounds_rejects_x_that_is_no_real_number(x):
    with pytest.raises(DomainError, match=f"^x must be a real number, got {re.escape(repr(x))}$"):
        ratio_bounds(TS, 2, x)


@pytest.mark.parametrize("p", [1, 0, -3, 2.5])
def test_envelope_rejects_bad_p(p):
    with pytest.raises(ParameterError):
        envelope_constants(TS, p)


def test_sharpness_against_endpoint_values():
    """The constants are attained in the limits: f gets arbitrarily close."""
    ec = envelope_constants(TS, 5)
    near_zero = eval_f(TS, 5, 1e-6)
    near_half_pi = eval_f(TS, 5, HALF_PI - 1e-6)
    assert ec.upper - near_zero < 1e-11
    assert near_half_pi - ec.lower < 1e-5


@pytest.mark.parametrize("family", FamilyKind)
def test_cached_constants_bitwise_match_the_limits(family):
    """Each cached envelope holds the limit formulas' values bit for bit, in
    the order the direction gives (increasing only for the cos families at p = 2)."""
    for p in [*range(2, 65), 10**8, 2**53]:
        ec = envelope_constants(family, p)
        at_zero, at_half_pi = limit_at_zero(family, p).hex(), limit_at_half_pi(family, p).hex()
        if family.is_cos and p == 2:
            expected = (at_zero, at_half_pi, Direction.INCREASING)
        else:
            expected = (at_half_pi, at_zero, Direction.DECREASING)
        assert (ec.lower.hex(), ec.upper.hex(), ec.direction) == expected, p
        assert envelope_constants(family, p) is ec


@pytest.mark.parametrize("family", FamilyKind)
def test_constants_are_cached_per_integer_p(family):
    ec = envelope_constants(family, np.int64(3))
    assert ec is envelope_constants(family, 3)
    assert type(ec.p) is int


@pytest.mark.parametrize("p", [2.0, True, 1, "3"])
def test_bad_p_raises_on_every_call(p):
    for _ in range(2):
        with pytest.raises(ParameterError):
            envelope_constants(TS, p)


@pytest.mark.parametrize("family", FamilyKind)
def test_p_past_float64_raises_parameter_error(family):
    """At p past float64's range a limit would overflow: p lies past the top
    of its range, 2^53, and every call raises ParameterError (not a bare
    OverflowError) before any limit is taken, so the cache stores nothing
    and f's exact series (~1.3 s at 10**5000) is not even looked up."""
    size = _envelope_constants.cache_info().currsize
    series = _ratio_rows.cache_info(), f_series_coeffs.cache_info()
    for p in (10**400, 10**400, 10**5000):
        with pytest.raises(ParameterError):
            envelope_constants(family, p)
        with pytest.raises(ParameterError):
            ratio_bounds(family, p, 0.5)
    assert _envelope_constants.cache_info().currsize == size
    assert (_ratio_rows.cache_info(), f_series_coeffs.cache_info()) == series


def test_envelope_cache_is_bounded():
    """300 distinct p hold at most 256 entries, like the series caches."""
    for p in range(2, 302):
        envelope_constants(TC, p)
    assert _envelope_constants.cache_info().currsize <= 256
