"""Tests for the ratio families: oracle values, branches, limits, errors."""

import math

import numpy as np
import pytest

from trigratio.families import (
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    PoleError,
    eval_f,
    eval_f_grid,
    eval_ratio,
    f_series_coeffs,
    limit_at_half_pi,
    limit_at_zero,
    series_threshold,
)

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)

# frozen from a 40-digit extended-precision evaluation of the definitions
RATIO_ORACLE = [
    (TC, 2, 1.0, 0.615671196456196309919),
    (TS, 2, 1.0, 1.75516512378074543223),
    (HS, 2, 1.0, 2.25525193041276157045),
    (HC, 2, 1.0, 1.36843304644268766179),
    (TS, 7, 0.3, 6.89758279979806490067),
    (TC, 5, 1.2, 0.373050126586344977252),
    (HS, 3, 0.8, 3.2912510848327849596),
    (HC, 4, 1.5, 2.19617309952010044176),
]

F_ORACLE = [
    (TC, 2, 1.0, 0.384328803543803690081),
    (TS, 2, 1.0, 0.244834876219254567767),
    (HC, 2, 1.0, -0.368433046442687661794),
    (HS, 2, 1.0, -0.255251930412761570452),
    (TC, 3, 0.5, 0.440344429482098684894),
    (TS, 5, 1.3, 0.740781731466948748611),
    (HC, 7, 0.9, -0.520151268801924251282),
    (HS, 12, 1.5, -2.21775839273738613282),
    (TS, 2, 0.1, 0.24994792100675068742),   # series branch
    (TC, 2, 0.005, 0.375000195313354494281),  # series branch
    (TS, 16, 0.14, 2.65367178759459935239),  # series branch, large p
]


@pytest.mark.parametrize("family,p,x,expected", RATIO_ORACLE)
def test_eval_ratio_oracle(family, p, x, expected):
    assert eval_ratio(family, p, x) == pytest.approx(expected, rel=5e-15)


@pytest.mark.parametrize("family,p,x,expected", F_ORACLE)
def test_eval_f_oracle(family, p, x, expected):
    assert eval_f(family, p, x) == pytest.approx(expected, rel=5e-14)


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", [2, 3, 5, 8, 12])
def test_eval_f_at_zero_equals_limit(family, p):
    assert eval_f(family, p, 0.0) == pytest.approx(limit_at_zero(family, p), rel=1e-15)


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", [2, 3, 7, 16])
def test_eval_f_approaches_half_pi_limit(family, p):
    x = HALF_PI - 1e-8
    assert eval_f(family, p, x) == pytest.approx(limit_at_half_pi(family, p), abs=1e-7)


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 9, 12, 16])
def test_branch_agreement_at_threshold(family, p):
    """Series and direct branches agree at the crossover point itself."""
    th = series_threshold(family, p)
    series_val = float(
        sum(a * th ** (2 * i) for i, a in enumerate(f_series_coeffs(family, p)))
    )
    # direct branch: nudge just above the threshold so eval_f dispatches there
    direct_val = eval_f(family, p, math.nextafter(th, 2.0))
    assert series_val == pytest.approx(direct_val, rel=2e-13)


@pytest.mark.parametrize("family", FamilyKind)
def test_grid_matches_scalar(family):
    xs = np.linspace(0.0, HALF_PI - 1e-6, 257)
    grid = eval_f_grid(family, 5, xs)
    scalars = np.array([eval_f(family, 5, float(x)) for x in xs])
    # grid path uses numpy libm, scalar path math libm; the sin-type direct
    # branch amplifies their last-ulp differences by ~p/x^2 just above the
    # series threshold, so exact equality is not expected there
    np.testing.assert_allclose(grid, scalars, rtol=5e-13, atol=0.0)


def test_grid_longdouble_dtype():
    xs = np.linspace(0.0, 1.5, 64)
    out = eval_f_grid(FamilyKind.TRIG_SIN, 3, xs, dtype=np.longdouble)
    assert out.dtype == np.longdouble
    ref = eval_f_grid(FamilyKind.TRIG_SIN, 3, xs)
    np.testing.assert_allclose(out.astype(np.float64), ref, rtol=1e-13)


LIMIT_ZERO_CASES = [
    (TC, 3, 4.0 / 9.0),
    (TC, 2, 3.0 / 8.0),
    (TS, 2, 0.25),
    (TS, 5, 0.8),
    (HC, 2, -3.0 / 8.0),
    (HS, 2, -0.25),
    (HS, 5, -0.8),
]


@pytest.mark.parametrize("family,p,expected", LIMIT_ZERO_CASES)
def test_limit_at_zero_closed_forms(family, p, expected):
    assert limit_at_zero(family, p) == pytest.approx(expected, rel=1e-15)


LIMIT_HALF_PI_CASES = [
    (TC, 2, 0.405284734569351085776),
    (TC, 5, 0.405284734569351085776),
    (TS, 2, 0.237410300887945908685),
    (TS, 7, 1.01566007743469894826),
    (HC, 2, -0.362437412259877142077),
    (HC, 4, -0.537976164223693445461),
    (HS, 2, -0.263118217152595971899),
    (HS, 9, -1.66927319587421189815),
]


@pytest.mark.parametrize("family,p,expected", LIMIT_HALF_PI_CASES)
def test_limit_at_half_pi_oracle(family, p, expected):
    assert limit_at_half_pi(family, p) == pytest.approx(expected, rel=5e-16)


def test_limit_trig_cos_is_p_free():
    vals = {limit_at_half_pi(FamilyKind.TRIG_COS, p) for p in range(2, 10)}
    assert vals == {4.0 / math.pi**2}


@pytest.mark.parametrize("x", [-0.1, HALF_PI, 2.0, math.pi])
def test_eval_f_domain_errors(x):
    with pytest.raises(DomainError):
        eval_f(FamilyKind.TRIG_COS, 2, x)


def test_eval_ratio_rejects_endpoints():
    with pytest.raises(DomainError):
        eval_ratio(FamilyKind.TRIG_SIN, 2, 0.0)
    with pytest.raises(DomainError):
        eval_ratio(FamilyKind.TRIG_SIN, 2, HALF_PI)


@pytest.mark.parametrize("p", [0, 0.0, math.inf, math.nan])
def test_parameter_errors(p):
    with pytest.raises(ParameterError):
        eval_f(FamilyKind.TRIG_COS, p, 0.5)


@pytest.mark.parametrize("p", [True, False, np.True_])
def test_bool_p_rejected(p):
    with pytest.raises(ParameterError):
        eval_f(FamilyKind.TRIG_SIN, p, 0.5)


def test_eval_f_grid_rejects_nan():
    with pytest.raises(DomainError):
        eval_f_grid(FamilyKind.TRIG_SIN, 2, np.array([0.5, math.nan]))
    with pytest.raises(DomainError):
        eval_f_grid(FamilyKind.HYP_COS, 2, np.array([math.nan]), dtype=np.longdouble)


def test_pole_error_trig_cos():
    # p = 1/3 puts the cos(x/p) zero at x = 3*pi/6 < pi/2... use x near pole
    with pytest.raises(PoleError):
        eval_ratio(FamilyKind.TRIG_COS, 1.0 / 3.0, math.pi / 6.0)


def test_series_threshold_shrinks_with_small_p():
    assert series_threshold(FamilyKind.TRIG_SIN, 2) == pytest.approx(0.15)
    assert series_threshold(FamilyKind.TRIG_COS, 5) == pytest.approx(1e-2)
    assert series_threshold(FamilyKind.TRIG_SIN, 0.1) == pytest.approx(0.045)


@pytest.mark.parametrize("family", FamilyKind)
def test_series_coeffs_leading_term(family):
    """a0 must equal the x -> 0 limit exactly."""
    for p in (2, 3, 7):
        a = f_series_coeffs(family, float(p))
        assert a[0] == pytest.approx(limit_at_zero(family, p), rel=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize(
    "family,p,x", [(TC, 1.0 / 3.0, math.pi / 6.0), (TS, 0.2, math.pi / 5.0)], ids=["trig-cos", "trig-sin"]
)
def test_grid_pole_error(family, p, x, dtype):
    """eval_f_grid applies the pole rule of eval_f and eval_ratio, |g(x/p)| < 1e-12."""
    with pytest.raises(PoleError):
        eval_f(family, p, x)
    with pytest.raises(PoleError):
        eval_f_grid(family, p, np.array([0.5 * x, x]), dtype=dtype)


def _limit_at_zero_closed_form(family, p):
    if family is TC:
        return (p * p - 1) / (2.0 * p * p)
    if family is TS:
        return (p * p - 1) / (6.0 * p)
    if family is HC:
        return (1 - p * p) / (2.0 * p * p)
    return (1 - p * p) / (6.0 * p)


def _limit_at_half_pi_closed_form(family, p):
    c = 4.0 / (math.pi * math.pi)
    if family is TC:
        return c
    if family is TS:
        return c * (p - 1.0 / math.sin(HALF_PI / p))
    if family is HC:
        return c * (1.0 - math.cosh(HALF_PI) / math.cosh(HALF_PI / p))
    return c * (p - math.sinh(HALF_PI) / math.sinh(HALF_PI / p))


@pytest.mark.parametrize("family", FamilyKind)
def test_limits_bitwise_match_per_family_closed_forms(family):
    """The table-driven limits equal the per-family formulas bit for bit."""
    for p in range(2, 201):
        assert limit_at_zero(family, p) == _limit_at_zero_closed_form(family, p), p
        assert limit_at_half_pi(family, p) == _limit_at_half_pi_closed_form(family, p), p
