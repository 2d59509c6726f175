"""Tests for the closed forms of D(x) and the finite-difference oracle."""

import math

import mpmath
import numpy as np
import pytest

from trigratio.derivatives import (
    ParityError,
    d_general,
    d_general_hyp_cos,
    d_sum,
    d_sum_even_sin,
    d_sum_odd,
    dirichlet_sum,
    general_weights,
    numeric_D,
    numeric_D_with_estimate,
    vanishing_limits_check,
)
from trigratio.families import DomainError, FamilyKind, HALF_PI, ParameterError, PoleError

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)

# frozen from 40-digit symbolic-free differentiation of x^3 f'(x)
D_ORACLE = [
    (TC, 2, 1.0, 0.408550387667022900484),
    (TS, 2, 1.0, -0.119856384651050750068),
    (TC, 3, 0.7, -0.186630113415822051629),
    (TS, 5, 0.7, -0.405515732781033765554),
    (TC, 7, 1.1, -0.895634556226099520091),
    (TS, 12, 0.4, -0.368231575922059508019),
    (TS, 2.5, 0.9, -0.203357602274685094237),
    (TS, -2, 0.9, 0.0978672451750268020086),
    (TC, 4, 0.9, -0.485803217764098621811),
]


@pytest.mark.parametrize("family,p,x,expected", D_ORACLE)
def test_d_general_oracle(family, p, x, expected):
    assert d_general(family, p, x) == pytest.approx(expected, rel=1e-13)


HYP_D_ORACLE = [
    (HS, 3, 1.0, -0.424982791710247060672),
    (HC, 2, 1.0, 0.06022249509254610023),
    (HC, 2, 1.5, -0.0710941200530615207248),
    (HS, 2, 0.6, -0.0456780440170713894125),
]
NUMERIC_D_ORACLE = D_ORACLE + HYP_D_ORACLE


def hyp_closed(family, p, x):
    """Hyperbolic closed-form D: the sum form, or the general form for hyp-cos at even p."""
    if family is HC and p % 2 == 0:
        return d_general_hyp_cos(p, x)
    return d_sum(family, p, x)


@pytest.mark.parametrize("family,p,x,expected", HYP_D_ORACLE)
def test_hyp_closed_form_oracle(family, p, x, expected):
    assert hyp_closed(family, p, x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("family,p,x,expected", NUMERIC_D_ORACLE)
def test_numeric_D_oracle(family, p, x, expected):
    assert numeric_D(family, p, x, h=1e-4) == pytest.approx(expected, abs=1e-5)


def test_numeric_D_hyp_sin_example_is_negative():
    assert numeric_D(FamilyKind.HYP_SIN, 3, 1.0, h=1e-4) < 0.0


def _mp_D_trig_sin(p, x):
    """D at x from the definition, by mpmath differentiation at 40 digits."""
    with mpmath.workdps(40):
        p, x = mpmath.mpf(p), mpmath.mpf(x)

        def f(t):
            return (p - mpmath.sin(t) / mpmath.sin(t / p)) / t**2

        return mpmath.diff(lambda t: t**3 * mpmath.diff(f, t), x, 2)


@pytest.mark.parametrize("p", [3.7, 7.3])
@pytest.mark.parametrize("x", [0.05, 0.2, 1.0])
def test_d_general_non_integer_p_matches_mpmath(p, x):
    """The general form's table is built in the precision of the bracket:
    float64 weights at p = 7.3 cost 2e-8 relative at x = 0.05 through the
    x^5 cancellation against csc^4(x/p)."""
    expected = float(_mp_D_trig_sin(p, x))
    assert d_general(TS, p, x) == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("p", [2, 2.5, 3, 4, 7, -2])
def test_general_matches_numeric_on_grid(p):
    """Closed form vs finite differences, 1e-5 absolute at h = 1e-4."""
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    for family in (TC, TS):
        closed = d_general(family, p, xs)
        numeric, _ = numeric_D_with_estimate(family, p, xs, 1e-4)
        np.testing.assert_allclose(numeric, closed, atol=1e-5, rtol=0.0)


@pytest.mark.parametrize("p", range(2, 9))
def test_hyp_closed_matches_numeric_on_grid(p):
    """x -> ix closed forms vs finite differences, 1e-5 absolute at h = 1e-4."""
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    for family in (HC, HS):
        numeric, _ = numeric_D_with_estimate(family, p, xs, 1e-4)
        np.testing.assert_allclose(numeric, hyp_closed(family, p, xs), atol=1e-5, rtol=0.0)


@pytest.mark.parametrize("k", range(1, 7))
def test_hyp_cos_general_matches_odd_sum(k):
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 40)
    a = d_general_hyp_cos(2 * k + 1, xs)
    b = d_sum_odd(HC, k, xs)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-13


def test_hyp_cos_p2_sign_change():
    # 40-digit values: D(1.316) = +3.0e-4, D(1.318) = -3.3e-4, root near 1.3170
    assert d_general_hyp_cos(2, 1.316) > 0.0
    assert d_general_hyp_cos(2, 1.318) < 0.0


def test_numeric_D_error_estimate_on_sparse_trig_sin_sample():
    """A 25-point sample with the estimate floored at 1e-7, not a bound:
    numeric_D_with_estimate's estimate is a heuristic, not a bound (see its
    docstring); for this same claim it is exceeded at 220 of the 2048
    points of the default grid."""
    xs = np.linspace(0.01, HALF_PI - 0.01, 25)
    closed = d_general(TS, 3, xs)
    numeric, est = numeric_D_with_estimate(TS, 3, xs, 1e-4)
    assert np.all(np.abs(numeric - closed) <= np.maximum(est, 1e-7))


@pytest.mark.parametrize("k", range(1, 7))
def test_even_sum_matches_general(k):
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    a = d_general(TS, 2 * k, xs)
    b = d_sum_even_sin(k, xs)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-12


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("family", [TC, TS])
def test_odd_sum_matches_general(family, k):
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    a = d_general(family, 2 * k + 1, xs)
    b = d_sum_odd(family, k, xs)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-12


def test_d_sum_odd_cos_oracle():
    # p = 5 (k = 2): the alternating-sign variant with (-1)^(j-1) would
    # return +0.684..., the correct form returns the negative value
    val = d_sum_odd(TC, 2, 1.0)
    assert val == pytest.approx(d_general(TC, 5, 1.0), rel=1e-12)
    assert val < 0.0


def test_d_sum_odd_k1_closed_value():
    # single term: -(16/27) sin(2x/3); alternating and plain forms coincide
    expected = -16.0 / 27.0 * math.sin(2.0 / 3.0)  # -0.36644136478...
    assert d_sum_odd(TS, 1, 1.0) == pytest.approx(expected, rel=1e-15)
    assert d_sum_odd(TC, 1, 1.0) == pytest.approx(expected, rel=1e-15)


def test_d_sum_parity_dispatch():
    assert d_sum(TS, 4, 0.5) == pytest.approx(d_sum_even_sin(2, 0.5), rel=1e-15)
    assert d_sum(TS, 5, 0.5) == pytest.approx(d_sum_odd(TS, 2, 0.5), rel=1e-15)
    assert d_sum(TC, 7, 0.5) == pytest.approx(d_sum_odd(TC, 3, 0.5), rel=1e-15)
    with pytest.raises(ParityError):
        d_sum(TC, 4, 0.5)
    with pytest.raises(ParityError):
        d_sum(HC, 4, 0.5)
    assert d_sum(HS, 4, 0.5) < 0.0


def test_sin_sum_terms_all_negative():
    """Each even-sum summand is individually <= 0 on (0, pi/2)."""
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 50)
    for k in range(1, 7):
        for j in range(k):
            m = 2 * j + 1
            term = -xs / (4.0 * k**3) * m**3 * np.sin(m * xs / (2.0 * k))
            assert np.all(term < 0.0)


@pytest.mark.parametrize("p", range(3, 13))
def test_sign_trig_cos_negative_for_p_ge_3(p):
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 200)
    assert np.all(d_general(TC, p, xs) < 0.0)


def test_sign_trig_cos_positive_for_p_2():
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 200)
    assert np.all(d_general(TC, 2, xs) > 0.0)


def test_general_weights_values():
    # p = 2, cos family: ((p+1)^3, (p-1)^3, 3p^3+3p^2-15p-23, 3p^3-3p^2-15p+23)
    assert general_weights(TC, 2.0) == (27.0, 1.0, -17.0, 5.0)
    # p = 2, sin family: ((p+1)^3, -(p-1)^3, -3p^3-3p^2+15p+23, 3p^3-3p^2-15p+23)
    assert general_weights(TS, 2.0) == (27.0, -1.0, 17.0, 5.0)


@pytest.mark.parametrize("k", range(1, 11))
def test_dirichlet_sum_identity(k):
    for x in np.linspace(0.01, math.pi - 0.01, 100):
        term_sum, closed = dirichlet_sum(k, float(x))
        assert term_sum == pytest.approx(closed, rel=1e-13, abs=1e-13)


def test_dirichlet_sum_oracle():
    term_sum, closed = dirichlet_sum(3, 1.1)
    assert closed == pytest.approx(2.44423477638280740344, rel=1e-15)
    assert term_sum == pytest.approx(closed, rel=1e-14)


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", range(2, 9))
def test_vanishing_limits(family, p):
    l1, l2 = vanishing_limits_check(family, p)
    assert abs(l1) < 1e-8
    assert abs(l2) < 1e-8


def test_numeric_D_h_and_stencil_validation():
    with pytest.raises(DomainError):
        numeric_D(TS, 2, 1.0, h=1e-6)
    with pytest.raises(DomainError):
        numeric_D(TS, 2, 1.0, h=1e-2)
    with pytest.raises(DomainError):
        numeric_D(TS, 2, 2e-4, h=1e-4)  # stencil pokes below 0
    with pytest.raises(DomainError):
        numeric_D(TS, 2, HALF_PI - 2e-4, h=1e-4)


def test_numeric_D_with_estimate_checks_h_and_stencil():
    """The vectorized oracle applies numeric_D's checks: at h = 1e-7 roundoff
    gives -0.3853 against the closed form's -0.3664."""
    for h in (1e-7, 1e-2, math.nan):
        with pytest.raises(DomainError):
            numeric_D_with_estimate(TS, 3, [1.0], h)
    with pytest.raises(DomainError):
        numeric_D_with_estimate(TS, 3, [0.5, 1.0], [1e-4, 1e-6])
    with pytest.raises(DomainError):
        numeric_D_with_estimate(TS, 3, [1.0, math.nan], 1e-4)


def test_d_general_pole_rule():
    """The general form's den = g(x/p) follows the pole rule of f, |den| < 1e-12,
    for the sin family too (sin(pi) is 1.2e-16 in floats)."""
    with pytest.raises(PoleError):
        d_general(TC, 1.0 / 3.0, math.pi / 6.0)
    with pytest.raises(PoleError):
        d_general(TS, 0.2, math.pi / 5.0)


def test_d_general_rejects_hyperbolic():
    with pytest.raises(ParameterError):
        d_general(HC, 2, 0.5)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x: d_sum(TS, 4, x),
        lambda x: d_sum(HS, 3, x),
        lambda x: d_general(TC, 2, x),
        lambda x: d_general_hyp_cos(2, x),
    ],
    ids=["d_sum-trig", "d_sum-hyp", "d_general", "d_general_hyp_cos"],
)
def test_closed_forms_reject_nan(evaluate):
    with pytest.raises(DomainError):
        evaluate(math.nan)
    with pytest.raises(DomainError):
        evaluate(np.array([0.5, math.nan]))


def test_weights_hook_changes_result():
    base = d_general(TC, 3, 0.8)
    w = list(general_weights(TC, 3.0))
    w[3] += 1.0
    mutated = d_general(TC, 3, 0.8, weights=tuple(w))
    assert abs(mutated - base) > 1e-6
