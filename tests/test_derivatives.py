"""Tests for the closed forms of D(x), against D differentiated from the
definition in 40-digit mpmath (`mp_oracle.mp_D`)."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mp_oracle import mp_D

import trigratio
from trigratio import derivatives
from trigratio.derivatives import (
    ParityError,
    MAX_SUM_P,
    d_general,
    d_sum,
    dirichlet_sum,
    eval_sin_comb,
    exact_sin_comb_form,
    general_vs_sum_check,
    sin_comb_form,
    termwise_sign,
    vanishing_limits_check,
    _chebyshev_check,
    _d_series_coeffs,
    _DEN4,
    _dirichlet_check,
    _general_vs_sum,
    _sin_sum_bounds,
    _table_d_series,
    _trig,
    _trig_diff,
)
from trigratio.chebyshev import DEGREE_CAP
from trigratio.families import (
    _even_series,
    _N_COEFFS,
    _ratio_rows,
    _scalar_fns,
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    eval_f,
    eval_f_grid,
    f_series_coeffs,
)

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
HYP_D_ORACLE = [
    (HS, 3, 1.0, -0.424982791710247060672),
    (HC, 2, 1.0, 0.06022249509254610023),
    (HC, 2, 1.5, -0.0710941200530615207248),
    (HS, 2, 0.6, -0.0456780440170713894125),
]
ALL_D_ORACLE = D_ORACLE + HYP_D_ORACLE


@pytest.mark.parametrize("family,p,x,expected", ALL_D_ORACLE)
def test_d_general_oracle(family, p, x, expected):
    assert d_general(family, p, x) == pytest.approx(expected, rel=1e-13)


def hyp_closed(family, p, x):
    """Hyperbolic closed-form D: the sum form, or the general form for hyp-cos at even p."""
    if family is HC and p % 2 == 0:
        return d_general(HC, p, x)
    return d_sum(family, p, x)


@pytest.mark.parametrize("family,p,x,expected", HYP_D_ORACLE)
def test_hyp_closed_form_oracle(family, p, x, expected):
    assert hyp_closed(family, p, x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("family,p,x,expected", ALL_D_ORACLE)
def test_mp_D_oracle(family, p, x, expected):
    """mp_D, the one reference for D that does not read the closed forms,
    reproduces every frozen row: a change to its precision or to
    `mp_oracle._f` fails here."""
    assert float(mp_D(family, p, x)) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", [3.7, 7.3])
@pytest.mark.parametrize("x", [1e-3, 0.05, 0.2, 1.0])
def test_d_general_non_integer_p_matches_mpmath(p, x):
    """Towards x = 0 the sin-family general form cancels (csc^4(x/p) against a
    bracket ~ x^5), by 1.0e-4 relative at x = 1e-3 for p = 7.3 even in 80
    bits; the series branch below |p|*pi/4 has no cancellation."""
    expected = float(mp_D(TS, p, x))
    assert d_general(TS, p, x) == pytest.approx(expected, rel=1e-10, abs=0.0)


def _rel_tol(family, p):
    if abs(p) < 2:
        return 1e-12
    if family is TS or p == int(p):
        return 1e-15
    return 1e-13


@pytest.mark.parametrize("p", [1.5, 2, 2.5, 3.7, 7.3, 16, 64, 1000, 1e4, -2])
@pytest.mark.parametrize("family", FamilyKind)
def test_d_general_matches_mpmath_on_log_grid(family, p):
    """40-digit mpmath on x from 1e-8 to pi/2 - 1e-3: a few ulps at |p| >= 2
    (1e-13 at non-integer p outside trig-sin, which passes near trig-cos's
    sign change at 2.5), 1e-12 at |p| < 2, and no wrong sign.  The
    hyperbolic families take the same path."""
    xs = np.geomspace(1e-8, HALF_PI - 1e-3, 17)
    got = d_general(family, p, xs)
    for x, value in zip(xs.tolist(), got.tolist()):
        expected = float(mp_D(family, p, x))
        assert value == pytest.approx(expected, rel=_rel_tol(family, p), abs=0.0), x
        assert math.copysign(1.0, value) == math.copysign(1.0, expected), x


@pytest.mark.parametrize(
    "p,x,expected",
    [
        (2, 1e-13, -1.25e-27),  # D ~ 24 a_1 x^2 with a_1 = -1/192 at p = 2
        (2, 1e-6, -1.2499999999999478e-13),  # the general form, even in 80 bits: -2.07e-7
        (1e4, 1e-2, -0.19999761239037835),  # there: +2.33
        (1000, 1e-3, -1.9999930952444378e-4),  # there: +0.0284
    ],
)
def test_d_general_sin_near_zero(p, x, expected):
    """At the removable zero of sin(x/p) the sin family sums D's series: no
    cancellation (values from 40-digit mpmath and d_sum)."""
    assert d_general(TS, p, x) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_d_general_sin_tiny_x_matches_sum_form():
    for x in (1e-13, 1e-9, 1e-6):
        assert d_general(TS, 2, x) == pytest.approx(d_sum(TS, 2, x), rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "family,p", [(TS, 1.5), (TS, 1.9), (TS, -1.5), (TC, 1.5), (TC, 2.5), (TC, 3.7), (TC, -2)]
)
def test_general_form_and_series_agree_at_crossover(family, p):
    """Either side of x_c, a quarter of the first zero of g(x/p) (|p|*pi/4
    for sin, |p|*pi/8 for cos) and inside (0, pi/2) for these p, the float64
    general form and D's series agree: the sin form's error ~ eps*(p/x)^4
    and the series' truncation both stay small there (their gap is under
    3.1e-14 for these p)."""
    x_c = abs(p) * math.pi / (8.0 if family is TC else 4.0)
    xs = np.linspace(0.9 * x_c, 1.1 * x_c, 41)
    general = eval_sin_comb(family, p, xs, True)
    series = _even_series(xs, _d_series_coeffs(family, p))
    np.testing.assert_allclose(series, general, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", range(4, 17))
def test_cos_general_form_matches_series(p):
    """The cos family's general form, which its sign claims evaluate, against
    D's series over (0, pi/2), where d_general takes the series for p >= 4
    (below, the crossover test compares the two)."""
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 200)
    general = eval_sin_comb(TC, p, xs, True)
    series = _even_series(xs, _d_series_coeffs(TC, p))
    np.testing.assert_allclose(general, series, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("family", FamilyKind)
def test_d_general_huge_p(family):
    """At the top of p's range, p = 2^53, D's series covers (0, pi/2), and
    D is its p -> infinity limit."""
    for p in (2.0**53,):
        got = d_general(family, p, np.array([1e-3, 0.5, 1.5]))
        assert np.all(np.isfinite(got)) and np.all(got < 0.0)
        if family.is_cos:
            # f -> (1 - cos x)/x^2, D = -x sin x for trig-cos; -x sinh x, its
            # x -> ix image, for hyp-cos
            limit = -0.5 * (math.sin if family is TC else math.sinh)(0.5)
            assert got[1] == pytest.approx(limit, rel=1e-15)


@pytest.mark.parametrize(
    "family,p,x",
    [
        (TC, 1e-120, 0.5),  # p^3 would underflow: ZeroDivisionError
        (TS, 1e-300, 0.5),
        (TC, 1e-103, 0.5),  # the general table's weights ~ 1/p^3 would overflow
        (TS, 1e-90, 0.5),  # 1 +- 3/p would round to +-3/p: a silent 0.0
        (HC, 0.005, 1.5),  # sinh((1 + 3/p)x) and cosh(x/p)^4 would overflow: nan
        (HS, 0.005, 1.5),
        (TC, 1e-10, 1e-12),  # D's series coefficients would overflow
    ],
)
def test_d_general_extreme_p_raises(family, p, x):
    """Where float64 holds no D, p lies outside its range, and d_general
    raises ParameterError, not an arithmetic error, a warning or a wrong
    number."""
    with pytest.raises(ParameterError):
        d_general(family, p, x)


# d_general's float64 bytes at four p, for the family named in `family`
_FLOAT64_VALUES = """
import numpy as np
from trigratio import FamilyKind, d_general
xs = np.concatenate([np.geomspace(1e-8, 1.5, 30), [np.pi / 2 - 1e-3]])
values = [d_general(FamilyKind[family], p, xs) for p in (1.5, 2, 7.3, 16)]
assert all(v.dtype == np.float64 for v in values)
result = repr([v.tobytes().hex() for v in values])
"""


@pytest.mark.parametrize("family", [TC, TS])
def test_d_general_runs_in_float64(family):
    """A fresh interpreter with np.longdouble made float64 before trigratio
    is imported, as on arm64 macOS, gives bitwise this process's d_general:
    it does not touch the platform's extended type."""
    here = {"family": family.name}
    exec(_FLOAT64_VALUES, here)
    patched = f"import numpy\nnumpy.longdouble = numpy.float64\nfamily = {family.name!r}\n" + _FLOAT64_VALUES + "print(result)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trigratio.__file__)))
    proc = subprocess.run([sys.executable, "-c", patched], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == here["result"] + "\n"


def _mp_D_grid(family, p, xs):
    return np.array([float(mp_D(family, p, x)) for x in xs.tolist()])


@pytest.mark.parametrize("p", [2, 2.5, 3, 4, 7, -2])
def test_general_matches_numeric_on_grid(p):
    """Closed form vs 40-digit numerical differentiation, 1e-13 absolute
    (worst measured 8.9e-16)."""
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    for family in (TC, TS):
        np.testing.assert_allclose(d_general(family, p, xs), _mp_D_grid(family, p, xs), atol=1e-13, rtol=0.0)


@pytest.mark.parametrize("p", range(2, 9))
def test_hyp_closed_matches_numeric_on_grid(p):
    """x -> ix closed forms vs 40-digit numerical differentiation, 1e-13
    absolute (worst measured 4.4e-16)."""
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    for family in (HC, HS):
        np.testing.assert_allclose(hyp_closed(family, p, xs), _mp_D_grid(family, p, xs), atol=1e-13, rtol=0.0)


@pytest.mark.parametrize("k", range(1, 7))
def test_hyp_cos_general_matches_odd_sum(k):
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 40)
    a = d_general(HC, 2 * k + 1, xs)
    b = d_sum(HC, 2 * k + 1, xs)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-13


def test_hyp_cos_p2_sign_change():
    # 40-digit values: D(1.316) = +3.0e-4, D(1.318) = -3.3e-4, root near 1.3170
    assert d_general(HC, 2, 1.316) > 0.0
    assert d_general(HC, 2, 1.318) < 0.0


@pytest.mark.parametrize("k", range(1, 7))
def test_even_sum_matches_general(k):
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    a, b = d_general(TS, 2 * k, xs), d_sum(TS, 2 * k, xs)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-12


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("family", [TC, TS])
def test_odd_sum_matches_general(family, k):
    xs = np.linspace(0.05, HALF_PI - 0.05, 40)
    a, b = d_general(family, 2 * k + 1, xs), d_sum(family, 2 * k + 1, xs)
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-12


def test_d_sum_odd_cos_oracle():
    # p = 5 (k = 2): the alternating-sign variant with (-1)^(j-1) would
    # return +0.684..., the correct form returns the negative value
    val = d_sum(TC, 5, 1.0)
    assert val == pytest.approx(d_general(TC, 5, 1.0), rel=1e-12)
    assert val < 0.0


def test_d_sum_odd_k1_closed_value():
    # single term: -(16/27) sin(2x/3); alternating and plain forms coincide
    expected = -16.0 / 27.0 * math.sin(2.0 / 3.0)  # -0.36644136478...
    assert d_sum(TS, 3, 1.0) == pytest.approx(expected, rel=1e-15)
    assert d_sum(TC, 3, 1.0) == pytest.approx(expected, rel=1e-15)


def _even_sum(family, k, x):
    """The sin families' sum form at p = 2k, written out:
    -x/(4k^3) sum_{j<k} (2j+1)^3 sin((2j+1)x/(2k)), each constant rounded once."""
    sin = np.sinh if family is HS else np.sin
    acc = 0.0
    for j in range(k):
        acc += float((2 * j + 1) ** 3) * sin((2 * j + 1) / (2 * k) * x)
    out = x * -(1 / (4 * k**3))
    out *= acc
    return out


def _odd_sum(family, k, x):
    """The sum form at p = 2k+1, written out: -16x/p^3 sum_{j<=k} s_j j^3
    sin(2jx/p), with s_j = (-1)^(k-j) for the cos families and 1 for the sin
    families, each constant rounded once."""
    p = 2 * k + 1
    sin = np.sin if family.is_trig else np.sinh
    sgn = -1 if family.is_cos else 1
    acc = 0.0
    for j in range(1, k + 1):
        acc += float(sgn ** (k - j) * j**3) * sin(2 * j / p * x)
    out = x * -(16 / p**3)
    out *= acc
    return out


@pytest.mark.parametrize("k", range(1, 7))
def test_d_sum_is_the_written_out_sum_forms(k):
    """d_sum at p = 2k (the sin families) and p = 2k+1 (every family) is
    bitwise the sum written out term by term, on arrays and on floats: the
    values of the former k-indexed entry points d_sum_even_sin(k, x) and
    d_sum_odd(family, k, x), pinned."""
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 64)
    for family in (TS, HS):
        assert d_sum(family, 2 * k, xs).tobytes() == _even_sum(family, k, xs).tobytes()
        assert d_sum(family, 2 * k, 0.7) == float(_even_sum(family, k, np.float64(0.7)))
    for family in FamilyKind:
        assert d_sum(family, 2 * k + 1, xs).tobytes() == _odd_sum(family, k, xs).tobytes()
        assert d_sum(family, 2 * k + 1, 0.7) == float(_odd_sum(family, k, np.float64(0.7)))


def _reference_sum_table(family, p):
    """The sum form's exact table as two parity branches, written out: at
    p = 2k, terms ((2j+1)^3, (2j+1)/p) for j < k and factor 1/(4k^3); at
    p = 2k+1, terms (s_j j^3, 2j/p) for 1 <= j <= k and factor 16/p^3, with
    s_j = (-1)^(k-j) for the cos families and 1 for the sin families."""
    pf, k = Fraction(p), p // 2
    if p % 2 == 0:
        return [(Fraction((2 * j + 1) ** 3), (2 * j + 1) / pf) for j in range(k)], Fraction(1, 4 * k**3)
    sgn = -1 if family.is_cos else 1
    return [(Fraction(sgn ** (k - j) * j**3), 2 * j / pf) for j in range(1, k + 1)], 16 / pf**3


@pytest.mark.parametrize("family", FamilyKind)
def test_sum_table_is_the_parity_branches(family):
    """The one sum-form table, over 0 < m < p with m = p-1 (mod 2), defines
    the same D as the two parity branches at every p = 2..40 where the
    family has a sum form: term by term the frequencies are equal, and so
    is each weight times its factor.  Its factor is 2/p^3 at either parity,
    so at odd p its weights are 8x the branch's."""
    for p in range(2, 41):
        if family.is_cos and p % 2 == 0:
            continue
        terms, factor = exact_sin_comb_form(family, p, False)
        ref_terms, ref_factor = _reference_sum_table(family, p)
        assert [(w * factor, c) for w, c in terms] == [(w * ref_factor, c) for w, c in ref_terms], p
        assert factor == Fraction(2, p**3)


def test_d_sum_parity_dispatch():
    assert d_sum(TS, 4, 0.5) == pytest.approx(_even_sum(TS, 2, 0.5), rel=1e-15)
    assert d_sum(TS, 5, 0.5) == pytest.approx(_odd_sum(TS, 2, 0.5), rel=1e-15)
    assert d_sum(TC, 7, 0.5) == pytest.approx(_odd_sum(TC, 3, 0.5), rel=1e-15)
    assert d_sum(HS, 4, 0.5) < 0.0
    # the cos families' even p has no sum table, refused where it is built, so by
    # each of its readers, by d_sum before it reads x, and ahead of MAX_SUM_P's refusal
    readers = [
        lambda f: exact_sin_comb_form(f, 4, False),
        lambda f: general_vs_sum_check(f, 4),
        lambda f: d_sum(f, 4, "x"),
        lambda f: d_sum(f, 2 * MAX_SUM_P, 0.5),
    ]
    for family in (TC, HC):
        for read in readers:
            with pytest.raises(ParityError, match="^no sum form for the cos families with even p$"):
                read(family)


@pytest.mark.parametrize("p", [10**9, 2**53 - 2], ids=["1e9", "2^53-2"])
def test_sum_forms_refuse_p_past_limit(p):
    """Past MAX_SUM_P = 2^16 no sum form is built: its p//2 exact terms
    would take minutes and run out of memory at p = 10^9.  ParameterError
    names p at once, from the builder itself, with no table cached.  D's
    series check reads the general form only, so it answers there, and
    exactly."""
    exact_sin_comb_form.cache_clear()
    t0 = time.perf_counter()
    calls = [
        *(lambda f=f: d_sum(f, p, 0.5) for f in (TS, HS)),
        *(lambda f=f: d_sum(f, p + 1, np.array([0.5, 1.0])) for f in (TC, HC)),
        lambda: general_vs_sum_check(TS, p),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=r"sum form .* at p=\d+ > 65536$"):
            call()
    assert time.perf_counter() - t0 < 1.0
    assert exact_sin_comb_form.cache_info().currsize == 0
    t0 = time.perf_counter()
    assert vanishing_limits_check(TS, p)[0] == 0.0
    assert time.perf_counter() - t0 < 1.0


def test_sum_form_builder_refuses_p_past_limit():
    """The builder holds the sum form's cap itself, so no caller builds the
    p//2 exact terms past MAX_SUM_P."""
    with pytest.raises(ParameterError, match=r"^D's sum form has p//2 terms, too many at p=65537 > 65536$"):
        exact_sin_comb_form(TS, MAX_SUM_P + 1, False)


def test_sum_forms_evaluate_up_to_limit():
    """The largest p with a sum form evaluates, and agrees with D's series;
    one past it has none."""
    got = d_sum(TS, MAX_SUM_P, np.array([0.5, 1.5]))
    np.testing.assert_allclose(got, d_general(TS, MAX_SUM_P, np.array([0.5, 1.5])), rtol=1e-10, atol=0.0)
    assert np.all(got < 0.0)
    with pytest.raises(ParameterError):
        d_sum(TC, MAX_SUM_P + 1, 0.5)


def test_sin_sum_terms_all_negative():
    """Each even-sum summand is individually <= 0 on (0, pi/2)."""
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 50)
    for k in range(1, 7):
        for j in range(k):
            m = 2 * j + 1
            term = -xs / (4.0 * k**3) * m**3 * np.sin(m * xs / (2.0 * k))
            assert np.all(term < 0.0)


@pytest.mark.parametrize("family", [TC, HC])
def test_cos_general_form_termwise_positive(family):
    """The termwise lemma: at p >= 3 every general-form weight of the cos
    families is > 0 and every frequency lies in [0, 2], so each w sin(c x) and
    w sinh(c x) is >= 0 on (0, pi/2) and D keeps one sign term by term."""
    for p in range(3, 201):
        terms, factor = sin_comb_form(family, p, True)
        assert factor > 0.0
        for w, c in terms:
            assert w > 0 and 0.0 <= c <= 2.0, (p, w, c)


def _mp(r):
    return mpmath.mpf(r.numerator) / r.denominator


@pytest.mark.parametrize("family", FamilyKind)
def test_sin_sum_bounds_hold_mpmath(family):
    """The exact enclosure the witness route reads holds sin (sinh) at every
    argument c x of the p = 2 general table, c = 1/2, 3/2, 5/2 at x = 1/2
    and 3/2, and the table's whole sum, against 50-digit mpmath, within
    1e-15; hyp-cos's sum is -0.08440 at 1/2 and +0.13317 at 3/2.  Where the
    tail's ratio is not below 1 it decides nothing: (0, inf)."""
    terms, _ = exact_sin_comb_form(family, 2, True)
    g = mpmath.sin if family.is_trig else mpmath.sinh
    with mpmath.workdps(50):
        for x in (Fraction(1, 2), Fraction(3, 2)):
            for table in [[(Fraction(1), c)] for _, c in terms] + [list(terms)]:
                s, err = _sin_sum_bounds(family, table, x)
                exact = sum(_mp(w) * g(_mp(c * x)) for w, c in table)
                assert err < 1e-15 and abs(exact - _mp(s)) <= _mp(err), (x, table)
            if family is HC:
                assert round(float(_sin_sum_bounds(family, terms, x)[0]), 5) == (-0.0844 if x < 1 else 0.13317)
    assert _sin_sum_bounds(family, [(Fraction(1), Fraction(40))], Fraction(1)) == (0, math.inf)


@pytest.mark.parametrize("p", range(3, 13))
def test_sign_trig_cos_negative_for_p_ge_3(p):
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 200)
    assert np.all(d_general(TC, p, xs) < 0.0)


def test_sign_trig_cos_positive_for_p_2():
    xs = np.linspace(1e-3, HALF_PI - 1e-3, 200)
    assert np.all(d_general(TC, 2, xs) > 0.0)


def test_general_weights_values():
    """The exact table at p = 2, with 2.0 giving the same one: N_3's sin
    terms by frequency, factor 1.  The paper's four terms merge to three,
    the frequency 1 - 3/p = -1/2 folding onto 1 - 1/p = 1/2."""
    for p in (2, 2.0):
        terms, factor = exact_sin_comb_form(TC, p, True)
        assert terms == ((Fraction(-11, 16), Fraction(1, 2)), (Fraction(5, 64), Fraction(3, 2)), (Fraction(1, 64), Fraction(5, 2)))
        assert factor == 1
        terms, factor = exact_sin_comb_form(TS, p, True)
        assert terms == ((Fraction(5, 32), Fraction(1, 2)), (Fraction(-5, 64), Fraction(3, 2)), (Fraction(1, 64), Fraction(5, 2)))
        assert factor == 1


def _forms(family):
    """(p, general) of every table at p = 2..64: the general form, and the sum
    form where the family has one."""
    for p in range(2, 65):
        yield p, True
        if not family.is_cos or p % 2:
            yield p, False


@pytest.mark.parametrize("family", FamilyKind)
def test_float_table_is_the_exact_table_rounded_once(family):
    """sin_comb_form is float() of exact_sin_comb_form, entry by entry,
    bitwise; the exact table is all Fractions."""
    forms = [*_forms(family), *((p, True) for p in (2.5, 7.3, -2.0, 0.5))]
    for p, general in forms:
        terms, factor = exact_sin_comb_form(family, p, general)
        floats, float_factor = sin_comb_form(family, p, general)
        assert all(type(e) is Fraction for e in (factor, *(e for term in terms for e in term)))
        assert float_factor.hex() == float(factor).hex()
        assert [(w.hex(), c.hex()) for w, c in floats] == [(float(w).hex(), float(c).hex()) for w, c in terms]


def test_float_table_rounds_frequencies_once():
    """1 - 1/p at p = 3 is 2/3 rounded once, not 1.0 - 1.0 * (1.0 / 3.0),
    which rounds twice to 0.6666666666666667.  The zero frequency 1 - 3/p
    has dropped from the table."""
    terms, _ = sin_comb_form(TC, 3, True)
    assert terms[0][1] == 0.6666666666666666
    assert [c for _, c in terms[1:]] == [4.0 / 3.0, 2.0]


@pytest.mark.parametrize("family", FamilyKind)
def test_general_form_equals_sum_form_exactly(family):
    """The exact identity holds at every p = 2..64 where the family has a sum
    form, the hyperbolic families included."""
    for p, general in _forms(family):
        if not general:
            assert general_vs_sum_check(family, p), p


@pytest.mark.parametrize("family", FamilyKind)
def test_sum_rule_is_minus_x_times_the_third_derivative(family):
    """The sum table's rule, terms (eps_m m^3, m/p) and factor 2/p^3, is
    D = -x R''' read termwise off R = sum eps_m cos(m t) over |m| < p,
    t = x/p, as `_sum_form_lemma`'s docstring argues.  In units of 1/p,
    `_trig_diff` is d/dt = p d/dx, and three of them take cos(m t) +
    cos(-m t) to +2 m^3 sin(m t), so -x R''' = -x (2/p^3) sum_(m>0)
    eps_m m^3 sin(m x/p).  Checked on the lemma's symbolic keys (a
    frequency a p + b keyed a 2^64 + b), at the step's top terms
    m = p - 1 and p + 1, and against the tables as built at every p <= 20
    with a sum form, the rule's eps_m re-derived here."""

    def third(r):
        return _trig_diff(_trig_diff(_trig_diff(r)))

    for m in (1, 2, 3, derivatives._P - 1, derivatives._P + 1, 2 * derivatives._P + 1):
        assert third(_trig([("cos", m, 1), ("cos", -m, 1)])) == {("sin", m): 2 * m**3}, m
    for p in range(2 + family.is_cos, 21, 1 + family.is_cos):
        eps = {m: (-1) ** ((p - 1 - abs(m)) // 2) if family.is_cos else 1 for m in range(1 - p, p, 2)}
        terms, factor = exact_sin_comb_form(family, p, False)
        table = _trig(("sin", derivatives._per_p(c, p), factor * w * p**3) for w, c in terms)
        assert third(_trig(("cos", m, e) for m, e in eps.items())) == table, p


def test_general_vs_sum_reads_the_two_tables_as_built(monkeypatch):
    """The check compares the two tables as `exact_sin_comb_form` returns
    them: once both are cached, it derives N_3 no further time, at every
    pair with a sum form at p = 2..13 and at the largest sum form."""
    pairs = [(f, p) for f in FamilyKind for p in range(2, 14) if not (f.is_cos and p % 2 == 0)]
    pairs += [(TS, MAX_SUM_P), (TC, MAX_SUM_P - 1)]
    for family, p in pairs:
        exact_sin_comb_form(family, p, False), exact_sin_comb_form(family, p, True)
    calls = []
    n3 = derivatives._third_derivative_numerator
    monkeypatch.setattr(derivatives, "_third_derivative_numerator", lambda *a: calls.append(a) or n3(*a))
    _general_vs_sum.cache_clear()
    assert all(general_vs_sum_check(family, p) for family, p in pairs)
    assert calls == []


# --- D's table from f's definition, in exact algebra --------------------------


def _paper_general_table(family, p):
    """The paper's general form of D, typed from its display:
    D = -x * factor * sum w sin(c x) / den(x/p)^4, with den^4 = sec^4(x/p)
    for the cos families where the display prints csc^4."""
    pf = Fraction(p)
    s = 1 / pf
    # 3p^3 +- 3p^2 - 15p -+ 23 = u +- v; the sin families negate two weights and the factor
    u, v = 3 * pf**3 - 15 * pf, 3 * pf**2 - 23
    flip = 1 if family.is_cos else -1
    ws = ((pf + 1) ** 3, flip * (pf - 1) ** 3, flip * (u + v), u - v)
    return tuple(zip(ws, (1 - 3 * s, 1 + 3 * s, 1 - s, 1 + s))), flip / (8 * pf**3)


@pytest.mark.parametrize("family", [TC, TS])
def test_general_table_is_D_exactly(family):
    """exact_sin_comb_form's general table, differentiated from f's
    definition (`_third_derivative_numerator`), is the paper's display read
    with sec^4, as trig polynomials in exact rationals.  It is N_3's sin
    terms in increasing frequency, each frequency once and positive, with
    factor 1.  The hyperbolic families read the same table by x -> ix."""
    for p in [*range(2, 65), 1.5, 2.25, 7.3, -4, 10**9 + 1, 2**53]:
        terms, factor = exact_sin_comb_form(family, p, True)
        paper, paper_factor = _paper_general_table(family, p)
        assert _trig(("sin", c, w) for w, c in terms) == _trig(("sin", c, paper_factor * w) for w, c in paper), p
        assert factor == 1 and all(w for w, _ in terms), p
        assert 0 < terms[0][1] and all(a[1] < b[1] for a, b in zip(terms, terms[1:])), p


def test_den4_is_the_power_reduction():
    """sin^4 y = (3 - 4 cos 2y + cos 4y)/8 and cos^4 y = (3 + 4 cos 2y + cos 4y)/8, in Fractions."""
    for den4, sign in zip(_DEN4, (-1, 1)):
        assert den4 == {("cos", 0): Fraction(3, 8), ("cos", 2): Fraction(sign, 2), ("cos", 4): Fraction(1, 8)}
        assert all(type(e) is Fraction for (_, k), a in den4.items() for e in (k, a))


@pytest.mark.parametrize("k", range(1, 11))
def test_dirichlet_sum_identity(k):
    for x in np.linspace(0.01, math.pi - 0.01, 100):
        term_sum, closed = dirichlet_sum(k, float(x))
        assert term_sum == pytest.approx(closed, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: d_sum(TS, 0, 0.5), ParameterError),
        (lambda: d_sum(TC, 1, 0.5), ParameterError),
        *((lambda p=p: general_vs_sum_check(TS, p), ParameterError) for p in (1, True, 2.5)),
        (lambda: general_vs_sum_check(TS, np.int64(3)) and general_vs_sum_check(TS, 3.0), ParameterError),
        (lambda: dirichlet_sum(0, 1.0), ParameterError),
        (lambda: dirichlet_sum(3, 0.0), DomainError),
        (lambda: dirichlet_sum(3, math.pi), DomainError),
        (lambda: dirichlet_sum(3, math.nan), DomainError),
        (lambda: dirichlet_sum(True, 0.5), ParameterError),
        (lambda: dirichlet_sum(2.5, 0.5), ParameterError),
        (lambda: dirichlet_sum(3.0, 0.5), ParameterError),
        (lambda: dirichlet_sum(3, np.array([0.5, math.pi])), DomainError),
        (lambda: dirichlet_sum(3, np.array([0.5, math.nan])), DomainError),
    ],
    ids=[
        "even-sum-k0",
        "odd-sum-k0",
        *(f"general-vs-sum-p-{p}" for p in ("1", "bool", "float")),
        "general-vs-sum-p-3.0-cached",
        "dirichlet-k0",
        "dirichlet-x0",
        "dirichlet-x-pi",
        "dirichlet-x-nan",
        "dirichlet-k-bool",
        "dirichlet-k-float",
        "dirichlet-k-integral-float",
        "dirichlet-array-x-pi",
        "dirichlet-array-x-nan",
    ],
)
def test_sum_forms_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


def _reference_dirichlet_sum(k, x):
    """dirichlet_sum as written before its array path, for a float x."""
    den = math.sin(x / (2.0 * k))
    term_sum = math.fsum(math.cos((2 * j + 1) * x / (2.0 * k)) for j in range(k))
    return term_sum, math.sin(x) / (2.0 * den)


@pytest.mark.parametrize("k", range(1, 11))
def test_dirichlet_sum_is_its_scalar_formula_and_refuses_arrays(k):
    """A float gives floats, bit for bit the scalar formula's values, the
    terms summed by math.fsum; an array is no point and raises."""
    xs = np.linspace(1e-6, math.pi - 1e-6, 101)
    scalar = [dirichlet_sum(k, x) for x in xs.tolist()]
    assert all(type(v) is float for pair in scalar for v in pair)
    assert scalar == [_reference_dirichlet_sum(k, x) for x in xs.tolist()]
    with pytest.raises(DomainError, match="^x must be a real number, got array"):
        dirichlet_sum(k, xs)


def test_dirichlet_sum_oracle():
    term_sum, closed = dirichlet_sum(3, 1.1)
    assert closed == pytest.approx(2.44423477638280740344, rel=1e-15)
    assert term_sum == pytest.approx(closed, rel=1e-14)


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", range(2, 9))
def test_vanishing_limits(family, p):
    l1, l2 = vanishing_limits_check(family, p)
    assert l1 == 0.0
    assert abs(l2) < 1e-8


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", [1.5, 2.5, 3.7, -2, -3.7, 3.99, 7.3, -4, 1000.5, 10**9, -1.5, 2**53, -(2**53)])
def test_vanishing_limits_real_p(family, p):
    """Real p: D's series from f's agrees with the general form's exactly.
    It is compared by table algebra, not at sample points, so also where
    that form cancels all over (0, pi/2), the sin families at non-integer or
    negative |p| >= 4."""
    d_gap, f_gap = vanishing_limits_check(family, p)
    assert d_gap == 0.0 and f_gap < 1e-12


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x: d_sum(TS, 4, x),
        lambda x: d_sum(HS, 3, x),
        lambda x: d_general(TC, 2, x),
        lambda x: d_general(HC, 2, x),
        lambda x: d_general(HS, 2.5, x),
    ],
    ids=["d_sum-trig", "d_sum-hyp", "d_general", "d_general_hyp_cos", "d_general-hyp-sin"],
)
def test_closed_forms_reject_nan(evaluate):
    with pytest.raises(DomainError):
        evaluate(math.nan)
    with pytest.raises(DomainError):
        evaluate(np.array([0.5, math.nan]))


@pytest.mark.parametrize("x", [True, np.True_, np.array([True, False])], ids=["bool", "np-bool", "bool-array"])
def test_bool_points_fail_loudly(x):
    """A bool is no point: read as 1.0 or 0.0 it would give D(1.0) or a
    domain error about 0; every D evaluator and dirichlet_sum raise instead,
    dirichlet_sum, which takes a scalar x only, by the scalar-point rule."""
    calls = [
        lambda: d_general(TS, 2, x),
        lambda: d_sum(TS, 2, x),
        lambda: d_sum(HC, 3, x),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="bools"):
            call()
    with pytest.raises(DomainError, match="^x must be a real number, got "):
        dirichlet_sum(3, x)


def test_weights_hook_changes_result(mutate_table):
    """D is read from the exact table: one weight changed there changes the
    general form's D, which d_general takes above 3*pi/8 at p = 3."""
    base = d_general(TC, 3, 1.4)
    mutate_table((TC,), delta=1)
    assert abs(d_general(TC, 3, 1.4) - base) > 1e-6


def test_series_caches_are_bounded():
    """A sweep over 300 distinct p holds at most 256 entries in each series
    cache, in eval_f's per-(family, p) record (unbounded, 20,000 p through
    eval_f grew the process by 53 MiB) and in the exact identity checks'
    (the Chebyshev one's degree stops at 64).  The series' table in
    q = 1/p^2 holds one entry per family and row count (f's 9, D's 18):
    a new p only specializes it."""
    for i in range(300):
        p = 2.0 + i / 512  # dyadic, so the exact series stay short
        eval_f(TS, p, 0.01)
        eval_f_grid(TC, p, [0.005], dtype=np.longdouble)
        d_general(HS, p, 0.5)
        vanishing_limits_check(TC, p)
        termwise_sign(TC, p)
    for family in FamilyKind:  # 294 (family, p) pairs with a sum form, p < 100
        for p in range(2 + family.is_cos, 100, 1 + family.is_cos):
            general_vs_sum_check(family, p)
    for k in range(1, 301):
        _dirichlet_check(k)
    for n in range(DEGREE_CAP + 1):
        _chebyshev_check(n)
    caches = (f_series_coeffs, _scalar_fns, _d_series_coeffs, _table_d_series, termwise_sign)
    caches += (_general_vs_sum, _dirichlet_check, _chebyshev_check)
    for cache in caches:
        assert cache.cache_info().currsize <= 256
    assert _ratio_rows.cache_info().currsize <= len(FamilyKind) * len({_N_COEFFS, derivatives._D_TERMS + 2})
