"""Tests for the ratio families: oracle values, branches, limits, errors."""

import functools
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mp_oracle import mp_f

from trigratio.derivatives import _d_series_coeffs, vanishing_limits_check

from trigratio.families import (
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    _ratio_ints,
    _series_quotient,
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
    th = series_threshold(family)
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


@pytest.mark.parametrize("dtype", [None, np.float64, np.longdouble, np.float32, "f8"])
def test_grid_takes_floating_dtypes(dtype):
    out = eval_f_grid(TS, 3, [0.0, 0.1, 1.0], dtype)
    assert out.dtype == np.dtype(dtype or float)
    assert np.allclose(out.astype(float), [eval_f(TS, 3, x) for x in (0.0, 0.1, 1.0)], rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.uint8, np.complex128, object, "U3"])
def test_grid_refuses_other_dtypes(dtype):
    """A bool dtype gave [True, True, True], an int64 one an OverflowError and
    a complex one complex values; each is refused before any point is read,
    even one outside the domain."""
    for xs in ([0.1, 0.5, 1.0], [5.0]):
        with pytest.raises(ParameterError, match="^dtype must be a floating dtype, got "):
            eval_f_grid(TS, 2, xs, dtype)


def test_grid_dtype_sets_the_arithmetic_only():
    """Every dtype reads the one float64 series: on the series branch a
    longdouble grid is Horner in 80-bit arithmetic on f_series_coeffs."""
    for family in FamilyKind:
        xs = np.linspace(0.0, series_threshold(family), 16, endpoint=False).astype(np.longdouble)
        coeffs = f_series_coeffs(family, 3)
        want = np.full_like(xs, coeffs[-1])
        for a in reversed(coeffs[:-1]):
            want = want * (xs * xs) + a
        # values, not bytes: a longdouble's storage has padding bytes
        assert np.array_equal(eval_f_grid(family, 3, xs, dtype=np.longdouble), want)


@pytest.mark.parametrize("x", [True, False, np.True_])
def test_bool_points_rejected(x):
    """A bool is no point, in the scalar and in the array evaluators and
    under either dtype: read as 1.0 it would give f(1.0)."""
    with pytest.raises(DomainError):
        eval_f(TS, 2, x)
    with pytest.raises(DomainError):
        eval_ratio(TS, 2, x)
    for xs in (x, [x, x], np.array([x])):
        for dtype in (None, np.longdouble):
            with pytest.raises(DomainError, match="bools"):
                eval_f_grid(TS, 2, xs, dtype)


@pytest.mark.parametrize("evaluate", [eval_f, eval_ratio], ids=["eval_f", "eval_ratio"])
@pytest.mark.parametrize(
    "x",
    ["0.5", None, 0.5j, b"0.5", pytest.param(Decimal("0.5"), id="Decimal"), True, pytest.param(np.True_, id="np-true")],
)
def test_points_that_are_not_real_numbers_rejected(evaluate, x):
    """A string, None, a complex number, a Decimal or a bool x is a
    DomainError, not the bare TypeError of its comparison with 0.0 or of
    the arithmetic, nor f(1.0)."""
    with pytest.raises(DomainError, match=f"^x must be a real number, got {re.escape(repr(x))}$"):
        evaluate(TS, 2, x)


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


@pytest.mark.parametrize("p", [True, False, np.True_, np.False_])
def test_bool_p_rejected(p):
    with pytest.raises(ParameterError):
        eval_f(FamilyKind.TRIG_SIN, p, 0.5)


def test_eval_f_grid_rejects_nan():
    with pytest.raises(DomainError):
        eval_f_grid(FamilyKind.TRIG_SIN, 2, np.array([0.5, math.nan]))
    with pytest.raises(DomainError):
        eval_f_grid(FamilyKind.HYP_COS, 2, np.array([math.nan]), dtype=np.longdouble)


def test_series_threshold_is_one_constant_per_family():
    """In p's range the crossover does not depend on p: 1e-2 for the cos
    families, 0.15 for the sin families."""
    assert {family: series_threshold(family) for family in FamilyKind} == {TC: 1e-2, TS: 0.15, HC: 1e-2, HS: 0.15}


@pytest.mark.parametrize("p", [1.5, -1.5])
@pytest.mark.parametrize("family", FamilyKind)
def test_low_end_of_the_range_crossover(family, p):
    """At |p| = 3/2, the bottom of p's range, both branches stay within
    2e-13 of 50-digit mpmath either side of the crossover (the sin families'
    direct branch loses ~eps*p/x^2 just above it: 1.02e-13 for hyp-sin)."""
    th = series_threshold(family)
    xs = [0.5 * th, 0.99 * th, th, math.nextafter(th, 2.0), 1.01 * th, 2.0 * th]
    exact = [float(mp_f(family, p, x)) for x in xs]
    np.testing.assert_allclose([eval_f(family, p, x) for x in xs], exact, rtol=2e-13, atol=0.0)
    np.testing.assert_allclose(eval_f_grid(family, p, xs), exact, rtol=2e-13, atol=0.0)


@pytest.mark.parametrize("family", FamilyKind)
def test_series_coeffs_leading_term(family):
    """a0 must equal the x -> 0 limit exactly."""
    for p in (2, 3, 7):
        a = f_series_coeffs(family, float(p))
        assert a[0] == pytest.approx(limit_at_zero(family, p), rel=1e-15)


def _reference_ratio_series(family, p, n):
    """The ratio's series by one exact series division per p, as it was
    computed before its per-family table."""
    pf = Fraction(p)
    q = 1 / (pf * pf)
    sgn, odd = (-1 if family.is_trig else 1), (0 if family.is_cos else 1)
    num = [Fraction(sgn**i, math.factorial(2 * i + odd)) for i in range(n)]
    r = _series_quotient(num, [num[i] * q**i for i in range(n)])
    if not family.is_cos:
        r = [pf * ri for ri in r]
    return tuple(r)


@pytest.mark.parametrize("family", FamilyKind)
def test_series_table_specializes_to_the_per_p_division(family):
    """The per-family table in q = 1/p^2, specialized at p in integers, is
    the per-p division's series exactly, at f's 9 terms and D's 18: at every
    integer p = 2..64 and 2^53, at non-integer p (7/3 as a float, 12345.678)
    and at negative p.  f's and D's coefficients and the limit at 0 are the
    reference's rationals rounded once, bit for bit."""
    for p in [*range(2, 65), 2**53, 1.5, 7 / 3, 7.3, 12345.678, -4.0, -3.5]:
        ref9, ref18 = _reference_ratio_series(family, p, 9), _reference_ratio_series(family, p, 18)
        for n, ref in ((9, ref9), (18, ref18)):
            assert tuple(Fraction(num, den) for num, den in _ratio_ints(family, p, n)) == ref, (p, n)
        assert [a.hex() for a in f_series_coeffs(family, p)] == [(-float(r)).hex() for r in ref9[1:]], p
        d = [0.0, *(float(-2 * i * (2 * i + 1) * (2 * i + 2) * ref18[i + 1]) for i in range(1, 17))]
        assert [a.hex() for a in _d_series_coeffs(family, p)] == [a.hex() for a in d], p
        if type(p) is int:
            assert limit_at_zero(family, p).hex() == (-float(ref9[1])).hex(), p


def test_removable_zero_is_not_a_pole():
    """|sin(x/p)| < 1e-12 at small x is the removable zero, not a pole: in
    p's range sin(x/p) has no other zero on (0, pi/2).  eval_ratio has no
    series branch, so where sin(x/p) underflows float64, at x < ~2^-1022 |p|,
    it raises ParameterError."""
    assert eval_ratio(TS, 2, 1e-13) == 2.0
    with mpmath.workdps(30):
        exact = mpmath.sinh(mpmath.mpf(1e-12)) / mpmath.sinh(mpmath.mpf(1e-12) / 3)
    assert eval_ratio(HS, 3, 1e-12) == pytest.approx(float(exact), rel=4.5e-16)
    for p, x in ((2.0**53, 1e-300), (2, 5e-324)):  # x/p a subnormal 1.1e-316, or 0
        with pytest.raises(ParameterError, match=rf"^x/p underflows float64 at x={x}, p={float(p)}$"):
            eval_ratio(TS, p, x)


@pytest.mark.parametrize("family", FamilyKind)
def test_subnormal_den_is_a_parameter_error(family):
    """At p = +-1.7e308 and x = 0.15, x/p is subnormal: p lies far outside
    its range, and eval_f, eval_ratio, eval_f_grid and vanishing_limits_check
    raise ParameterError naming the range, for every family."""
    for p in (1.7e308, -1.7e308):
        calls = (
            lambda: eval_f(family, p, 0.15),
            lambda: eval_ratio(family, p, 0.15),
            lambda: eval_f_grid(family, p, np.array([0.15, 1.0])),
            lambda: vanishing_limits_check(family, p),
        )
        for call in calls:
            with pytest.raises(ParameterError, match=rf"^p must satisfy 3/2 <= \|p\| <= 2\^53, got {re.escape(repr(p))}$"):
                call()


@pytest.mark.parametrize("family,cos", [(TC, mpmath.cos), (HC, mpmath.cosh)], ids=["trig-cos", "hyp-cos"])
def test_subnormal_x_over_p_under_a_cos_is_no_pole(family, cos):
    """cos(x/p) = cosh(x/p) = 1 for a subnormal x/p (1e-300 / 2^53): nothing
    to raise.  At p = 2^53 f is its p -> infinity limit (1 - cos x)/x^2."""
    assert eval_ratio(family, 2**53, 1e-300) == 1.0
    with mpmath.workdps(40):
        exact = float((1 - cos(mpmath.mpf(0.15))) / mpmath.mpf(0.15) ** 2)
    assert eval_f(family, 2**53, 0.15) == pytest.approx(exact, rel=1e-15)
    assert eval_f_grid(family, 2**53, np.array([0.15]))[0] == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("family,sin", [(TS, mpmath.sin), (HS, mpmath.sinh)], ids=["trig-sin", "hyp-sin"])
def test_huge_p_takes_the_direct_branch(family, sin, dtype):
    """At p = 2e12, sin(x/p) < 1e-12 on the whole direct branch, which stays
    accurate there (to ~eps/x^2 relative, as at any p)."""
    p, xs = 2e12, [0.15, 1.0, 1.5]
    with mpmath.workdps(50):
        exact = [float((p - sin(mpmath.mpf(x)) / sin(mpmath.mpf(x) / p)) / mpmath.mpf(x) ** 2) for x in xs]
    np.testing.assert_allclose(eval_f_grid(family, p, np.array(xs), dtype=dtype).astype(float), exact, rtol=1e-13)
    assert eval_f(family, p, 1.0) == pytest.approx(exact[1], rel=1e-15)


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


def test_family_flags_truth_table():
    flags = {family: (family.is_trig, family.is_cos) for family in FamilyKind}
    assert flags == {TC: (True, True), TS: (True, False), HC: (False, True), HS: (False, False)}
    assert all(type(flag) is bool for pair in flags.values() for flag in pair)


def test_family_lookup_by_value_and_pickle_return_the_member():
    assert FamilyKind("hyp-cos") is HC
    for family in FamilyKind:
        assert FamilyKind(family.value) is family
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(family, protocol)) is family


def test_family_members_are_dict_and_lru_cache_keys():
    table = {family: family.value for family in FamilyKind}
    assert [table[FamilyKind(v)] for v in ("trig-cos", "trig-sin", "hyp-cos", "hyp-sin")] == [
        "trig-cos", "trig-sin", "hyp-cos", "hyp-sin"
    ]

    @functools.lru_cache(maxsize=None)
    def token(family):
        return object()

    assert all(token(family) is token(FamilyKind(family.value)) for family in FamilyKind)
    assert token.cache_info().currsize == 4
    hashes = [hash(family) for family in FamilyKind]
    assert hashes == [hash(family) for family in FamilyKind]
    assert hashes == [hash(pickle.loads(pickle.dumps(family))) for family in FamilyKind]
    assert len(set(hashes)) == 4


@pytest.mark.parametrize(
    "fn,args",
    [
        (eval_f, (TC, 1e-21, 0.0)),  # a7 ~ p^-14 overflows
        (eval_f, (HC, -1e-21, 1e-30)),
        (eval_f, (TS, 1e-22, 0.0)),
        (eval_f_grid, (TS, 1e-22, [0.0])),
        (eval_f_grid, (HS, 1e-22, [0.0, 1e-30])),
        (eval_f_grid, (TC, 1e-21, [0.0], np.longdouble)),
        (eval_f, (TS, 10**400, 0.5)),  # p itself past float64
        (limit_at_zero, (TS, 10**400)),  # a0 ~ -p/6 overflows
        (limit_at_zero, (HS, 10**400)),
        (limit_at_half_pi, (TC, 10**400)),  # pi/(2p) overflows
        (limit_at_half_pi, (HC, 10**400)),
        (limit_at_half_pi, (TS, 10**309)),
        (limit_at_half_pi, (HS, 10**5000)),  # past str()'s 4300 digits
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_p_beyond_float64_raises_parameter_error(fn, args):
    """Where f's series or a limit leaves float64, ParameterError on every call,
    not a bare OverflowError; the cached series keep no failure."""
    for _ in range(2):
        with pytest.raises(ParameterError):
            fn(*args)
