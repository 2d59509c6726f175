"""Tests for the Chebyshev-U module and the corollary bounds."""

import math
import re
import signal
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from trigratio.chebyshev import (
    DEGREE_CAP,
    cheb_u,
    cheb_u_eval,
    corollary_bounds,
)
from trigratio.envelopes import ratio_bounds
from trigratio.families import DomainError, FamilyKind, ParameterError

# U_0 .. U_6 in the monomial basis
KNOWN_TABLES = {
    0: (1,),
    1: (0, 2),
    2: (-1, 0, 4),
    3: (0, -4, 0, 8),
    4: (1, 0, -12, 0, 16),
    5: (0, 6, 0, -32, 0, 32),
    6: (-1, 0, 24, 0, -80, 0, 64),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_TABLES.items()))
def test_coefficient_tables(n, coeffs):
    poly = cheb_u(n)
    assert poly.degree == n
    assert poly.coeffs == coeffs


@pytest.mark.parametrize("n", [0, 1, 5, 17, 30])
def test_trig_identity(n):
    """U_n(cos t) * sin t == sin((n+1) t) to 1e-11 absolute."""
    for t in np.linspace(0.01, math.pi - 0.01, 100):
        lhs = cheb_u_eval(n, math.cos(t)) * math.sin(t)
        rhs = math.sin((n + 1) * t)
        assert lhs == pytest.approx(rhs, abs=1e-11)


@pytest.mark.parametrize("n", range(DEGREE_CAP + 1))
def test_horner_matches_recurrence(n):
    """cheb_u(n)'s coefficients, summed by Horner's rule in Fractions, equal
    U_n from the three-term recurrence in Fractions, exactly, at rational t."""
    coeffs = cheb_u(n).coeffs
    for t in (Fraction(k, 7) for k in range(-9, 10)):
        u_prev, u = 1, 2 * t
        for _ in range(n):
            u_prev, u = u, 2 * t * u - u_prev
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        assert acc == u_prev, t


def test_u6_point_value():
    # frozen: U_6(cos 0.1) = sin(0.7)/sin(0.1)
    assert cheb_u_eval(6, math.cos(0.1)) == pytest.approx(
        6.45292637350761002233, rel=1e-14
    )


def test_degree_cap():
    cheb_u(DEGREE_CAP)  # at the cap: fine
    with pytest.raises(ParameterError, match=r"^degree must be in \[0, 64\], got 65$"):
        cheb_u(DEGREE_CAP + 1)
    with pytest.raises(ParameterError):
        cheb_u(-1)
    for n in (True, False, 2.5, 3.0, "3", None):  # a bool or a non-integer fails loudly
        with pytest.raises(ParameterError):
            cheb_u(n)
    assert cheb_u(np.int64(4)) == cheb_u(4)


def test_eval_degree_cap():
    """U_n(t) takes n recurrence steps, so a degree above 2^20 is refused at
    once, a float t or an array, and one past float64's range is worded by
    its size; at the cap the value is right (U_n(1) = n + 1)."""
    assert cheb_u_eval(2**20, 1.0) == 2.0**20 + 1
    t0 = time.perf_counter()
    for n, text in ((2**20 + 1, "1048577"), (np.int64(10**12), "1000000000000"), (10**5000, "|degree| >= 2^16609")):
        for t in (0.5, np.array([0.5])):
            with pytest.raises(ParameterError, match=rf"^degree must be in \[0, 2\^20\], got {re.escape(text)}$"):
                cheb_u_eval(n, t)
    assert time.perf_counter() - t0 < 0.1


def test_eval_work_cap_on_arrays():
    """An array step costs time per point, so an array t is refused when n
    times its size is above 2^27, at once (under a 1 s alarm), before the
    first step: at 87211 x 1539 = 2^27 + 1, the smallest refused product.
    At 2^13 x 2^14 = 2^27, the largest accepted one, every sampled value is
    bitwise the scalar call's."""

    def alarm(signum, frame):
        raise TimeoutError("the refusal ran the recurrence")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ParameterError, match=r"^degree times points must be at most 2\^27, got 87211 x 1539$"):
            cheb_u_eval(87211, np.full(1539, 0.5))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    n, t = 2**13, np.cos(np.linspace(0.0, math.pi, 2**14))
    got = cheb_u_eval(n, t)
    sample = range(0, t.size, 257)
    assert got[sample].tobytes() == np.array([cheb_u_eval(n, t[i].item()) for i in sample]).tobytes()


def test_eval_domain():
    with pytest.raises(DomainError):
        cheb_u_eval(3, 1.0001)
    assert cheb_u_eval(3, 1.0) == pytest.approx(4.0)  # U_3(1) = 4
    assert cheb_u_eval(4, -1.0) == pytest.approx(5.0)  # U_4(-1) = 5
    with pytest.raises(ParameterError):
        cheb_u_eval(-1, 0.5)
    for n in (True, False, 2.5, 3.0, "3", None):  # a bool or a non-integer fails loudly
        with pytest.raises(ParameterError):
            cheb_u_eval(n, 0.5)
        with pytest.raises(ParameterError):
            cheb_u_eval(n, np.array([0.5]))
    assert cheb_u_eval(np.int64(3), 0.5) == cheb_u_eval(3, 0.5)
    # arrays: every value is checked, and NaN fails too
    for bad in ([0.5, 1.0001], [-1.0001, 0.0], [0.5, math.nan], [math.nan]):
        with pytest.raises(DomainError):
            cheb_u_eval(3, np.array(bad))
    with pytest.raises(DomainError):
        cheb_u_eval(3, math.nan)


def test_integer_rule_messages():
    """Degrees and k take the one integer rule, `families.check_param_int`."""
    for call, cap in ((cheb_u, "64"), (lambda n: cheb_u_eval(n, 0.5), "2^20")):
        with pytest.raises(ParameterError, match="^degree must be an integer, got True$"):
            call(True)
        with pytest.raises(ParameterError, match=rf"^degree must be in \[0, {re.escape(cap)}\], got -1$"):
            call(-1)


@pytest.mark.parametrize("t", [True, False, np.True_, np.array([True])], ids=["true", "false", "np-true", "array"])
def test_eval_rejects_bool_t(t):
    """A bool t is no point of [-1, 1]: read as 1.0, U_3 would give 4.0."""
    with pytest.raises(DomainError):
        cheb_u_eval(3, t)


@pytest.mark.parametrize(
    "t", [np.float32(0.3), np.float64(-0.25), Fraction(1, 3), 1, np.int64(-1)], ids=["f32", "f64", "Fraction", "int", "np-int"]
)
def test_eval_scalar_t_is_a_float(t):
    """A scalar t of any real type takes the scalar-point rule: it runs as
    float(t) and gives a Python float, bitwise the call at float(t)."""
    for n in (0, 1, 7):
        got = cheb_u_eval(n, t)
        assert type(got) is float and got.hex() == cheb_u_eval(n, float(t)).hex()
    with pytest.raises(DomainError, match=r"^t=1.5 outside \[-1, 1\]$"):
        cheb_u_eval(3, Fraction(3, 2))
    with pytest.raises(DomainError, match="^t must be a real number, got True$"):
        cheb_u_eval(3, True)


@pytest.mark.parametrize("y", [True, np.True_])
def test_corollary_rejects_bool_y(y):
    with pytest.raises(DomainError):
        corollary_bounds(2, y)


@pytest.mark.parametrize(
    "y",
    ["0.1", None, 0.1j]
    + [pytest.param(b"0.1", id="bytes"), pytest.param(Decimal("0.1"), id="Decimal"), True, pytest.param(np.True_, id="np-true")],
)
def test_corollary_rejects_y_that_is_no_real_number(y):
    with pytest.raises(DomainError, match=f"^y must be a real number, got {re.escape(repr(y))}$"):
        corollary_bounds(2, y)


@pytest.mark.parametrize("n", [0, 1, 5, 17, 30])
def test_eval_arrays_match_scalar_calls(n):
    """An array runs the scalar recurrence elementwise: bit for bit the
    scalar call at each point, the ends +-1 included."""
    t = np.concatenate([[-1.0, 1.0, 0.0], np.linspace(-1.0, 1.0, 201), np.cos(np.linspace(0.01, 3.0, 100))])
    got = cheb_u_eval(n, t)
    want = np.array([cheb_u_eval(n, v) for v in t.tolist()])
    assert got.dtype == np.float64 and got.shape == t.shape
    assert got.tobytes() == want.tobytes()
    assert cheb_u_eval(n, t.reshape(2, -1)).tobytes() == want.tobytes()


def test_eval_keeps_the_shape_of_t():
    for shape in ((0,), (1,), (3,), (2, 5)):
        t = np.full(shape, 0.5)
        for n in (0, 1, 4):
            assert cheb_u_eval(n, t).shape == shape
        assert (cheb_u_eval(0, t) == 1.0).all()
    assert cheb_u_eval(0, np.array([-1, 0, 1])).tolist() == [1.0, 1.0, 1.0]  # integer t is taken as float
    assert cheb_u_eval(3, np.array([1, -1])).tolist() == [4.0, -4.0]
    # a float32 array runs in float64, as its values do in the scalar calls
    t32 = np.linspace(-1.0, 1.0, 50, dtype=np.float32)
    got = cheb_u_eval(9, t32)
    assert got.dtype == np.float64
    assert got.tolist() == [cheb_u_eval(9, v) for v in t32.tolist()]


def test_corollary_bounds_contain_u6():
    """lo < U_6(cos y) < hi strictly across (0, pi/14)."""
    for y in np.linspace(1e-3, math.pi / 14.0 - 1e-3, 200):
        lo, hi = corollary_bounds(7, float(y))
        val = cheb_u_eval(6, math.cos(float(y)))
        assert lo < val < hi


def test_corollary_is_the_substitution():
    """corollary_bounds(p, y) is bit-for-bit ratio_bounds(TRIG_SIN, p, p*y)."""
    for p in (2, 5, 7, 11):
        for y in (1e-3, 0.05, math.pi / (2.0 * p) - 1e-6):
            assert corollary_bounds(p, y) == ratio_bounds(FamilyKind.TRIG_SIN, p, p * y)


def test_corollary_example_chain():
    # frozen: at y = 0.1 the bounds around U_6(cos 0.1) are
    # 6.44 < 6.452926... < 6.502326...
    lo, hi = corollary_bounds(7, 0.1)
    assert lo == pytest.approx(6.44, abs=5e-13)
    assert hi == pytest.approx(6.50232656205699751535, rel=1e-14)
    assert lo < 6.45292637350761002233 < hi


def test_corollary_p3_containment():
    # frozen: U_2(cos 0.2) = 4 cos^2(0.2) - 1 = 2.8421219880057702
    lo, hi = corollary_bounds(3, 0.2)
    val = cheb_u_eval(2, math.cos(0.2))
    assert val == pytest.approx(2.8421219880057702, rel=1e-15)
    assert lo == pytest.approx(2.84, abs=1e-12)  # 3 - (8/6)*0.12 exactly
    assert lo < val < hi


def test_corollary_domain():
    with pytest.raises(DomainError):
        corollary_bounds(7, math.pi / 14.0)
    with pytest.raises(DomainError):
        corollary_bounds(7, 0.0)
    with pytest.raises(ParameterError):
        corollary_bounds(1, 0.1)
    for p in (10**400, 10**5000):  # 2p past float64; past str()'s 4300 digits
        with pytest.raises(ParameterError, match=r"\|p\| >= 2\^"):
            corollary_bounds(p, 1e-3)
