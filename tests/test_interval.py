"""Tests for the outward-rounded interval arithmetic."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigratio.interval import HALF_PI_LO, TWO_PI, Interval, _down2, _up2, sin_comb


def test_construction_and_invariants():
    iv = Interval(1.0, 2.0)
    assert iv.width == 1.0
    assert iv.mid == 1.5
    assert iv.contains(1.0) and iv.contains(2.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_point_and_signs():
    assert Interval.point(3.0) == Interval(3.0, 3.0)
    assert Interval(1e-300, 2.0).strictly_positive
    assert Interval(-2.0, -1e-300).strictly_negative
    assert not Interval(0.0, 1.0).strictly_positive
    assert not Interval(-1.0, 0.0).strictly_negative


def test_add_outward_rounds():
    a = Interval(0.1, 0.1)
    b = a + a
    assert b.lo < 0.1 + 0.1 < b.hi  # strict: one ulp of outward slack each side


def test_division_rejects_zero_straddle():
    with pytest.raises(ZeroDivisionError):
        Interval(-1.0, 1.0).reciprocal()
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(0.0, 1.0)


def test_even_power_straddle():
    sq = Interval(-2.0, 3.0) ** 2
    assert sq.lo == 0.0
    assert sq.contains(9.0)


def test_split_partitions():
    left, right = Interval(0.0, 1.0).split()
    assert left.lo == 0.0 and right.hi == 1.0
    assert left.hi == right.lo


def test_sin_saturates_at_critical_points():
    iv = Interval(1.4, 1.8).sin()  # contains pi/2
    assert iv.hi == 1.0
    iv = Interval(4.5, 4.9).sin()  # contains 3*pi/2
    assert iv.lo == -1.0


def test_sin_wide_interval():
    assert Interval(0.0, 10.0).sin() == Interval(-1.0, 1.0)


_OPS = [
    ("add", lambda a, b: a + b, lambda x, y: x + y),
    ("sub", lambda a, b: a - b, lambda x, y: x - y),
    ("mul", lambda a, b: a * b, lambda x, y: x * y),
]


def test_random_containment_sweep():
    """10^4 seeded random op chains: the enclosure always contains the
    pointwise result computed at interval sample points."""
    rng = random.Random(20240817)
    for _ in range(10_000):
        lo = rng.uniform(-5.0, 5.0)
        iv_a = Interval(lo, lo + rng.uniform(0.0, 2.0))
        lo = rng.uniform(-5.0, 5.0)
        iv_b = Interval(lo, lo + rng.uniform(0.0, 2.0))
        xa = rng.uniform(iv_a.lo, iv_a.hi)
        xb = rng.uniform(iv_b.lo, iv_b.hi)
        name, iv_op, pt_op = _OPS[rng.randrange(3)]
        enclosure = iv_op(iv_a, iv_b)
        assert enclosure.contains(pt_op(xa, xb)), name
        # transcendental follow-up on the first operand
        assert iv_a.sin().contains(math.sin(xa))
        assert iv_a.cos().contains(math.cos(xa))
        assert iv_a.sinh().contains(math.sinh(xa))
        assert iv_a.cosh().contains(math.cosh(xa))


@given(
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.0, 3.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_sin_containment_property(lo, width, frac):
    iv = Interval(lo, lo + width)
    x = iv.lo + frac * (iv.hi - iv.lo)
    x = min(max(x, iv.lo), iv.hi)
    assert iv.sin().contains(math.sin(x))


@given(
    lo=st.floats(-4.0, 4.0),
    width=st.floats(0.0, 2.0),
    n=st.integers(0, 6),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_power_containment_property(lo, width, n, frac):
    iv = Interval(lo, lo + width)
    x = min(max(iv.lo + frac * (iv.hi - iv.lo), iv.lo), iv.hi)
    assert (iv**n).contains(x**n)


def test_reciprocal_containment():
    iv = Interval(0.3, 0.7)
    rec = iv.reciprocal()
    for x in (0.3, 0.5, 0.7):
        assert rec.contains(1.0 / x)


def test_pow_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Interval(1.0, 2.0) ** -1
    with pytest.raises(ValueError):
        Interval(1.0, 2.0) ** 0.5


def _reference_sin(iv):
    """Interval.sin as written before the enclosure moved into _sin_bounds."""
    a, b = iv.lo, iv.hi
    if b - a >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    lo = min(_down2(math.sin(a)), _down2(math.sin(b)))
    hi = max(_up2(math.sin(a)), _up2(math.sin(b)))
    slack = 1e-9 * (1.0 + max(abs(a), abs(b)))
    n0 = math.floor((a - HALF_PI_LO) / TWO_PI) - 1
    n1 = math.floor((b + slack - HALF_PI_LO) / TWO_PI) + 1
    for n in range(n0, n1 + 1):
        crit = HALF_PI_LO + TWO_PI * n
        if a - slack <= crit <= b + slack:
            hi = 1.0
        crit = -HALF_PI_LO + TWO_PI * n
        if a - slack <= crit <= b + slack:
            lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def _reference_sin_comb(x, terms):
    acc = Interval(0.0, 0.0)
    for w, c in terms:
        acc = acc + (x * c).sin() * w
    return acc


def _seeded_cells(rng, n):
    """Cells of width 1e-12..3, a third of them straddling +-pi/2 + 2 pi n."""
    cells = []
    for i in range(n):
        width = 10.0 ** rng.uniform(-12.0, 0.5)
        if i % 3 == 0:
            crit = rng.choice((1.0, -1.0)) * math.pi / 2.0 + TWO_PI * rng.randint(-3, 3)
            lo = crit - rng.uniform(0.0, width)
        else:
            lo = rng.uniform(-20.0, 20.0)
        cells.append(Interval(lo, lo + width))
    return cells


def test_sin_bitwise_matches_reference():
    rng = random.Random(314)
    for iv in _seeded_cells(rng, 5000) + [Interval(0.0, 10.0), Interval(-7.0, -0.5)]:
        assert iv.sin() == _reference_sin(iv), iv


def test_sin_comb_bitwise_matches_interval_expression():
    """Negative weights and frequencies included: the kernel must take the
    min/max of the endpoint products, not assume c > 0 or w > 0."""
    rng = random.Random(2718)
    for x in _seeded_cells(rng, 600):
        terms = [
            (rng.choice((rng.uniform(-300.0, 300.0), float(rng.randint(-64, 64) ** 3))), rng.uniform(-2.5, 2.5))
            for _ in range(rng.randint(1, 12))
        ]
        assert sin_comb(x, terms) == _reference_sin_comb(x, terms), (x, terms)
    assert sin_comb(Interval(1.0, 2.0), ()) == Interval(0.0, 0.0)



def _critical_points():
    """+-pi/2 + 2 pi n for n = -8..8, both as the enclosure computes them and
    as the rounding of the exact value."""
    for n in range(-8, 9):
        for sign in (1.0, -1.0):
            yield sign * HALF_PI_LO + TWO_PI * n
            yield sign * math.pi / 2.0 + 2.0 * math.pi * n


def _step(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def _hugging_cells():
    """Cells with an endpoint within 4 ulps of a critical point, 0 to 3 wide."""
    for crit in _critical_points():
        for ulps in range(-4, 5):
            e = _step(crit, ulps)
            for width in (0.0, 1e-12, 1e-6, 0.5, 3.0):
                yield Interval(e, e + width)
                yield Interval(e - width, e)


def test_sin_critical_point_tests_match_turn_scan():
    """_sin_bounds tests only the first maximum and minimum at or above the
    slackened left end; the per-turn scan of _reference_sin is the reference."""
    rng = random.Random(141)
    cells = list(_hugging_cells())
    for i in range(20_000):
        width = 10.0 ** rng.uniform(-12.0, 0.5)
        if i % 3 == 0:
            crit = rng.choice((1.0, -1.0)) * math.pi / 2.0 + TWO_PI * rng.randint(-8, 8)
            lo = crit - rng.uniform(0.0, width)
        else:
            lo = rng.uniform(-55.0, 55.0)
        cells.append(Interval(lo, lo + width))
    for iv in cells:
        assert iv.sin() == _reference_sin(iv), iv


def test_sin_sound_at_the_slack_edge():
    """Where a critical point sits at the 1e-9 slack's edge the quotient's
    rounding can move the first critical point tested by one turn, so the two
    tests may not saturate where the scan did; the enclosure must still hold
    sin over the cell (checked at 30 digits)."""
    with mpmath.workdps(30):
        for n in range(-8, 9):
            for sign in (1, -1):
                exact = (2 * n + sign * mpmath.mpf(1) / 2) * mpmath.pi
                crit = float(exact)
                slack = 1e-9 * (1.0 + abs(crit))
                for edge in (crit + slack, crit - slack):
                    for ulps in range(-4, 5):
                        e = _step(edge, ulps)
                        for iv in (Interval(e, e + 1e-6), Interval(e - 1e-6, e)):
                            enc = iv.sin()
                            lo, hi = mpmath.mpf(iv.lo), mpmath.mpf(iv.hi)
                            if lo <= exact <= hi:
                                assert enc.lo == -1.0 if sign < 0 else enc.hi == 1.0
                            for x in (lo, hi):
                                assert enc.lo <= mpmath.sin(x) <= enc.hi, iv
