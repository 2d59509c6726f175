"""Outward-rounded interval arithmetic for the one claim that bisects.

Every enclosure is written once, as a function of float pairs: the bounds
(lo, hi) of its operands in, the bounds of the result out.  `Interval` is
their object face, and the rigorous proof in `certify`, the trig-cos
bisection at p = 2, calls them on the endpoint floats of each cell, so it
builds no Interval.  Every enclosure contains the exact result for any
points of its operands.  Arithmetic relies on IEEE-754 correct rounding
plus a one-ulp outward step via math.nextafter; the sine and cosine
enclosures decompose the argument into monotonic pieces and inflate libm
endpoint values by two ulps.  There is no sinh or cosh: every hyperbolic
claim is decided in exact rationals (`derivatives`).  `sin_comb` encloses
a weighted sum of sines, the shape of every closed form of D, in the same
arithmetic.  A float-pair function whose bounds come out unordered (a NaN
operand) raises ValueError, as building an Interval of them does.

The hot loops pick a least and a greatest value by comparisons that keep
what min() and max() keep (the first on ties, and NaN as they do), at a
fraction of the builtins' call cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf
_nextafter = math.nextafter


def _down(v: float) -> float:
    return _nextafter(v, -_INF)


def _up(v: float) -> float:
    return _nextafter(v, _INF)


def _invalid(lo: float, hi: float) -> ValueError:
    return ValueError(f"invalid interval [{lo}, {hi}]")


# --- the enclosures, on float pairs -----------------------------------------


def _add_bounds(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    """[al, ah] + [bl, bh], one ulp outward."""
    lo, hi = _nextafter(al + bl, -_INF), _nextafter(ah + bh, _INF)
    if not lo <= hi:
        raise _invalid(lo, hi)
    return lo, hi


def _mul_bounds(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    """[al, ah] * [bl, bh]: the least and the greatest endpoint product, one
    ulp outward (against a point factor the four products are two)."""
    lo = hi = al * bl
    for v in (al * bh, ah * bl, ah * bh):
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    lo, hi = _nextafter(lo, -_INF), _nextafter(hi, _INF)
    if not lo <= hi:
        raise _invalid(lo, hi)
    return lo, hi


def _reciprocal_bounds(lo: float, hi: float) -> tuple[float, float]:
    """1 / [lo, hi]; ZeroDivisionError where it holds 0."""
    if lo <= 0.0 <= hi:
        raise ZeroDivisionError(f"interval [{lo}, {hi}] contains 0")
    r_lo, r_hi = _nextafter(1.0 / hi, -_INF), _nextafter(1.0 / lo, _INF)
    if not r_lo <= r_hi:
        raise _invalid(r_lo, r_hi)
    return r_lo, r_hi


def _pow_bounds(lo: float, hi: float, n: int) -> tuple[float, float]:
    """[lo, hi] ** n for an integer n >= 0: monotone for odd n, through 0
    for even n where the interval holds it."""
    if n == 0:
        return 1.0, 1.0
    lo_p, hi_p = lo**n, hi**n
    if n % 2 == 1:
        p_lo, p_hi = _down(lo_p), _up(hi_p)
    elif lo <= 0.0 <= hi:
        p_lo, p_hi = 0.0, _up(max(lo_p, hi_p))
    else:
        p_lo, p_hi = _down(min(lo_p, hi_p)), _up(max(lo_p, hi_p))
    if not p_lo <= p_hi:
        raise _invalid(p_lo, p_hi)
    return p_lo, p_hi


HALF_PI_LO = _down(math.pi / 2.0)
HALF_PI_HI = _up(math.pi / 2.0)
TWO_PI = 2.0 * math.pi


def _sin_bounds(a: float, b: float) -> tuple[float, float]:
    """Outward-rounded (lo, hi) of sin over [a, b]: libm at both endpoints,
    two ulps outward, saturated to -1/+1 where [a, b] may hold a critical point."""
    if b - a >= 2.0 * math.pi:
        return -1.0, 1.0
    sa, sb = math.sin(a), math.sin(b)
    lo = _nextafter(_nextafter(sb if sb < sa else sa, -_INF), -_INF)
    hi = _nextafter(_nextafter(sb if sb > sa else sa, _INF), _INF)
    if -1.57 < a and b < 1.57:
        # inside (-1.57, 1.57) the slack-widened tests below cannot fire: the
        # nearest critical points are +-pi/2 ~ +-1.5708, and the slack is
        # < 3e-9.  What lands here is the one bisection, of the trig-cos
        # general form at p = 2: its |c| = 1/2 terms (|c x| < pi/4), and its c = 3/2
        # terms on cells below x ~ 1.04; without this path that proof took
        # ~1.4x as long (one Xeon core).  A NaN fails the comparisons and
        # raises below.
        return lo, hi
    # widen the critical-point test so pi rounding can only add slack
    slack = 1e-9 * (1.0 + max(abs(a), abs(b)))
    a_lo, b_hi = a - slack, b + slack
    # the first maximum and the first minimum at or above a_lo; the quotient's
    # rounding (~1e-16 relative) is far inside the slack
    if HALF_PI_LO + TWO_PI * math.ceil((a_lo - HALF_PI_LO) / TWO_PI) <= b_hi:
        hi = 1.0
    if -HALF_PI_LO + TWO_PI * math.ceil((a_lo + HALF_PI_LO) / TWO_PI) <= b_hi:
        lo = -1.0
    return max(lo, -1.0), min(hi, 1.0)


def _cos_bounds(a: float, b: float) -> tuple[float, float]:
    """cos over [a, b] as sin over [a, b] + [pi/2], pi/2 enclosed."""
    return _sin_bounds(*_add_bounds(a, b, HALF_PI_LO, HALF_PI_HI))


def sin_comb(xl: float, xh: float, terms) -> tuple[float, float]:
    """Enclosure of sum_i w_i * sin(c_i * x) over x in [xl, xh], for point
    weights and frequencies.

    `terms` is a sequence of real (w, c) pairs; either may be negative.
    The result is bitwise the one of the Interval expression
    ``acc = acc + (x * c).sin() * w`` summed from Interval(0, 0): the same
    least and greatest endpoint product with a one-ulp outward step (against
    a point factor the four products are two), the same libm sine enclosure
    and the same sequential outward-rounded sum."""
    nextafter, inf, sin = _nextafter, _INF, _sin_bounds
    lo = hi = 0.0
    for w, c in terms:
        u, v = xl * c, xh * c
        s_lo, s_hi = sin(nextafter(v if v < u else u, -inf), nextafter(v if v > u else u, inf))
        u, v = s_lo * w, s_hi * w
        lo = nextafter(lo + nextafter(v if v < u else u, -inf), -inf)
        hi = nextafter(hi + nextafter(v if v > u else u, inf), inf)
    if not lo <= hi:
        raise _invalid(lo, hi)
    return lo, hi


# --- the object face ----------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise _invalid(self.lo, self.hi)

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    @property
    def strictly_positive(self) -> bool:
        return self.lo > 0.0

    @property
    def strictly_negative(self) -> bool:
        return self.hi < 0.0

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def _coerce(other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval(other, other)

    def __add__(self, other) -> "Interval":
        o = Interval._coerce(other)
        return Interval(*_add_bounds(self.lo, self.hi, o.lo, o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-Interval._coerce(other))

    def __rsub__(self, other) -> "Interval":
        return Interval._coerce(other) + (-self)

    def __mul__(self, other) -> "Interval":
        o = Interval._coerce(other)
        return Interval(*_mul_bounds(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        return Interval(*_reciprocal_bounds(self.lo, self.hi))

    def __truediv__(self, other) -> "Interval":
        return self * Interval._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "Interval":
        return Interval._coerce(other) * self.reciprocal()

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return Interval(*_pow_bounds(self.lo, self.hi, n))

    def split(self) -> tuple["Interval", "Interval"]:
        m = self.mid
        return Interval(self.lo, m), Interval(m, self.hi)

    # --- transcendental enclosures -----------------------------------------

    def sin(self) -> "Interval":
        return Interval(*_sin_bounds(self.lo, self.hi))

    def cos(self) -> "Interval":
        return Interval(*_cos_bounds(self.lo, self.hi))
