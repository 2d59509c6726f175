"""Outward-rounded interval arithmetic for rigorous sign certification.

Every operation returns an interval guaranteed to contain the exact result
for any points of the input intervals.  Arithmetic relies on IEEE-754
correct rounding plus a one-ulp outward inflation via math.nextafter;
transcendental enclosures decompose the argument into monotonic pieces and
inflate libm endpoint values by two ulps.  `sin_comb` encloses a weighted
sum of sines, the shape of every closed form of D, in the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf


def _down(v: float) -> float:
    return math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


def _down2(v: float) -> float:
    return _down(_down(v))


def _up2(v: float) -> float:
    return _up(_up(v))


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

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
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-Interval._coerce(other))

    def __rsub__(self, other) -> "Interval":
        return Interval._coerce(other) + (-self)

    def __mul__(self, other) -> "Interval":
        o = Interval._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        if self.lo <= 0.0 <= self.hi:
            raise ZeroDivisionError(f"interval [{self.lo}, {self.hi}] contains 0")
        return Interval(_down(1.0 / self.hi), _up(1.0 / self.lo))

    def __truediv__(self, other) -> "Interval":
        return self * Interval._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "Interval":
        return Interval._coerce(other) * self.reciprocal()

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if n == 0:
            return Interval(1.0, 1.0)
        lo_p, hi_p = self.lo**n, self.hi**n
        if n % 2 == 1:
            return Interval(_down(lo_p), _up(hi_p))
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, _up(max(lo_p, hi_p)))
        return Interval(_down(min(lo_p, hi_p)), _up(max(lo_p, hi_p)))

    def split(self) -> tuple["Interval", "Interval"]:
        m = self.mid
        return Interval(self.lo, m), Interval(m, self.hi)

    # --- transcendental enclosures -----------------------------------------

    def sin(self) -> "Interval":
        return Interval(*_sin_bounds(self.lo, self.hi))

    def cos(self) -> "Interval":
        return (self + Interval(HALF_PI_LO, HALF_PI_HI)).sin()

    def sinh(self) -> "Interval":
        return Interval(*_sinh_bounds(self.lo, self.hi))

    def cosh(self) -> "Interval":
        lo_c, hi_c = math.cosh(self.lo), math.cosh(self.hi)
        if self.lo <= 0.0 <= self.hi:
            return Interval(1.0, _up2(max(lo_c, hi_c)))
        return Interval(_down2(min(lo_c, hi_c)), _up2(max(lo_c, hi_c)))


HALF_PI_LO = _down(math.pi / 2.0)
HALF_PI_HI = _up(math.pi / 2.0)
TWO_PI = 2.0 * math.pi


def _sin_bounds(a: float, b: float) -> tuple[float, float]:
    """Outward-rounded (lo, hi) of sin over [a, b]: libm at both endpoints,
    two ulps outward, saturated to -1/+1 where [a, b] may hold a critical point."""
    if b - a >= 2.0 * math.pi:
        return -1.0, 1.0
    sa, sb = math.sin(a), math.sin(b)
    lo = _down2(min(sa, sb))
    hi = _up2(max(sa, sb))
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


def _sinh_bounds(a: float, b: float) -> tuple[float, float]:
    """(lo, hi) of the monotone sinh over [a, b]: libm at both ends, two ulps outward."""
    return _down2(math.sinh(a)), _up2(math.sinh(b))


# the interval backend of families.FAMILY_FNS: g on an Interval, sin on a float pair
cos, cosh, sin, sinh = Interval.cos, Interval.cosh, _sin_bounds, _sinh_bounds


def sin_comb(x: Interval, terms, sin) -> Interval:
    """Enclosure of sum_i w_i * sin(c_i * x) for point weights and frequencies;
    `sin` is `_sin_bounds`, or `_sinh_bounds` for sinh (read .sinh() for .sin() below).

    `terms` is a sequence of real (w, c) pairs; either may be negative.
    The result is bitwise the one of the Interval expression
    ``acc = acc + (x * c).sin() * w`` summed from Interval(0, 0): the same
    min/max of endpoint products with a one-ulp outward step (against a
    point factor the four products are two), the same libm sine enclosure
    and the same sequential outward-rounded sum, but on plain floats, so
    only the result is an Interval."""
    nextafter, inf = math.nextafter, _INF
    xl, xh = x.lo, x.hi
    lo = hi = 0.0
    for w, c in terms:
        u, v = xl * c, xh * c
        s_lo, s_hi = sin(nextafter(min(u, v), -inf), nextafter(max(u, v), inf))
        u, v = s_lo * w, s_hi * w
        lo = nextafter(lo + nextafter(min(u, v), -inf), -inf)
        hi = nextafter(hi + nextafter(max(u, v), inf), inf)
    return Interval(lo, hi)
