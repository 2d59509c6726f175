"""Quadratic envelope constants and two-sided bounds on the raw ratios.

Every family is strictly monotone on (0, pi/2), so its infimum and
supremum are the two endpoint limits.  All families are decreasing except
the two cos-type ones at p = 2, where the ordering reverses.

The constants are computed once per (family, p), from the limit formulas,
and kept in a bounded cache, so every later scalar call reads them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .families import (
    FamilyKind,
    HALF_PI,
    _as_point,
    check_param_int,
    limit_at_half_pi,
    limit_at_zero,
)


class Direction(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class EnvelopeConstants:
    family: FamilyKind
    p: int
    lower: float
    upper: float
    direction: Direction


def envelope_constants(family: FamilyKind, p) -> EnvelopeConstants:
    """Sharp (lower, upper) constants with lower < f(x) < upper on (0, pi/2).

    p is checked on every call.  Constants are computed from the limit
    formulas once per (family, p), kept in a bounded cache, rather than
    stored as decimal literals, so sharpness checks compare like for like.
    ParameterError outside p's range, 2 <= p <= 2^53."""
    return _envelope_constants(family, check_param_int(p))


@lru_cache(maxsize=256)
def _envelope_constants(family: FamilyKind, p: int) -> EnvelopeConstants:
    at_half_pi = limit_at_half_pi(family, p)
    at_zero = limit_at_zero(family, p)
    if family.is_cos and p == 2:
        direction = Direction.INCREASING
        lower, upper = at_zero, at_half_pi
    else:
        direction = Direction.DECREASING
        lower, upper = at_half_pi, at_zero
    return EnvelopeConstants(family, p, lower, upper, direction)


def ratio_bounds(family: FamilyKind, p, x: float) -> tuple[float, float]:
    """Strict two-sided bounds on eval_ratio(family, p, x) for x in (0, pi/2).

    Rearranges lower < (A - ratio)/x^2 < upper with A = 1 (cos families)
    or A = p (sin families); the p = 2 reversal is already folded into the
    envelope constants, so lo < hi always holds."""
    ec = envelope_constants(family, p)
    if type(x) is not float or not 0.0 < x < HALF_PI:
        x = _as_point(x, HALF_PI)
    a = 1.0 if family.is_cos else float(ec.p)
    x2 = x * x
    return a - ec.upper * x2, a - ec.lower * x2
