"""The four normalized ratio families and their endpoint limits.

Each family is a quotient of a trigonometric or hyperbolic function at x
by the same function at x/p, normalized so that the x -> 0 singularity is
removable:

    TRIG_COS:  (1 - cos x / cos(x/p)) / x^2
    TRIG_SIN:  (p - sin x / sin(x/p)) / x^2
    HYP_COS:   (1 - cosh x / cosh(x/p)) / x^2
    HYP_SIN:   (p - sinh x / sinh(x/p)) / x^2

All functions are defined on (0, pi/2); `eval_f` extends to x = 0 by
continuity.  Near zero the direct quotient cancels catastrophically, so
evaluation switches to a truncated even-power series whose coefficients
are computed once per (family, p) in exact rational arithmetic.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

HALF_PI = math.pi / 2.0


class DomainError(ValueError):
    """Argument outside the function's real domain."""


class PoleError(ZeroDivisionError):
    """The denominator's argument hit a zero of the denominator function."""


class ParameterError(ValueError):
    """Invalid family parameter p."""


class FamilyKind(enum.Enum):
    TRIG_COS = "trig-cos"
    TRIG_SIN = "trig-sin"
    HYP_COS = "hyp-cos"
    HYP_SIN = "hyp-sin"

    @property
    def is_trig(self) -> bool:
        return self in (FamilyKind.TRIG_COS, FamilyKind.TRIG_SIN)

    @property
    def is_cos(self) -> bool:
        return self in (FamilyKind.TRIG_COS, FamilyKind.HYP_COS)


def check_param_real(p) -> float:
    if isinstance(p, (bool, np.bool_)):
        raise ParameterError(f"p must be a number, got {p!r}")
    p = float(p)
    if p == 0.0 or not math.isfinite(p):
        raise ParameterError("p must be a nonzero finite real")
    return p


def check_param_int(p) -> int:
    try:
        p = operator.index(p)
    except TypeError:
        raise ParameterError(f"p must be an integer, got {p!r}") from None
    if p < 2:
        raise ParameterError(f"p must be >= 2, got {p}")
    return p


# --- series branch ----------------------------------------------------------
#
# The quotient ratio(x) is even in x with a power series
#     ratio(x) = r0 + r1 x^2 + ... + r8 x^16 + O(x^18),
# obtained by exact division of the numerator and denominator series.
# Then f(x) = (A - ratio(x)) / x^2 = -(r1 + r2 x^2 + ... + r8 x^14) since
# r0 = A (1 for cos-type, p for sin-type).  Only even powers appear.

_N_COEFFS = 9

# Series thresholds.  The cos-type direct branch uses a product identity with
# no cancellation, so a small threshold suffices; the sin-type direct branch
# loses ~eps*p/x^2 absolute accuracy, so it switches over later.
_TH_COS = 1e-2
_TH_SIN = 0.15


@lru_cache(maxsize=None)
def _ratio_series(family: FamilyKind, p: float) -> tuple[Fraction, ...]:
    """Exact coefficients r0..r8 of the even-power series of the ratio."""
    pf = Fraction(p)
    q = 1 / (pf * pf)
    sgn = -1 if family.is_trig else 1
    if family.is_cos:
        num = [Fraction(sgn**i, math.factorial(2 * i)) for i in range(_N_COEFFS)]
    else:
        num = [Fraction(sgn**i, math.factorial(2 * i + 1)) for i in range(_N_COEFFS)]
    den = [num[i] * q**i for i in range(_N_COEFFS)]
    r: list[Fraction] = []
    for i in range(_N_COEFFS):
        acc = num[i]
        for j in range(1, i + 1):
            acc -= den[j] * r[i - j]
        r.append(acc / den[0])
    if not family.is_cos:
        r = [pf * ri for ri in r]
    return tuple(r)


def _to_longdouble(fr: Fraction) -> np.longdouble:
    # two-float split keeps ~106 bits, enough for the 64-bit longdouble mantissa
    hi = float(fr)
    lo = float(fr - Fraction(hi))
    return np.longdouble(hi) + np.longdouble(lo)


@lru_cache(maxsize=None)
def f_series_coeffs(family: FamilyKind, p: float) -> tuple[float, ...]:
    """Coefficients a0..a7 with f(x) = a0 + a1 x^2 + ... + a7 x^14 near 0."""
    r = _ratio_series(family, p)
    return tuple(-float(ri) for ri in r[1:])


@lru_cache(maxsize=None)
def _f_series_coeffs_ld(family: FamilyKind, p: float) -> tuple[np.longdouble, ...]:
    r = _ratio_series(family, p)
    return tuple(-_to_longdouble(ri) for ri in r[1:])


def series_threshold(family: FamilyKind, p: float) -> float:
    """Crossover point between the series and direct branches of eval_f."""
    base = _TH_COS if family.is_cos else _TH_SIN
    # series convergence is governed by the pole/zero at |x| = |p|*pi;
    # shrink the branch point for |p| < 1 so the truncation stays < 1e-14
    return min(base, 0.45 * abs(p))


def _f_series(family: FamilyKind, p: float, x, coeffs):
    x2 = x * x
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * x2 + a
    return acc


def _f_direct(family: FamilyKind, p: float, x, xp=np):
    s = 1.0 / p
    if family is FamilyKind.TRIG_COS:
        num = 2.0 * xp.sin(x * ((1.0 + s) / 2.0)) * xp.sin(x * ((1.0 - s) / 2.0))
        return num / (x * x * xp.cos(s * x))
    if family is FamilyKind.HYP_COS:
        num = -2.0 * xp.sinh(x * ((1.0 + s) / 2.0)) * xp.sinh(x * ((1.0 - s) / 2.0))
        return num / (x * x * xp.cosh(s * x))
    if family is FamilyKind.TRIG_SIN:
        return (p - xp.sin(x) / xp.sin(s * x)) / (x * x)
    return (p - xp.sinh(x) / xp.sinh(s * x)) / (x * x)


_POLE_TOL = 1e-12

# the function each family takes at x and at x/p
_MATH_FN = {
    FamilyKind.TRIG_COS: math.cos,
    FamilyKind.TRIG_SIN: math.sin,
    FamilyKind.HYP_COS: math.cosh,
    FamilyKind.HYP_SIN: math.sinh,
}


def eval_ratio(family: FamilyKind, p, x: float) -> float:
    """The bare quotient, e.g. cos x / cos(x/p), for x in (0, pi/2)."""
    p = check_param_real(p)
    if not 0.0 < x < HALF_PI:
        raise DomainError(f"x={x} outside (0, pi/2)")
    fn = _MATH_FN[family]
    den = fn((1.0 / p) * x)
    if abs(den) < _POLE_TOL:
        raise PoleError(f"denominator vanishes at x={x}, p={p}")
    return fn(x) / den


def eval_f(family: FamilyKind, p, x: float) -> float:
    """Normalized ratio family at x in [0, pi/2); continuous through x = 0."""
    p = check_param_real(p)
    if not 0.0 <= x < HALF_PI:
        raise DomainError(f"x={x} outside [0, pi/2)")
    if x < series_threshold(family, p):
        return float(_f_series(family, p, x, f_series_coeffs(family, p)))
    if family.is_trig:
        den = math.cos(x / p) if family.is_cos else math.sin(x / p)
        if abs(den) < _POLE_TOL:
            raise PoleError(f"denominator vanishes at x={x}, p={p}")
    return float(_f_direct(family, p, x, math))


def eval_f_grid(family: FamilyKind, p, xs: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Vectorized eval_f over an array of points in [0, pi/2)."""
    p = check_param_real(p)
    xs = np.asarray(xs, dtype=dtype)
    # written so that NaN fails the test too
    if not np.all((xs >= 0.0) & (xs < HALF_PI)):
        raise DomainError("grid points must lie in [0, pi/2)")
    out = np.empty_like(xs)
    th = series_threshold(family, p)
    small = xs < th
    if dtype == np.longdouble:
        coeffs = _f_series_coeffs_ld(family, p)
    else:
        coeffs = f_series_coeffs(family, p)
    if np.any(small):
        out[small] = _f_series(family, p, xs[small], coeffs)
    big = ~small
    if np.any(big):
        out[big] = _f_direct(family, p, xs[big])
    return out


def limit_at_zero(family: FamilyKind, p) -> float:
    """Limit of the family as x -> 0, in closed form."""
    p = check_param_int(p)
    if family is FamilyKind.TRIG_COS:
        return (p * p - 1) / (2.0 * p * p)
    if family is FamilyKind.TRIG_SIN:
        return (p * p - 1) / (6.0 * p)
    if family is FamilyKind.HYP_COS:
        return (1 - p * p) / (2.0 * p * p)
    return (1 - p * p) / (6.0 * p)


def limit_at_half_pi(family: FamilyKind, p) -> float:
    """Limit of the family as x -> pi/2, in closed form."""
    p = check_param_int(p)
    c = 4.0 / (math.pi * math.pi)
    if family is FamilyKind.TRIG_COS:
        return c
    if family is FamilyKind.TRIG_SIN:
        return c * (p - 1.0 / math.sin(HALF_PI / p))
    if family is FamilyKind.HYP_COS:
        return c * (1.0 - math.cosh(HALF_PI) / math.cosh(HALF_PI / p))
    return c * (p - math.sinh(HALF_PI) / math.sinh(HALF_PI / p))
