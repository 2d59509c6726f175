"""The four normalized ratio families and their endpoint limits.

Each family is a quotient of a trigonometric or hyperbolic function g at x
by the same function at x/p, normalized so that the x -> 0 singularity is
removable:

    TRIG_COS:  (1 - cos x / cos(x/p)) / x^2
    TRIG_SIN:  (p - sin x / sin(x/p)) / x^2
    HYP_COS:   (1 - cosh x / cosh(x/p)) / x^2
    HYP_SIN:   (p - sinh x / sinh(x/p)) / x^2

Family dispatch lives in one table, `FAMILY_FNS`, read by f, its limits, the
bare ratio and D: per family and backend (math, numpy), g and the sine of
the product forms, sinh for the x -> ix images f_hyp(x) = -f_trig(ix); the
sin families are those whose g is that sine.  One pole rule holds for all:
den = g((1/p) * x) is computed once, and |den| < 1e-12 raises PoleError.

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


# family -> backend -> (g, sin): g as in g(x)/g(x/p), sin of the product forms
FAMILY_FNS = {
    family: {xp: (getattr(xp, g), getattr(xp, sin)) for xp in (math, np)}
    for family, g, sin in (
        (FamilyKind.TRIG_COS, "cos", "sin"),
        (FamilyKind.TRIG_SIN, "sin", "sin"),
        (FamilyKind.HYP_COS, "cosh", "sinh"),
        (FamilyKind.HYP_SIN, "sinh", "sinh"),
    )
}

POLE_TOL = 1e-12


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


def _series_threshold(g, sin, p: float) -> float:
    # series convergence is governed by the pole/zero at |x| = |p|*pi;
    # shrink the branch point for |p| < 1 so the truncation stays < 1e-14
    return min(_TH_SIN if g is sin else _TH_COS, 0.45 * abs(p))


def series_threshold(family: FamilyKind, p: float) -> float:
    """Crossover point between the series and direct branches of eval_f."""
    return _series_threshold(*FAMILY_FNS[family][math], p)


def _f_series(x, coeffs):
    x2 = x * x
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * x2 + a
    return acc


def _f_direct(p: float, x, den, g, sin, xp):
    """f off the series branch in backend xp, given den = g((1/p) * x)."""
    if g is sin:
        return (p - g(x) / den) / (x * x)
    # 1 - g(x)/den as a product of sines, free of cancellation; sinh in place
    # of sin brings the i^2 = -1 of x -> ix
    s = 1.0 / p
    two = 2.0 if sin is xp.sin else -2.0
    num = two * sin(x * ((1.0 + s) / 2.0)) * sin(x * ((1.0 - s) / 2.0))
    return num / (x * x * den)


def eval_ratio(family: FamilyKind, p, x: float) -> float:
    """The bare quotient, e.g. cos x / cos(x/p), for x in (0, pi/2)."""
    p = check_param_real(p)
    if not 0.0 < x < HALF_PI:
        raise DomainError(f"x={x} outside (0, pi/2)")
    g, _ = FAMILY_FNS[family][math]
    den = g((1.0 / p) * x)
    if abs(den) < POLE_TOL:
        raise PoleError(f"denominator vanishes at x={x}, p={p}")
    return g(x) / den


def eval_f(family: FamilyKind, p, x: float) -> float:
    """Normalized ratio family at x in [0, pi/2); continuous through x = 0."""
    p = check_param_real(p)
    if not 0.0 <= x < HALF_PI:
        raise DomainError(f"x={x} outside [0, pi/2)")
    g, sin = FAMILY_FNS[family][math]
    if x < _series_threshold(g, sin, p):
        return float(_f_series(x, f_series_coeffs(family, p)))
    den = g((1.0 / p) * x)
    if abs(den) < POLE_TOL:
        raise PoleError(f"denominator vanishes at x={x}, p={p}")
    return float(_f_direct(p, x, den, g, sin, math))


def eval_f_grid(family: FamilyKind, p, xs: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Vectorized eval_f over an array of points in [0, pi/2)."""
    p = check_param_real(p)
    xs = np.asarray(xs, dtype=dtype)
    # written so that NaN fails the test too
    if not ((xs >= 0.0) & (xs < HALF_PI)).all():
        raise DomainError("grid points must lie in [0, pi/2)")
    out = np.empty_like(xs)
    g, sin = FAMILY_FNS[family][np]
    small = xs < _series_threshold(g, sin, p)
    if small.any():
        coeffs = (_f_series_coeffs_ld if dtype == np.longdouble else f_series_coeffs)(family, p)
        out[small] = _f_series(xs[small], coeffs)
    big = ~small
    if big.any():
        x = xs[big]
        den = g((1.0 / p) * x)
        if np.abs(den).min() < POLE_TOL:
            raise PoleError(f"denominator vanishes on the grid, p={p}")
        out[big] = _f_direct(p, x, den, g, sin, np)
    return out


def limit_at_zero(family: FamilyKind, p) -> float:
    """Limit of the family as x -> 0: the series' exact constant term, rounded once."""
    return f_series_coeffs(family, check_param_int(p))[0]


def limit_at_half_pi(family: FamilyKind, p) -> float:
    """Limit of the family as x -> pi/2, in closed form:
    4/pi^2 * (A - g(pi/2)/g(pi/(2p))) with A = 1 (cos families) or p (sin families)."""
    p = check_param_int(p)
    g, sin = FAMILY_FNS[family][math]
    a = p if g is sin else 1.0
    # cos(pi/2) = 0; cos(HALF_PI) is only the rounding of pi/2 showing
    top = 0.0 if g is math.cos else g(HALF_PI)
    return 4.0 / (math.pi * math.pi) * (a - top / g(HALF_PI / p))
