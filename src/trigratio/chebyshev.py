"""Chebyshev polynomials of the second kind and the ratio-derived bounds.

U_n satisfies U_n(cos t) = sin((n+1)t)/sin t, which identifies the sin
ratio family at integer p with U_{p-1}: sin(p y)/sin y = U_{p-1}(cos y).
`corollary_bounds` transports the quadratic envelope of that ratio into a
polynomial inequality on (0, pi/(2p)).  `cheb_u_eval` takes a real number
or an array-like t, and runs the same recurrence on both, so an array's
values equal the scalar calls bit for bit; this module itself imports no
numpy, so the CLI's `cheb` verb never loads it.  A degree takes the one
integer rule (`families.check_param_int`) with its cap: n <= 64 for
`cheb_u`, whose coefficients would overflow double precision past it, and
n <= 2^20 for `cheb_u_eval`, whose recurrence would run for hours, with
n times the points at most 2^27 for an array t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .envelopes import ratio_bounds
from .families import DomainError, FamilyKind, ParameterError, _as_point, _as_points, _as_real, check_param_int

DEGREE_CAP = 64
# cheb_u_eval's degree cap: its recurrence takes ~50 ms for a float t at
# this degree (~50 ns a step), ~1.5 s for a small array (numpy's per-call cost)
_EVAL_DEGREE_CAP = 2**20
# and its cap on n times the points of an array t: an array step costs ~1.5 us
# plus ~1.2-3 ns a point, so an accepted call runs at most ~1-1.8 s (n = 2^20
# on 128 points; ~0.4 s for n = 2^7 on 2^20), where n = 2^20 on 2^20 points
# would run for about half an hour
_EVAL_WORK_CAP = 2**27


@dataclass(frozen=True)
class ChebPoly:
    """Monomial coefficients of U_n; coeffs[i] multiplies x^i, all exact ints."""

    degree: int
    coeffs: tuple[int, ...]


def cheb_u(n: int) -> ChebPoly:
    """U_n by the three-term recurrence U_{n+1} = 2x U_n - U_{n-1}, exactly."""
    n = check_param_int(n, "degree", 0, DEGREE_CAP)
    prev = [1]
    if n == 0:
        return ChebPoly(0, (1,))
    cur = [0, 2]
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return ChebPoly(n, tuple(cur))


def cheb_u_eval(n: int, t):
    """U_n(t) for |t| <= 1 by the value-space recurrence (numerically stable).

    t is a real number, taken as a float (`families._as_real`) and giving a
    float, or an array-like taken as float64 (`families._as_points`) and run
    through the same recurrence elementwise; DomainError if any of it lies
    outside [-1, 1] or is NaN, a bool or complex.  U_0 of an array is ones
    of its shape.  ParameterError above n = 2^20, or for an array whose
    n times size is above 2^27, so that a huge degree or array fails at
    once instead of running for hours."""
    if type(n) is not int or not 0 <= n <= _EVAL_DEGREE_CAP:
        n = check_param_int(n, "degree", 0, _EVAL_DEGREE_CAP)
    if type(t) is not float and isinstance(t, numbers.Real):
        t = _as_real(t, DomainError, "t")
    if type(t) is float:
        if not -1.0 <= t <= 1.0:
            raise DomainError(f"t={t} outside [-1, 1]")
        u_prev = 1.0
    else:
        t, least, most = _as_points(t)
        if n * t.size > _EVAL_WORK_CAP:
            raise ParameterError(f"degree times points must be at most 2^27, got {n} x {t.size}")
        if not (-1.0 <= least and most <= 1.0):
            raise DomainError("t outside [-1, 1]")
        u_prev = 0.0 * t + 1.0  # ones of t's shape, t being finite
    # 2.0 * t * u_cur rounds as (2.0 * t) * u_cur, so 2t is taken once
    two_t = u_cur = 2.0 * t
    if n == 0:
        return u_prev
    for _ in range(n - 1):
        u_prev, u_cur = u_cur, two_t * u_cur - u_prev
    return u_cur


def corollary_bounds(p, y: float) -> tuple[float, float]:
    """Strict bounds lo < U_{p-1}(cos y) < hi for y in (0, pi/(2p)).

    Delegates to ratio_bounds at x = p*y so the two share one arithmetic
    path (the corollary is exactly that substitution)."""
    p = check_param_int(p)
    y_max = math.pi / (2.0 * p)
    if type(y) is not float or not 0.0 < y < y_max:
        y = _as_point(y, y_max, name="y", where=f"(0, pi/(2p)) for p={p}")
    return ratio_bounds(FamilyKind.TRIG_SIN, p, p * y)
