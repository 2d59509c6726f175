"""Closed forms and the finite-difference oracle for D(x) = d^2/dx^2 (x^3 f'(x)).

The sign of D over (0, pi/2) is what drives every monotonicity claim about
the ratio families.  Every closed form of D is one weighted sum of sines,

    D(x) = -x * factor * sum_i w_i sin(c_i x),  divided by den(x/p)^4 for the general form,

and `sin_comb_form` builds its (w, c) terms and factor once per
(family, p, form).  Both number backends read that one table: the numpy
evaluator `eval_sin_comb` here, and the interval kernel `interval.sin_comb`
behind the rigorous proofs in `certify`.  The hyperbolic families are the
x -> ix images of the trigonometric ones: f_hyp(x) = -f_trig(ix), hence
D_hyp(x) = -D_trig(ix).  Under that substitution every form keeps its
shape and its table with sin -> sinh and cos -> cosh (the powers of i
cancel the leading minus), so the evaluator takes its sine and the general
form's den from the family table `families.FAMILY_FNS`.  Entry points:

* `d_general` -- the general form for the two trigonometric families,
  valid for any real p != 0, and the only closed form evaluated in 80-bit
  extended precision, table included.  Note: the printed source for the
  cos-family formula carries csc^4(x/p), but differentiating the
  definition gives sec^4(x/p); the sec^4 version agrees with the p = 2
  factored display, with the parity sum forms and with the
  finite-difference oracle, so that is what is implemented here.
* `d_general_hyp_cos` -- its x -> ix image for the hyperbolic cos family,
  with sech^4(x/p) in place of sec^4(x/p), in float64.
* `d_sum`, `d_sum_even_sin`, `d_sum_odd` -- the finite-sum forms for
  integer p, all four families; `has_sum_form` says which (family, p)
  have one.  For the cos families with p = 2k+1 the
  alternating factor is (-1)^(k-j); the (-1)^(j-1) variant agrees only for
  odd k and is numerically wrong for even k.
* `numeric_D` -- a nested central-difference oracle, evaluated internally
  in 80-bit extended precision so the h = 1e-4 tolerances are attainable.
  It is an independent oracle only: the tests check the closed forms
  against it, and no verdict rests on it.
* `dirichlet_sum`, `vanishing_limits_check` -- the auxiliary identities.

All evaluators accept numpy arrays for x.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .families import (
    FAMILY_FNS,
    POLE_TOL,
    DomainError,
    FamilyKind,
    ParameterError,
    PoleError,
    HALF_PI,
    check_param_int,
    check_param_real,
    eval_f_grid,
    f_series_coeffs,
)


class ParityError(ParameterError):
    """p does not have the parity the requested sum form needs."""


@functools.lru_cache(maxsize=256, typed=True)
def sin_comb_form(family: FamilyKind, p, general: bool) -> tuple[tuple, object]:
    """D as a sin-combination: the (w, c) terms and the constant factor with

        D(x) = -x * factor * sum_i w_i sin(c_i x)                    (sum forms)
        D(x) = -x * factor * sum_i w_i sin(c_i x) / den(x/p)^4       (general form)

    where den is the family's own function g.  The hyperbolic families read the
    same table with sin -> sinh, cos -> cosh.  The general form takes any
    real p != 0 and is built in the type of p (a longdouble p gives an
    80-bit table; `typed=True` keeps 2, 2.0 and longdouble(2) apart); the
    sum forms take an integer p >= 2 for which `has_sum_form` holds: the
    sin families at p = 2k, and p = 2k+1 with the factor (-1)^(k-j) on
    each term for the cos families."""
    if general:
        p3, p2 = p**3, p**2
        s = 1.0 / p
        cs = (1.0 - 3.0 * s, 1.0 + 3.0 * s, 1.0 - s, 1.0 + s)
        if family.is_cos:
            ws = ((p + 1) ** 3, (p - 1) ** 3, 3 * p3 + 3 * p2 - 15 * p - 23, 3 * p3 - 3 * p2 - 15 * p + 23)
            return tuple(zip(ws, cs)), 1.0 / (8.0 * p3)
        ws = ((p + 1) ** 3, -((p - 1) ** 3), -3 * p3 - 3 * p2 + 15 * p + 23, 3 * p3 - 3 * p2 - 15 * p + 23)
        return tuple(zip(ws, cs)), -1.0 / (8.0 * p3)
    k = p // 2
    if p % 2 == 0:
        return tuple(((2 * j + 1) ** 3, (2 * j + 1) / (2.0 * k)) for j in range(k)), 1.0 / (4.0 * k**3)
    sgn = -1 if family.is_cos else 1
    return tuple((sgn ** (k - j) * j**3, 2.0 * j / p) for j in range(1, k + 1)), 16.0 / p**3


def general_weights(family: FamilyKind, p: float) -> tuple[float, float, float, float]:
    """The four coefficients multiplying sin((1 -/+ 3/p)x), sin((1 -/+ 1/p)x).

    x -> ix leaves them unchanged: a hyperbolic family shares the weights
    of its trigonometric partner."""
    return tuple(w for w, _ in sin_comb_form(family, p, True)[0])


def _check_x_open(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    # written so that NaN fails the test too
    if not np.all((x > 0.0) & (x < HALF_PI)):
        raise DomainError("x must lie in (0, pi/2)")
    return x


def _unwrap(out):
    return out if out.ndim else float(out)


def eval_sin_comb(family: FamilyKind, p, x, general: bool, weights=None):
    """D at x from `sin_comb_form`, in the dtype of x and p, with no checks
    on x; `weights` overrides the table's w_i.

    The sines and the general form's den = g((1/p) * x) come from
    `families.FAMILY_FNS`; PoleError where |den| < 1e-12."""
    g, sin = FAMILY_FNS[family][np]
    terms, factor = sin_comb_form(family, p, general)
    if weights is not None:
        terms = [(w, c) for w, (_, c) in zip(weights, terms)]
    acc = 0.0
    for w, c in terms:
        acc += w * sin(c * x)
    out = x * -factor
    out *= acc
    if not general:
        return out
    den = g((1.0 / p) * x)
    if np.abs(den).min() < POLE_TOL:
        raise PoleError(f"{g.__name__}(x/p) vanishes for p={float(p)}")
    out /= den**4
    return out


def d_general(family: FamilyKind, p, x, *, weights=None):
    """Closed-form D(x) for TRIG_COS / TRIG_SIN, any real p != 0.

    Internally evaluated in 80-bit extended precision, table included: the
    sin-family bracket vanishes like x^5 against csc^4(x/p), and the
    cancellation would otherwise cost ~1e-9 relative accuracy at small x
    for p ~ 12, and far more at non-integer p.  Even in 80 bits it loses
    accuracy towards x -> 0 at non-integer p: against 40-digit mpmath,
    trig-sin p = 7.3 is off by 1.0e-4 relative at x = 1e-3 and 9.0e-10 at
    x = 1e-2 (p = 3.7: 3.9e-6 and 1.2e-9).

    `weights` overrides the four bracket coefficients (test hook)."""
    if not family.is_trig:
        raise ParameterError("d_general covers the trigonometric families; see d_sum")
    p = check_param_real(p)
    x = _check_x_open(x)
    out = eval_sin_comb(family, np.longdouble(p), x.astype(np.longdouble), True, weights)
    return _unwrap(out.astype(np.float64))


def d_general_hyp_cos(p, x):
    """Closed-form D(x) for HYP_COS, any real p != 0, in float64:
    -x/(8p^3) * sum_i w_i sinh(c_i x) / cosh^4(x/p) with the TRIG_COS weights.

    Unlike the sin-family bracket this one does not cancel towards x = 0
    (D ~ x^2 against a bracket ~ x), and cosh has no zero, so float64 is
    accurate to a few ulps relative to |D|."""
    p = check_param_real(p)
    return _unwrap(eval_sin_comb(FamilyKind.HYP_COS, p, _check_x_open(x), True))


def _check_k(k: int) -> None:
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


def d_sum_even_sin(k: int, x):
    """Sum form of D for the sin family with p = 2k; every term is <= 0."""
    _check_k(k)
    return _unwrap(eval_sin_comb(FamilyKind.TRIG_SIN, 2 * k, _check_x_open(x), False))


def d_sum_odd(family: FamilyKind, k: int, x):
    """Sum form of D for p = 2k+1; plain for the sin families, alternating for the cos families."""
    _check_k(k)
    return _unwrap(eval_sin_comb(family, 2 * k + 1, _check_x_open(x), False))


def has_sum_form(family: FamilyKind, p: int) -> bool:
    """Whether D has a parity sum form at integer p: every family except the
    cos families at even p, which take the general form instead."""
    return not (family.is_cos and p % 2 == 0)


def d_sum(family: FamilyKind, p: int, x):
    """Parity-dispatched sum form of D for any family and integer p >= 2.

    Raises ParityError for the cos families with even p, which have none."""
    p = check_param_int(p)
    if not has_sum_form(family, p):
        raise ParityError("no sum form for the cos families with even p")
    return _unwrap(eval_sin_comb(family, p, _check_x_open(x), False))


def dirichlet_sum(k: int, x: float) -> tuple[float, float]:
    """Sum of cos((2j+1)x/(2k)) term by term and via sin x / (2 sin(x/(2k)))."""
    _check_k(k)
    if not 0.0 < x < math.pi:
        raise DomainError(f"x={x} outside (0, pi)")
    den = math.sin(x / (2.0 * k))
    if abs(den) < 1e-300:
        raise PoleError(f"sin(x/(2k)) vanishes at x={x}, k={k}")
    term_sum = math.fsum(math.cos((2 * j + 1) * x / (2.0 * k)) for j in range(k))
    closed = math.sin(x) / (2.0 * den)
    return term_sum, closed


# --- finite-difference oracle ----------------------------------------------

_LD = np.longdouble
_EPS_LD = float(np.finfo(np.longdouble).eps)


def _numeric_D_arrays(family: FamilyKind, p: float, x: np.ndarray, h: np.ndarray):
    """Richardson-extrapolated nested differences; returns (value, error_est).

    g(t) = t^3 f'(t) with f' a 5-point central difference at a fixed inner
    step delta (0.01, shrunk near the interval ends); D is the 5-point
    second difference of g at the outer step h, Richardson-paired with h/2.
    Keeping delta independent of h matters: the outer stencil amplifies
    inner noise by ~1/h^2, so an h-coupled inner step drowns at h = 1e-4
    even in the 80-bit arithmetic used here.  The error estimate combines
    the two observable truncation differences with a roundoff model; it is
    a heuristic, not a bound (see numeric_D_with_estimate).
    """
    x = np.asarray(x, dtype=_LD)
    h = np.broadcast_to(np.asarray(h, dtype=_LD), x.shape)
    room = np.minimum(x - 2 * h, HALF_PI - x - 2 * h)
    delta = np.minimum(_LD(0.01), 0.45 * room)

    def f(t):
        return eval_f_grid(family, p, t, dtype=np.longdouble)

    max_f = np.zeros_like(x)

    def g(t, d):
        f1, f2 = f(t + d), f(t + 2 * d)
        f3, f4 = f(t - d), f(t - 2 * d)
        np.maximum(max_f, np.abs(f1), out=max_f)
        np.maximum(max_f, np.abs(f3), out=max_f)
        deriv = (-f2 + 8.0 * f1 - 8.0 * f3 + f4) / (12.0 * d)
        return t**3 * deriv

    def second_diff(hh, d):
        return (
            -g(x - 2 * hh, d)
            + 16.0 * g(x - hh, d)
            - 30.0 * g(x, d)
            + 16.0 * g(x + hh, d)
            - g(x + 2 * hh, d)
        ) / (12.0 * hh * hh)

    d1 = second_diff(h, delta)
    d2 = second_diff(h / 2.0, delta)
    d3 = second_diff(h, delta / 2.0)
    value = (16.0 * d2 - d1) / 15.0
    outer_trunc = np.abs(d2 - d1) / 15.0
    inner_trunc = np.abs(d1 - d3) * (16.0 / 15.0)
    x_hi = x + 2 * h
    roundoff = 64.0 * x_hi**3 * _EPS_LD * max_f / (delta * h * h)
    est = (
        2.0 * (outer_trunc + inner_trunc)
        + roundoff
        + 4.0 * np.finfo(np.float64).eps * np.abs(value)
    )
    return value.astype(np.float64), est.astype(np.float64)


def numeric_D(family: FamilyKind, p, x: float, h: float = 1e-4) -> float:
    """Finite-difference estimate of D(x) at outer step h (Richardson-paired with h/2)."""
    value, _ = numeric_D_with_estimate(family, p, x, h)
    return float(value[0])


def numeric_D_with_estimate(family: FamilyKind, p, x, h):
    """Vectorized numeric_D returning (value, error_estimate) arrays.

    The estimate is a heuristic, not a bound: it models the truncation and
    roundoff of the stencil but does not enclose the error.  At h = 1e-4 on
    2048 evenly spaced points of [1e-3, pi/2 - 1e-3], |value - closed form|
    exceeds it at 220 points for trig-sin p = 3 and at 283 for hyp-sin
    p = 11, all in x in [0.13, 1.08], by up to ~6x.  Use it to size a
    tolerance, never as a certificate.  h must lie in [1e-5, 1e-3]: below,
    roundoff swamps the stencil; above, truncation does."""
    p = check_param_real(p)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    # written so that NaN fails the tests too
    if not np.all((h >= 1e-5) & (h <= 1e-3)):
        raise DomainError("h outside [1e-5, 1e-3]")
    if not np.all((x - 2.5 * h > 0.0) & (x + 2.5 * h < HALF_PI)):
        raise DomainError("stencil leaves (0, pi/2)")
    return _numeric_D_arrays(family, p, x, h)


def vanishing_limits_check(family: FamilyKind, p) -> tuple[float, float]:
    """Extrapolated x -> 0 limits of d/dx(x^3 f') and of x^3 f' themselves.

    Both are evaluated from the series branch at x = 1e-2, 1e-3, 1e-4 and
    Richardson-extrapolated with their known leading orders (x^3 and x^4)."""
    p = check_param_real(p)
    a = f_series_coeffs(family, p)

    def l2(x):  # x^3 f'(x) = sum 2i * a_i * x^(2i+2)
        return math.fsum(2 * i * a[i] * x ** (2 * i + 2) for i in range(1, len(a)))

    def l1(x):  # d/dx (x^3 f')
        return math.fsum(2 * i * (2 * i + 2) * a[i] * x ** (2 * i + 1) for i in range(1, len(a)))

    xs = (1e-2, 1e-3, 1e-4)

    def extrapolate(fn, order):
        v = [fn(x) for x in xs]
        scale = 10.0**order
        # eliminate the leading x^order term between successive points
        v01 = (scale * v[1] - v[0]) / (scale - 1.0)
        v12 = (scale * v[2] - v[1]) / (scale - 1.0)
        return (scale * 100.0 * v12 - v01) / (scale * 100.0 - 1.0)

    return extrapolate(l1, 3), extrapolate(l2, 4)
