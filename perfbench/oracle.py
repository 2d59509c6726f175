"""Reference answers the benchmark checks the library against.

Everything here is derived from the paper's statements or computed in
mpmath at 50 significant digits; nothing calls into the library, so a
wrong answer from the library cannot also make its own expectation.
"""

from __future__ import annotations

import functools
import math

FAMILIES = ("trig-cos", "trig-sin", "hyp-cos", "hyp-sin")
TRIG = ("trig-cos", "trig-sin")
DIGITS = 50

# Explicit tolerances, each |got - exact| <= tol * max(1, |exact|).
# eval_f's sin-type direct branch loses ~eps*p/x^2 (1.6e-13 at x = 0.15,
# p = 16); the rest are a few ulps.  d_general's sin branch loses accuracy
# towards x = 0 (csc^4(x/p) against a bracket vanishing like x^5): on this
# benchmark's inputs, x >= 1e-3, it is off by up to 1.3e-9 at p = 16, so its
# tolerance is 1e-8.  A fix for that cancellation should tighten it.
TOL = {
    "eval_f": 1e-12,
    "eval_f_grid": 1e-12,
    "eval_ratio": 1e-14,
    "ratio_bounds": 1e-14,
    "corollary_bounds": 1e-13,
    "cheb_u_eval": 1e-11,
    "envelope_constants": 1e-14,
    "d_general": 1e-8,
    "d_sum": 1e-12,
}


def paper_sign(family: str, p: int) -> int:
    """Sign of D on (0, pi/2) the paper states: + for cos families at p = 2."""
    return 1 if family.endswith("cos") and p == 2 else -1


def sign_claim(family: str, p: int) -> str:
    """The id the library gives the claim that D keeps the paper's sign."""
    return f"sign-D:{family}:p={p}:{'POS' if paper_sign(family, p) > 0 else 'NEG'}"


def expected_status(claim_id: str, mode: str) -> str:
    """Every claim of the paper certifies, except one the paper flags.

    For hyp-cos at p = 2, D changes sign near x = 1.357, so the single-sign
    route is false there (f is still increasing: the monotonicity claim
    certifies directly).  The grid campaign must find that."""
    if claim_id == "sign-D:hyp-cos:p=2:POS" and mode == "grid":
        return "falsified"
    return "certified"


def _mp():
    import mpmath  # loaded only when the oracle runs, after the timed rounds

    return mpmath


def precision():
    """Context in which the reference values are computed."""
    return _mp().workdps(DIGITS)


def f_exact(family: str, p: int, x: float):
    mp = _mp()
    x = mp.mpf(x)
    s = x / p
    if family == "trig-cos":
        return (1 - mp.cos(x) / mp.cos(s)) / x**2
    if family == "trig-sin":
        return (p - mp.sin(x) / mp.sin(s)) / x**2
    if family == "hyp-cos":
        return (1 - mp.cosh(x) / mp.cosh(s)) / x**2
    return (p - mp.sinh(x) / mp.sinh(s)) / x**2


def ratio_exact(family: str, p: int, x: float):
    mp = _mp()
    x = mp.mpf(x)
    fn = {"trig-cos": mp.cos, "trig-sin": mp.sin, "hyp-cos": mp.cosh, "hyp-sin": mp.sinh}[family]
    return fn(x) / fn(x / p)


def D_exact(family: str, p: int, x: float):
    """D(x) = (x^3 f')'' = 6x f' + 6x^2 f'' + x^3 f''', by numerical
    differentiation of the direct quotient at 80 digits."""
    mp = _mp()
    with mp.workdps(80):
        x = mp.mpf(x)
        d = list(mp.diffs(lambda t: f_exact(family, p, t), x, 3))
        return +(6 * x * d[1] + 6 * x**2 * d[2] + x**3 * d[3])


@functools.lru_cache(maxsize=None)
def envelope_exact(family: str, p: int):
    """(lower, upper, increasing) from the two endpoint limits.

    The x -> 0 limit is f at x = 1e-30 (its error is O(1e-60)); the
    pi/2 limit is the quotient evaluated there."""
    mp = _mp()
    with mp.workdps(2 * DIGITS):
        at_zero = f_exact(family, p, mp.mpf("1e-30"))
        half_pi = mp.pi / 2
        a = 1 if family.endswith("cos") else p
        at_half_pi = (a - ratio_exact(family, p, half_pi)) / half_pi**2
    increasing = family.endswith("cos") and p == 2
    lo, hi = (at_zero, at_half_pi) if increasing else (at_half_pi, at_zero)
    return +lo, +hi, increasing


def cheb_exact(n: int, t: float):
    mp = _mp()
    return mp.chebyu(n, mp.mpf(t))


def close(got: float, exact, tol: float) -> bool:
    exact = float(exact)
    return math.isfinite(got) and abs(got - exact) <= tol * max(1.0, abs(exact))
