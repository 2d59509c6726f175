"""The four normalized ratio families and their endpoint limits.

Each family is a quotient of a trigonometric or hyperbolic function g at x
by the same function at x/p, normalized so that the x -> 0 singularity is
removable:

    TRIG_COS:  (1 - cos x / cos(x/p)) / x^2
    TRIG_SIN:  (p - sin x / sin(x/p)) / x^2
    HYP_COS:   (1 - cosh x / cosh(x/p)) / x^2
    HYP_SIN:   (p - sinh x / sinh(x/p)) / x^2

Family dispatch lives in one table, `FAMILY_FNS`, read by f, its limits, the
bare ratio and D: per family and backend (math, numpy, interval), g and the
sine of the product forms, sinh for the x -> ix images f_hyp(x) = -f_trig(ix);
the sin families are those whose g is that sine.  f and the bare ratio share
one pole rule: den = g((1/p) * x) is computed once, and |den| < 1e-12 raises
PoleError where x > |p|; below, it is the removable zero at x -> 0, since
every other zero of g has |x/p| >= pi/2, unless x/p underflows to a
subnormal or 0, which raises ParameterError.  What the dispatch does not read
from the table it reads from `FamilyKind`'s `is_trig` and `is_cos`, plain
member attributes.

The scalar and interval backends need no numpy.  The numpy backend loads on
the first array call (`eval_f_grid`, `derivatives`):
`load_numpy` imports numpy then and adds its entries to `FAMILY_FNS`, so
point evaluation never pays numpy's import.

All functions are defined on (0, pi/2); `eval_f` extends to x = 0 by
continuity.  Near zero the direct quotient cancels catastrophically, so
evaluation switches to a truncated even-power series whose coefficients
are computed once per (family, p) in exact rational arithmetic and rounded
once to float64.  Every evaluator raises DomainError for a bool point.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache

from . import interval

HALF_PI = math.pi / 2.0


class DomainError(ValueError):
    """Argument outside the function's real domain."""


class PoleError(ZeroDivisionError):
    """The denominator's argument hit a zero of the denominator function."""


class ParameterError(ValueError):
    """Invalid family parameter p."""


class FamilyKind(enum.Enum):
    """A family; `is_trig` and `is_cos` are plain member attributes, set once
    from the value string."""

    TRIG_COS = "trig-cos"
    TRIG_SIN = "trig-sin"
    HYP_COS = "hyp-cos"
    HYP_SIN = "hyp-sin"

    def __init__(self, value: str):
        self.is_trig = value.startswith("trig-")
        self.is_cos = value.endswith("-cos")

    # members are singletons and equality is identity, so the C-level identity
    # hash serves every FAMILY_FNS lookup and lru_cache key (Enum's own hashes
    # the name in Python)
    __hash__ = object.__hash__


# family -> (g, sin) names: g as in g(x)/g(x/p), sin of the product forms
_FNS_NAMES = {
    FamilyKind.TRIG_COS: ("cos", "sin"),
    FamilyKind.TRIG_SIN: ("sin", "sin"),
    FamilyKind.HYP_COS: ("cosh", "sinh"),
    FamilyKind.HYP_SIN: ("sinh", "sinh"),
}

# family -> backend module -> (g, sin); the interval backend's g and sin both
# enclose on float pairs (see `interval`); numpy's entries come with `load_numpy`
FAMILY_FNS = {family: {} for family in _FNS_NAMES}


def _add_backend(xp):
    for family, names in _FNS_NAMES.items():
        FAMILY_FNS[family][xp] = tuple(getattr(xp, name) for name in names)
    return xp


_add_backend(math)
_add_backend(interval)


@lru_cache(maxsize=None)
def load_numpy():
    """numpy, imported on the first array call, with its backend in FAMILY_FNS."""
    import numpy

    return _add_backend(numpy)


POLE_TOL = 1e-12


def _pole(den, x, p):
    """Where den = g((1/p) * x) is a pole of f and the bare ratio, on scalars
    or arrays: |den| < 1e-12 where x > |p|.  At x <= |p| it is the removable
    zero at x -> 0, since every other zero of g has |x/p| >= pi/2, unless den
    is subnormal or 0 (only where |p| > ~4.5e307 x): too coarse a quotient,
    which `_pole_error` words as a limit of p."""
    small = abs(den)
    return (small < POLE_TOL) & ((x > abs(p)) | (small < sys.float_info.min))


def _pole_error(at: str, beyond, p) -> PoleError | ParameterError:
    """The error for a den that `_pole` flags `at` the points: PoleError where
    some point lies beyond |p|, else ParameterError, since den is then only
    subnormal or 0 because x/p underflows, a float64 limit of p like the others."""
    if beyond:
        return PoleError(f"denominator vanishes {at}, p={p}")
    return ParameterError(f"x/p underflows float64 {at}, {_p_text(p)}")


def _is_bool(v) -> bool:
    # bool and numpy's bool_ (named "bool" since numpy 2), without importing numpy
    return type(v).__name__ in ("bool", "bool_")


def check_param_real(p) -> float:
    if type(p).__name__ in ("bool", "bool_"):  # _is_bool, inlined on the hot path
        raise ParameterError(f"p must be a number, got {p!r}")
    try:
        p = float(p)
    except OverflowError:  # an integer past float64's range
        p = math.inf
    if p == 0.0 or not math.isfinite(p):
        raise ParameterError("p must be a nonzero finite real")
    return p


def check_param_int(value, name: str = "p", least: int = 2) -> int:
    """value as an int: ParameterError for a bool, a non-integer or one below least."""
    if type(value) is not int:
        try:
            value = operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {_p_text(value, name, bare=True)}")
    return value


def _p_text(value, name: str = "p", bare: bool = False) -> str:
    """value for an error message, "p=3" ("3" if bare), but an integer past
    float64's range by its size, "|p| >= 2^k" (str() of one past 4300 digits
    raises ValueError)."""
    if isinstance(value, int) and abs(value) >= 2**1024:
        return f"|{name}| >= 2^{abs(value).bit_length() - 1}"
    return str(value) if bare else f"{name}={value}"


# --- series branch ----------------------------------------------------------
#
# The quotient ratio(x) is even in x with a power series
#     ratio(x) = r0 + r1 x^2 + ... + r8 x^16 + O(x^18),
# obtained by exact division of the numerator and denominator series.
# Then f(x) = (A - ratio(x)) / x^2 = -(r1 + r2 x^2 + ... + r8 x^14) since
# r0 = A (1 for cos-type, p for sin-type).  Only even powers appear.

_N_COEFFS = 9

# Indexed by whether g is the family's sine, so the cos families first:
# * the radius of the ratio's series in units of |p|*pi, read by f's
#   crossover and D's series reach (`derivatives`): the first zero of g(x/p)
#   is at |x| = |p|*pi/2 (cos families) or |p|*pi (sin families), on the
#   imaginary axis for the hyperbolic ones;
# * the crossover at large |p|.  The cos-type direct branch uses a product
#   identity with no cancellation, so a small threshold suffices; the
#   sin-type direct branch loses ~eps*p/x^2 absolute accuracy, so it
#   switches over later.
_RADIUS = (0.5, 1.0)
_TH = (1e-2, 0.15)


def _series_quotient(num, den) -> list[Fraction]:
    """q with num = den * q as power series, to num's length, by exact
    division (den[0] != 0): the ratio's series here, D's in `derivatives`."""
    q: list[Fraction] = []
    for i in range(len(num)):
        q.append((num[i] - sum(den[j] * q[i - j] for j in range(1, i + 1))) / den[0])
    return q


@lru_cache(maxsize=256)
def _ratio_series(family: FamilyKind, p: float, n: int = _N_COEFFS) -> tuple[Fraction, ...]:
    """Exact coefficients r0..r(n-1) of the even-power series of the ratio
    (r0..r8 for f's series branch; D's series asks for more)."""
    pf = Fraction(p)
    q = 1 / (pf * pf)
    sgn, odd = (-1 if family.is_trig else 1), (0 if family.is_cos else 1)
    num = [Fraction(sgn**i, math.factorial(2 * i + odd)) for i in range(n)]
    r = _series_quotient(num, [num[i] * q**i for i in range(n)])
    if not family.is_cos:
        r = [pf * ri for ri in r]
    return tuple(r)


@lru_cache(maxsize=256)
def f_series_coeffs(family: FamilyKind, p: float) -> tuple[float, ...]:
    """Coefficients a0..a7 with f(x) = a0 + a1 x^2 + ... + a7 x^14 near 0,
    each exact coefficient rounded once to float64, for every dtype.
    ParameterError where one overflows float64: a7 ~ p^-14 at |p| < ~3.5e-20
    (cos families) or ~8.7e-22 (sin families), and a0 ~ -p/6 (sin families)
    at integer p > ~1.1e309."""
    try:
        return tuple(-float(ri) for ri in _ratio_series(family, p)[1:])
    except OverflowError:
        raise ParameterError(f"f's series overflows float64 at {_p_text(p)}") from None


def _series_threshold(g, sin, p: float) -> float:
    # at small |p| the crossover is 0.45/pi of the series' radius, where the
    # truncation after x^14 is < 4e-14 relative (3.9e-14 worst measured)
    sin_family = g is sin
    return min(_TH[sin_family], 0.45 * _RADIUS[sin_family] * abs(p))


def series_threshold(family: FamilyKind, p: float) -> float:
    """Crossover point between the series and direct branches of eval_f."""
    return _series_threshold(*FAMILY_FNS[family][math], p)


def _even_series(x, coeffs):
    """sum_i coeffs[i] x^(2i) by Horner in x^2: f's series here, D's in
    `derivatives`."""
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
    if type(x) is not float and _is_bool(x) or not 0.0 < x < HALF_PI:
        raise DomainError(f"x={x} outside (0, pi/2)")
    g, _ = FAMILY_FNS[family][math]
    den = g((1.0 / p) * x)
    # the first test is _pole's own, so it decides only where |den| < 1e-12 (never for NaN)
    if abs(den) < POLE_TOL and _pole(den, x, p):
        raise _pole_error(f"at x={x}", x > abs(p), p)
    return g(x) / den


@lru_cache(maxsize=256)
def _scalar_fns(family: FamilyKind, p: float) -> tuple:
    """(g, sin, series threshold) of eval_f at one (family, p), math backend."""
    g, sin = FAMILY_FNS[family][math]
    return g, sin, _series_threshold(g, sin, p)


def eval_f(family: FamilyKind, p, x: float) -> float:
    """Normalized ratio family at x in [0, pi/2); continuous through x = 0."""
    p = check_param_real(p)
    if type(x) is not float and _is_bool(x) or not 0.0 <= x < HALF_PI:
        raise DomainError(f"x={x} outside [0, pi/2)")
    g, sin, th = _scalar_fns(family, p)
    if x < th:
        return float(_even_series(x, f_series_coeffs(family, p)))
    den = g((1.0 / p) * x)
    if abs(den) < POLE_TOL and _pole(den, x, p):  # as in eval_ratio
        raise _pole_error(f"at x={x}", x > abs(p), p)
    return float(_f_direct(p, x, den, g, sin, math))


def _as_points(x, dtype=None):
    """x as a numpy array of dtype (float64 by default); DomainError for bools."""
    x = load_numpy().asarray(x)
    if x.dtype.kind == "b":
        raise DomainError("points must be real numbers, not bools")
    return x.astype(dtype or float, copy=False)


# Points per block of the array evaluators: 128 KiB per float64 temporary, so
# a kernel's temporaries stay in cache, where whole-array ones took 8 MiB each
# at every numpy step of a 2^20-point call (24-50 MiB live at its peak).
_BLOCK = 1 << 14


def _by_blocks(kernel, xs):
    """kernel(block) over xs in C order, in blocks of at most _BLOCK points,
    written into one new array of xs's shape and dtype.  Numpy's ufuncs work
    element by element, so the values do not depend on the blocking.  An xs
    of one block (a scalar, a 2048-point grid) is that block, as it is: a
    scalar keeps numpy's scalar arithmetic, 3x faster on D's 16-term series
    than a one-point array's.  A larger non-contiguous xs is copied first."""
    if xs.size <= _BLOCK:
        return kernel(xs)
    out = load_numpy().empty(xs.shape, xs.dtype)
    flat_in, flat_out = xs.reshape(-1), out.reshape(-1)
    for i in range(0, flat_out.size, _BLOCK):
        flat_out[i : i + _BLOCK] = kernel(flat_in[i : i + _BLOCK])
    return out


def eval_f_grid(family: FamilyKind, p, xs, dtype=None):
    """Vectorized eval_f: a numpy array of f at the points xs in [0, pi/2), in
    the arithmetic of dtype (float64 by default) on float64 series coefficients.

    The points run in blocks of `_BLOCK` (2^14) points after one check of the
    whole array, so temporaries stay at about one block and every value is
    bitwise the same however the array is split."""
    p = check_param_real(p)
    np = load_numpy()
    xs = _as_points(xs, dtype)
    # written so that NaN fails the test too
    if not ((xs >= 0.0) & (xs < HALF_PI)).all():
        raise DomainError("grid points must lie in [0, pi/2)")
    g, sin = FAMILY_FNS[family][np]
    th = _series_threshold(g, sin, p)

    def block(x):
        out = np.empty_like(x)
        small = x < th
        if small.any():
            out[small] = _even_series(x[small], f_series_coeffs(family, p))
        big = ~small
        if big.any():
            x = x[big]
            den = g((1.0 / p) * x)
            # every x < pi/2, so x > |p| needs |p| < pi/2; at |p| >= 1/45 every x
            # here is >= 1e-2, so a subnormal den needs |p| > 1e-2 / 2.2e-308
            if not HALF_PI <= abs(p) <= 4e305 and _pole(den, x, p).any():
                raise _pole_error("on the grid", ((xs >= th) & (xs > abs(p))).any(), p)
            out[big] = _f_direct(p, x, den, g, sin, np)
        return out

    try:
        return _by_blocks(block, xs)
    except (PoleError, ParameterError):
        # as on the unsplit array, f's series (ParameterError at |p| < ~3.5e-20)
        # fails first wherever a point needs it, even in a later block
        if (xs < th).any():
            f_series_coeffs(family, p)
        raise


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
    try:
        return 4.0 / (math.pi * math.pi) * (a - top / g(HALF_PI / p))
    except OverflowError:
        raise ParameterError(f"the limit at pi/2 overflows float64 at {_p_text(p)}") from None
