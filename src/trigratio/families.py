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
the product forms, sinh for the x -> ix images f_hyp(x) = -f_trig(ix).  The
rigorous proofs read no backend of it: the one claim that bisects, trig-cos
at p = 2, takes cos and sin from `interval` directly.
What the dispatch does not read from the table it reads from `FamilyKind`'s
`is_trig` and `is_cos`, plain member attributes.

Every entry point takes p in one range: a real 3/2 <= |p| <= 2^53 of either
sign (`check_param_real`), or an integer 2 <= p <= 2^53 (`check_param_int`,
the one rule of every integer argument, each with its own range);
anything else raises ParameterError.  There g(x/p) has no pole on
(0, pi/2): cos(x/p) >= 1/2, and sin(x/p) vanishes only at the removable
zero x = 0.  Every series coefficient and D-table entry fits float64.

The scalar backend needs no numpy.  The numpy backend loads on
the first array call (`eval_f_grid`, `derivatives`' evaluators, a `certify`
claim that builds or scans a grid): `load_numpy` imports numpy then and adds
its entries to `FAMILY_FNS`, so point evaluation, and a proof that reads no
array, never pays numpy's import.  Every array evaluator of f and D checks its points
(`_checked_points`) and runs them in blocks (`_blocks`) over a kernel built
per family and p (`_f_block` here, `derivatives._d_block`); `_series_or`
splits a block between a series and a closed form.

All functions are defined on (0, pi/2); `eval_f` extends to x = 0 by
continuity.  Near zero the direct quotient cancels catastrophically, so
evaluation switches to a truncated even-power series.  Its exact rational
coefficients are polynomials in q = 1/p^2, derived once per family
(`_ratio_rows`), then specialized at each p in Python ints (`_ratio_ints`)
and rounded once to float64, for f's series here and D's in `derivatives`,
with no Fraction built: ~0.02 ms a p for f's series, where an exact series division
per p took ~0.26 ms, and ~0.3 ms for the first p of a family, as before
(Xeon, CPython 3.11).

A scalar point is a real number (`numbers.Real`, not a bool), converted once
to float before any arithmetic (`_as_point`): a numpy float32 point computes
in float64 and every result is a Python float.  Anything else, a bool, a
complex number, a string, None or a Decimal, raises DomainError.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
import sys
from fractions import Fraction
from functools import lru_cache

HALF_PI = math.pi / 2.0


class DomainError(ValueError):
    """Argument outside the function's real domain."""


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

# family -> backend module -> (g, sin); numpy's entries come with `load_numpy`
FAMILY_FNS = {family: {} for family in _FNS_NAMES}


def _add_backend(xp):
    for family, names in _FNS_NAMES.items():
        FAMILY_FNS[family][xp] = tuple(getattr(xp, name) for name in names)
    return xp


_add_backend(math)


@lru_cache(maxsize=None)
def load_numpy():
    """numpy, imported on the first array call, with its backend in FAMILY_FNS."""
    import numpy

    return _add_backend(numpy)


# the top of p's range, up to which an integer p converts to float exactly
# (from p = 3*2^54 on, D's general table rounds all four frequencies to 1.0)
_P_MAX = 2.0**53


def check_param_real(p) -> float:
    """p as a float, for 3/2 <= |p| <= 2^53.  One comparison refuses NaN, inf,
    0, a bool (|p| <= 1) and an integer past float64; abs() refuses a string."""
    try:
        if 1.5 <= abs(p) <= _P_MAX:
            return float(p)
    except TypeError:
        pass
    raise ParameterError(f"p must satisfy 3/2 <= |p| <= 2^53, got {_p_text(p, bare=True)}")


def check_param_int(value, name: str = "p", least: int = 2, most: int = int(_P_MAX)) -> int:
    """value as an int (a numpy integer is its int) for least <= value <= most,
    by default p's range [2, 2^53]: the one integer rule, caps included.
    ParameterError for a bool, a non-integer ("p must be an integer, got
    True") or one out of range ("p must be in [2, 2^53], got 1", each power
    of two from 2^10 up written 2^k)."""
    if type(value) is not int:
        try:
            value = operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if not least <= value <= most:
        lo, hi = (f"2^{b.bit_length() - 1}" if b >= 1024 and not b & (b - 1) else b for b in (least, most))
        raise ParameterError(f"{name} must be in [{lo}, {hi}], got {_p_text(value, name, bare=True)}")
    return value


def _p_text(value, name: str = "p", bare: bool = False) -> str:
    """value for an error message, "p=3" (its repr, "3", if bare), but an
    integer past float64's range by its size, "|p| >= 2^k" (str() of one
    past 4300 digits raises ValueError)."""
    if isinstance(value, int) and abs(value) >= 2**1024:
        return f"|{name}| >= 2^{abs(value).bit_length() - 1}"
    return repr(value) if bare else f"{name}={value}"


# --- series branch ----------------------------------------------------------
#
# The quotient ratio(x) is even in x with a power series
#     ratio(x) = r0 + r1 x^2 + ... + r8 x^16 + O(x^18),
# the numerator's series times the p-free inverse of the denominator's, at q y.
# Then f(x) = (A - ratio(x)) / x^2 = -(r1 + r2 x^2 + ... + r8 x^14) since
# r0 = A (1 for cos-type, p for sin-type).  Only even powers appear.

_N_COEFFS = 9

# Indexed by `not family.is_cos`, so the cos families first:
# * the radius of the ratio's series in units of |p|*pi, read by D's series
#   reach (`derivatives`): the first zero of g(x/p) is at |x| = |p|*pi/2
#   (cos families) or |p|*pi (sin families), on the imaginary axis for the
#   hyperbolic ones;
# * f's crossover.  The cos-type direct branch uses a product identity with
#   no cancellation, so a small threshold suffices; the sin-type direct
#   branch loses ~eps*p/x^2 absolute accuracy, so it switches over later.
#   Both lie below 0.45/pi of the series' radius at every |p| >= 3/2.
_RADIUS = (0.5, 1.0)
_TH = (1e-2, 0.15)


def _series_quotient(num, den) -> list[Fraction]:
    """q with num = den * q as power series, to num's length, by exact
    division (den[0] != 0): 1/N here (`_ratio_rows`), D's series in `derivatives`."""
    q: list[Fraction] = []
    for i in range(len(num)):
        q.append((num[i] - sum(den[j] * q[i - j] for j in range(1, i + 1))) / den[0])
    return q


@lru_cache(maxsize=256)
def _ratio_rows(family: FamilyKind, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The ratio's series r0..r(n-1) as polynomials in q = 1/p^2, built once
    per family and row count: row i is (c_i0..c_ii, L_i), integers with
    r_i = p^o sum_j c_ij q^j / L_i.

    With y = x^2, g(x) = x^o N(y) for N(y) = sum sgn^i y^i / (2i+o)!, o = 0
    (cos families) or 1 (sin families), and sgn = -1 for the trigonometric
    ones.  So g(x)/g(x/p) = p^o N(y) S(q y) with S = 1/N free of p, and
    r_i = p^o sum_(j<=i) N_(i-j) S_j q^j.  Row i reads N and S to i only,
    so it is the same row whatever n is asked for."""
    sgn, odd = (-1 if family.is_trig else 1), (0 if family.is_cos else 1)
    fact = [math.factorial(2 * i + odd) for i in range(n)]
    inv = _series_quotient([1] + [0] * (n - 1), [Fraction(sgn**i, fact[i]) for i in range(n)])
    rows = []
    for i in range(n):
        # N_(i-j) S_j = sgn^(i-j) S_j.numerator / (S_j.denominator (2(i-j)+o)!), in integers
        dens = [inv[j].denominator * fact[i - j] for j in range(i + 1)]
        lcd = math.lcm(*dens)
        rows.append((tuple(sgn ** (i - j) * inv[j].numerator * (lcd // d) for j, d in enumerate(dens)), lcd))
    return tuple(rows)


def _ratio_ints(family: FamilyKind, p, n: int) -> list[tuple[int, int]]:
    """r0..r(n-1) at p = a/b as (numerator, denominator) pairs of Python ints,
    the denominator > 0: `_ratio_rows` with q = b^2/a^2, row i over
    L_i a^(2i), times a/b for the sin families."""
    a, b = p.as_integer_ratio()
    a2, b2 = a * a, b * b
    apow, bpow = [1], [1]
    for _ in range(1, n):
        apow.append(apow[-1] * a2)
        bpow.append(bpow[-1] * b2)
    out = []
    for i, (row, lcd) in enumerate(_ratio_rows(family, n)):
        num = sum(c * bpow[j] * apow[i - j] for j, c in enumerate(row))
        out.append((num, lcd * apow[i]) if family.is_cos else (num * a, lcd * apow[i] * b))
    return out


@lru_cache(maxsize=256)
def f_series_coeffs(family: FamilyKind, p: float) -> tuple[float, ...]:
    """Coefficients a0..a7 with f(x) = a0 + a1 x^2 + ... + a7 x^14 near 0,
    each exact coefficient rounded once to float64, for every dtype: the
    integer quotient of `_ratio_ints`, which CPython rounds correctly, as
    float() does a Fraction, so no Fraction is built."""
    return tuple(-(num / den) for num, den in _ratio_ints(family, p, _N_COEFFS)[1:])


def series_threshold(family: FamilyKind) -> float:
    """Crossover point between the series and direct branches of eval_f."""
    return _TH[not family.is_cos]


def _even_series(x, coeffs):
    """sum_i coeffs[i] x^(2i) by Horner in x^2, for at least two coefficients:
    f's 8 series coefficients here, D's 17 in `derivatives`.

    The first step makes a new accumulator, never x or a view of it, which
    every later step updates in place: on an array no step allocates, and a
    scalar (a 0-d array's x * x is one) is rebound.  Each step is still one
    rounded multiply by x^2, then one rounded add, in Horner's order, and
    numpy fuses neither pair: the values are bitwise those of the textbook
    acc = acc * x2 + a, in any float dtype."""
    x2 = x * x
    acc = coeffs[-1] * x2 + coeffs[-2]
    for a in reversed(coeffs[:-2]):
        acc *= x2
        acc += a
    return acc


def _f_direct(family: FamilyKind, p: float, x, den, g, sin):
    """f off the series branch from one backend's g and sine, given den = g((1/p) * x)."""
    if not family.is_cos:
        return (p - g(x) / den) / (x * x)
    # 1 - g(x)/den as a product of sines, free of cancellation; sinh in place
    # of sin brings the i^2 = -1 of x -> ix
    s = 1.0 / p
    two = 2.0 if family.is_trig else -2.0
    num = two * sin(x * ((1.0 + s) / 2.0)) * sin(x * ((1.0 - s) / 2.0))
    return num / (x * x * den)


def eval_ratio(family: FamilyKind, p, x: float) -> float:
    """The bare quotient, e.g. cos x / cos(x/p), for x in (0, pi/2)."""
    p = check_param_real(p)
    if type(x) is not float or not 0.0 < x < HALF_PI:
        x = _as_point(x, HALF_PI)
    g, _ = FAMILY_FNS[family][math]
    den = g((1.0 / p) * x)
    # no series branch here: sin(x/p) underflows where x < ~2^-1022 |p|
    if abs(den) < sys.float_info.min:
        raise ParameterError(f"x/p underflows float64 at x={x}, p={p}")
    return g(x) / den


@lru_cache(maxsize=None)
def _scalar_fns(family: FamilyKind, xp) -> tuple:
    """(g, sin, series threshold) of `_f_at` for one family and backend."""
    return (*FAMILY_FNS[family][xp], series_threshold(family))


def _f_at(family: FamilyKind, p: float, x, xp=math):
    """f at one point x of [0, pi/2), unchecked, on one backend's g and sine:
    the series below the crossover, the direct quotient above.  eval_f on
    math floats.  With xp numpy, bitwise eval_f_grid's value at that point,
    for a Python float x as for a numpy float64 one: the series is the same
    rounded multiplies and adds in either arithmetic, and the direct
    quotient takes numpy's g and sine."""
    g, sin, th = _scalar_fns(family, xp)
    if x < th:
        return _even_series(x, f_series_coeffs(family, p))
    return _f_direct(family, p, x, g((1.0 / p) * x), g, sin)


def eval_f(family: FamilyKind, p, x: float) -> float:
    """Normalized ratio family at x in [0, pi/2); continuous through x = 0."""
    p = check_param_real(p)
    if type(x) is not float or not 0.0 <= x < HALF_PI:
        x = _as_point(x, HALF_PI, closed=True, where="[0, pi/2)")
    return _f_at(family, p, x)


def _as_real(v, error, name: str) -> float:
    """v as a float, for a real number v: a numbers.Real (a numpy integer or
    float, a Fraction) but no bool, and +-inf for one past float64.
    error("... must be a real number") for anything else: a bool, numpy's
    bool_, a complex number, a string, None or a Decimal, which a comparison
    or float() would reject with a TypeError, read as 1.0 or parse."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise error(f"{name} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _as_point(x, hi, closed=False, name="x", where="(0, pi/2)") -> float:
    """A scalar point x as a float (`_as_real`), for x in (0, hi), or [0, hi)
    if closed; DomainError for one that is no real number, or out of range
    or NaN ("x=... outside " where).  The range test reads float(x), the
    point the arithmetic sees."""
    v = _as_real(x, DomainError, name)
    if not (0.0 <= v < hi if closed else 0.0 < v < hi):
        raise DomainError(f"{_p_text(x, name)} outside {where}")
    return v


def _as_points(x, dtype=None):
    """(x, least, most): x as a numpy array of dtype (float64 by default) and
    its least and greatest point, one pass each.  ParameterError for a dtype
    that is not a floating one.  DomainError for any array dtype but
    integers and floats: bools, complex numbers, strings and objects,
    which conversion would read as 1.0, make real or parse.  A NaN
    makes both NaN, failing any domain comparison on them; an empty array
    spans (inf, -inf), passing every one."""
    np = load_numpy()
    if dtype is not None and np.dtype(dtype).kind != "f":
        raise ParameterError(f"dtype must be a floating dtype, got {np.dtype(dtype)}")
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        what = {"b": "bools", "c": "complex numbers"}.get(x.dtype.kind, f"{x.dtype} values")
        raise DomainError(f"points must be real numbers, not {what}")
    x = x.astype(dtype or float, copy=False)
    return x, x.min(initial=np.inf), x.max(initial=-np.inf)


# Points per block of the array evaluators: 128 KiB per float64 temporary, so
# a kernel's temporaries stay in cache, where whole-array ones took 8 MiB each
# at every numpy step of a 2^20-point call (24-50 MiB live at its peak).  Such
# a call peaks at its output plus 0.39 MiB (d_general, whose series
# updates one accumulator in place), 0.38 (d_sum) or 0.55-0.63 (eval_f_grid),
# by tracemalloc.
_BLOCK = 1 << 14


def _checked_points(x, closed, dtype=None):
    """The points x (`_as_points`, in dtype), once their least and greatest
    lie in [0, pi/2) if closed, else in (0, pi/2); DomainError otherwise.
    The array evaluators' one point check, run before any block; `certify`
    runs it once on each grid it builds."""
    x, least, most = _as_points(x, dtype)
    if not ((0.0 <= least if closed else 0.0 < least) and most < HALF_PI):
        raise DomainError("grid points must lie in [0, pi/2)" if closed else "x must lie in (0, pi/2)")
    return x


def _blocks(x, kernel):
    """kernel(block) over checked points x (`_checked_points`): the array
    evaluators' one loop.

    The blocks, of at most _BLOCK points in C order, are written into one new
    array of x's shape and dtype: values independent of the blocking, as
    numpy's ufuncs work element by element.  An x of one block (a scalar, a
    2048-point grid) is that block, as it is, so a scalar keeps numpy's
    scalar arithmetic, 3x faster on D's 16-term series than a one-point
    array's.  A larger non-contiguous x is copied first."""
    if x.size <= _BLOCK:
        return kernel(x)
    out = load_numpy().empty(x.shape, x.dtype)
    flat_in, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, flat_out.size, _BLOCK):
        flat_out[i : i + _BLOCK] = kernel(flat_in[i : i + _BLOCK])
    return out


def _series_or(x, th, coeffs, direct):
    """A block x: the even series on coeffs(), built where first needed, below
    th and direct(x) above.  A block wholly below th is one series call, a 0-d
    one's value a 0-d array.  f's split here, D's in `derivatives`."""
    np = load_numpy()
    small = x < th
    if small.all():
        return np.asarray(_even_series(x, coeffs()))
    out = np.empty_like(x)
    big = ~small
    out[big] = direct(x[big])
    if small.any():
        out[small] = _even_series(x[small], coeffs())
    return out


def _f_block(family: FamilyKind, p: float):
    """eval_f_grid's kernel at a checked float p, for `_blocks`: a block's
    series below the crossover and direct quotient above (`_series_or`)."""
    g, sin = FAMILY_FNS[family][load_numpy()]
    th = series_threshold(family)

    def direct(x):
        return _f_direct(family, p, x, g((1.0 / p) * x), g, sin)

    return lambda x: _series_or(x, th, lambda: f_series_coeffs(family, p), direct)


def eval_f_grid(family: FamilyKind, p, xs, dtype=None):
    """Vectorized eval_f: a numpy array of f at the points xs in [0, pi/2), in
    the arithmetic of dtype (float64 by default) on float64 series coefficients.

    Checked by `_checked_points`, then run in blocks of 2^14 points by
    `_blocks` over `_f_block`: values bitwise the same however the array is split."""
    kernel = _f_block(family, check_param_real(p))
    return _blocks(_checked_points(xs, True, dtype), kernel)


def limit_at_zero(family: FamilyKind, p) -> float:
    """Limit of the family as x -> 0: the series' exact constant term, rounded once."""
    return f_series_coeffs(family, check_param_int(p))[0]


def limit_at_half_pi(family: FamilyKind, p) -> float:
    """Limit of the family as x -> pi/2, in closed form:
    4/pi^2 * (A - g(pi/2)/g(pi/(2p))) with A = 1 (cos families) or p (sin families)."""
    p = check_param_int(p)
    g, _ = FAMILY_FNS[family][math]
    a = 1.0 if family.is_cos else p
    # cos(pi/2) = 0; cos(HALF_PI) is only the rounding of pi/2 showing
    top = 0.0 if family.is_cos and family.is_trig else g(HALF_PI)
    return 4.0 / (math.pi * math.pi) * (a - top / g(HALF_PI / p))
