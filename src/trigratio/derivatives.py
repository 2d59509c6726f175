"""Closed forms of D(x) = d^2/dx^2 (x^3 f'(x)).

The sign of D over (0, pi/2) is what drives every monotonicity claim about
the ratio families.  Every closed form of D is one weighted sum of sines,

    D(x) = -x * factor * sum_i w_i sin(c_i x),  divided by den(x/p)^4 for the general form,

and `exact_sin_comb_form` builds its (w, c) terms and factor in exact
rationals.  Both number backends read its float view `sin_comb_form`: the
numpy evaluator `eval_sin_comb` here, and the interval kernel
`interval.sin_comb` behind the rigorous proofs in `certify`.  The
hyperbolic families are the x -> ix images of the trigonometric ones:
f_hyp(x) = -f_trig(ix), hence D_hyp(x) = -D_trig(ix).  Under that
substitution every form keeps its shape and its table with sin -> sinh and
cos -> cosh (the powers of i cancel the leading minus), so the evaluator
takes its sine and the general form's den from the family table
`families.FAMILY_FNS`.  D has two evaluators, one entry point each:

* `d_general` -- D for all four families by one path, any real p != 0,
  in float64: D's even series (exact rationals rounded once) near 0, where
  the sin families' general form cancels, and the general form above.
  Note: the printed source's cos-family formula carries csc^4(x/p), but
  differentiating the definition gives sec^4(x/p), which agrees with the
  p = 2 factored display, the sum form and D in 40-digit mpmath, so that is
  what is implemented here.
* `d_sum` -- the sum form for integer 2 <= p <= MAX_SUM_P, one expression
  in m = 1..p-1 for both parities of p (`exact_sin_comb_form`); the cos
  families have it at odd p only.  `certify` proves the sin families by it
  and the cos families by the general form, at every p.

Each, like `dirichlet_sum`, takes a float or a numpy array for x and returns
a float for a float.  `d_general` and `d_sum` run an array in blocks of
`families._BLOCK` points after one check of the whole array, as
`families.eval_f_grid` does: values bitwise independent of the blocking,
temporaries of about one block.  The identities `general_vs_sum_check` and
`vanishing_limits_check` (D's series, at every real p) are exact table algebra.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from .families import (
    FAMILY_FNS,
    POLE_TOL,
    DomainError,
    FamilyKind,
    ParameterError,
    PoleError,
    HALF_PI,
    _even_series,
    _RADIUS,
    _as_points,
    _by_blocks,
    _p_text,
    _ratio_series,
    _series_quotient,
    check_param_int,
    check_param_real,
    eval_f,
    f_series_coeffs,
    load_numpy,
    series_threshold,
)

np = load_numpy()  # with its backend in FAMILY_FNS, read by eval_sin_comb


class ParityError(ParameterError):
    """p does not have the parity the requested sum form needs."""


# The sum forms have p//2 terms, built in exact rationals (~260 bytes each)
# and summed one by one.  At p = 2^16 the table takes 0.13 s, the first
# d_sum on 2048 points 0.9 s and `trigratio verify` 1.5 s (Xeon, CPython
# 3.11), all linear in p: at p = 10^9 the table alone would need ~130 GB.
MAX_SUM_P = 2**16


def _check_sum_p(p: int) -> None:
    if p > MAX_SUM_P:
        raise ParameterError(f"D's sum form has p//2 terms, too many at {_p_text(p)} > {MAX_SUM_P}")


@functools.lru_cache(maxsize=256)
def exact_sin_comb_form(family: FamilyKind, p, general: bool) -> tuple[tuple, Fraction]:
    """D as a sin-combination in exact rationals: the (w, c) terms and the
    constant factor, all `Fraction`s built from Fraction(p), with

        D(x) = -x * factor * sum_i w_i sin(c_i x)                    (sum forms)
        D(x) = -x * factor * sum_i w_i sin(c_i x) / den(x/p)^4       (general form)

    where den is the family's own function g.  The hyperbolic families read the
    same table with sin -> sinh, cos -> cosh.  The general form takes any
    real p != 0 (every float is an exact binary rational); the sum form an
    integer p >= 2, one table for both parities: terms (eps_m m^3, m/p) over
    0 < m < p with m = p-1 (mod 2), eps_m = (-1)^((p-1-m)/2) for the cos
    families (odd p only) and 1 for the sin families, and factor 2/p^3.

    For the cos families at p >= 3 every general-form weight is > 0 and every
    frequency lies in [0, 2], so each term keeps one sign on (0, pi/2): the
    termwise lemma behind their one-cell rigorous proofs."""
    pf = Fraction(p)
    if general:
        s = 1 / pf
        cs = (1 - 3 * s, 1 + 3 * s, 1 - s, 1 + s)
        # 3p^3 +- 3p^2 - 15p -+ 23 = u +- v; the sin families negate two weights and the factor
        u, v = 3 * pf**3 - 15 * pf, 3 * pf**2 - 23
        flip = 1 if family.is_cos else -1
        ws = ((pf + 1) ** 3, flip * (pf - 1) ** 3, flip * (u + v), u - v)
        return tuple(zip(ws, cs)), flip / (8 * pf**3)
    sgn = -1 if family.is_cos else 1
    terms = tuple((Fraction(sgn ** ((p - 1 - m) // 2) * m**3), m / pf) for m in range(1 + p % 2, p, 2))
    return terms, 2 / pf**3


@functools.lru_cache(maxsize=256)
def sin_comb_form(family: FamilyKind, p, general: bool) -> tuple[tuple, float]:
    """`exact_sin_comb_form` in float64, each entry rounded once: the table
    both number backends read.  ParameterError where an entry overflows
    float64 or the factor has lost bits as a subnormal: 1/(8p^3), for the cos
    families' general form at p > ~1.8e102, and for a sum form at p > MAX_SUM_P."""
    if not general:
        _check_sum_p(p)
    terms, factor = exact_sin_comb_form(family, p, general)
    try:
        if abs(factor) >= sys.float_info.min:
            return tuple((float(w), float(c)) for w, c in terms), float(factor)
    except OverflowError:
        pass
    raise ParameterError(f"D's sin-combination overflows float64 at {_p_text(p)}")


# 16 den(y)^4 = sum a cos(k y) over (k, a), den = sin first, then cos, by power reduction
# (sin^4 y = (3 - 4 cos 2y + cos 4y)/8, cos^4 y = (3 + 4 cos 2y + cos 4y)/8); sinh, cosh alike
_DEN4 = tuple(((0, 6), (2, four), (-2, four), (4, 1), (-4, 1)) for four in (-4, 4))


def general_vs_sum_check(family: FamilyKind, p: int) -> bool:
    """Whether D's general form (factor F, terms (w, c)) and its sum form (G,
    (v, e)) are one function, for an integer p with a sum form, proved by
    exact algebra on `exact_sin_comb_form`'s tables.  The identity is

        16 F sum w sin(c x) = G sum v 16 sin(e x) den(x/p)^4,

    and `_DEN4` with sin a cos b = (sin(a+b) + sin(a-b))/2 gives
    16 sin(a) den(y)^4 = sum over its (k, a_k) of a_k sin(a + k y).
    Sines of distinct positive frequencies are linearly independent, so the
    sides are equal iff their {frequency: weight} tables are, after merging
    sin(-cx) = -sin(cx) and dropping zero frequencies and weights; compared
    in integers (frequencies in units of 1/q, weights of 1/m, F and G
    cross-multiplied).  sinh and cosh obey the same identities, so the one
    proof covers the hyperbolic families, which share the tables.
    ParameterError at p > MAX_SUM_P."""
    _check_sum_p(p)
    (gen, f), (sums, g) = exact_sin_comb_form(family, p, True), exact_sin_comb_form(family, p, False)
    q = math.lcm(p, *(c.denominator for _, c in gen + sums))
    m = math.lcm(*(w.denominator for w, _ in gen + sums))
    den4 = tuple((k * (q // p), a) for k, a in _DEN4[family.is_cos])  # k/p in units of 1/q
    left, right = {}, {}
    for table, terms, shifts, scale in (
        (left, gen, ((0, 1),), 16 * f.numerator * g.denominator),
        (right, sums, den4, g.numerator * f.denominator),
    ):
        for w, c in terms:
            w, n = w.numerator * (m // w.denominator) * scale, c.numerator * (q // c.denominator)
            for shift, a in shifts:
                k = n + shift
                table[abs(k)] = table.get(abs(k), 0) + (a * w if k > 0 else -a * w)
    return {k: v for k, v in left.items() if k and v} == {k: v for k, v in right.items() if k and v}


def _check_x_open(x) -> np.ndarray:
    x = _as_points(x)
    # written so that NaN fails the test too
    if not np.all((x > 0.0) & (x < HALF_PI)):
        raise DomainError("x must lie in (0, pi/2)")
    return x


def _unwrap(out):
    return out if out.ndim else float(out)


def eval_sin_comb(family: FamilyKind, p, x, general: bool):
    """D at x from `sin_comb_form`, in float64, with no checks on x.

    The sines and the general form's den = g((1/p) * x) come from
    `families.FAMILY_FNS`; PoleError where |den| < 1e-12."""
    g, sin = FAMILY_FNS[family][np]
    terms, factor = sin_comb_form(family, p, general)
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


# D's even series, D(x) = sum_{i=1..16} d_i x^(2i): below a quarter of its
# radius (`families._RADIUS`) the terms shrink >= 16x each and 16 reach eps,
# which covers all of (0, pi/2) for |p| >= 2 (sin) and |p| >= 4 (cos families).
_D_TERMS = 16


@functools.lru_cache(maxsize=256)
def _d_series_coeffs(family: FamilyKind, p: float) -> tuple[float, ...]:
    """d_0..d_16 for `_even_series`: d_0 = 0 and d_i = 2i(2i+1)(2i+2) a_i from
    f's exact series f = sum a_i x^(2i) (a_i = -r_(i+1) of the ratio), each
    rounded once.  ParameterError where one overflows float64, at |p| < ~7.5e-10."""
    r = _ratio_series(family, p, _D_TERMS + 2)
    try:
        return (0.0, *(float(-2 * i * (2 * i + 1) * (2 * i + 2) * r[i + 1]) for i in range(1, _D_TERMS + 1)))
    except OverflowError:
        raise ParameterError(f"D's series overflows float64 at p={p}") from None


def d_general(family: FamilyKind, p, x):
    """Closed-form D(x) for any family and real p != 0, in float64.

    Below a quarter of the first zero of g(x/p), x < |p|*pi/4 (sin families)
    or |p|*pi/8 (cos families), every family sums D's even series
    (`_d_series_coeffs`, built on the first call per p); above, the general
    form, with sinh, cosh for sin, cos in the hyperbolic families.  The sin
    families' general form cancels towards 0 (a bracket ~ x^5 against
    csc^4(x/p), an error of ~eps*(p/x)^4); the cos families' weights ~ p^3
    overflow at |p| > ~5e102.  Only the general form raises PoleError.

    Small |p| makes D ill-conditioned: its median error against 60-digit
    mpmath is ~eps*x/|p| (2.5e-14 at p = 0.01, 2e-11 at 1e-5, trig families),
    more near D's zeros.  ParameterError where 3/|p| >= 2^52 (1 +- 3/p rounds
    to +-3/p), and for the hyperbolic families where x > 175|p| (cosh(x/p)^4
    would pass e^700).  An array runs in blocks of 2^14 points after those
    checks (`families._by_blocks`): values bitwise independent of the
    blocking, temporaries of about one block."""
    p, x = check_param_real(p), _check_x_open(x)
    if 3.0 / abs(p) >= 2.0**52 or not family.is_trig and (x > 175.0 * abs(p)).any():
        raise ParameterError(f"D overflows or loses every digit at p={p}")
    reach = _RADIUS[not family.is_cos] * abs(p) * math.pi / 4.0

    def block(x):
        small = x < reach
        if small.all():
            return _even_series(x, _d_series_coeffs(family, p))
        out = np.empty_like(x)
        big = ~small
        out[big] = eval_sin_comb(family, p, x[big], True)
        if small.any():
            out[small] = _even_series(x[small], _d_series_coeffs(family, p))
        return out

    try:
        return _unwrap(_by_blocks(block, x))
    except ParameterError:
        # as on the unsplit array, the general form's errors on every point (a
        # PoleError, its table's ParameterError) come before D's series'
        # ParameterError (|p| < ~7.5e-10), even from a later block
        big = x >= reach
        if big.any():
            _by_blocks(lambda b: eval_sin_comb(family, p, b, True), x[big])
        raise


def d_sum(family: FamilyKind, p: int, x):
    """The sum form of D (`exact_sin_comb_form`) for any family and an integer
    p with 2 <= p <= MAX_SUM_P = 2^16: every term is <= 0 for the sin
    families, and the cos families' terms alternate, at odd p only.

    Raises ParityError for the cos families with even p, which have none,
    and ParameterError past MAX_SUM_P, before building any of the p//2 terms.
    An array runs in blocks of 2^14 points after those checks
    (`families._by_blocks`): values bitwise independent of the blocking,
    temporaries of about one block."""
    p = check_param_int(p)
    if family.is_cos and p % 2 == 0:
        raise ParityError("no sum form for the cos families with even p")
    x = _check_x_open(x)
    return _unwrap(_by_blocks(lambda b: eval_sin_comb(family, p, b, False), x))


def dirichlet_sum(k: int, x):
    """Sum of cos((2j+1)x/(2k)) for j < k, term by term and via sin x / (2 sin(x/(2k))),
    for a float or an array x in (0, pi): one numpy call takes every term's
    cosine, and each point's terms are summed by `math.fsum`."""
    if type(k) is not int or k < 1:
        k = check_param_int(k, "k", 1)
    x = _as_points(x)
    # written so that NaN fails the test too
    if not np.all((x > 0.0) & (x < math.pi)):
        raise DomainError("x must lie in (0, pi)")
    den = np.sin(x / (2.0 * k))
    if x.size and np.abs(den).min() < 1e-300:
        raise PoleError(f"sin(x/(2k)) vanishes for k={k}")
    terms = np.cos(np.multiply.outer(x, np.arange(1.0, 2 * k, 2.0)) / (2.0 * k))
    term_sum = np.array([math.fsum(row) for row in terms.reshape(-1, k).tolist()]).reshape(x.shape)
    closed = np.sin(x) / (2.0 * den)
    return _unwrap(term_sum), _unwrap(closed)


@functools.lru_cache(maxsize=256)
def _table_d_series(family: FamilyKind, p) -> tuple[float, ...]:
    """D's series d_-2, d_-1 (sin families only), d_0, ..., d_16 from the
    general form's exact table, each coefficient rounded once.  By sin's
    series, D den(x/p)^4 = -x * factor * sum w sin(c x) has -factor (-1)^k
    M_k/(2k+1)! at x^(2k+2), M_k = sum w c^(2k+1), and `_DEN4` gives
    16 den(x/p)^4 by cos's; D's series is their exact quotient, past den^4's
    leading x^4 in the sin families.  The hyperbolic families drop the signs."""
    terms, factor = exact_sin_comb_form(family, p, True)
    sgn, lead, s2 = (-1 if family.is_trig else 1), (0 if family.is_cos else 2), 1 / Fraction(p) ** 2
    n = lead + _D_TERMS + 1
    num = [0] + [sgn**k * sum(w * c ** (2 * k + 1) for w, c in terms) / math.factorial(2 * k + 1) for k in range(n - 1)]
    den = [
        sgn**j * sum(a * k ** (2 * j) for k, a in _DEN4[family.is_cos]) * s2**j / math.factorial(2 * j)
        for j in range(lead, n + lead)
    ]
    return tuple(float(-16 * factor * d) for d in _series_quotient(num, den))


def vanishing_limits_check(family: FamilyKind, p) -> tuple[float, float]:
    """How far f's exact series is from f and D, for real p != 0.

    Near 0, f = sum a_i x^(2i), so x^3 f' = sum 2i a_i x^(2i+2) and its
    derivative have no constant term and both vanish as x -> 0, provided the
    series is f's.  That is what this checks, returning the largest relative
    gap of each:
    * D's series as `d_general` sums it, d_i = 2i(2i+1)(2i+2) a_i, against
      `_table_d_series`, coefficient by coefficient: 0.0 where they agree,
      at every p, as both round the same rationals once (d_0 and the sin
      families' d_-2, d_-1 must be 0 for D to vanish at 0);
    * the series branch of `eval_f` against its direct branch at their crossover.
    A wrong coefficient shows in one gap or both."""
    p = check_param_real(p)
    coeffs, table = _d_series_coeffs(family, p), _table_d_series(family, p)
    series = (0.0,) * (len(table) - len(coeffs)) + coeffs
    d_gap = max(abs(a - b) / abs(b) if b else (math.inf if a else 0.0) for a, b in zip(series, table))
    th = series_threshold(family, p)
    f_gap = abs(_even_series(th, f_series_coeffs(family, p)) / eval_f(family, p, th) - 1.0)
    return d_gap, f_gap
