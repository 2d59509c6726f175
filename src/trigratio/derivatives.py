"""Closed forms of D(x) = d^2/dx^2 (x^3 f'(x)).

The sign of D over (0, pi/2) is what drives every monotonicity claim about
the ratio families.  Every closed form of D is one weighted sum of sines,

    D(x) = -x * factor * sum_i w_i sin(c_i x),  divided by den(x/p)^4 for the general form,

and `exact_sin_comb_form` builds its (w, c) terms and factor in exact
rationals, the general form's from f's definition.  `termwise_sign` gives
the sign D keeps on (0, pi/2) where every term keeps one, the first route of
the rigorous proofs in `certify`: off the cos families' general table, and for
the sin families off their sum form's rule, proved D at every p once.  Where
it is silent, `_falsifying_witness`, the second, finds a point x = 1/2 or
3/2 where D has the other sign, by an exact enclosure of the general table's
sum there (`_sin_sum_bounds`).  Both number backends read the float view
`sin_comb_form`: the numpy evaluator `eval_sin_comb` here, and the interval
kernel `interval.sin_comb` behind trig-cos's bisection at p = 2, the one
claim both routes leave open, in `certify`.  The hyperbolic families are the x -> ix
images of the trigonometric ones: f_hyp(x) = -f_trig(ix), hence
D_hyp(x) = -D_trig(ix).  Under that substitution every form keeps its shape
and its table with sin -> sinh and cos -> cosh (the powers of i cancel the
leading minus), so the evaluator takes its sine and the general form's den
from the family table `families.FAMILY_FNS`.  D has two evaluators, one entry point each:

* `d_general` -- D for all four families by one path, at every real p of
  the supported range 3/2 <= |p| <= 2^53, in float64: D's even series
  (exact rationals rounded once) near 0, where the sin families' general
  form cancels, and the general form above.
  Note: the printed source's cos-family general display carries csc^4(x/p)
  where the definition gives sec^4(x/p); the table here is differentiated
  from the definition, and the tests check that display, read with sec^4,
  equal to it as exact trig polynomials.
* `d_sum` -- the sum form for integer 2 <= p <= MAX_SUM_P, one expression
  in m = 1..p-1 for both parities of p (`exact_sin_comb_form`); the cos
  families have it at odd p only.  `certify` proves the sin families' sign
  by it and the cos families' by the general form, at every p.

Each takes a float or an array-like for x and returns a float for a float.
Both check x by `families._checked_points` and run it in blocks by
`families._blocks`, as `eval_f_grid` does, values bitwise independent of the
blocking; `d_general`'s kernel is `_d_block`, its series split
`families._series_or` at `_d_reach`, and `_d_rise` proves a sign times its
float series rising, rounding included, for `certify`'s two-point GRID sign
claims.  The identity checks are exact: in trig polynomials
`general_vs_sum_check` (the sum table against the general one, D by
construction), `_dirichlet_check` and `_chebyshev_check`, and in series
`vanishing_limits_check` (D's, at every real p of the range).  The sum table
is D at every p by the Chebyshev corollary, sin(p t)/sin t = U_(p-1)(cos t),
whose recurrence `_sum_form_lemma` checks once per family, with p symbolic.

Importing this module loads no numpy: the evaluators load it on their first
call (`families.load_numpy`, read by `eval_sin_comb` and the point check),
and the exact routes `certify` reads (`termwise_sign`, `_falsifying_witness`,
`_d_rise`, the identity checks) need none.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .chebyshev import cheb_u
from .families import (
    FAMILY_FNS,
    DomainError,
    FamilyKind,
    ParameterError,
    _blocks,
    _checked_points,
    _even_series,
    _RADIUS,
    _as_point,
    _p_text,
    _ratio_ints,
    _series_or,
    _series_quotient,
    check_param_int,
    check_param_real,
    eval_f,
    f_series_coeffs,
    load_numpy,
    series_threshold,
)


class ParityError(ParameterError):
    """p does not have the parity the requested sum form needs."""


# The sum forms have p//2 terms, built in exact rationals (~260 bytes each)
# and summed one by one.  At p = 2^16 the table takes 0.13 s and the first
# d_sum on 2048 points 0.9 s (Xeon, CPython 3.11), linear in p: at p = 10^9
# the table alone would need ~130 GB.  No sign claim reads it past the
# lemma's base cases (p <= 5), nor identity claim past p = 20: this caps
# d_sum and general_vs_sum_check only.
MAX_SUM_P = 2**16


@functools.lru_cache(maxsize=256)
def exact_sin_comb_form(family: FamilyKind, p, general: bool) -> tuple[tuple, Fraction]:
    """D as a sin-combination in exact rationals: the (w, c) terms and the
    constant factor, all `Fraction`s exact in p, with

        D(x) = -x * factor * sum_i w_i sin(c_i x)                    (sum forms)
        D(x) = -x * factor * sum_i w_i sin(c_i x) / den(x/p)^4       (general form)

    where den is the family's own function g.  The hyperbolic families read the
    same table with sin -> sinh, cos -> cosh.  The general form takes any
    real p of the range 3/2 <= |p| <= 2^53 (every float is an exact binary
    rational), N_3's sin terms (`_third_derivative_numerator`, D from f's
    definition) by frequency, factor 1; the sum form an integer p >= 2, one
    table for both parities:
    terms (eps_m m^3, m/p) over 0 < m < p with m = p-1 (mod 2),
    eps_m = (-1)^((p-1-m)/2) for the cos families and 1 for the sin
    families, and factor 2/p^3; before any term is built, ParityError for
    the cos families' even p, which has none, and ParameterError past MAX_SUM_P.

    For the cos families at p >= 3 every general-form weight is > 0 and every
    frequency lies in (0, 2], so each term keeps one sign on (0, pi/2): the
    termwise lemma (`termwise_sign`) proves their RIGOROUS sign claims, and
    the sin families' by the sum form at every p (`_sum_form_lemma`), with
    no interval cell and no table."""
    if general:
        n3 = _third_derivative_numerator(family, p)
        return tuple((n3[key], key[1]) for key in sorted(n3)), Fraction(1)
    if family.is_cos and p % 2 == 0:
        raise ParityError("no sum form for the cos families with even p")
    if p > MAX_SUM_P:
        raise ParameterError(f"D's sum form has p//2 terms, too many at {_p_text(p)} > {MAX_SUM_P}")
    sgn = -1 if family.is_cos else 1
    # from integers: Fraction(m, p) takes half the time of m / Fraction(p)
    terms = tuple((Fraction(sgn ** ((p - 1 - m) // 2) * m**3), Fraction(m, p)) for m in range(1 + p % 2, p, 2))
    return terms, Fraction(2, p**3)


@functools.lru_cache(maxsize=256)
def sin_comb_form(family: FamilyKind, p, general: bool) -> tuple[tuple, float]:
    """`exact_sin_comb_form` in float64, each entry rounded once: the table
    both number backends read.  A sum form raises as `exact_sin_comb_form`'s."""
    terms, factor = exact_sin_comb_form(family, p, general)
    return tuple((float(w), float(c)) for w, c in terms), float(factor)


@functools.lru_cache(maxsize=256)
def termwise_sign(family: FamilyKind, p) -> int:
    """The sign D keeps on all of (0, pi/2) by the termwise lemma, for an
    integer 2 <= p <= 2^53: +1 or -1, or 0 where the lemma is silent, and
    for every p where the family's `_sum_form_lemma` fails, since its
    tables then disagree.

    The sin families read no table: their sum table is D at every p,
    D = -x (2/p^3) sum m^3 sin(m x/p) over 0 < m < p, and each term is > 0
    on (0, pi/2), where m x/p < pi/2, as is each sinh term: -1.  The cos
    families read their general table, at most 4 terms, as Fractions: one
    set of term signs and, for the trig ones, one |c| <= 2 test.  A term
    w sin(c x) keeps the sign of w*c on (0, pi/2) where |c| <= 2, since
    then |c x| < pi; w sinh(c x) keeps it for every c.  When every term
    with nonzero w and c has one such sign, so has the sum, and D,
    -x * factor * sum (over den(x/p)^4 > 0, no pole in p's range), has that
    sign times -sign(factor).  A comparison of rationals: no pi, no libm,
    no rounding.
    The cos families' p = 2 general form mixes signs (weights -11/16 at
    frequency 1/2 and 5/64 at 3/2), so 0 there, as for any table the lemma
    does not reach."""
    if not _sum_form_lemma(family):
        return 0
    if not family.is_cos:
        return -1
    terms, factor = exact_sin_comb_form(family, p, True)
    live = [(w, c) for w, c in terms if w and c]
    signs = {(w > 0) == (c > 0) for w, c in live}
    if len(signs) != 1 or family.is_trig and any(abs(c) > 2 for _, c in live):
        return 0
    sign = 1 if signs.pop() else -1
    return -sign if factor > 0 else sign


def _sin_sum_bounds(family: FamilyKind, terms, x: Fraction) -> tuple[Fraction, Fraction | float]:
    """(s, err) with |S - s| <= err for S = sum_i w_i sin(c_i x), sinh for
    the hyperbolic families, at a rational x, in exact rationals: no pi, no
    libm, no rounding.

    S is the sum over k of sgn^k w_i t_i^(2k+1) / (2k+1)!, t_i = c_i x,
    sgn = -1 for the trig families; s sums its first n = 16 terms in k,
    err < 1e-15 at every |c x| <= 15/4 of the p = 2 tables.  In each tail
    the terms shrink by a ratio of at most
    r = t^2 / ((2n+2)(2n+3)), t = max |t_i|, so err is
    sum_i |w_i| |t_i|^(2n+1) / (2n+1)! over 1 - r, and (0, inf) where
    r >= 1."""
    sgn, n = (-1 if family.is_trig else 1), 16
    ts = [(w, c * x) for w, c in terms]
    ratio = max(t * t for _, t in ts) / ((2 * n + 2) * (2 * n + 3))
    if ratio >= 1:
        return Fraction(0), math.inf
    s = tail = 0
    for w, t in ts:
        term, step = w * t, sgn * t * t
        for k in range(n):  # term = sgn^k w t^(2k+1) / (2k+1)!
            s += term
            term *= step / ((2 * k + 2) * (2 * k + 3))
        tail += abs(term)
    return s, tail / (1 - ratio)


@functools.lru_cache(maxsize=256)
def _falsifying_witness(family: FamilyKind, p, sign: int) -> Fraction | None:
    """The first x of 1/2, 3/2, both in (0, pi/2) as pi > 3, where D has the
    sign opposite to `sign` (+1 or -1), or None where neither is one or the
    enclosure does not decide.  D = -x * factor * S / den(x/p)^4 over the
    general table, with den^4 > 0 (no pole in p's range), so D's sign at x
    is -sign(factor * S), decided where `_sin_sum_bounds` puts S off 0."""
    terms, factor = exact_sin_comb_form(family, p, True)
    for x in (Fraction(1, 2), Fraction(3, 2)):
        s, err = _sin_sum_bounds(family, terms, x)
        if abs(s) > err and (s * factor > 0) == (sign > 0):
            return x
    return None


# An exact trig polynomial is a {(kind "sin" or "cos", freq >= 0): weight} dict of
# rationals for sum weight * kind(freq x), negative frequencies folded by parity,
# sin(0 x) and zero weights dropped: so two are one function iff their dicts are
# equal.  Their identities hold for complex x, so at x -> ix (sinh, cosh) too.
# At an integer p every frequency here is k/p for an integer k, and a dict may
# key it by k alone, in units of 1/p: integers hash and add far faster than
# Fractions.


def _trig(terms) -> dict:
    """The trig polynomial of (kind, freq, weight) triples, merged."""
    out = {}
    for kind, freq, weight in terms:
        if freq < 0:
            freq, weight = -freq, (-weight if kind == "sin" else weight)
        if kind == "cos" or freq:
            out[kind, freq] = out.get((kind, freq), 0) + weight
    return {key: w for key, w in out.items() if w}


def _trig_diff(a: dict) -> dict:
    """d/dx: sin(f x)' = f cos(f x), cos(f x)' = -f sin(f x)."""
    return _trig(("cos", f, w * f) if kind == "sin" else ("sin", f, -w * f) for (kind, f), w in a.items())


def _trig_product(a: dict, b: dict, scale=1):
    """The triples of 2 * scale * a * b, by product-to-sum without its halves,
    so that integer weights stay integers."""
    for (ka, fa), wa in a.items():
        for (kb, fb), wb in b.items():
            h = scale * wa * wb
            if ka == kb:  # 2 sin sin = cos(a-b) - cos(a+b), 2 cos cos = cos(a-b) + cos(a+b)
                yield from (("cos", fa - fb, h), ("cos", fa + fb, h if ka == "cos" else -h))
            else:  # 2 sin a cos b = sin(a+b) + sin(a-b)
                s, c = (fa, fb) if ka == "sin" else (fb, fa)
                yield from (("sin", s + c, h), ("sin", s - c, h))


_HALF = Fraction(1, 2)


def _trig_square(a: dict) -> dict:
    return _trig(_trig_product(a, a, _HALF))


# den(y)^4 = (den^2)^2, den = sin first, then cos: (3 -+ 4 cos 2y + cos 4y)/8
_DEN4 = tuple(_trig_square(_trig_square({(kind, Fraction(1)): Fraction(1)})) for kind in ("sin", "cos"))


def _third_derivative_numerator(family: FamilyKind, p) -> dict:
    """N_3 = R''' den^4 for f's ratio R = g(x)/den, den = g(x/p), g = cos or
    sin, from the definition: R^(k) = N_k / den^(k+1) with N_0 = g(x) and
    N_(k+1) = N_k' den - (k+1) N_k den'.  f = (A - R)/x^2 gives
    x^3 f' = 2R - 2A - x R', so D = (x^3 f')'' = -x R''' = -x N_3 / den^4.
    N_3 is odd in x, so it has sin terms only."""
    kind = "cos" if family.is_cos else "sin"
    n, den = {(kind, Fraction(1)): Fraction(1)}, {(kind, 1 / Fraction(p)): Fraction(1)}
    dden = _trig_diff(den)
    for k in range(3):
        n = _trig([*_trig_product(_trig_diff(n), den, _HALF), *_trig_product(n, dden, -(k + 1) * _HALF)])
    return n


def general_vs_sum_check(family: FamilyKind, p) -> bool:
    """Whether D's sum table (G, terms (v, e)) equals its general table
    (F, (w, c)), N_3 = R''' den^4 by construction, for an integer p with a
    sum form, in exact trig polynomials: G sum v sin(e x) den(x/p)^4
    (`_DEN4`) = F sum w sin(c x).  p is checked before the cache,
    which keys 3 and 3.0 alike; ParameterError past MAX_SUM_P and
    ParityError at the cos families' even p, from `exact_sin_comb_form`."""
    return _general_vs_sum(family, check_param_int(p))


def _per_p(freq: Fraction, p: int) -> int:
    """The integer k of a frequency k/p; else the Fraction freq * p, equal to no integer."""
    q, r = divmod(p, freq.denominator)
    return freq * p if r else freq.numerator * q


@functools.lru_cache(maxsize=256)
def _general_vs_sum(family: FamilyKind, p: int) -> bool:
    # In units of 1/p, the sum side (~p/2 terms times den^4's three) runs in
    # integers: its weights times their common denominator d, and den^4's times
    # 8, give 16 d/G times the left side, so F w times 16 d/G on the right.  The
    # sum form first: where it has none it raises before either table is cached.
    (sums, g), (gen, f) = exact_sin_comb_form(family, p, False), exact_sin_comb_form(family, p, True)
    d = math.lcm(*(v.denominator for v, _ in sums))
    sums = _trig(("sin", _per_p(e, p), v.numerator * (d // v.denominator)) for v, e in sums)
    den4 = {("cos", int(k)): int(8 * a) for (_, k), a in _DEN4[family.is_cos].items()}
    return _trig(_trig_product(sums, den4)) == _trig(("sin", _per_p(c, p), f * w * 16 * d / g) for w, c in gen)


# p kept symbolic by `_sum_form_lemma`: a frequency a p + b, in units of 1/p, is keyed a * _P + b
_P = 2**64


@functools.lru_cache(maxsize=None)
def _sum_form_lemma(family: FamilyKind) -> bool:
    """Whether the family's sum table is D at every p it has, by the
    Chebyshev corollary sin(p t)/sin t = U_(p-1)(cos t), t = x/p.

    The table is one rule in p: terms (eps_m m^3, m/p) over 0 < m < p with
    m = p-1 (mod 2), factor 2/p^3, which is D = -x R''' read termwise off
    R = sum eps_m cos(m t) over |m| < p.  From p to p+2 the rule adds the
    top term m = p+1 and, for the cos families, flips the others' signs
    (read off the rule; the sin tables at p = 4, 5 and the cos one at 5 hold
    two terms each, so a wrong kind of eps_m fails a base case).  So,
    by induction on p in steps of 2, R is the family's ratio, and the table
    D, at every p of the table if they are at the base cases and the step
    holds with p symbolic: for the sin families 2 cos((p+1) t) sin t =
    sin((p+2) t) - sin(p t), for the cos families 2 cos((p+1) t) cos t =
    cos((p+2) t) + cos(p t).  The base cases are `_general_vs_sum`, the
    general table being D from f's definition, at the table's first p:
    2, 3, 4 and 5 for the sin families, two of each parity, and 3 and 5 for
    the cos families, the first flip.  They check the general table, which
    the cos families' proofs read, against the sum rule too.

    The step is checked in the trig-polynomial algebra with the frequency
    a p + b keyed as the integer a * 2^64 + b.  That keying is injective and
    additive for the small a, b here, and every rewrite of `_trig` and
    `_trig_product` holds at every p: product-to-sum, sign folding
    (sin(-u) = -sin u, cos(-u) = cos u, on a whole key) and the merging of
    equal keys.  So equal dicts mean the two sides are equal at every p."""
    kind, sgn = ("cos", 1) if family.is_cos else ("sin", -1)
    step = _trig(_trig_product({("cos", _P + 1): 1}, {(kind, 1): 1})) == _trig([(kind, _P + 2, 1), (kind, _P, sgn)])
    return step and all(_general_vs_sum(family, p) for p in ((3, 5) if family.is_cos else (2, 3, 4, 5)))


@functools.lru_cache(maxsize=256)
def _dirichlet_check(k: int) -> bool:
    """Whether the frequencies m/p of the sin families' sum table at p = 2k
    give 2 sin t sum cos(m t) = sin(p t) in units t = x/p, which is
    sum_{j<k} cos((2j+1)x/(2k)) = sin x / (2 sin(x/(2k)))."""
    p = 2 * k
    cosines = _trig(("cos", _per_p(c, p), 1) for _, c in exact_sin_comb_form(FamilyKind.TRIG_SIN, p, False)[0])
    return _trig(_trig_product(cosines, {("sin", 1): 1})) == {("sin", p): 1}


@functools.lru_cache(maxsize=256)
def _chebyshev_check(n: int) -> bool:
    """Whether `cheb_u(n)`'s coefficients a_j give U_n(cos t) sin t = sin((n+1) t),
    in integers: 2^n cos^j t = 2^(n-j) sum_i C(j, i) cos((j-2i) t)."""
    coeffs = cheb_u(n).coeffs
    u = _trig(("cos", j - 2 * i, a * math.comb(j, i) << n - j) for j, a in enumerate(coeffs) for i in range(j + 1))
    return _trig(_trig_product(u, {("sin", 1): 1})) == {("sin", n + 1): 2 ** (n + 1)}


def _unwrap(out):
    return out if out.ndim else float(out)


def eval_sin_comb(family: FamilyKind, p, x, general: bool):
    """D at x from `sin_comb_form`, in float64, with no checks on x.

    The sines and the general form's den = g((1/p) * x) come from
    `families.FAMILY_FNS`, numpy's backend, loaded by its first call."""
    g, sin = FAMILY_FNS[family][load_numpy()]
    terms, factor = sin_comb_form(family, p, general)
    acc = 0.0
    for w, c in terms:
        acc += w * sin(c * x)
    out = x * -factor
    out *= acc
    if not general:
        return out
    out /= g((1.0 / p) * x) ** 4
    return out


# D's even series, D(x) = sum_{i=1..16} d_i x^(2i): below a quarter of its
# radius (`families._RADIUS`) the terms shrink >= 16x each and 16 reach eps,
# which covers all of (0, pi/2) for |p| >= 2 (sin) and |p| >= 4 (cos families).
_D_TERMS = 16


@functools.lru_cache(maxsize=256)
def _d_series_coeffs(family: FamilyKind, p: float) -> tuple[float, ...]:
    """d_0..d_16 for `_even_series`: d_0 = 0 and d_i = 2i(2i+1)(2i+2) a_i from
    f's exact series f = sum a_i x^(2i) (a_i = -r_(i+1) of the ratio), each
    the integer quotient of `families._ratio_ints`, rounded once as
    `f_series_coeffs`' are."""
    r = _ratio_ints(family, p, _D_TERMS + 2)
    return (0.0, *(-(2 * i * (2 * i + 1) * (2 * i + 2) * r[i + 1][0]) / r[i + 1][1] for i in range(1, _D_TERMS + 1)))


# Horner's forward error bound on D's series, 16 steps of a rounded multiply
# and add (Higham, eq. 5.3): gamma_32 = 32 eps/(1 - 32 eps), eps = 2^-53
_GAMMA_32 = Fraction(32, 2**53 - 32)
# every computed u = x*x of an x in (0, pi/2) lies in [0, 5/2], as pi^2 < 10
_U_TOP = Fraction(5, 2)


@functools.lru_cache(maxsize=256)
def _d_rise(family: FamilyKind, p: float, sign: int) -> tuple[tuple[float, ...], float] | None:
    """(coeffs, gap) where P(u) = sum_k s d_k u^k, s = sign (+1 or -1) and
    d_k = coeffs[k] = `_d_series_coeffs`, is proved to rise on [0, 5/2],
    else None.  gap is a float such that for any two computed margins
    m_a, m_b, s times `_even_series` on coeffs at x_a < x_b in (0, pi/2),
    m_b - m_a >= gap in float64 makes every such margin at an x >= x_b at
    least m_a.

    The proof, in exact rationals over the float coefficients: on [0, 5/2],
    P' >= s d_1 - sum k |d_k| (5/2)^(k-1) over the k with s d_k < 0, which
    must be > 0.  A computed margin is within E of P at its computed
    u = x*x <= 5/2, with E = gamma_32 sum |d_k| (5/2)^k, plus, for
    underflow, 2^-1075 per rounded operation, 32 of them, carried by up to
    (5/2)^16 (1 + gamma_32); no step overflows, as sum |d_k| (5/2)^k <
    2^1000.  gap is 4E rounded up, so a float difference >= gap is >= 2E
    exactly, and x >= x_b has P(u) >= P(u_b): its margin is at least
    m_b - 2E >= m_a."""
    coeffs = _d_series_coeffs(family, p)
    if not all(map(math.isfinite, coeffs)):
        return None
    d = [sign * Fraction(c) for c in coeffs]
    falls = sum(k * -c * _U_TOP ** (k - 1) for k, c in enumerate(d) if c < 0)
    size = sum(abs(c) * _U_TOP**k for k, c in enumerate(d))
    if not d[1] > falls or size >= 2**1000:
        return None
    bound = 4 * (_GAMMA_32 * size + 32 * _U_TOP**_D_TERMS * (1 + _GAMMA_32) / 2**1075)
    gap = float(bound)
    return coeffs, (gap if gap >= bound else math.nextafter(gap, math.inf))


def _d_reach(family: FamilyKind, p: float) -> float:
    """Where `d_general` leaves D's series for its general form: x < reach
    sums the series."""
    return _RADIUS[not family.is_cos] * abs(p) * math.pi / 4.0


def _d_block(family: FamilyKind, p: float):
    """d_general's kernel at a checked float p, for `families._blocks`: a
    block's D series below the reach and general form above (`_series_or`)."""
    reach = _d_reach(family, p)
    return lambda x: _series_or(x, reach, lambda: _d_series_coeffs(family, p), lambda v: eval_sin_comb(family, p, v, True))


def d_general(family: FamilyKind, p, x):
    """Closed-form D(x) for any family and real 3/2 <= |p| <= 2^53, in float64.

    Below a quarter of the first zero of g(x/p), x < |p|*pi/4 (sin families)
    or |p|*pi/8 (cos families), every family sums D's even series
    (`_d_series_coeffs`, built on the first call per p); above, the general
    form, with sinh, cosh for sin, cos in the hyperbolic families, whose den
    has no zero on (0, pi/2) in p's range.  The sin families' general form
    cancels towards 0 (a bracket ~ x^5 against csc^4(x/p), an error of
    ~eps*(p/x)^4), which the series avoids.

    An array runs in blocks of 2^14 points (`families._blocks` over
    `_d_block`), each split by `families._series_or`: values bitwise
    independent of the blocking."""
    kernel = _d_block(family, check_param_real(p))
    return _unwrap(_blocks(_checked_points(x, False), kernel))


def d_sum(family: FamilyKind, p: int, x):
    """The sum form of D (`exact_sin_comb_form`) for any family and an integer
    p with 2 <= p <= MAX_SUM_P = 2^16: every term is <= 0 for the sin
    families, and the cos families' terms alternate, at odd p only.  No
    termwise proof reads it (`_sum_form_lemma`): MAX_SUM_P bounds its
    evaluation alone.

    The table is read before x: ParityError for the cos families with even
    p, which have none, and ParameterError past MAX_SUM_P, from its builder.
    Then an array runs in blocks of 2^14 points (`families._blocks`):
    values bitwise independent of the blocking."""
    p = check_param_int(p)
    sin_comb_form(family, p, False)  # the table's own checks, before x is read
    return _unwrap(_blocks(_checked_points(x, False), lambda b: eval_sin_comb(family, p, b, False)))


_DIRICHLET_K_CAP = 2**20  # dirichlet_sum's cap: one point's k cosines and their list peak at 48 MiB


def dirichlet_sum(k: int, x: float) -> tuple[float, float]:
    """Sum of cos((2j+1)x/(2k)) for j < k, term by term (`math.fsum`, exactly
    rounded) and via sin x / (2 sin(x/(2k))), for a real x in (0, pi), not
    an array, and k <= 2^20, the cap checked before any cosine."""
    if type(k) is not int or not 1 <= k <= _DIRICHLET_K_CAP:
        k = check_param_int(k, "k", 1, _DIRICHLET_K_CAP)
    x = _as_point(x, math.pi, where="(0, pi)")
    if x / (2.0 * k) < 1e-300:  # sin(y) = y there
        raise DomainError(f"sin(x/(2k)) vanishes for k={k}")
    term_sum = math.fsum(math.cos((2 * j + 1) * x / (2.0 * k)) for j in range(k))
    return term_sum, math.sin(x) / (2.0 * math.sin(x / (2.0 * k)))


@functools.lru_cache(maxsize=256)
def _table_d_series(family: FamilyKind, p) -> tuple[float, ...]:
    """D's series d_-2, d_-1 (sin families only), d_0, ..., d_16 from the
    general form's exact table, each coefficient rounded once.  By sin's
    series, D den(x/p)^4 = -x * factor * sum w sin(c x) has -factor (-1)^k
    M_k/(2k+1)! at x^(2k+2), M_k = sum w c^(2k+1), and `_DEN4`'s cosines give
    den(x/p)^4's; D's series is their exact quotient, past den^4's leading
    x^4 in the sin families.  The hyperbolic families drop the signs."""
    terms, factor = exact_sin_comb_form(family, p, True)
    sgn, lead, s2 = (-1 if family.is_trig else 1), (0 if family.is_cos else 2), 1 / Fraction(p) ** 2
    n = lead + _D_TERMS + 1
    num = [0] + [sgn**k * sum(w * c ** (2 * k + 1) for w, c in terms) / math.factorial(2 * k + 1) for k in range(n - 1)]
    den4 = _DEN4[family.is_cos].items()
    den = [sgn**j * sum(a * k ** (2 * j) for (_, k), a in den4) * s2**j / math.factorial(2 * j) for j in range(lead, n + lead)]
    return tuple(float(-factor * d) for d in _series_quotient(num, den))


def vanishing_limits_check(family: FamilyKind, p) -> tuple[float, float]:
    """How far f's exact series is from f and D, for real 3/2 <= |p| <= 2^53.

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
    th = series_threshold(family)
    f_gap = abs(_even_series(th, f_series_coeffs(family, p)) / eval_f(family, p, th) - 1.0)
    return d_gap, f_gap
