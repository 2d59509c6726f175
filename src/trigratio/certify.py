"""Numerical certification campaigns for the envelope and sign claims.

GRID mode samples the interior of (0, pi/2) and reports the worst margin:
FALSIFIED if the least non-NaN one is negative, else INCONCLUSIVE at a 0.0
tie or a NaN, else CERTIFIED.  Every sampled check reads one shared grid
(`_grid`), checked once when it is built, and runs an array evaluator's
kernel over it by `families._blocks`, with no per-claim point check: a sign
claim `derivatives._d_block`, the kernel of `d_general`, the library's one
float D, at every p, bitwise its values.  RIGOROUS mode (sign-of-D claims
only, all four families) decides in exact rationals first.  Where every
term of the family's own exact table of D keeps one sign on (0, pi/2)
(`derivatives.termwise_sign`), D keeps it on all of (0, pi/2), by a
comparison of rationals with no libm, no rounded constant and no cell: a
claim of that sign is proved, one of the other sign falsified.  That decides
500 of the 504 claims of either sign at p = 2..64, all but the cos families'
at p = 2, and every sin-family claim up to p = 2^53.  Where the lemma is
silent, an exact enclosure of D at x = 1/2 and 3/2
(`derivatives._falsifying_witness`) falsifies a claim D breaks there, on
the whole domain whatever the margin: three of those four.  Only trig-cos
p = 2 POS is left, and it bisects [margin, pi/2 - margin] adaptively,
enclosing D in outward-rounded interval arithmetic, so a CERTIFIED verdict
is a machine-checked sign proof up to the soundness of the interval
primitives; any other claim no exact route decides is INCONCLUSIVE.
Monotonicity takes the termwise lemma in either mode:
D = (x^3 f')'' and x^3 f' vanishes with its derivative at 0, so D's sign is
f''s, a proof that says Mode.RIGOROUS; only where the lemma does not reach
(the cos families at p = 2) does it sample f on a grid.  The envelope checks
say Mode.GRID in either mode, as do the identity checks, all exact: where
the lemma proves f monotone they read f at the grid's two ends, where the
least margin of a monotone f lies, and elsewhere every grid point.

The proofs read D from one table, `derivatives.exact_sin_comb_form`: the
(w, c) terms and the factor of D(x) = -x * factor * sum_i w_i sin(c_i x),
over den(x/p)^4 for the general form (sinh and cosh for the x -> ix
hyperbolic images).  The exact routes read its rationals; the bisection runs
on endpoint floats, and `_interval_D` encloses trig-cos D over a (lo, hi)
cell by one `interval.sin_comb` over its float view `sin_comb_form` and the
float-pair functions of `interval`, cos(x/p) by `_cos_bounds`, each step
bitwise that of an `Interval` expression of D, building no Interval.  The
general table is D at every p, the numerator of D differentiated from f's
definition.  A sin family's sum table is D at every p by the Chebyshev
corollary, whose recurrence `derivatives._sum_form_lemma` checks once per
family in exact algebra with p symbolic, also against the general table at
its base cases; where it fails, the family's sign claims are INCONCLUSIVE.
So no claim builds or refuses a sum table at its own p: `MAX_SUM_P` bounds
only `d_sum` and `general_vs_sum_check`.  Every grid verdict is built by one
`_grid_report`, from `_grid_verdict`'s pick over an array of margins or
from the envelope's two grid ends read as floats, and every exact identity
verdict by `_exact_report`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .derivatives import (
    _chebyshev_check,
    _d_block,
    _dirichlet_check,
    _falsifying_witness,
    _sum_form_lemma,
    general_vs_sum_check,
    sin_comb_form,
    termwise_sign,
    vanishing_limits_check,
)
from .envelopes import Direction, EnvelopeConstants, envelope_constants
from .families import (
    FamilyKind,
    HALF_PI,
    ParameterError,
    _as_real,
    _blocks,
    _checked_points,
    _f_at,
    _f_block,
    check_param_int,
)
from .interval import _cos_bounds, _mul_bounds, _pow_bounds, _reciprocal_bounds, sin_comb


class Mode(enum.Enum):
    GRID = "grid"
    RIGOROUS = "rigorous"


class Sign(enum.Enum):
    POS = 1
    NEG = -1


class Status(enum.Enum):
    CERTIFIED = "certified"
    FALSIFIED = "falsified"
    INCONCLUSIVE = "inconclusive"


# grid_points' cap: a GRID campaign at 2^20 points peaks at ~70 MiB RSS and
# takes ~0.4 s; 10^12 points would ask numpy for 8 TB per array
_GRID_POINTS_CAP = 2**20


@dataclass(frozen=True)
class VerificationConfig:
    grid_points: int = 2048
    interior_margin: float = 1e-3
    mode: Mode = Mode.GRID
    max_subdivisions: int = 20

    def __post_init__(self):
        object.__setattr__(self, "grid_points", check_param_int(self.grid_points, "grid_points", 16, _GRID_POINTS_CAP))
        object.__setattr__(self, "max_subdivisions", check_param_int(self.max_subdivisions, "max_subdivisions", 0))
        margin = _as_real(self.interior_margin, ParameterError, "interior_margin")
        if not 0.0 < margin < math.pi / 8.0:
            raise ParameterError("interior_margin must lie in (0, pi/8)")
        if HALF_PI - margin == HALF_PI:
            # below ~1.1e-16 the grid's top end would round onto pi/2, off f's domain
            raise ParameterError(f"interior_margin must leave pi/2 - margin below pi/2 in float64, got {margin!r}")
        object.__setattr__(self, "interior_margin", margin)
        if not isinstance(self.mode, Mode):
            raise ParameterError(f"mode must be a Mode, got {self.mode!r}")


@dataclass(frozen=True)
class VerificationReport:
    """One verdict.  min_margin is the least margin found (the expected sign
    times D, or the claim's own slack) and worst_x the point or cell
    midpoint where it was found; cells_checked counts the grid points,
    differences or leaf cells it looked at: for an envelope claim, 2 (the
    grid's ends) where f is proved monotone, else every grid point.  A
    termwise sign decision looks at none: cells_checked 0, worst_x nan, and
    min_margin inf for a proof, -inf for a disproof.  A disproof at an
    exact witness looks at that one point: cells_checked 1, worst_x the
    witness, min_margin -inf."""

    claim_id: str
    status: Status
    min_margin: float
    worst_x: float
    cells_checked: int
    mode: Mode


@functools.lru_cache(maxsize=8)
def _grid(margin: float, points: int) -> np.ndarray:
    """The GRID checks' sample points, built once per (margin, points) and
    read-only, since every caller shares the one array.  They are checked
    here, once, by the array evaluators' own point check
    (`families._checked_points`), so each sampler runs its kernel on them by
    `families._blocks` with no check of its own, in blocks of 2^14 points
    past that size."""
    xs = _checked_points(np.linspace(margin, HALF_PI - margin, points), False)
    xs.flags.writeable = False
    return xs


def _grid_report(claim, margin: float, x: float, cells) -> VerificationReport:
    """The GRID verdict on a worst margin: FALSIFIED if negative, else
    INCONCLUSIVE at a 0.0 tie or a NaN, else CERTIFIED."""
    status = Status.CERTIFIED if margin > 0.0 else Status.FALSIFIED if margin < 0.0 else Status.INCONCLUSIVE
    return VerificationReport(claim, status, margin, x, cells, Mode.GRID)


def _grid_verdict(claim, margins, xs, cells) -> VerificationReport:
    """`_grid_report` on the worst of the margins: the least that is not NaN
    if it is negative, else the first NaN, else the least, the first of ties."""
    worst = int(np.argmin(margins))
    if math.isnan(margins[worst]):  # argmin stops at the first NaN, which must not hide a negative margin
        least = int(np.argmin(np.where(np.isnan(margins), np.inf, margins)))
        worst = least if margins[least] < 0.0 else worst
    return _grid_report(claim, float(margins[worst]), float(xs[worst]), cells)


def _second_is_worse(m0: float, m1: float) -> bool:
    """Whether `_grid_verdict` picks the second of two margins: a negative one
    beside a NaN, the first NaN, else the least, the first on a tie."""
    if math.isnan(m0):
        return m1 < 0.0
    if math.isnan(m1):
        return not m0 < 0.0
    return m1 < m0


def _termwise_report(claim, sign: int = 1) -> VerificationReport:
    """The report of a termwise decision, which looks at no cell: sign +1 (D
    has the claim's sign) a proof at min_margin inf, -1 a disproof at -inf."""
    status = Status.CERTIFIED if sign > 0 else Status.FALSIFIED
    return VerificationReport(claim, status, sign * math.inf, math.nan, 0, Mode.RIGOROUS)


def expected_sign_D(family: FamilyKind, p: int) -> Sign:
    """Sign D(x) would need on (0, pi/2) for the single-sign monotonicity route.

    Positive where f increases (`envelope_constants`' direction), which is
    only for the cos families at p = 2.  Caveat: for HYP_COS with p = 2 the
    positive sign holds only on (0, 2 acosh(sqrt(3/2))) = (0, 1.3169578969...);
    D turns negative beyond it, so verify_sign_D correctly falsifies that
    claim in both modes (RIGOROUS at the exact witness x = 3/2, at every
    margin) even though f itself is increasing there, which
    verify_monotonicity still certifies by sampling f on its grid.  Both
    modes evaluate the hyperbolic D by its x -> ix closed forms."""
    increasing = envelope_constants(family, p).direction is Direction.INCREASING
    return Sign.POS if increasing else Sign.NEG


# --- rigorous interval evaluation of D --------------------------------------


def _interval_D(p: int, lo: float, hi: float) -> tuple[float, float]:
    """Trig-cos D's bounds over the cell [lo, hi] from its general table's
    `sin_comb_form`: -x / cos(x/p)^4 * factor * sum, on endpoint floats,
    each step bitwise that of the Interval expression.  Only trig-cos at
    p = 2, where neither exact route decides, reaches it from `verify_sign_D`."""
    terms, factor = sin_comb_form(FamilyKind.TRIG_COS, p, True)
    s = 1.0 / p
    inv_g = _reciprocal_bounds(*_cos_bounds(*_mul_bounds(lo, hi, s, s)))
    s_lo, s_hi = _mul_bounds(-hi, -lo, *_pow_bounds(*inv_g, 4))
    s_lo, s_hi = _mul_bounds(s_lo, s_hi, factor, factor)
    return _mul_bounds(s_lo, s_hi, *sin_comb(lo, hi, terms))


def _verify_sign_rigorous(claim, p, expected_sign, cfg) -> VerificationReport:
    """Bisect trig-cos D over [margin, pi/2 - margin] on (lo, hi, depth)
    floats until every leaf's enclosure of D has the expected sign, or the
    depth cap is hit, or the cell has no float strictly inside it to split at
    (near depth 53), where two halves would copy the cell and double the work
    at each level.  CERTIFIED or INCONCLUSIVE, never FALSIFIED: falsifying
    is the exact witness route's (`verify_sign_D`)."""
    stack = [(cfg.interior_margin, HALF_PI - cfg.interior_margin, 0)]
    flip = expected_sign is Sign.NEG
    cells = 0
    min_margin = math.inf
    status = Status.CERTIFIED
    worst_x = math.nan
    while stack:
        lo, hi, depth = stack.pop()
        e_lo, e_hi = _interval_D(p, lo, hi)
        if flip:
            e_lo = -e_hi
        mid = 0.5 * (lo + hi)
        if not e_lo > 0.0:
            if depth < cfg.max_subdivisions and lo < mid < hi:
                stack.append((mid, hi, depth + 1))
                stack.append((lo, mid, depth + 1))
                continue
            status = Status.INCONCLUSIVE
        # a certified or a given-up leaf; worst_x names the cell of min_margin
        cells += 1
        if e_lo < min_margin:
            min_margin, worst_x = e_lo, mid
    return VerificationReport(claim, status, min_margin, worst_x, cells, Mode.RIGOROUS)


def verify_sign_D(
    family: FamilyKind, p, expected_sign: Sign, cfg: VerificationConfig
) -> VerificationReport:
    """Certify that D(x) keeps `expected_sign` on the interior of (0, pi/2).

    A family's tables prove nothing where its `derivatives._sum_form_lemma`
    fails: INCONCLUSIVE in either mode, min_margin and worst_x nan, no cell.
    RIGOROUS takes the termwise lemma first (`derivatives.termwise_sign`):
    where every term of D's exact table keeps one sign, so does D on all of
    (0, pi/2), and the report is that of a bisection that visited no cell:
    CERTIFIED at min_margin inf for a claim of that sign, FALSIFIED at -inf
    for the other, worst_x nan and cells_checked 0, at every p.  Where the
    lemma is silent (the cos families at p = 2) an exact enclosure of D at
    x = 1/2 and 3/2 (`derivatives._falsifying_witness`) falsifies a claim
    D breaks there, at min_margin -inf and worst_x that x, with
    cells_checked 1, whatever the margin.  Of the rest only trig-cos claims
    bisect the interior in interval arithmetic, today p = 2 POS; any other
    is INCONCLUSIVE with no cell.  GRID samples D on the shared grid by
    `derivatives._d_block`, `d_general`'s kernel, bitwise its values, with
    no point check past `_grid`'s own."""
    p = check_param_int(p)
    claim = f"sign-D:{family.value}:p={p}:{expected_sign.name}"
    if _sum_form_lemma(family):
        if cfg.mode is Mode.GRID:
            xs = _grid(cfg.interior_margin, cfg.grid_points)
            margins = _blocks(xs, _d_block(family, float(p)))
            margins *= float(expected_sign.value)  # the kernel's output is new: flipped in place
            return _grid_verdict(claim, margins, xs, len(xs))
        sign = termwise_sign(family, p) * expected_sign.value
        if sign:
            return _termwise_report(claim, sign)
        witness = _falsifying_witness(family, p, expected_sign.value)
        if witness is not None:
            return VerificationReport(claim, Status.FALSIFIED, -math.inf, float(witness), 1, Mode.RIGOROUS)
        if family is FamilyKind.TRIG_COS:
            return _verify_sign_rigorous(claim, p, expected_sign, cfg)
    return VerificationReport(claim, Status.INCONCLUSIVE, math.nan, math.nan, 0, cfg.mode)


def _proved_monotone(family: FamilyKind, p: int) -> bool:
    """Whether the termwise lemma gives D the sign `expected_sign_D` names,
    which makes f strictly monotone on (0, pi/2) in the envelope direction:
    every pair but the cos families' p = 2, where the lemma is silent, and
    every pair of a family whose `derivatives._sum_form_lemma` fails."""
    return termwise_sign(family, p) == expected_sign_D(family, p).value


def verify_monotonicity(family: FamilyKind, p, cfg: VerificationConfig) -> VerificationReport:
    """f strictly monotone on (0, pi/2) in the envelope direction.

    Proved under any `cfg.mode` wherever the termwise lemma gives D the sign
    `expected_sign_D` names: h = x^3 f' has h(0) = h'(0) = 0 and h'' = D, so
    that sign passes to h', to h and to f' on all of (0, pi/2).  The report
    is the termwise sign proof's, Mode.RIGOROUS.  Elsewhere (the cos
    families at p = 2, and a family whose sum form's lemma fails) f is
    strictly ordered over consecutive grid points, a Mode.GRID report."""
    p = check_param_int(p)
    claim = f"monotone:{family.value}:p={p}"
    if _proved_monotone(family, p):
        return _termwise_report(claim)
    xs = _grid(cfg.interior_margin, cfg.grid_points)
    diffs = float(expected_sign_D(family, p).value) * np.diff(_blocks(xs, _f_block(family, float(p))))
    return _grid_verdict(claim, diffs, xs, len(xs) - 1)


def _end_margin(family: FamilyKind, p: float, ec: EnvelopeConstants, x: float) -> float:
    """min(f(x) - lower, upper - f(x)) at one float x by np.minimum's rule,
    a NaN if either is one and the second on a tie, with f from `_f_at` on
    numpy's g and sine: Python-float Horner on the series branch, bitwise
    eval_f_grid's value at x either way."""
    f = _f_at(family, p, x, np)
    lo, hi = f - ec.lower, ec.upper - f
    return float(lo if lo < hi or lo != lo else hi)


def verify_envelope(
    family: FamilyKind,
    p,
    cfg: VerificationConfig,
    constants: EnvelopeConstants | None = None,
) -> VerificationReport:
    """Strict containment lower < f(x) < upper on [margin, pi/2 - margin].

    Where verify_monotonicity proves f monotone (`_proved_monotone`), the
    least of f - lower and upper - f over any points of the interval is at
    its ends, so f is read at the grid's two ends alone, as floats
    (`_end_margin`), bitwise eval_f_grid's values there, and the worse end
    picked by `_grid_verdict`'s rule (`_second_is_worse`), with no array
    built: the whole grid's verdict, min_margin and worst_x, with
    cells_checked 2.  Elsewhere f is sampled at every grid point by
    `families._f_block`, eval_f_grid's kernel.  Float values of f either
    way, so the report says Mode.GRID under any `cfg.mode`.  `constants` overrides the
    computed envelope (test hook); ParameterError where they are another
    claim's, of another family or p."""
    p = check_param_int(p)
    claim = f"envelope:{family.value}:p={p}"
    ec = constants if constants is not None else envelope_constants(family, p)
    if (ec.family, ec.p) != (family, p):
        raise ParameterError(f"constants of {ec.family.value}:p={ec.p} given for {claim}")
    xs = _grid(cfg.interior_margin, cfg.grid_points)
    if _proved_monotone(family, p):
        x0, x1 = float(xs[0]), float(xs[-1])
        m0, m1 = (_end_margin(family, float(p), ec, x) for x in (x0, x1))
        if _second_is_worse(m0, m1):
            m0, x0 = m1, x1
        return _grid_report(claim, m0, x0, 2)
    fs = _blocks(xs, _f_block(family, float(p)))
    margins = np.minimum(fs - ec.lower, ec.upper - fs)
    return _grid_verdict(claim, margins, xs, len(xs))


# --- identity suite ---------------------------------------------------------


def _tolerance_report(claim, errors, xs, tol) -> VerificationReport:
    """The verdict on errors < tol, a tie INCONCLUSIVE: margins tol - errors."""
    return _grid_verdict(claim, tol - np.asarray(errors), xs, len(errors))


def _exact_report(claim, holds, tol) -> VerificationReport:
    """One cell per exact check, at x = 0.0: CERTIFIED at margin tol if every
    check holds, else FALSIFIED at -inf."""
    holds = list(holds)
    status, margin = (Status.CERTIFIED, tol) if all(holds) else (Status.FALSIFIED, -math.inf)
    return VerificationReport(claim, status, margin, 0.0, len(holds), Mode.GRID)


def verify_identities(cfg: VerificationConfig) -> list[VerificationReport]:
    """Cross-check every closed-form identity against its independent partner.

    Every check is exact, with no sample point, so no report reads `cfg`:
    each says Mode.GRID and worst_x 0.0 under any config.  By `derivatives`:
    the sum tables equal the general one, D by construction, for the trig
    families at p <= 13, and so for the hyperbolic ones, which share them
    (`general_vs_sum_check`); the Dirichlet sum on the frequencies of the sin
    families' sum table at p = 2k, k = 1..10 (`_dirichlet_check`);
    U_n(cos t) sin t = sin((n+1) t) on `cheb_u(n)`'s coefficients, n = 0..30
    (`_chebyshev_check`); and D's series, which `d_general` takes near 0,
    the general form's coefficient by coefficient, a gap of exactly 0.0, and
    f's series f at their crossover (`vanishing_limits_check`)."""
    even = [(FamilyKind.TRIG_SIN, 2 * k) for k in range(1, 7)]
    odd = [(family, 2 * k + 1) for k in range(1, 7) for family in (FamilyKind.TRIG_COS, FamilyKind.TRIG_SIN)]
    gaps = [gap for family in FamilyKind for p in range(2, 9) for gap in vanishing_limits_check(family, p)]
    return [
        _exact_report("identity:general-vs-even-sum", (general_vs_sum_check(f, p) for f, p in even), 1e-12),
        _exact_report("identity:general-vs-odd-sum", (general_vs_sum_check(f, p) for f, p in odd), 1e-12),
        _exact_report("identity:dirichlet-sum", map(_dirichlet_check, range(1, 11)), 1e-13),
        _tolerance_report("identity:vanishing-limits", gaps, [0.0] * len(gaps), 1e-12),
        _exact_report("identity:chebyshev-trig", map(_chebyshev_check, range(31)), 1e-11),
    ]
