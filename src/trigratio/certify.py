"""Numerical certification campaigns for the envelope and sign claims.

GRID mode samples the interior of (0, pi/2) and reports the worst margin;
RIGOROUS mode (trigonometric families only, sign-of-D claims only) evaluates
the closed forms of D(x) in outward-rounded interval arithmetic over
adaptively bisected subintervals, so a CERTIFIED verdict is a
machine-checked sign proof up to the soundness of the interval primitives.
The envelope, monotonicity and identity checks sample a grid in either mode
and say Mode.GRID.

Both modes read D from one table, `derivatives.sin_comb_form`: the (w, c)
terms and the factor of D(x) = -x * factor * sum_i w_i sin(c_i x), over
den(x/p)^4 for the general form.  A rigorous cell's D is one
`interval.sin_comb` over it; a GRID sign claim evaluates it in float64 with
`derivatives.eval_sin_comb`, for all four families (the hyperbolic ones
under x -> ix: sin -> sinh, cos -> cosh).  The form is chosen in one place,
`derivatives.has_sum_form`: the parity sum form wherever one exists, and
the sec^4 general form for the cos families at even p.  Near x -> 0 the
sin-family general form is numerically treacherous (csc^4(x/p) against a
bracket that vanishes like x^5), which is why the sin families always take
a sum form; the cos bracket does not cancel, so float64 suffices for it.
Of the closed forms only the public `derivatives.d_general` runs in 80
bits, and only the identity checks call it.  The finite-difference
`numeric_D` is an independent oracle for the tests, not a certification
route.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chebyshev import cheb_u_eval
from .derivatives import (
    d_general,
    d_sum_even_sin,
    d_sum_odd,
    dirichlet_sum,
    eval_sin_comb,
    has_sum_form,
    sin_comb_form,
    vanishing_limits_check,
)
from .envelopes import Direction, EnvelopeConstants, envelope_constants
from .families import FamilyKind, HALF_PI, ParameterError, check_param_int, eval_f_grid
from .interval import Interval, sin_comb


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


class ModeError(ValueError):
    """Requested mode is unavailable for the claim."""


@dataclass(frozen=True)
class VerificationConfig:
    grid_points: int = 2048
    interior_margin: float = 1e-3
    mode: Mode = Mode.GRID
    max_subdivisions: int = 20

    def __post_init__(self):
        if self.grid_points < 16:
            raise ParameterError("grid_points must be >= 16")
        if not 0.0 < self.interior_margin < math.pi / 8.0:
            raise ParameterError("interior_margin must lie in (0, pi/8)")
        depth = self.max_subdivisions
        if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth < 0:
            raise ParameterError(f"max_subdivisions must be an integer >= 0, got {depth!r}")


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    status: Status
    min_margin: float
    worst_x: float
    cells_checked: int
    mode: Mode


def _grid(cfg: VerificationConfig) -> np.ndarray:
    return np.linspace(cfg.interior_margin, HALF_PI - cfg.interior_margin, cfg.grid_points)


def _grid_verdict(claim, margins, xs, cells) -> VerificationReport:
    """CERTIFIED when every margin is positive; the worst names the smallest."""
    worst = int(np.argmin(margins))
    status = Status.CERTIFIED if margins[worst] > 0.0 else Status.FALSIFIED
    return VerificationReport(claim, status, float(margins[worst]), float(xs[worst]), cells, Mode.GRID)


def expected_sign_D(family: FamilyKind, p: int) -> Sign:
    """Sign D(x) would need on (0, pi/2) for the single-sign monotonicity route.

    Positive only for the cos families at p = 2.  Caveat: for HYP_COS with
    p = 2 the positive sign holds only on (0, 1.3170); D turns negative
    beyond it, so verify_sign_D correctly falsifies that claim even though
    f itself is increasing there (verify_monotonicity certifies it
    directly).  GRID mode evaluates the hyperbolic D by its x -> ix closed
    forms, the trigonometric ones by theirs."""
    return Sign.POS if family.is_cos and p == 2 else Sign.NEG


# --- rigorous interval evaluation of D --------------------------------------


def _interval_D(family: FamilyKind, p: int, x: Interval) -> Interval:
    """D over the cell x from `sin_comb_form`, trigonometric families only."""
    general = not has_sum_form(family, p)
    terms, factor = sin_comb_form(family, p, general)
    scale = -x
    if general:
        scale = scale * (x * (1.0 / p)).cos().reciprocal() ** 4
    return scale * factor * sin_comb(x, terms)


def _verify_sign_rigorous(family, p, expected_sign, cfg) -> VerificationReport:
    claim = f"sign-D:{family.value}:p={p}:{expected_sign.name}"
    root = Interval(cfg.interior_margin, HALF_PI - cfg.interior_margin)
    stack = [(root, 0)]
    cells = 0
    min_margin = math.inf
    status = Status.CERTIFIED
    worst_x = math.nan
    while stack:
        cell, depth = stack.pop()
        enc = _interval_D(family, p, cell)
        if expected_sign is Sign.NEG:
            enc = -enc
        if not enc.strictly_positive:
            if enc.strictly_negative:
                # the whole enclosure is on the wrong side: a real counterexample
                return VerificationReport(claim, Status.FALSIFIED, enc.hi, cell.mid, cells + 1, Mode.RIGOROUS)
            if depth < cfg.max_subdivisions:
                left, right = cell.split()
                stack.append((right, depth + 1))
                stack.append((left, depth + 1))
                continue
            status = Status.INCONCLUSIVE
        # a certified or a given-up leaf; worst_x names the cell of min_margin
        cells += 1
        if enc.lo < min_margin:
            min_margin, worst_x = enc.lo, cell.mid
    if not math.isfinite(min_margin):
        min_margin = math.nan
    return VerificationReport(claim, status, min_margin, worst_x, cells, Mode.RIGOROUS)


def verify_sign_D(
    family: FamilyKind, p, expected_sign: Sign, cfg: VerificationConfig
) -> VerificationReport:
    """Certify that D(x) keeps `expected_sign` on the interior of (0, pi/2)."""
    p = check_param_int(p)
    if cfg.mode is Mode.RIGOROUS:
        if not family.is_trig:
            raise ModeError("rigorous mode covers only the trigonometric families; use GRID mode")
        return _verify_sign_rigorous(family, p, expected_sign, cfg)

    claim = f"sign-D:{family.value}:p={p}:{expected_sign.name}"
    xs = _grid(cfg)
    margins = float(expected_sign.value) * eval_sin_comb(family, p, xs, not has_sum_form(family, p))
    return _grid_verdict(claim, margins, xs, len(xs))


def verify_monotonicity(family: FamilyKind, p, cfg: VerificationConfig) -> VerificationReport:
    """Strict ordering of f over consecutive grid points, per the envelope direction.

    A grid check under any `cfg.mode`, so the report says Mode.GRID."""
    p = check_param_int(p)
    claim = f"monotone:{family.value}:p={p}"
    ec = envelope_constants(family, p)
    xs = _grid(cfg)
    fs = eval_f_grid(family, p, xs)
    diffs = np.diff(fs)
    if ec.direction is Direction.DECREASING:
        diffs = -diffs
    return _grid_verdict(claim, diffs, xs, len(xs) - 1)


def verify_envelope(
    family: FamilyKind,
    p,
    cfg: VerificationConfig,
    constants: EnvelopeConstants | None = None,
) -> VerificationReport:
    """Strict containment lower < f(x) < upper at every interior grid point.

    A grid check under any `cfg.mode`, so the report says Mode.GRID.
    `constants` overrides the computed envelope (test hook)."""
    p = check_param_int(p)
    claim = f"envelope:{family.value}:p={p}"
    ec = constants if constants is not None else envelope_constants(family, p)
    xs = _grid(cfg)
    fs = eval_f_grid(family, p, xs)
    margins = np.minimum(fs - ec.lower, ec.upper - fs)
    return _grid_verdict(claim, margins, xs, len(xs))


# --- identity suite ---------------------------------------------------------


def _cheb_nodes(n: int, lo: float, hi: float) -> np.ndarray:
    k = np.arange(n)
    t = np.cos((2 * k + 1) * math.pi / (2 * n))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t


def _tolerance_report(claim, errors, xs, tol) -> VerificationReport:
    errors = np.asarray(errors)
    worst = int(np.argmax(errors))
    margin = tol - float(errors[worst])
    status = Status.CERTIFIED if margin > 0.0 else Status.FALSIFIED
    return VerificationReport(claim, status, margin, float(xs[worst]), errors.size, Mode.GRID)


def verify_identities(cfg: VerificationConfig, d_general_fn=d_general) -> list[VerificationReport]:
    """Cross-check every closed-form identity against its independent partner.

    Sampled checks under any `cfg.mode`, so every report says Mode.GRID.
    `d_general_fn` substitutes the general-form evaluator (mutation hook)."""
    reports = []
    xs = _cheb_nodes(40, 0.05, HALF_PI - 0.05)

    # general vs even-parity sum, sin family
    errs, pts = [], []
    for k in range(1, 7):
        a = d_general_fn(FamilyKind.TRIG_SIN, 2 * k, xs)
        b = d_sum_even_sin(k, xs)
        errs.append(np.abs(a - b) / np.maximum(1.0, np.abs(b)))
        pts.append(xs)
    reports.append(
        _tolerance_report("identity:general-vs-even-sum", np.concatenate(errs), np.concatenate(pts), 1e-12)
    )

    # general vs odd-parity sums, both trig families
    errs, pts = [], []
    for k in range(1, 7):
        for family in (FamilyKind.TRIG_COS, FamilyKind.TRIG_SIN):
            a = d_general_fn(family, 2 * k + 1, xs)
            b = d_sum_odd(family, k, xs)
            errs.append(np.abs(a - b) / np.maximum(1.0, np.abs(b)))
            pts.append(xs)
    reports.append(
        _tolerance_report("identity:general-vs-odd-sum", np.concatenate(errs), np.concatenate(pts), 1e-12)
    )

    # Dirichlet-style sum of cosines vs its closed form
    errs, pts = [], []
    grid = np.linspace(cfg.interior_margin, math.pi - cfg.interior_margin, 100)
    for k in range(1, 11):
        for x in grid:
            term_sum, closed = dirichlet_sum(k, float(x))
            errs.append(abs(term_sum - closed) / max(1.0, abs(closed)))
            pts.append(x)
    reports.append(_tolerance_report("identity:dirichlet-sum", errs, pts, 1e-13))

    # vanishing limits of x^3 f' and its derivative
    errs, pts = [], []
    for family in FamilyKind:
        for p in range(2, 9):
            l1, l2 = vanishing_limits_check(family, p)
            errs.extend([abs(l1), abs(l2)])
            pts.extend([0.0, 0.0])
    reports.append(_tolerance_report("identity:vanishing-limits", errs, pts, 1e-8))

    # U_n(cos t) * sin t = sin((n+1) t)
    errs, pts = [], []
    thetas = np.linspace(0.01, math.pi - 0.01, 100)
    for n in range(0, 31):
        for t in thetas:
            err = abs(cheb_u_eval(n, math.cos(t)) * math.sin(t) - math.sin((n + 1) * t))
            errs.append(err)
            pts.append(t)
    reports.append(_tolerance_report("identity:chebyshev-trig", errs, pts, 1e-11))

    return reports
