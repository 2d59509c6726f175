"""Tests for the verification engine: both modes, all claim kinds, mutations."""

import dataclasses
import hashlib
import math
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mp_oracle import mp_D, mp_df

from trigratio.certify import (
    Mode,
    Sign,
    Status,
    VerificationConfig,
    VerificationReport,
    expected_sign_D,
    verify_envelope,
    verify_identities,
    verify_monotonicity,
    verify_sign_D,
    _tolerance_report,
)
from trigratio.chebyshev import cheb_u, cheb_u_eval, corollary_bounds
from trigratio.derivatives import (
    d_general,
    d_sum,
    dirichlet_sum,
    eval_sin_comb,
    general_vs_sum_check,
    sin_comb_form,
    termwise_sign,
    vanishing_limits_check,
)
from trigratio.envelopes import envelope_constants, ratio_bounds
from trigratio.families import (
    FamilyKind,
    HALF_PI,
    ParameterError,
    eval_f_grid,
    limit_at_half_pi,
    limit_at_zero,
    load_numpy,
    series_threshold,
)
from trigratio.interval import Interval
import trigratio
from trigratio import certify, derivatives, interval

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)

CFG = VerificationConfig()
RIGOROUS = VerificationConfig(mode=Mode.RIGOROUS)


def test_config_validation():
    # grid_points: an integer >= 16, checked as max_subdivisions is
    for points in (8, 15, 100.5, 2048.0, True, None, "2048"):
        with pytest.raises(ParameterError):
            VerificationConfig(grid_points=points)
    with pytest.raises(ParameterError):
        VerificationConfig(interior_margin=0.0)
    with pytest.raises(ParameterError):
        VerificationConfig(interior_margin=1.0)


@pytest.mark.parametrize("margin", [1e-300, 5e-324, 1e-16, 2.0**-53])
def test_config_refuses_margin_that_puts_the_grid_end_on_half_pi(margin):
    """Below ~1.1e-16, pi/2 - margin rounds to pi/2, off f's domain: the
    envelope and the monotone fallback raised DomainError on their grid,
    and the grid sign claim said FALSIFIED at x = margin."""
    assert HALF_PI - margin == HALF_PI
    message = f"^interior_margin must leave pi/2 - margin below pi/2 in float64, got {margin!r}$"
    with pytest.raises(ParameterError, match=message):
        VerificationConfig(interior_margin=margin)
    least = math.nextafter(2.0**-53, 1.0)
    assert HALF_PI - VerificationConfig(interior_margin=least).interior_margin < HALF_PI


@pytest.mark.parametrize("margin", ["0.001", True, None, 1e-3j])
def test_config_margin_that_is_no_real_number(margin):
    """The string gave a bare TypeError from the range comparison."""
    with pytest.raises(ParameterError, match=f"^interior_margin must be a real number, got {re.escape(repr(margin))}$"):
        VerificationConfig(interior_margin=margin)


def test_config_margin_fraction_is_its_float():
    """A Fraction margin was kept as given, and then every GRID claim raised
    "points must be real numbers, not object values" on its grid."""
    cfg = VerificationConfig(interior_margin=Fraction(1, 1000))
    assert type(cfg.interior_margin) is float and cfg.interior_margin == 1e-3
    assert verify_envelope(FamilyKind.TRIG_SIN, 3, cfg) == verify_envelope(FamilyKind.TRIG_SIN, 3, CFG)


def test_config_margin_numpy_float_is_stored_as_float():
    cfg = VerificationConfig(interior_margin=np.float64(1e-3))
    assert type(cfg.interior_margin) is float and cfg == CFG
    assert type(VerificationConfig(interior_margin=np.float32(1e-3)).interior_margin) is float


@pytest.mark.parametrize("points", [2**20 + 1, 10**12, 10**400])
def test_config_caps_grid_points(points):
    """10^12 points would ask numpy for 8 TB per array: refused before any
    allocation.  2^20 points, the cap, peak at ~70 MiB."""
    n = f"|grid_points| >= 2^{points.bit_length() - 1}" if points >= 2**1024 else str(points)
    with pytest.raises(ParameterError, match=f"^grid_points must be in \\[16, 2\\^20\\], got {re.escape(n)}$"):
        VerificationConfig(grid_points=points)
    assert VerificationConfig(grid_points=2**20).grid_points == 2**20


@pytest.mark.parametrize("depth", [-1, 2.0, True, None])
def test_config_rejects_bad_max_subdivisions(depth):
    with pytest.raises(ParameterError):
        VerificationConfig(mode=Mode.RIGOROUS, max_subdivisions=depth)


def test_config_stores_ints():
    """Both integer fields are stored as the int the integer rule returns."""
    cfg = VerificationConfig(grid_points=np.int64(64), max_subdivisions=np.int32(7))
    assert type(cfg.grid_points) is int and type(cfg.max_subdivisions) is int
    assert cfg == VerificationConfig(grid_points=64, max_subdivisions=7)
    assert type(dataclasses.replace(cfg, max_subdivisions=np.uint8(2)).max_subdivisions) is int


def test_config_accepts_zero_max_subdivisions():
    assert VerificationConfig(max_subdivisions=0).max_subdivisions == 0


def test_config_messages():
    """The config's integers take the one integer rule, `check_param_int`."""
    with pytest.raises(ParameterError, match=r"^grid_points must be in \[16, 2\^20\], got 10$"):
        VerificationConfig(grid_points=10)
    with pytest.raises(ParameterError, match="^grid_points must be an integer, got True$"):
        VerificationConfig(grid_points=True)
    with pytest.raises(ParameterError, match=r"^max_subdivisions must be in \[0, 2\^53\], got -1$"):
        VerificationConfig(max_subdivisions=-1)
    assert VerificationConfig(grid_points=np.int64(16)).grid_points == 16


@pytest.mark.parametrize("mode", ["rigorous", "grid", None, 1])
def test_config_rejects_a_mode_that_is_no_mode(mode):
    """A mode string would have run GRID without a word, the report saying
    mode=GRID; every mode that is not a Mode raises."""
    with pytest.raises(ParameterError, match="mode must be a Mode"):
        VerificationConfig(mode=mode)
    with pytest.raises(ParameterError, match="mode must be a Mode"):
        dataclasses.replace(CFG, mode=mode)


def _integer_p_calls(p):
    """Every public entry point that takes an integer p, called at p."""
    return {
        "envelope_constants": lambda: envelope_constants(TC, p),
        "ratio_bounds": lambda: ratio_bounds(TS, p, 0.5),
        "limit_at_zero": lambda: limit_at_zero(TS, p),
        "limit_at_half_pi": lambda: limit_at_half_pi(HC, p),
        "corollary_bounds": lambda: corollary_bounds(p, 0.1),
        "verify_envelope": lambda: verify_envelope(TS, p, CFG),
        "verify_monotonicity": lambda: verify_monotonicity(HS, p, CFG),
        "verify_sign_D": lambda: verify_sign_D(TC, p, Sign.NEG, RIGOROUS),
        "d_sum": lambda: d_sum(TS, p, np.array([0.5, 1.0])),
        "expected_sign_D": lambda: expected_sign_D(TC, p),
    }


@pytest.mark.parametrize("p", [True, np.True_], ids=["bool", "np-bool"])
@pytest.mark.parametrize("name", sorted(_integer_p_calls(3)))
def test_bool_p_is_no_integer(name, p):
    """A bool p fails the one integer rule everywhere (True was read as
    p = 1, and expected_sign_D answered NEG)."""
    with pytest.raises(ParameterError, match="^p must be an integer, got (np.)?True_?$"):
        _integer_p_calls(p)[name]()


@pytest.mark.parametrize("name", sorted(_integer_p_calls(3)))
def test_numpy_integer_p_is_the_int(name):
    """np.int64(3) gives bitwise the answer of 3, and p = 1 fails the rule."""
    got, want = _integer_p_calls(np.int64(3))[name](), _integer_p_calls(3)[name]()
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)
    with pytest.raises(ParameterError, match=r"^p must be in \[2, 2\^53\], got 1$"):
        _integer_p_calls(1)[name]()


HUGE = 10**5000  # past the 4300 digits str() takes
# every integer argument below its least, and cheb_u's degree past its cap; a
# huge positive degree is not tried in cheb_u_eval, whose recurrence runs n steps
_HUGE_INTEGER_CALLS = {
    "envelope_constants": lambda: envelope_constants(TS, -HUGE),
    "cheb_u": lambda: cheb_u(-HUGE),
    "cheb_u-past-cap": lambda: cheb_u(HUGE),
    "cheb_u_eval": lambda: cheb_u_eval(-HUGE, 0.5),
    "dirichlet_sum": lambda: dirichlet_sum(-HUGE, 0.5),
    "grid_points": lambda: VerificationConfig(grid_points=-HUGE),
    "max_subdivisions": lambda: VerificationConfig(max_subdivisions=-HUGE),
    "d_sum": lambda: d_sum(TS, -HUGE, 0.5),
    "corollary_bounds": lambda: corollary_bounds(-HUGE, 0.1),
}


@pytest.mark.parametrize("name", sorted(_HUGE_INTEGER_CALLS))
def test_huge_integers_are_worded_by_size(name):
    """An integer too long for str() is worded by its size in the message:
    ParameterError, not str()'s bare ValueError."""
    with pytest.raises(ParameterError, match=r"\|\w+\| >= 2\^16609"):
        _HUGE_INTEGER_CALLS[name]()


def test_tolerance_report_is_the_worst_error():
    """It names the x of the largest error, its margin is tol - that error,
    and one inf error falsifies; every error counts as a cell."""
    xs = [0.1, 0.2, 0.3, 0.4]
    r = _tolerance_report("c", np.array([1e-15, 3e-14, 2e-14, 0.0]), xs, 1e-13)
    assert (r.status, r.worst_x, r.cells_checked, r.mode) == (Status.CERTIFIED, 0.2, 4, Mode.GRID)
    assert r.min_margin == 1e-13 - 3e-14
    r = _tolerance_report("c", [0.0, 2e-13, 0.0, 1e-14], xs, 1e-13)
    assert (r.status, r.worst_x) == (Status.FALSIFIED, 0.2)
    assert r.min_margin == 1e-13 - 2e-13
    r = _tolerance_report("c", [0.0, 0.0, math.inf, 0.0], xs, 1e-12)
    assert (r.status, r.worst_x, r.min_margin) == (Status.FALSIFIED, 0.3, -math.inf)


def test_expected_signs():
    """POS exactly where f increases, read off the envelope's direction: the
    cos families at p = 2, and no other family or p."""
    for family in FamilyKind:
        for p in [*range(2, 65), 2**53]:
            assert expected_sign_D(family, p) is (Sign.POS if family.is_cos and p == 2 else Sign.NEG)


@pytest.mark.parametrize("family", [TC, TS])
@pytest.mark.parametrize("p", range(2, 13))
def test_sign_grid_trig(family, p):
    r = verify_sign_D(family, p, expected_sign_D(family, p), CFG)
    assert r.status is Status.CERTIFIED
    assert r.min_margin > 0.0


def test_sign_grid_trig_cos_p2_neg_falsified():
    r = verify_sign_D(TC, 2, Sign.NEG, CFG)
    assert r.status is Status.FALSIFIED
    assert 0.0 < r.worst_x < HALF_PI  # a concrete counterexample point


@pytest.mark.parametrize("family,p_range", [(HC, range(3, 13)), (HS, range(2, 13))])
def test_sign_grid_hyperbolic(family, p_range):
    for p in p_range:
        r = verify_sign_D(family, p, Sign.NEG, CFG)
        assert r.status is Status.CERTIFIED, (family, p)


def test_sign_grid_hyperbolic_reports_closed_form_value():
    # the margin is -D at the worst point, bitwise d_general's value there (its
    # series near 0), which the sum form's agrees with; no difference stencil,
    # so a tiny interior margin is fine
    cfg = VerificationConfig(interior_margin=1e-6)
    r = verify_sign_D(HS, 5, Sign.NEG, cfg)
    assert r.status is Status.CERTIFIED
    assert r.min_margin == -d_general(HS, 5, r.worst_x)
    assert r.min_margin == pytest.approx(-d_sum(HS, 5, r.worst_x), rel=1e-14)


_GRID_SIGN_PS = [*range(2, 65), 2**16 + 1, 2**53]


def _two_point_route(family, p, sign):
    """Whether a GRID sign claim reads D at the grid's first two points alone
    under the configs below: the paper's sign, whose D series provably rises,
    off the cos families at p <= 3, whose grid leaves D's series branch."""
    return sign is expected_sign_D(family, p) and not (family.is_cos and p <= 3)


@pytest.mark.parametrize(
    "cfg,ps",
    [
        (CFG, _GRID_SIGN_PS),
        (VerificationConfig(interior_margin=1e-2, grid_points=4096), _GRID_SIGN_PS),
        (VerificationConfig(interior_margin=1e-6, grid_points=512), _GRID_SIGN_PS),
        (VerificationConfig(interior_margin=0.3, grid_points=17), _GRID_SIGN_PS),
        (VerificationConfig(interior_margin=1.2e-16, grid_points=16), _GRID_SIGN_PS),
        # 2^20 points run 64 blocks of 2^14; ~13 ms a D, so fewer p
        (VerificationConfig(grid_points=2**20), [2, 3, 4, 16, 64, 2**16 + 1, 2**53]),
        (VerificationConfig(interior_margin=0.39, grid_points=2**20), [2, 3, 4, 16, 64, 2**16 + 1, 2**53]),
    ],
    ids=["default", "1e-2-4096", "1e-6-512", "0.3-17", "1.2e-16-16", "1e-3-2^20", "0.39-2^20"],
)
def test_grid_sign_reads_d_general_bitwise(cfg, ps):
    """A GRID sign claim runs d_general's kernel on the shared grid, which
    `_grid` checked once: its report is, bit for bit, the verdict on the
    public d_general's values there, under either sign, for all four
    families, past one block of points too.  Where D's series provably
    rises over the grid, the claim reads its first two points alone and
    still reports the whole grid's verdict: cells_checked 2, else every point."""
    xs = certify._grid(cfg.interior_margin, cfg.grid_points)
    key = lambda v: (v.status, v.min_margin.hex(), v.worst_x.hex(), v.mode)
    for family in FamilyKind:
        for p in ps:
            d = d_general(family, p, xs)
            for sign in Sign:
                r = verify_sign_D(family, p, sign, cfg)
                want = certify._grid_verdict(r.claim_id, sign.value * d, xs, len(xs))
                assert key(r) == key(want), (family, p, sign)
                assert r.cells_checked == (2 if _two_point_route(family, p, sign) else len(xs)), (family, p, sign)


def test_grid_sign_two_point_route_reads_no_grid_array(monkeypatch):
    """The two-point route runs no kernel over the grid: with `_d_block`
    raising, every default-config claim of the paper's sign at p = 2..64
    reports as before, but the cos families' at p <= 3, which still scan."""
    before = {(family, p): verify_sign_D(family, p, expected_sign_D(family, p), CFG) for family in FamilyKind for p in range(2, 65)}

    def refuse(family, p):
        raise AssertionError("the grid was scanned")

    monkeypatch.setattr(certify, "_d_block", refuse)
    for (family, p), report in before.items():
        if family.is_cos and p <= 3:
            with pytest.raises(AssertionError, match="the grid was scanned"):
                verify_sign_D(family, p, expected_sign_D(family, p), CFG)
        else:
            assert verify_sign_D(family, p, expected_sign_D(family, p), CFG) == report, (family, p)


def test_grid_sign_series_that_turns_falls_back_to_the_scan(monkeypatch, fresh_caches):
    """A D series P(u) = u - 10 u^2 rises at u = 0 but peaks at u = 1/20,
    x ~ 0.22, inside the grid: its first point is not the worst, so the claim
    must scan the grid, which falsifies it at its last point."""
    series = (0.0, 1.0, -10.0, *(0.0,) * derivatives._D_TERMS)[: derivatives._D_TERMS + 1]
    monkeypatch.setattr(derivatives, "_d_series_coeffs", lambda family, p: series)
    xs = certify._grid(CFG.interior_margin, CFG.grid_points)
    for family in (TS, HS):
        r = verify_sign_D(family, 7, Sign.POS, CFG)
        assert r == certify._grid_verdict(r.claim_id, d_general(family, 7, xs), xs, len(xs))
        assert (r.status, r.worst_x) == (Status.FALSIFIED, xs[-1])


def test_grid_sign_route_needs_the_second_margin_clear_of_the_allowance(monkeypatch):
    """The route returns the first point's margin only where the second's
    clears it by the rounding allowance: an allowance one float above
    m1 - m0 falls back to the scan, at the same verdict; one equal to it
    keeps the two points."""
    xs = certify._grid(CFG.interior_margin, CFG.grid_points)
    rise = certify._d_rise
    for family in FamilyKind:
        for p in (4, 7, 16):
            sign = expected_sign_D(family, p)
            m0, m1 = sign.value * d_general(family, p, xs[:2])
            want = certify._grid_verdict(f"sign-D:{family.value}:p={p}:{sign.name}", sign.value * d_general(family, p, xs), xs, len(xs))
            for gap, cells in ((math.nextafter(m1 - m0, math.inf), len(xs)), (m1 - m0, 2)):
                monkeypatch.setattr(certify, "_d_rise", lambda *key, gap=gap: (rise(*key)[0], gap))
                assert verify_sign_D(family, p, sign, CFG) == dataclasses.replace(want, cells_checked=cells), (family, p, gap)


def test_grid_sign_past_one_block_keeps_temporaries_to_a_block():
    """On 2^20 points a GRID sign claim peaks at its margins' array plus the
    block temporaries, as d_general did when the claim called it: 0.39 MiB,
    0.78 MiB where a block splits between D's series and general form (the
    cos families at p = 2), by tracemalloc, on either route.  Both claims
    scan the grid: trig-cos p = 2 leaves D's series, and hyp-sin p = 7 POS
    has the wrong sign, whose series falls."""
    cfg = VerificationConfig(grid_points=2**20)
    for family, p, sign in ((TC, 2, Sign.NEG), (HS, 7, Sign.POS)):
        verify_sign_D(family, p, sign, cfg)  # the grid, tables and series, built once
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert verify_sign_D(family, p, sign, cfg).cells_checked == 2**20
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20 + 2**20, (family, p, peak)


def test_grid_is_checked_to_increase_strictly(monkeypatch):
    """The two-point sign route rests on a strictly increasing grid, which
    `_grid` checks once as it builds it: a grid with a repeated point fails
    there."""
    monkeypatch.setattr(certify, "_checked_points", lambda xs, closed: np.sort(np.append(xs[1:], xs[1])))
    certify._grid.cache_clear()
    try:
        with pytest.raises(ParameterError, match="^the grid of 16 points at margin 0.001 does not increase strictly$"):
            certify._grid(1e-3, 16)
    finally:
        certify._grid.cache_clear()


def test_grid_is_checked_once_when_built():
    """`_grid` runs the array evaluators' point check as it builds the shared
    grid, so a grid off (0, pi/2) fails there, before any claim samples it."""
    certify._grid.cache_clear()
    try:
        with pytest.raises(trigratio.DomainError, match=r"^x must lie in \(0, pi/2\)$"):
            certify._grid(-0.1, 16)
    finally:
        certify._grid.cache_clear()


def test_grid_ends_are_linspaces_points_without_the_array():
    """`_grid_ends` is np.linspace's first, second and last points bit for
    bit, across VerificationConfig's margins and point counts, and builds no
    array to get them."""
    margins = (1.2e-16, 1e-6, 1e-3, 1e-2, 0.3, 0.39, math.nextafter(math.pi / 8, 0))
    certify._grid.cache_clear()
    certify._grid_ends.cache_clear()
    for points in (16, 17, 300, 2048, 4096, 2**20):
        for margin in margins:
            cfg = VerificationConfig(interior_margin=margin, grid_points=points)
            want = np.linspace(margin, HALF_PI - margin, points)[[0, 1, -1]]
            got = certify._grid_ends(cfg.interior_margin, cfg.grid_points)
            assert [x.hex() for x in got] == [x.hex() for x in want.tolist()], (margin, points)
    assert certify._grid.cache_info().misses == 0


def test_grid_ends_past_the_configs_bounds_read_the_grid():
    """Past VerificationConfig's bounds `_grid_ends` reads `_grid`'s points,
    and raises what `_grid` raises, with its message."""
    certify._grid.cache_clear()
    try:
        assert certify._grid_ends(0.5, 8) == tuple(np.linspace(0.5, HALF_PI - 0.5, 8)[[0, 1, -1]].tolist())
        assert certify._grid.cache_info().misses == 1
        with pytest.raises(trigratio.DomainError, match=r"^x must lie in \(0, pi/2\)$"):
            certify._grid_ends(-0.1, 16)
        with pytest.raises(trigratio.DomainError, match=r"^x must lie in \(0, pi/2\)$"):
            certify._grid_ends(1e-300, 16)
    finally:
        certify._grid.cache_clear()


def test_sign_hyp_cos_p2_not_single_signed():
    """D for HYP_COS at p = 2 really does change sign (at x = 1.3170): a
    POS claim over the whole interior must be falsified with the
    counterexample sitting in the negative tail near pi/2."""
    r = verify_sign_D(HC, 2, Sign.POS, CFG)
    assert r.status is Status.FALSIFIED
    assert r.worst_x > 1.36
    # while f itself is still increasing there:
    assert verify_monotonicity(HC, 2, CFG).status is Status.CERTIFIED


@pytest.mark.parametrize("family", [TC, TS])
@pytest.mark.parametrize("p", range(2, 9))
def test_sign_rigorous(family, p):
    r = verify_sign_D(family, p, expected_sign_D(family, p), RIGOROUS)
    assert r.status is Status.CERTIFIED
    assert r.mode is Mode.RIGOROUS
    assert r.min_margin > 0.0


def _bisect(p, sign, cfg):
    """The trig-cos interval bisection alone, past verify_sign_D's exact routes."""
    return certify._verify_sign_rigorous(f"sign-D:trig-cos:p={p}:{sign.name}", p, sign, cfg)


def _no_bisection(*args):
    raise AssertionError(f"bisected {args[0]}")


@pytest.mark.parametrize("margin,cap", [(1e-3, 20), (1e-6, 40)])
def test_rigorous_hyperbolic_certified(margin, cap, monkeypatch):
    """The x -> ix images never bisect, whatever the margin and the cap: every
    claim of expected_sign_D's sign at p = 2..64 is the termwise proof, with
    no cell, but hyp-cos p = 2 POS, falsified at the exact witness x = 3/2."""
    monkeypatch.setattr(certify, "_verify_sign_rigorous", _no_bisection)
    cfg = VerificationConfig(mode=Mode.RIGOROUS, interior_margin=margin, max_subdivisions=cap)
    for family in (HC, HS):
        for p in range(2, 65):
            claim = f"sign-D:{family.value}:p={p}:{expected_sign_D(family, p).name}"
            if (family, p) == (HC, 2):
                want = VerificationReport(claim, Status.FALSIFIED, -math.inf, 1.5, 1, Mode.RIGOROUS)
            else:
                want = VerificationReport(claim, Status.CERTIFIED, math.inf, math.nan, 0, Mode.RIGOROUS)
            assert repr(verify_sign_D(family, p, expected_sign_D(family, p), cfg)) == repr(want)


@pytest.mark.parametrize("margin,cap", [(1e-3, 20), (1e-6, 40)])
@pytest.mark.parametrize("family", [TC])
def test_rigorous_cos_odd_p_one_cell(family, margin, cap):
    """Every term of the cos families' general form keeps one sign at p >= 3
    (see test_cos_general_form_termwise_positive), so the whole root cell's
    enclosure is one-signed: every odd-p claim is a one-cell bisection."""
    cfg = VerificationConfig(mode=Mode.RIGOROUS, interior_margin=margin, max_subdivisions=cap)
    for p in range(3, 64, 2):
        r = _bisect(p, expected_sign_D(family, p), cfg)
        assert (r.status, r.cells_checked) == (Status.CERTIFIED, 1), r


@pytest.mark.parametrize("mode", Mode)
def test_sign_D_refuses_sum_form_past_limit(mode):
    """The sin families' sum form has no table past derivatives.MAX_SUM_P,
    and d_sum refuses it there, but no sign claim reads it: a GRID claim
    samples d_general, and a RIGOROUS claim of either sign is the termwise
    lemma's decision, at every p, with no table cached."""
    for family in (TS, HS):
        assert derivatives._sum_form_lemma(family)  # its base cases' tables, at p <= 5, built before the count
    derivatives.exact_sin_comb_form.cache_clear()
    cfg = VerificationConfig(mode=mode)
    for family in (TS, HS):
        for p in (10**9, 2**53):
            with pytest.raises(ParameterError, match="sum form"):
                d_sum(family, p, 0.5)
            proved, refuted = (verify_sign_D(family, p, sign, cfg) for sign in (Sign.NEG, Sign.POS))
            assert (proved.status, refuted.status, proved.mode) == (Status.CERTIFIED, Status.FALSIFIED, mode)
            if mode is Mode.RIGOROUS:
                claim = f"sign-D:{family.value}:p={p}:"
                assert proved == VerificationReport(claim + "NEG", Status.CERTIFIED, math.inf, math.nan, 0, mode)
                assert refuted == VerificationReport(claim + "POS", Status.FALSIFIED, -math.inf, math.nan, 0, mode)
    assert derivatives.exact_sin_comb_form.cache_info().currsize == 0
    # the cos families take their general form, with no such limit
    assert verify_sign_D(TC, 10**9 + 1, Sign.NEG, cfg).status is Status.CERTIFIED


def test_rigorous_hyp_cos_p2_falsified():
    """The rigorous proof finds what GRID finds: D for hyp-cos at p = 2 turns
    negative at x = 1.3170, and the exact enclosure at x = 3/2 shows it, so
    the POS claim is falsified there at every margin, where the bisection of
    [margin, pi/2 - margin] certified it at margin 0.3 (7 cells), which
    leaves the negative tail out."""
    want = VerificationReport("sign-D:hyp-cos:p=2:POS", Status.FALSIFIED, -math.inf, 1.5, 1, Mode.RIGOROUS)
    for margin in (1e-6, 1e-3, 0.3):
        assert verify_sign_D(HC, 2, Sign.POS, dataclasses.replace(RIGOROUS, interior_margin=margin)) == want
    assert d_general(HC, 2, 1.5) < 0.0 and mp_D(HC, 2, 1.5) < 0


def test_rigorous_bisection_ends_where_floats_do(monkeypatch):
    """A cell with no float strictly inside it is a leaf.  Past depth ~53 its
    halves would be copies of it, doubling the cells at each level, so a
    depth cap of 200 never ended.  Trig-cos D's enclosure is tight relative
    to D near 0, so its p = 2 POS proof ends by depth 55 at every margin
    allowed; over an enclosure made to touch 0 at x = 1, the one cell around
    1 splits down to the float limit, and every cap from 54 up gives one
    report, INCONCLUSIVE.  Run under a 10 s alarm."""
    monkeypatch.setattr(certify, "_interval_D", lambda p, lo, hi: (0.0, 1.0) if lo <= 1.0 <= hi else (1.0, 1.0))

    def alarm(signum, frame):
        raise TimeoutError("the bisection did not end")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        reports = [_bisect(2, Sign.POS, dataclasses.replace(RIGOROUS, max_subdivisions=d)) for d in (54, 62, 200)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert reports[0].status is Status.INCONCLUSIVE and reports[0].cells_checked <= 120
    assert repr(reports[1]) == repr(reports[2]) == repr(reports[0])


def test_rigorous_inconclusive_at_zero_depth():
    # with no subdivisions allowed, the single whole-interval enclosure of
    # the p = 2 cos form straddles zero and the claim cannot resolve
    cfg = dataclasses.replace(RIGOROUS, max_subdivisions=0)
    r = verify_sign_D(TC, 2, Sign.POS, cfg)
    assert r.status is Status.INCONCLUSIVE


def _assert_falsified(family, p, wrong, r):
    """r falsifies the claim that D has the sign `wrong`: a witness point or
    a cell whose enclosure lies wholly on the other side, and D from the
    definition in 40-digit mpmath has the other sign at worst_x, the point
    or the cell's midpoint."""
    assert (r.status, r.mode) == (Status.FALSIFIED, Mode.RIGOROUS), r
    assert r.min_margin < 0.0 and r.cells_checked >= 1, r
    assert wrong.value * mp_D(family, p, r.worst_x) < 0, r


def test_rigorous_falsifies_wrong_sign():
    """Every wrong-sign claim, 4 families x p = 2..64, is falsified: by the
    termwise lemma's disproof wherever it decides D's sign (its report:
    test_lemma_decides_wrong_sign_claims), and at an exact witness at the
    cos families' p = 2, where it is silent.  The GRID claim agrees at every
    pair."""
    for family in FamilyKind:
        for p in range(2, 65):
            wrong = Sign(-expected_sign_D(family, p).value)
            r = verify_sign_D(family, p, wrong, RIGOROUS)
            assert (r.status, r.mode) == (Status.FALSIFIED, Mode.RIGOROUS), r
            if family.is_cos and p == 2:
                _assert_falsified(family, p, wrong, r)
            assert verify_sign_D(family, p, wrong, CFG).status is Status.FALSIFIED


@pytest.mark.parametrize("mode", Mode)
@pytest.mark.parametrize("family", [TC, HC])
@pytest.mark.parametrize("p", [2 * 10**102, 10**103, 10**400], ids=["2e102", "1e103", "1e400"])
def test_sign_D_past_float64_is_parameter_error(family, p, mode):
    """The cos families' general table has factor 1 and weights tending to
    1/8 and 3/8, but its frequencies 1 -+ 1/p and 1 -+ 3/p all round to 1.0
    in float64 from p = 3*2^54 on.  Such p lie past the top of p's range,
    2^53: ParameterError naming it, in both modes, not a verdict from a
    float table that lost its frequencies.  The top of the range itself is
    certified."""
    cfg = VerificationConfig(mode=mode)
    name = str(p) if p < 2**1024 else "|p| >= 2^1328"
    with pytest.raises(ParameterError, match=rf"^p must be in \[2, 2\^53\], got {re.escape(name)}$"):
        verify_sign_D(family, p, expected_sign_D(family, p), cfg)
    assert verify_sign_D(family, 2**53, expected_sign_D(family, 2**53), cfg).status is Status.CERTIFIED


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", range(2, 17))
def test_monotonicity_sweep(family, p):
    r = verify_monotonicity(family, p, CFG)
    assert r.status is Status.CERTIFIED
    assert r.min_margin > 0.0


@pytest.mark.parametrize("family", FamilyKind)
@pytest.mark.parametrize("p", range(2, 17))
def test_envelope_sweep(family, p):
    r = verify_envelope(family, p, CFG)
    assert r.status is Status.CERTIFIED
    assert r.min_margin > 0.0


def test_envelope_swapped_constants_falsified():
    ec = envelope_constants(TC, 3)
    swapped = dataclasses.replace(ec, lower=ec.upper, upper=ec.lower)
    r = verify_envelope(TC, 3, CFG, constants=swapped)
    assert r.status is Status.FALSIFIED


@pytest.mark.parametrize("family,p", [(TS, 5), (TC, 3), (HS, 3)])
def test_envelope_refuses_another_claims_constants(family, p):
    """trig-sin p = 3 was certified against trig-cos p = 5's constants: a
    claim takes only constants of its own family and p, in either mode."""
    constants = envelope_constants(family, p)
    for mode in Mode:
        with pytest.raises(ParameterError, match=rf"^constants of {family.value}:p={p} given for envelope:trig-sin:p=3$"):
            verify_envelope(TS, 3, VerificationConfig(mode=mode), constants=constants)
    assert verify_envelope(TS, 3, CFG, constants=envelope_constants(TS, 3)) == verify_envelope(TS, 3, CFG)


def test_identities_all_certified():
    reports = verify_identities(CFG)
    assert len(reports) == 5
    assert {r.claim_id for r in reports} == {
        "identity:general-vs-even-sum",
        "identity:general-vs-odd-sum",
        "identity:dirichlet-sum",
        "identity:vanishing-limits",
        "identity:chebyshev-trig",
    }
    for r in reports:
        assert r.status is Status.CERTIFIED, r.claim_id


def test_identities_mutation_falsifies(mutate_table):
    """Perturbing the general table's top-frequency weight must break form agreement,
    and D's series, which is checked against the general table; the same
    hook with the table's own weights passes, so the failure is the
    mutation's, through D's side alone."""

    def hooked(delta):
        mutate_table((TC, TS), delta=delta)  # 1 further from 0 at delta = 1
        return {r.claim_id: r for r in verify_identities(CFG)}

    reports = hooked(0)
    assert reports["identity:general-vs-even-sum"].status is Status.CERTIFIED
    assert reports["identity:general-vs-odd-sum"].status is Status.CERTIFIED
    assert reports["identity:vanishing-limits"].status is Status.CERTIFIED
    reports = hooked(1)
    assert reports["identity:general-vs-even-sum"].status is Status.FALSIFIED
    assert reports["identity:general-vs-odd-sum"].status is Status.FALSIFIED
    assert reports["identity:vanishing-limits"].status is Status.FALSIFIED
    for family in (TC, TS):
        d_gap, f_gap = vanishing_limits_check(family, 3)
        assert d_gap > 1e-6 and f_gap < 1e-12, family
    # identities not touching the general form stay green
    assert reports["identity:dirichlet-sum"].status is Status.CERTIFIED


def test_identities_are_exact(mutate_table):
    """Both general-vs-sum claims are exact: error 0 on every (family, p)
    pair, so the margin is the tolerance, and one weight scaled by
    1 + 1e-12, far below any sampled tolerance, falsifies them."""
    reports = {r.claim_id: r for r in verify_identities(CFG)}
    for claim, cells in (("identity:general-vs-even-sum", 6), ("identity:general-vs-odd-sum", 12)):
        assert reports[claim] == VerificationReport(claim, Status.CERTIFIED, 1e-12, 0.0, cells, Mode.GRID)
    mutate_table((TC, TS), scale=Fraction(1.0 + 1e-12))
    reports = {r.claim_id: r for r in verify_identities(CFG)}
    for claim in ("identity:general-vs-even-sum", "identity:general-vs-odd-sum"):
        assert reports[claim].status is Status.FALSIFIED
        assert reports[claim].min_margin == -math.inf


def test_identities_check_both_tables_against_the_definition(mutate_table):
    """Each general-vs-sum pair checks the sum table against the general
    table, which is D from f's definition by construction, and reads each
    table itself, not d_general, which takes D's series near 0.  A trig-sin
    general table perturbed as in the mutation test above fails both claims
    and the vanishing limits, which read that table too; one sum-table
    weight moved by 1, the general tables intact, fails the odd-sum claim
    through trig-cos and both through trig-sin; D doubled in both tables,
    which then still agree with each other, passes both claims and is
    caught by D's series, which is checked against f's.  No other claim
    fails."""
    both, series = ["general-vs-even-sum", "general-vs-odd-sum"], ["vanishing-limits"]
    cases = [
        ((TS,), dict(delta=1), both + series),
        ((TC,), dict(delta=1, general=False), ["general-vs-odd-sum"]),
        ((TS,), dict(delta=1, general=False), both),
        ((TC, TS), dict(factor=2, general=None), series),
    ]
    for families, how, claims in cases:
        mutate_table(families, **how)
        falsified = [r.claim_id for r in verify_identities(CFG) if r.status is Status.FALSIFIED]
        assert falsified == [f"identity:{claim}" for claim in claims], how


# d_general's values and the identity reports, as one string
_NO_80_BITS = """
import numpy as np
from trigratio import FamilyKind, VerificationConfig, d_general, verify_identities
xs = np.concatenate([np.geomspace(1e-8, 1.5, 30), [np.pi / 2 - 1e-3]])
values = [d_general(f, p, xs).tobytes().hex() for f in FamilyKind for p in (1.5, 2, 7.3, 16)]
result = repr((values, verify_identities(VerificationConfig())))
"""


def test_identities_do_not_need_80_bits():
    """With numpy.longdouble made float64 before trigratio is imported, as on
    arm64 macOS, a fresh interpreter gives bitwise the d_general values and
    the five CERTIFIED identity reports of this process: no result reads the
    platform's extended type."""
    here = {}
    exec(_NO_80_BITS, here)
    patched = "import numpy\nnumpy.longdouble = numpy.float64\n" + _NO_80_BITS + "print(result)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trigratio.__file__)))
    proc = subprocess.run([sys.executable, "-c", patched], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == here["result"] + "\n"
    assert [r.status for r in verify_identities(CFG)] == [Status.CERTIFIED] * 5


def _reference_identities(cfg):
    """verify_identities from the definitions: the sin families' sum table at
    p = 2k has the Dirichlet sum's frequencies (2j+1)/(2k), j < k, exactly,
    and cheb_u(n) has U_n's explicit coefficients, sum_i (-1)^i C(n-i, i)
    (2x)^(n-2i); one cell per k or n, at x = 0.0, error 0.0 or inf."""
    reports = []
    even = [(FamilyKind.TRIG_SIN, 2 * k) for k in range(1, 7)]
    odd = [(family, 2 * k + 1) for k in range(1, 7) for family in (FamilyKind.TRIG_COS, FamilyKind.TRIG_SIN)]
    for claim, pairs in (("identity:general-vs-even-sum", even), ("identity:general-vs-odd-sum", odd)):
        errs = [0.0 if general_vs_sum_check(family, p) else math.inf for family, p in pairs]
        reports.append(_tolerance_report(claim, errs, [0.0] * len(errs), 1e-12))

    errs = []
    for k in range(1, 11):
        terms, _ = derivatives.exact_sin_comb_form(FamilyKind.TRIG_SIN, 2 * k, False)
        errs.append(0.0 if [c for _, c in terms] == [Fraction(2 * j + 1, 2 * k) for j in range(k)] else math.inf)
    reports.append(_tolerance_report("identity:dirichlet-sum", errs, [0.0] * 10, 1e-13))

    errs, pts = [], []
    for family in FamilyKind:
        for p in range(2, 9):
            d_gap, f_gap = vanishing_limits_check(family, p)
            errs.extend([d_gap, f_gap])
            pts.extend([0.0, 0.0])
    reports.append(_tolerance_report("identity:vanishing-limits", errs, pts, 1e-12))

    errs = []
    for n in range(31):
        explicit = [0] * (n + 1)
        for i in range(n // 2 + 1):
            explicit[n - 2 * i] = (-1) ** i * math.comb(n - i, i) * 2 ** (n - 2 * i)
        errs.append(0.0 if list(cheb_u(n).coeffs) == explicit else math.inf)
    reports.append(_tolerance_report("identity:chebyshev-trig", errs, [0.0] * 31, 1e-11))
    return reports


@pytest.mark.parametrize("margin", [1e-3, 1e-6, 0.3])
def test_identities_match_scalar_reference(margin):
    """The identity suite gives the definitions' five reports exactly, under
    any interior margin, which no exact check reads: the Dirichlet and
    Chebyshev claims one cell per k and n, margin their tolerance."""
    cfg = VerificationConfig(interior_margin=margin)
    reports = verify_identities(cfg)
    assert reports == _reference_identities(cfg)
    assert reports[2] == VerificationReport("identity:dirichlet-sum", Status.CERTIFIED, 1e-13, 0.0, 10, Mode.GRID)
    assert reports[4] == VerificationReport("identity:chebyshev-trig", Status.CERTIFIED, 1e-11, 0.0, 31, Mode.GRID)


def _falsified(reports):
    return [r.claim_id for r in reports if r.status is Status.FALSIFIED]


def test_chebyshev_identity_reads_cheb_u(monkeypatch, fresh_caches):
    """One coefficient of U_7 moved by 1 falsifies the Chebyshev claim alone,
    at that degree's cell: it is decided on cheb_u's own coefficients."""

    def mutated(n):
        u = cheb_u(n)
        return u if n != 7 else dataclasses.replace(u, coeffs=(u.coeffs[0], u.coeffs[1] + 1, *u.coeffs[2:]))

    monkeypatch.setattr(derivatives, "cheb_u", mutated)
    reports = verify_identities(CFG)
    assert _falsified(reports) == ["identity:chebyshev-trig"]
    assert reports[4] == VerificationReport("identity:chebyshev-trig", Status.FALSIFIED, -math.inf, 0.0, 31, Mode.GRID)


@pytest.mark.parametrize("freq", [Fraction(21, 20), Fraction(19, 11)])
def test_dirichlet_identity_reads_the_even_sum_table(freq, monkeypatch, fresh_caches):
    """One frequency of the sin families' sum table at p = 20 moved from
    19/20 to freq falsifies the Dirichlet claim alone: it is decided on that
    table's frequencies, which the general-vs-sum claims read only at
    p <= 13.  19/11 is no multiple of 1/20, yet 19 * (20 // 11) = 19 units
    of 1/20: neither check may read it as 19/20."""
    table = derivatives.exact_sin_comb_form

    def moved(family, p, general):
        terms, factor = table(family, p, general)
        if (family, p, general) == (TS, 20, False):
            *head, (w, _) = terms
            terms = (*head, (w, freq))
        return terms, factor

    monkeypatch.setattr(derivatives, "exact_sin_comb_form", moved)
    reports = verify_identities(CFG)
    assert _falsified(reports) == ["identity:dirichlet-sum"]
    assert reports[2].min_margin == -math.inf
    assert not general_vs_sum_check(TS, 20)


def test_vanishing_limits_mutation_falsifies(monkeypatch):
    """One perturbed coefficient of D's series (d_2, by one part in 1e6)
    breaks its agreement with the closed forms, so the claim can fail."""
    coeffs = derivatives._d_series_coeffs

    def mutated(family, p):
        d = list(coeffs(family, p))
        d[2] *= 1.0 + 1e-6
        return tuple(d)

    monkeypatch.setattr(derivatives, "_d_series_coeffs", mutated)
    reports = {r.claim_id: r for r in verify_identities(CFG)}
    assert reports["identity:vanishing-limits"].status is Status.FALSIFIED
    assert reports["identity:dirichlet-sum"].status is Status.CERTIFIED
    d_gap, f_gap = derivatives.vanishing_limits_check(FamilyKind.HYP_COS, 4)
    assert d_gap > 1e-9 and f_gap < 1e-12


def test_report_shape():
    """trig-sin p = 2 is proved monotone, so its envelope reads f at the
    grid's two ends."""
    r = verify_envelope(TS, 2, CFG)
    assert isinstance(r, VerificationReport)
    assert r.cells_checked == 2
    assert math.isfinite(r.worst_x)


# --- monotonicity: the termwise proof in either mode, else the grid ------------


@pytest.mark.parametrize("cfg", [CFG, RIGOROUS], ids=["grid", "rigorous"])
def test_monotonicity_is_the_termwise_proof_in_either_mode(cfg):
    """Wherever the lemma gives D the sign expected_sign_D names, h = x^3 f'
    (h(0) = h'(0) = 0, h'' = D) passes it to f', and the report is the
    termwise sign proof's under either config; of the 252 (family, p =
    2..64) pairs only the cos families' p = 2 are sampled, on the grid."""
    sampled = []
    for family in FamilyKind:
        for p in range(2, 65):
            r = verify_monotonicity(family, p, cfg)
            claim = f"monotone:{family.value}:p={p}"
            if termwise_sign(family, p) == expected_sign_D(family, p).value:
                assert r == VerificationReport(claim, Status.CERTIFIED, math.inf, math.nan, 0, Mode.RIGOROUS)
            else:
                sampled.append((family, p))
                assert (r.claim_id, r.status, r.mode) == (claim, Status.CERTIFIED, Mode.GRID)
                assert r.cells_checked == cfg.grid_points - 1
    assert sampled == [(TC, 2), (HC, 2)]


def test_monotonicity_takes_no_proof_of_the_other_sign(mutate_table):
    """A table whose termwise sign is the other one proves nothing about the
    envelope direction: the grid samples f, which does not read the table.
    Both of trig-cos's tables are negated, so that its sum form's lemma
    still holds, as a proof requires, and the general table it reads gives
    the other sign.  (The sin families read no table: -1, or 0.)"""
    mutate_table((TC,), factor=-1, general=None)
    assert termwise_sign(TC, 5) == -expected_sign_D(TC, 5).value
    r = verify_monotonicity(TC, 5, RIGOROUS)
    assert (r.status, r.mode, r.cells_checked) == (Status.CERTIFIED, Mode.GRID, RIGOROUS.grid_points - 1)


# verify_monotonicity's GRID reports where no termwise proof is read, at the
# default config: the first 16 hex digits of the sha256 of each repr
_MONOTONE_GRID_SHA = {
    (TC, 2): "4c4fd7489e989707",
    (HC, 2): "0ad90c24f1cd800d",
    (TS, 2**16 + 1): "729335043a829686",
    (HS, 2**16 + 1): "f736f9e6f674f1f6",
    (TS, 2**53): "bdde9ec805795ac5",
    (HS, 2**53): "d6ab16ec0d6bc8c3",
}


def _without_the_proof(mutate_table, family):
    """Leave `family` with no termwise proof: the cos families' lemma is
    silent at p = 2 as it is; a sin family's sum form lemma is made to fail
    by its sum table's last weight moved by 1."""
    if not family.is_cos:
        mutate_table((family,), delta=1, general=False)
        assert not derivatives._sum_form_lemma(family)


@pytest.mark.parametrize("family,p", list(_MONOTONE_GRID_SHA), ids=[f"{f.value}-{p}" for f, p in _MONOTONE_GRID_SHA])
def test_monotonicity_falls_back_to_the_grid(mutate_table, family, p):
    """Where no termwise proof is read, either config gets the sampled
    report, unchanged: the cos families' p = 2, and the sin families past
    MAX_SUM_P = 2^16 under a failing lemma, where the sum table is refused
    and so no verdict may become a ParameterError."""
    _without_the_proof(mutate_table, family)
    r = verify_monotonicity(family, p, CFG)
    assert r.mode is Mode.GRID and r.status is Status.CERTIFIED
    assert hashlib.sha256(repr(r).encode()).hexdigest()[:16] == _MONOTONE_GRID_SHA[family, p]
    assert verify_monotonicity(family, p, RIGOROUS) == r


@pytest.mark.parametrize("family", FamilyKind)
def test_grid_f_is_ordered_in_the_envelope_direction(family):
    """The float ordering the monotonicity grid sampled: on the default
    2048-point grid eval_f_grid moves strictly in the envelope direction."""
    xs = certify._grid(CFG.interior_margin, CFG.grid_points)
    for p in range(2, 17):
        steps = expected_sign_D(family, p).value * np.diff(eval_f_grid(family, p, xs))
        assert (steps > 0.0).all(), p


@pytest.mark.parametrize("family", FamilyKind)
def test_proved_monotonicity_agrees_with_mpmath(family):
    """Each direction the termwise route proves at p = 2..16 is the sign of
    f' from f's definition in 40-digit mpmath, at 20 points spread over
    (0, pi/2), 1e-6 and pi/2 - 1e-6 included."""
    xs = [1e-6, *np.linspace(0.08, 1.49, 18), HALF_PI - 1e-6]
    for p in range(2, 17):
        r = verify_monotonicity(family, p, CFG)
        if r.mode is not Mode.RIGOROUS:
            continue
        sign = expected_sign_D(family, p).value
        for x in xs:
            assert sign * mp_df(family, p, float(x)) > 0, (p, x)


# --- the envelope: f at the grid's ends where f is proved monotone -------------


def _full_grid_envelope(family, p, cfg, ec):
    """The envelope verdict over every point of the shared grid, from
    eval_f_grid: (status, float.hex of min_margin and of worst_x, mode), a
    worst margin of 0.0, a float tie, INCONCLUSIVE."""
    xs = certify._grid(cfg.interior_margin, cfg.grid_points)
    fs = eval_f_grid(family, p, xs)
    margins = np.minimum(fs - ec.lower, ec.upper - fs)
    worst = int(np.argmin(margins))
    margin = margins[worst]
    status = Status.CERTIFIED if margin > 0.0 else Status.FALSIFIED if margin < 0.0 else Status.INCONCLUSIVE
    return status, float(margin).hex(), float(xs[worst]).hex(), Mode.GRID


def _swapped(ec):
    return dataclasses.replace(ec, lower=ec.upper, upper=ec.lower)


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        VerificationConfig(interior_margin=1e-6, grid_points=512),
        VerificationConfig(interior_margin=1e-9, grid_points=16),
        VerificationConfig(interior_margin=0.3, grid_points=17),
    ],
    ids=["default", "1e-6-512", "1e-9-16", "0.3-17"],
)
def test_envelope_reads_the_grid_ends_where_f_is_proved_monotone(cfg):
    """Where verify_monotonicity proves f monotone (250 of the 252 pairs at
    p = 2..64), f - lower and upper - f are monotone, so the least margin
    over the grid is at one of its ends: the envelope reads f there alone,
    cells_checked 2, and reports the full grid's verdict, margin and worst
    x, bitwise: with the true constants, with swapped ones, which it
    falsifies, and with a looser upper one, whose worst end is the other.
    (At 1e-9 f's float values at the ends can meet the limits, so the true
    constants are not always CERTIFIED there, on any route.)"""
    xs = certify._grid(cfg.interior_margin, cfg.grid_points)
    proved, worst = 0, set()
    for family in FamilyKind:
        for p in range(2, 65):
            ends = verify_monotonicity(family, p, cfg).mode is Mode.RIGOROUS
            proved += ends
            ec = envelope_constants(family, p)
            swapped = _swapped(ec)
            # a looser upper constant puts the worst margin at the other end
            for constants in (ec, swapped, dataclasses.replace(ec, upper=ec.upper + 1.0)):
                r = verify_envelope(family, p, cfg, constants=constants)
                got = (r.status, r.min_margin.hex(), r.worst_x.hex(), r.mode)
                assert got == _full_grid_envelope(family, p, cfg, constants), (family, p, constants)
                assert r.cells_checked == (2 if ends else cfg.grid_points)
                assert constants is not swapped or r.status is Status.FALSIFIED
                worst.add(r.worst_x)
    assert worst == {xs[0], xs[-1]} and proved == 250


@pytest.mark.parametrize("family,p", list(_MONOTONE_GRID_SHA), ids=[f"{f.value}-{p}" for f, p in _MONOTONE_GRID_SHA])
def test_envelope_samples_the_grid_where_f_is_not_proved_monotone(mutate_table, family, p):
    """Where the monotonicity is sampled, so is the envelope: every grid point."""
    _without_the_proof(mutate_table, family)
    ec = envelope_constants(family, p)
    for cfg in (CFG, VerificationConfig(interior_margin=1e-6, grid_points=512)):
        r = verify_envelope(family, p, cfg)
        assert (r.status, r.min_margin.hex(), r.worst_x.hex(), r.mode) == _full_grid_envelope(family, p, cfg, ec)
        assert r.status is Status.CERTIFIED and r.cells_checked == cfg.grid_points
        assert verify_envelope(family, p, cfg, constants=_swapped(ec)).status is Status.FALSIFIED


_PAST_THE_SUM_TABLE = [(family, p) for family in (TS, HS) for p in (2**16 + 1, 10**9, 2**53)]


@pytest.mark.parametrize("family,p", _PAST_THE_SUM_TABLE, ids=[f"{f.value}-{p}" for f, p in _PAST_THE_SUM_TABLE])
def test_sin_families_are_proved_past_the_sum_table(family, p):
    """Past MAX_SUM_P = 2^16, where the sum table is refused, the sin
    families' sign reads no table: monotonicity is the termwise proof under
    either config, where it sampled f before, and so the envelope reads f
    at the grid's two ends, cells_checked 2 where it was every grid point,
    with the full grid's verdict, margin and worst x."""
    for cfg in (CFG, RIGOROUS):
        want = VerificationReport(f"monotone:{family.value}:p={p}", Status.CERTIFIED, math.inf, math.nan, 0, Mode.RIGOROUS)
        assert verify_monotonicity(family, p, cfg) == want
    ec = envelope_constants(family, p)
    for cfg in (CFG, VerificationConfig(interior_margin=1e-6, grid_points=512)):
        r = verify_envelope(family, p, cfg)
        assert (r.status, r.min_margin.hex(), r.worst_x.hex(), r.mode) == _full_grid_envelope(family, p, cfg, ec)
        assert r.status is Status.CERTIFIED and r.cells_checked == 2
        assert verify_envelope(family, p, cfg, constants=_swapped(ec)).status is Status.FALSIFIED


def _two_end_verdict(family, p, cfg, ec):
    """The envelope verdict over the grid's two ends as two-element numpy
    arrays, by `_grid_verdict`: (status, float.hex of min_margin and of
    worst_x, cells)."""
    xs = certify._grid(cfg.interior_margin, cfg.grid_points)
    ends = np.array([xs[0], xs[-1]])
    fs = eval_f_grid(family, p, ends)
    r = certify._grid_verdict("c", np.minimum(fs - ec.lower, ec.upper - fs), ends, 2)
    return r.status, r.min_margin.hex(), r.worst_x.hex(), r.cells_checked


def _edge_constants(family, p, cfg):
    """Envelope constants at the two-end verdict's edges: NaN lower, upper or
    both; infinite ones; each constant set to f's float value at either grid
    end, a margin of exactly 0.0 where lower is f's least value or upper its
    greatest, and a negative one where the constant cuts f at the other end;
    and lower and upper both on f's values at the ends, so both ends'
    margins are 0.0, a tie."""
    ec = envelope_constants(family, p)
    xs = certify._grid(cfg.interior_margin, cfg.grid_points)
    f0, f1 = eval_f_grid(family, p, np.array([xs[0], xs[-1]])).tolist()
    edges = [(math.nan, ec.upper), (ec.lower, math.nan), (math.nan, math.nan)]
    edges += [(-math.inf, math.inf), (math.inf, -math.inf), (-math.inf, ec.upper), (ec.lower, math.inf)]
    edges += [(f0, ec.upper), (f1, ec.upper), (ec.lower, f0), (ec.lower, f1), (min(f0, f1), max(f0, f1))]
    return [dataclasses.replace(ec, lower=lo, upper=hi) for lo, hi in edges]


@pytest.mark.parametrize("family", FamilyKind)
def test_envelope_two_end_verdict_edges(family):
    """The two ends read as floats give, bit for bit, `_grid_verdict`'s
    verdict over the same two margins in numpy arrays and the full grid's:
    a NaN constant makes both margins NaN, INCONCLUSIVE at the first end;
    infinite constants give infinite margins; a constant on f's float value
    at an end leaves a margin of exactly 0.0 there, INCONCLUSIVE; and 0.0 at
    both ends is a tie, decided for the first end."""
    ties = 0
    for cfg in (CFG, VerificationConfig(interior_margin=1e-6, grid_points=512)):
        for p in (3, 7, 16, 2**53):
            for ec in _edge_constants(family, p, cfg):
                r = verify_envelope(family, p, cfg, constants=ec)
                got = (r.status, r.min_margin.hex(), r.worst_x.hex(), r.cells_checked)
                assert got == _two_end_verdict(family, p, cfg, ec), (p, ec)
                assert (*got[:3], r.mode) == _full_grid_envelope(family, p, cfg, ec), (p, ec)
                ties += r.min_margin == 0.0
    assert ties == 2 * 4 * 3  # each config and p: lower on f's least value, upper on its greatest, both


_SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]


def test_envelope_two_end_rules_are_numpys_on_signed_zeros_and_nans(monkeypatch):
    """The two-end route's rules on every pair of special values: an end's
    margin is np.minimum's, a NaN if either is and the second on a tie, so
    -0.0 and 0.0 keep their signs as numpy's, on either backend's read of
    f; the worse end is the one `_grid_verdict` picks from the two margins
    in an array."""
    for a in _SPECIALS:
        for b in _SPECIALS:
            want = certify._grid_verdict("c", np.array([a, b]), [0.25, 0.75], 2)
            got = (b, 0.75) if certify._second_is_worse(a, b) else (a, 0.25)
            assert (got[0].hex(), got[1]) == (want.min_margin.hex(), want.worst_x), (a, b)
    ec = envelope_constants(TS, 3)
    for f in _SPECIALS[:4]:  # f is finite
        monkeypatch.setattr(certify, "_f_at", lambda *args, f=f: f)
        for lo in _SPECIALS:
            for hi in _SPECIALS:
                want = np.minimum(np.array([f]) - lo, hi - np.array([f]))[0]
                for xp in (math, np):
                    got = certify._end_margin(TS, 3.0, dataclasses.replace(ec, lower=lo, upper=hi), 0.5, xp)
                    assert float(want).hex() == got.hex(), (f, lo, hi, xp)


# 304 margins across VerificationConfig's range, its ends included, and p over
# the integer range's small values, the first past the sum tables' cap and its top
_SWEEP_MARGINS = sorted(
    {*np.geomspace(1.2e-16, 0.39, 297).tolist(), 1e-6, 1e-3, 1e-2, 0.05, 0.2, 0.3, math.nextafter(math.pi / 8, 0)}
)
_SWEEP_PS = [*range(2, 65), 2**16 + 1, 2**40, 2**53]


@pytest.mark.parametrize("family", FamilyKind)
def test_envelope_math_read_reports_numpys_bits(family):
    """The two-end envelope reads f on the math backend first: over 66 p and
    304 margins its report is, bit for bit, the one from numpy's read of
    both ends (eval_f_grid's values), and at every end off f's series the
    two reads' margins differ by less than 1/1000 of the allowance there;
    on the series they are equal."""
    assert len(_SWEEP_MARGINS) == 304
    assert load_numpy() is np  # numpy's backend in FAMILY_FNS, for the reads below
    th = series_threshold(family)
    for p in _SWEEP_PS:
        if not certify._proved_monotone(family, p):
            continue  # the cos families' p = 2: f is sampled on the grid
        ec = envelope_constants(family, p)
        for margin in _SWEEP_MARGINS:
            ends = certify._grid_ends(margin, 2048)[::2]
            math_read, np_read = ([certify._end_margin(family, float(p), ec, x, xp) for x in ends] for xp in (math, np))
            second = certify._second_is_worse(*np_read)
            want = certify._grid_report("c", np_read[second], ends[second], 2)
            r = verify_envelope(family, p, VerificationConfig(interior_margin=margin))
            got = (r.status, r.min_margin.hex(), r.worst_x.hex(), r.cells_checked)
            assert got == (want.status, want.min_margin.hex(), want.worst_x.hex(), 2), (p, margin)
            for x, a, b in zip(ends, math_read, np_read):
                if x < th:
                    assert a.hex() == b.hex(), (p, margin, x)
                else:
                    allowance = certify._END_ALLOWANCE * (certify._direct_size(family, float(p), x) + abs(a))
                    assert abs(a - b) < allowance / 1000, (p, margin, x)


def test_envelope_math_read_inside_the_allowance_falls_back_to_numpy(monkeypatch):
    """Constants that leave the grid's top end worse than its bottom by less
    than the allowance, and a math read of f at the top shifted so that it
    would pick the bottom end: numpy's read decides, both ends read again,
    and the report is numpy's.  Shifted past the allowance, the math read
    decides alone, with no numpy read."""
    assert load_numpy() is np  # numpy's backend in FAMILY_FNS, for the reads below
    x0, _, x1 = certify._grid_ends(CFG.interior_margin, CFG.grid_points)
    assert x0 < series_threshold(TS) <= x1
    f0, f1 = (certify._f_at(TS, 3.0, x, np) for x in (x0, x1))
    assert f0 > f1  # f decreases: the bottom end's margin is upper - f, the top's f - lower
    d = 1e-6
    ec = dataclasses.replace(envelope_constants(TS, 3), lower=f1 - (d - 1e-13), upper=f0 + d)
    m0, m1 = (certify._end_margin(TS, 3.0, ec, x, np) for x in (x0, x1))
    slack = certify._END_ALLOWANCE * (certify._direct_size(TS, 3.0, x1) + abs(m1))
    assert 0.0 < m0 - m1 < slack / 4
    real_f_at = certify._f_at
    for shift, numpy_reads, want in ((2 * (m0 - m1), 2, (m1, x1)), (2 * slack, 0, (m0, x0))):
        reads = []

        def shifted(family, p, x, xp=math, shift=shift):
            reads.append(xp)
            return real_f_at(family, p, x, xp) + (shift if xp is math and x == x1 else 0.0)

        monkeypatch.setattr(certify, "_f_at", shifted)
        assert not certify._second_is_worse(*(certify._end_margin(TS, 3.0, ec, x, math) for x in (x0, x1)))
        reads.clear()
        r = verify_envelope(TS, 3, CFG, constants=ec)
        assert (r.min_margin.hex(), r.worst_x.hex(), r.cells_checked) == (want[0].hex(), want[1].hex(), 2)
        assert sum(xp is np for xp in reads) == numpy_reads


def test_envelope_float_ties_are_inconclusive():
    """At interior margin 1e-8 f's float value at a grid end rounds onto its
    limit in all 252 (family, p = 2..64) envelopes: a worst margin of 0.0,
    which no float sample decides, so INCONCLUSIVE, not a counterexample.
    At 1e-15 the 31 whose worst margin is negative stay FALSIFIED."""
    for margin, falsified in ((1e-8, 0), (1e-15, 31)):
        cfg = VerificationConfig(interior_margin=margin)
        reports = [verify_envelope(family, p, cfg) for family in FamilyKind for p in range(2, 65)]
        for r in reports:
            want = Status.FALSIFIED if r.min_margin < 0.0 else Status.INCONCLUSIVE
            assert r.min_margin <= 0.0 and r.status is want, r
        assert sum(r.status is Status.FALSIFIED for r in reports) == falsified


def test_tolerance_report_tie_is_inconclusive():
    """An error equal to the tolerance, or NaN, is no verdict either way."""
    xs = [0.1, 0.2, 0.3]
    r = _tolerance_report("c", [0.0, 1e-13, 0.0], xs, 1e-13)
    assert (r.status, r.worst_x, r.min_margin) == (Status.INCONCLUSIVE, 0.2, 0.0)
    r = _tolerance_report("c", [0.0, 0.0, math.nan], xs, 1e-13)
    assert (r.status, r.worst_x) == (Status.INCONCLUSIVE, 0.3) and math.isnan(r.min_margin)


def test_tolerance_report_nan_hides_no_counterexample():
    """The verdict reads the least margin that is not NaN: one beyond the
    tolerance falsifies wherever a NaN stands, and with none the NaN is
    INCONCLUSIVE at its own x, all-NaN included."""
    xs = [0.1, 0.2, 0.3]
    r = _tolerance_report("c", [math.nan, 0.0, 1.0], xs, 1e-13)
    assert (r.status, r.worst_x, r.min_margin) == (Status.FALSIFIED, 0.3, 1e-13 - 1.0)
    for errors, x in (([math.nan] * 3, 0.1), ([0.0, math.nan, 1e-14], 0.2)):
        r = _tolerance_report("c", errors, xs, 1e-13)
        assert (r.status, r.worst_x) == (Status.INCONCLUSIVE, x) and math.isnan(r.min_margin)


# --- grid checks keep their label under a RIGOROUS config --------------------


def test_envelope_reports_grid_under_rigorous_config():
    """Two float values of f, at the grid's ends, are no enclosure."""
    r = verify_envelope(TS, 3, RIGOROUS)
    assert r.mode is Mode.GRID
    assert r.cells_checked == 2


def test_identities_report_grid_under_rigorous_config():
    reports = verify_identities(RIGOROUS)
    assert [r.mode for r in reports] == [Mode.GRID] * 5


# --- the shared sample grid --------------------------------------------------


def test_grid_is_read_only():
    xs = certify._grid(CFG.interior_margin, CFG.grid_points)
    assert xs.tolist() == np.linspace(1e-3, HALF_PI - 1e-3, 2048).tolist()
    with pytest.raises(ValueError):
        xs[0] = 0.5
    with pytest.raises(ValueError):
        xs += 1.0


def test_grid_is_built_once_per_margin_and_points():
    """A GRID and a RIGOROUS config with one margin and point count share one
    array, whichever scanning check asks for it; the two-end envelope and
    the two-point sign routes build none, reading `_grid_ends`."""
    certify._grid.cache_clear()
    grid_cfg = VerificationConfig(interior_margin=2e-3, grid_points=300)
    rigorous_cfg = VerificationConfig(interior_margin=2e-3, grid_points=300, mode=Mode.RIGOROUS)
    verify_envelope(TS, 3, grid_cfg)
    verify_sign_D(TC, 5, Sign.NEG, grid_cfg)
    assert certify._grid.cache_info().misses == 0
    verify_envelope(HC, 2, grid_cfg)
    verify_monotonicity(HC, 2, rigorous_cfg)
    verify_sign_D(TC, 2, Sign.POS, grid_cfg)
    info = certify._grid.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert certify._grid(2e-3, 300) is certify._grid(rigorous_cfg.interior_margin, rigorous_cfg.grid_points)


def test_grid_cache_is_bounded():
    certify._grid.cache_clear()
    certify._grid_ends.cache_clear()
    for points in range(16, 66):
        verify_envelope(HC, 2, VerificationConfig(grid_points=points))  # sampled: f is not proved monotone
        verify_envelope(TS, 3, VerificationConfig(grid_points=points))  # two ends
    for cache in (certify._grid, certify._grid_ends):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize <= 16
        assert info.misses == 50


@pytest.mark.parametrize(
    "cfg", [CFG, VerificationConfig(interior_margin=1e-6, grid_points=512)], ids=["default", "margin-1e-6"]
)
def test_grid_reports_equal_fresh_linspace(cfg, monkeypatch):
    """Every grid check on the shared array reports what it reports on a
    fresh, writable np.linspace, for 4 families x p = 2..16."""

    def run():
        return [
            (verify_envelope(family, p, cfg), verify_monotonicity(family, p, cfg),
             verify_sign_D(family, p, expected_sign_D(family, p), cfg))
            for family in FamilyKind
            for p in range(2, 17)
        ]

    shared = run()
    monkeypatch.setattr(certify, "_grid", lambda margin, points: np.linspace(margin, HALF_PI - margin, points))
    assert run() == shared


def test_grid_sign_claim_writes_no_shared_array():
    """A GRID sign claim flips the sign of `d_general`'s fresh output in
    place: the shared grid stays bitwise as it was and read-only, and two
    identical claims give equal reports, of either sign and family."""
    xs = certify._grid(1e-3, 2048)
    before = xs.tobytes()
    for family in FamilyKind:
        for sign in Sign:
            first = verify_sign_D(family, 5, sign, CFG)
            assert verify_sign_D(family, 5, sign, CFG) == first
            assert first.status is (Status.CERTIFIED if sign is expected_sign_D(family, 5) else Status.FALSIFIED)
    assert certify._grid(1e-3, 2048) is xs
    assert xs.tobytes() == before and not xs.flags.writeable


# the 60 GRID sign reports of the benchmark's sweep (4 families x p = 2..16,
# the paper's sign, default config): per family the first 16 hex digits of
# the sha256 of their reprs, one a line; 56 of them read D at two grid points,
# cells_checked 2, and each one's status, min_margin and worst_x is the full
# scan's, as it was before `families._even_series` updated its accumulator in place
_SIGN_GRID_SHA = {
    TC: "abfa65cd4f876de1",
    TS: "71af84c8ffe746f8",
    HC: "1e4614d666cd5cfb",
    HS: "0245d267d746e025",
}


@pytest.mark.parametrize("family", FamilyKind)
def test_sign_grid_reports_are_pinned(family):
    """The pinned reports are the full scan's verdicts, status, min_margin
    and worst_x bit for bit, whichever route gave them."""
    reports = [verify_sign_D(family, p, expected_sign_D(family, p), CFG) for p in range(2, 17)]
    assert hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()[:16] == _SIGN_GRID_SHA[family]
    xs = certify._grid(CFG.interior_margin, CFG.grid_points)
    key = lambda v: (v.status, v.min_margin.hex(), v.worst_x.hex())
    for p, r in enumerate(reports, 2):
        assert key(r) == key(certify._grid_verdict(r.claim_id, expected_sign_D(family, p).value * d_general(family, p, xs), xs, 0))


# --- the interval evaluation of D ---------------------------------------------


def _interval_D(p, x):
    """certify._interval_D over an Interval cell, as an Interval."""
    return Interval(*certify._interval_D(p, x.lo, x.hi))


def sin_comb(x, terms):
    """interval.sin_comb over an Interval cell, as an Interval."""
    return Interval(*interval.sin_comb(x.lo, x.hi, terms))


def _reference_interval_D(family, p, x):
    """_interval_D as written before the sin-combination kernel, for the trig
    families: Interval objects throughout, the sum tables rebuilt for every
    cell.  Trig-cos's general form, whose table is `sin_comb_form`'s, over
    cos(x/p)^4, and trig-sin's parity sums."""
    if family.is_cos:
        terms, factor = sin_comb_form(family, p, True)
        inv_g4 = (x * (1.0 / p)).cos().reciprocal() ** 4
        scale = -x * inv_g4 * factor
    elif p % 2 == 0:
        k = p // 2
        terms = [((2 * j + 1) ** 3, (2 * j + 1) / (2.0 * k)) for j in range(k)]
        scale = -x * (1.0 / (4.0 * k**3))
    else:
        k = (p - 1) // 2
        terms = [(j**3, 2.0 * j / p) for j in range(1, k + 1)]
        scale = -x * (16.0 / p**3)
    acc = Interval(0.0, 0.0)
    for w, c in terms:
        acc = acc + (x * c).sin() * w
    return scale * acc


def _seeded_cells(rng, n, margin=1e-6):
    """Cells in the root cell [margin, pi/2 - margin], of width 1e-12 up to
    the whole root cell; every other one has a term's argument c*x straddle
    pi/2 for some frequency c in (0.5, 2.5)."""
    lo_root, hi_root = margin, HALF_PI - margin
    cells = [Interval(lo_root, hi_root)]
    for i in range(n):
        width = 10.0 ** rng.uniform(-12.0, math.log10(hi_root - lo_root))
        if i % 2:
            centre = (math.pi / 2.0) / rng.uniform(1.0, 2.5)
        else:
            centre = rng.uniform(lo_root, hi_root)
        lo = min(max(centre - rng.uniform(0.0, width), lo_root), hi_root - width)
        cells.append(Interval(lo, lo + width))
    return cells


@pytest.mark.parametrize("family", [TC])
def test_interval_D_bitwise_matches_reference(family):
    """Trig-cos's general form over sec^4, whose frequency 1 - 3/p is -0.5
    at p = 2."""
    rng = random.Random(1729)
    for p in range(2, 65):
        for x in _seeded_cells(rng, 12):
            assert _interval_D(p, x) == _reference_interval_D(family, p, x), (p, x)


@pytest.mark.parametrize("family", [TC])
def test_interval_D_contains_mpmath_D(family):
    rng = random.Random(4096 + family.is_cos)
    for p in [2, 3, 4, 5, 16, 17, 63, 64]:
        for x in _seeded_cells(rng, 3):
            enc = _interval_D(p, x)
            for t in (x.lo, x.mid, x.hi):
                d = mp_D(family, p, t)
                assert enc.lo <= d <= enc.hi, (p, x, t, enc, d)


@pytest.mark.parametrize("family", [TC])
def test_grid_D_lies_in_interval_D(family):
    """Both backends read one table: the float64 D that GRID claims use lies
    inside the interval enclosure of every cell at its lo, mid and hi."""
    rng = random.Random(2718 + family.is_cos)
    for p in range(2, 65):
        for x in _seeded_cells(rng, 6):
            enc = _interval_D(p, x)
            ds = eval_sin_comb(family, p, np.array([x.lo, x.mid, x.hi]), family.is_cos)
            for d in ds:
                assert enc.lo <= d <= enc.hi, (p, x, enc, d)


def _trig_cos_odd_sum_interval_D(p, lo, hi):
    """The trig-cos enclosure by the alternating odd-p sum form, whose
    cancellation leaves deep cells INCONCLUSIVE, as certify._interval_D's
    (lo, hi) -> (lo, hi)."""
    x = Interval(lo, hi)
    terms, factor = sin_comb_form(TC, p, False)
    enc = -x * factor * sin_comb(x, terms)
    return enc.lo, enc.hi


def test_rigorous_worst_x_is_the_cell_of_min_margin(monkeypatch):
    """With several INCONCLUSIVE cells, worst_x names the one whose enclosure
    gave min_margin, not the last one popped (x = 9.239e-6 here).  The
    general form proves this claim in 1 cell, so the proof runs on the odd
    sum form, which leaves cells INCONCLUSIVE."""
    monkeypatch.setattr(certify, "_interval_D", _trig_cos_odd_sum_interval_D)
    cfg = VerificationConfig(mode=Mode.RIGOROUS, interior_margin=1e-6, max_subdivisions=20)
    r = _bisect(63, Sign.NEG, cfg)
    assert r.status is Status.INCONCLUSIVE
    assert r.min_margin == -2.577682467244663e-11
    assert r.worst_x == 4.7450655145523465e-06
    assert r.cells_checked == 109


def _reference_verify_sign_rigorous(family, p, expected_sign, cfg):
    """verify_sign_D's RIGOROUS proof as written before it ran on endpoint
    floats: Interval cells, bisected by Interval.split, over
    `_reference_interval_D`."""
    claim = f"sign-D:{family.value}:p={p}:{expected_sign.name}"
    stack = [(Interval(cfg.interior_margin, HALF_PI - cfg.interior_margin), 0)]
    cells = 0
    min_margin = math.inf
    status = Status.CERTIFIED
    worst_x = math.nan
    while stack:
        cell, depth = stack.pop()
        enc = _reference_interval_D(family, p, cell)
        if expected_sign is Sign.NEG:
            enc = -enc
        if not enc.strictly_positive:
            if enc.strictly_negative:
                return VerificationReport(claim, Status.FALSIFIED, enc.hi, cell.mid, cells + 1, Mode.RIGOROUS)
            if depth < cfg.max_subdivisions:
                left, right = cell.split()
                stack.append((right, depth + 1))
                stack.append((left, depth + 1))
                continue
            status = Status.INCONCLUSIVE
        cells += 1
        if enc.lo < min_margin:
            min_margin, worst_x = enc.lo, cell.mid
    return VerificationReport(claim, status, min_margin, worst_x, cells, Mode.RIGOROUS)


@pytest.mark.parametrize("margin,cap", [(1e-3, 20), (1e-6, 40), (1e-6, 20)])
@pytest.mark.parametrize("family", [TC])
def test_rigorous_reports_bitwise_match_reference_prover(family, margin, cap):
    """Every bisection report of trig-cos, the only family that bisects,
    p = 2..64, is repr-equal to the Interval-cell reference prover's: the
    same cells, verdict, margin and worst x."""
    cfg = VerificationConfig(mode=Mode.RIGOROUS, interior_margin=margin, max_subdivisions=cap)
    for p in range(2, 65):
        sign = expected_sign_D(family, p)
        assert repr(_bisect(p, sign, cfg)) == repr(_reference_verify_sign_rigorous(family, p, sign, cfg))


@pytest.mark.parametrize("entry", ["factor", "weight", "frequency"])
@pytest.mark.parametrize("family,p", [(TC, 2), (TS, 7), (HC, 5), (HS, 4)])
def test_rigorous_nan_in_table_raises(family, p, entry, monkeypatch):
    """A NaN in the float table raises ValueError in the trig-cos bisection,
    as an Interval of it did: min() and max() can drop a NaN, so the float
    path checks lo <= hi itself.  The other families never bisect: their
    RIGOROUS verdicts are read off the exact tables, so with the NaN in the
    float table each claim's report is unchanged."""
    want = [repr(verify_sign_D(family, p, sign, RIGOROUS)) for sign in Sign]
    table = sin_comb_form

    def with_nan(family, p, general):
        terms, factor = table(family, p, general)
        (w, c), rest = terms[-1], terms[:-1]
        if entry == "factor":
            return terms, math.nan
        return (*rest, (math.nan, c) if entry == "weight" else (w, math.nan)), factor

    monkeypatch.setattr(certify, "sin_comb_form", with_nan)
    if family is not TC:
        assert [repr(verify_sign_D(family, p, sign, RIGOROUS)) for sign in Sign] == want
        return
    # a NaN that slipped through would bisect to the cap: keep that quick
    cfg = VerificationConfig(mode=Mode.RIGOROUS, max_subdivisions=3)
    with pytest.raises(ValueError):
        _bisect(p, expected_sign_D(family, p), cfg)


@pytest.mark.parametrize(
    "p,margin,cap,cells",
    [(63, 1e-6, 40, 1), (63, 1e-3, 20, 1), (2, 1e-3, 20, 12)],
)
def test_rigorous_trig_cos_pinned_cell_counts(p, margin, cap, cells):
    """Trig-cos bisections at their pinned cost: the general form's terms keep
    one sign at p >= 3, so p = 63 is one cell; at p = 2 they do not (1 - 3/p < 0)."""
    cfg = VerificationConfig(mode=Mode.RIGOROUS, interior_margin=margin, max_subdivisions=cap)
    r = _bisect(p, expected_sign_D(TC, p), cfg)
    assert r.status is Status.CERTIFIED
    assert r.cells_checked == cells


# --- the termwise route ------------------------------------------------------

TERMWISE = [(family, p) for family in FamilyKind for p in range(2, 65)]


def test_termwise_sign_is_silent_only_at_the_cos_families_p2():
    """Over the 252 claims the lemma gives expected_sign_D's sign, and is
    silent (0) exactly at the cos families' p = 2."""
    silent = [(f, p) for f, p in TERMWISE if termwise_sign(f, p) == 0]
    assert silent == [(TC, 2), (HC, 2)]
    for family, p in TERMWISE:
        if (family, p) not in silent:
            assert termwise_sign(family, p) == expected_sign_D(family, p).value


@pytest.mark.parametrize("family", FamilyKind)
def test_termwise_sign_agrees_with_bisection_and_mpmath(family):
    """Wherever the lemma gives a sign, the exact witness route finds no
    point against it and x = 1/2 against the other sign, and D from the
    definition in 40-digit mpmath has it near both ends of (0, pi/2).  For
    the trig families an interval bisection at margin 1e-3 and depth 20
    certifies that same sign too: trig-cos in the library, on its general
    form; trig-sin, whose general form cancels like x^5 near 0, in the
    reference prover on its parity sums, 63 cells each."""
    for p in range(2, 65):
        sign = termwise_sign(family, p)
        if not sign:
            continue
        witnesses = [derivatives._falsifying_witness(family, p, s) for s in (sign, -sign)]
        assert witnesses == [None, Fraction(1, 2)], p
        if family is TC:
            assert _bisect(p, Sign(sign), RIGOROUS).status is Status.CERTIFIED, p
        elif family is TS:
            assert _reference_verify_sign_rigorous(family, p, Sign(sign), RIGOROUS).status is Status.CERTIFIED, p
        for x in (1e-8, HALF_PI - 1e-8):
            assert sign * mp_D(family, p, x) > 0, (p, x)


def test_termwise_route_reports():
    """A termwise proof reports a bisection that visited no cell; the one
    claim the lemma does not prove and no exact witness falsifies, trig-cos
    p = 2 POS, gets the bisection's own report."""
    r = verify_sign_D(TS, 64, Sign.NEG, RIGOROUS)
    assert r == VerificationReport("sign-D:trig-sin:p=64:NEG", Status.CERTIFIED, math.inf, math.nan, 0, Mode.RIGOROUS)
    assert repr(verify_sign_D(TC, 2, Sign.POS, RIGOROUS)) == repr(_bisect(2, Sign.POS, RIGOROUS))


# the claims at p = 2 of a sign D does not keep on (0, pi/2): hyp-cos's D changes sign
_WRONG_AT_P2 = [(TC, Sign.NEG), (TS, Sign.POS), (HC, Sign.POS), (HC, Sign.NEG), (HS, Sign.POS)]


def test_witness_falsifies_every_wrong_sign_claim_at_p2():
    """Every wrong-sign claim at p = 2 has an exact witness x, where D from
    the definition in 40-digit mpmath has the other sign, and the RIGOROUS
    report names it: FALSIFIED at -inf, worst_x x, one cell.  Trig-cos
    p = 2 POS, which holds, has none."""
    for family, wrong in _WRONG_AT_P2:
        x = derivatives._falsifying_witness(family, 2, wrong.value)
        assert x in (Fraction(1, 2), Fraction(3, 2)) and wrong.value * mp_D(family, 2, float(x)) < 0, (family, wrong)
        if termwise_sign(family, 2) == 0:
            claim = f"sign-D:{family.value}:p=2:{wrong.name}"
            want = VerificationReport(claim, Status.FALSIFIED, -math.inf, float(x), 1, Mode.RIGOROUS)
            assert verify_sign_D(family, 2, wrong, RIGOROUS) == want
    assert derivatives._falsifying_witness(TC, 2, Sign.POS.value) is None


def test_claim_no_exact_route_decides_is_inconclusive_unless_trig_cos(monkeypatch):
    """With no witness found, a hyperbolic claim the lemma leaves open is
    INCONCLUSIVE with no cell, as a family whose lemma fails is, and never
    bisects; trig-cos p = 2 POS bisects as before."""
    monkeypatch.setattr(certify, "_falsifying_witness", lambda family, p, sign: None)
    want = repr(VerificationReport("sign-D:hyp-cos:p=2:POS", Status.INCONCLUSIVE, math.nan, math.nan, 0, Mode.RIGOROUS))
    bisect = certify._verify_sign_rigorous
    monkeypatch.setattr(certify, "_verify_sign_rigorous", _no_bisection)
    assert repr(verify_sign_D(HC, 2, Sign.POS, RIGOROUS)) == want
    monkeypatch.setattr(certify, "_verify_sign_rigorous", bisect)
    assert verify_sign_D(TC, 2, Sign.POS, RIGOROUS).cells_checked == 12


def test_unchecked_sum_table_proves_nothing(mutate_table):
    """A sin family's sum table proves nothing where its lemma fails.  With
    trig-sin's sum table's last weight moved by 1, or its factor negated,
    the general table intact either way, the lemma's base cases fail, so at
    every p the sign claim is INCONCLUSIVE with no cell in either mode,
    where the GRID claim read the negated table and said FALSIFIED at
    -14.44, and monotonicity and the envelope sample f on the grid; hyp-sin,
    whose table is intact, is still proved."""
    for how in (dict(delta=1), dict(factor=-1)):
        mutate_table((TS,), general=False, **how)
        assert not derivatives._sum_form_lemma(TS) and derivatives._sum_form_lemma(HS)
        for p in (40, 2**16 + 1):
            assert termwise_sign(TS, p) == 0
            for cfg in (CFG, RIGOROUS):
                r = verify_sign_D(TS, p, Sign.NEG, cfg)
                claim = f"sign-D:trig-sin:p={p}:NEG"
                assert r == VerificationReport(claim, Status.INCONCLUSIVE, math.nan, math.nan, 0, cfg.mode), how
                assert verify_monotonicity(TS, p, cfg).mode is Mode.GRID
                assert verify_envelope(TS, p, cfg).cells_checked == cfg.grid_points
        r = verify_sign_D(HS, 40, Sign.NEG, RIGOROUS)
        assert r == VerificationReport("sign-D:hyp-sin:p=40:NEG", Status.CERTIFIED, math.inf, math.nan, 0, Mode.RIGOROUS)
        assert verify_monotonicity(HS, 40, CFG).mode is Mode.RIGOROUS


def _sum_rule(eps=lambda family: -1 if family.is_cos else 1, power=3, factor=lambda p: Fraction(2, p**3)):
    """`exact_sin_comb_form` with its sum table built from the rule given:
    terms (eps(family)^((p-1-m)/2) m^power, m/p) over 0 < m < p with
    m = p-1 (mod 2), factor(p); the defaults are the library's rule."""
    table = derivatives.exact_sin_comb_form

    def built(family, p, general):
        if general or (family.is_cos and p % 2 == 0):
            return table(family, p, general)
        terms = tuple((Fraction(eps(family) ** ((p - 1 - m) // 2) * m**power), Fraction(m, p)) for m in range(1 + p % 2, p, 2))
        return terms, factor(p)

    return built


# each rule mutation and the families whose rule it changes
_RULE_MUTATIONS = {
    "eps-flipped": (dict(eps=lambda family: 1), (TC, HC)),
    "m-squared": (dict(power=2), tuple(FamilyKind)),
    "factor-1/p^3": (dict(factor=lambda p: Fraction(1, p**3)), tuple(FamilyKind)),
    "eps-alternating": (dict(eps=lambda family: -1), (TS, HS)),
}


@pytest.mark.parametrize("how", list(_RULE_MUTATIONS))
def test_sum_form_lemma_fails_on_a_mutated_rule(monkeypatch, fresh_caches, how):
    """The lemma checks the sum table's rule, not a table at one p: the
    library's rule, rebuilt, passes for all four families, and each rule
    mutation fails it for every family whose rule it changes: the cos
    families' eps_m made 1 (the sin families' rule), which their base case
    p = 5 sees, the sin families' eps_m made to alternate (the cos
    families' rule), which their base cases p = 4 and 5 see, m^2 in place
    of m^3, and factor 1/p^3.  Then no sign claim
    of the family is a proof, INCONCLUSIVE in either mode with no cell, and
    its monotonicity is sampled; the other families are still proved."""
    monkeypatch.setattr(derivatives, "exact_sin_comb_form", _sum_rule())
    assert all(derivatives._sum_form_lemma(family) for family in FamilyKind)
    rule, mutated = _RULE_MUTATIONS[how]
    monkeypatch.setattr(derivatives, "exact_sin_comb_form", _sum_rule(**rule))
    derivatives._sum_form_lemma.cache_clear()
    derivatives._general_vs_sum.cache_clear()
    termwise_sign.cache_clear()
    for family in FamilyKind:
        assert derivatives._sum_form_lemma(family) is (family not in mutated)
        for p in (5, 64):
            sign = expected_sign_D(family, p)
            for cfg in (CFG, RIGOROUS):
                r = verify_sign_D(family, p, sign, cfg)
                m = verify_monotonicity(family, p, cfg)
                if family in mutated:
                    assert (r.status, r.cells_checked, r.mode) == (Status.INCONCLUSIVE, 0, cfg.mode), r
                    assert m.mode is Mode.GRID
                else:
                    assert r.status is Status.CERTIFIED and m.mode is Mode.RIGOROUS


def test_termwise_sign_reads_no_refused_table(monkeypatch, fresh_caches):
    """The sin families' sign reads no table, at any p: a cold termwise_sign
    at p = 2^16, past it, or at 2^53 builds none for that p, only the
    lemma's base cases build theirs, at p <= 5.  So past MAX_SUM_P = 2^16,
    where the sum table is refused, the RIGOROUS sign claim is the
    termwise proof."""
    built = []
    table = derivatives.exact_sin_comb_form
    monkeypatch.setattr(derivatives, "exact_sin_comb_form", lambda f, p, general: built.append(p) or table(f, p, general))
    for family in (TS, HS):
        assert [termwise_sign(family, p) for p in (2**16, 2**16 + 1, 2**53)] == [-1, -1, -1]
    assert sorted(set(built)) == [2, 3, 4, 5]
    r = verify_sign_D(TS, 2**16 + 1, Sign.NEG, RIGOROUS)
    assert r == VerificationReport("sign-D:trig-sin:p=65537:NEG", Status.CERTIFIED, math.inf, math.nan, 0, Mode.RIGOROUS)


@pytest.mark.parametrize("family,p", [(TC, 3), (TS, 3)])
def test_wrong_sign_claim_still_bisects(family, p):
    """The lemma proves the other sign, so verify_sign_D falsifies the claim
    with no cell; the reference prover's bisection, which no claim reaches
    in the library, still looks at cells and falsifies it too, an
    independent check of the lemma: on trig-cos's general form, and on
    trig-sin's parity sums, since its general form cancels like x^5 near 0."""
    wrong = Sign(-termwise_sign(family, p))
    claim = f"sign-D:{family.value}:p={p}:{wrong.name}"
    want = VerificationReport(claim, Status.FALSIFIED, -math.inf, math.nan, 0, Mode.RIGOROUS)
    assert verify_sign_D(family, p, wrong, RIGOROUS) == want
    _assert_falsified(family, p, wrong, _reference_verify_sign_rigorous(family, p, wrong, RIGOROUS))


_LEMMA_PS = [*range(2, 65), 2**16 + 1, 2**53]


def test_lemma_decides_wrong_sign_claims():
    """Wherever the termwise lemma gives D's sign, a claim of the other sign
    is FALSIFIED with min_margin -inf, worst_x nan and no cell, the mirror of
    the proof's report, and D from the definition in 40-digit mpmath has
    the lemma's sign at x = pi/4; 4 families x p = 2..64, 2^16 + 1, 2^53."""
    for family in FamilyKind:
        for p in _LEMMA_PS:
            sign = termwise_sign(family, p)
            if not sign:
                continue
            wrong = Sign(-sign)
            claim = f"sign-D:{family.value}:p={p}:{wrong.name}"
            want = VerificationReport(claim, Status.FALSIFIED, -math.inf, math.nan, 0, Mode.RIGOROUS)
            assert verify_sign_D(family, p, wrong, RIGOROUS) == want
            assert sign * mp_D(family, p, math.pi / 4) > 0, (family, p)


def test_sign_claims_read_no_sum_table_past_the_lemma(monkeypatch, fresh_caches):
    """No sign claim reads a sum table past the lemma's base cases, p <= 5:
    with every such table made to raise, each claim, 4 families x
    p = 2..64, 2^16 + 1, 2^53 x both signs x both modes, still returns a
    report, the same as with the tables intact.  Once the lemma is proved,
    none reads any sum table: with every one made to raise, each claim
    still returns that report, and `_interval_D` still encloses trig-cos D
    on seeded cells, bitwise the reference's general form."""
    modes = (CFG, RIGOROUS)
    claims = [(family, p, sign, cfg) for family in FamilyKind for p in _LEMMA_PS for sign in Sign for cfg in modes]
    want = [verify_sign_D(*claim) for claim in claims]
    table = derivatives.exact_sin_comb_form

    def guarded(family, p, general):
        if not general and p > 5:
            raise AssertionError(f"sum table read at {family.value}:p={p}")
        return table(family, p, general)

    derivatives.sin_comb_form.cache_clear()
    derivatives.termwise_sign.cache_clear()
    derivatives._falsifying_witness.cache_clear()
    derivatives._sum_form_lemma.cache_clear()
    derivatives._general_vs_sum.cache_clear()
    monkeypatch.setattr(derivatives, "exact_sin_comb_form", guarded)
    assert [repr(verify_sign_D(*claim)) for claim in claims] == [repr(r) for r in want]

    def general_only(family, p, general):
        if not general:
            raise AssertionError(f"sum table read at {family.value}:p={p}")
        return table(family, p, general)

    derivatives.sin_comb_form.cache_clear()
    derivatives.termwise_sign.cache_clear()
    derivatives._falsifying_witness.cache_clear()
    monkeypatch.setattr(derivatives, "exact_sin_comb_form", general_only)
    assert [repr(verify_sign_D(*claim)) for claim in claims] == [repr(r) for r in want]
    rng = random.Random(31)
    for p in (2, 3, 4, 5, 64):
        for x in _seeded_cells(rng, 4):
            assert _interval_D(p, x) == _reference_interval_D(TC, p, x), (p, x)
