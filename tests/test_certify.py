"""Tests for the verification engine: both modes, all claim kinds, mutations."""

import dataclasses
import math

import pytest

from trigratio.certify import (
    Mode,
    ModeError,
    Sign,
    Status,
    VerificationConfig,
    VerificationReport,
    expected_sign_D,
    verify_envelope,
    verify_identities,
    verify_monotonicity,
    verify_sign_D,
)
from trigratio.derivatives import d_general, d_sum, general_weights
from trigratio.envelopes import envelope_constants
from trigratio.families import FamilyKind, HALF_PI, ParameterError

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)

CFG = VerificationConfig()
RIGOROUS = VerificationConfig(mode=Mode.RIGOROUS)


def test_config_validation():
    with pytest.raises(ParameterError):
        VerificationConfig(grid_points=8)
    with pytest.raises(ParameterError):
        VerificationConfig(interior_margin=0.0)
    with pytest.raises(ParameterError):
        VerificationConfig(interior_margin=1.0)


def test_expected_signs():
    assert expected_sign_D(TC, 2) is Sign.POS
    assert expected_sign_D(HC, 2) is Sign.POS
    assert expected_sign_D(TC, 3) is Sign.NEG
    assert expected_sign_D(TS, 2) is Sign.NEG
    assert expected_sign_D(HS, 2) is Sign.NEG


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
    # the margin is -D at the worst point, by closed form; no difference
    # stencil, so a tiny interior margin is fine
    cfg = VerificationConfig(interior_margin=1e-6)
    r = verify_sign_D(HS, 5, Sign.NEG, cfg)
    assert r.status is Status.CERTIFIED
    assert r.min_margin == -d_sum(HS, 5, r.worst_x)


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


def test_rigorous_rejects_hyperbolic():
    with pytest.raises(ModeError):
        verify_sign_D(HS, 2, Sign.NEG, RIGOROUS)


def test_rigorous_inconclusive_at_zero_depth():
    # with no subdivisions allowed, the single whole-interval enclosure of
    # the p = 2 cos form straddles zero and the claim cannot resolve
    cfg = dataclasses.replace(RIGOROUS, max_subdivisions=0)
    r = verify_sign_D(TC, 2, Sign.POS, cfg)
    assert r.status is Status.INCONCLUSIVE


def test_rigorous_falsifies_wrong_sign():
    r = verify_sign_D(TS, 3, Sign.POS, RIGOROUS)
    assert r.status in (Status.FALSIFIED, Status.INCONCLUSIVE)
    # on a grid the wrong sign is flatly falsified
    assert verify_sign_D(TS, 3, Sign.POS, CFG).status is Status.FALSIFIED


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


def test_identities_mutation_falsifies():
    """Perturbing the +-23 bracket coefficient must break form agreement."""

    def mutated(family, p, x, *, weights=None):
        w = list(general_weights(family, float(p)))
        w[3] = w[3] + (1.0 if w[3] > 0 else -1.0)  # 23 -> 24 in magnitude
        return d_general(family, p, x, weights=tuple(w))

    reports = {r.claim_id: r for r in verify_identities(CFG, d_general_fn=mutated)}
    assert reports["identity:general-vs-even-sum"].status is Status.FALSIFIED
    assert reports["identity:general-vs-odd-sum"].status is Status.FALSIFIED
    # identities not touching d_general stay green
    assert reports["identity:dirichlet-sum"].status is Status.CERTIFIED


def test_report_shape():
    r = verify_envelope(TS, 2, CFG)
    assert isinstance(r, VerificationReport)
    assert r.cells_checked == CFG.grid_points
    assert math.isfinite(r.worst_x)
