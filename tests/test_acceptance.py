"""Acceptance gate: the seven headline criteria, one pass/fail line each.

Each criterion prints `[PASS] criterion N: ...` on success; a failure
raises and pytest reports the criterion that broke.  Runtime budgets are
asserted with perf_counter.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from mp_oracle import mp_D

from trigratio.certify import (
    Mode,
    Sign,
    Status,
    VerificationConfig,
    expected_sign_D,
    verify_envelope,
    verify_identities,
    verify_monotonicity,
    verify_sign_D,
)
from trigratio.chebyshev import cheb_u, cheb_u_eval, corollary_bounds
from trigratio.derivatives import (
    d_general,
    dirichlet_sum,
    vanishing_limits_check,
)
from trigratio.envelopes import envelope_constants
from trigratio.families import FamilyKind, HALF_PI

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)
CFG = VerificationConfig()


class _Budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.2f}s over budget"
            print(f"[PASS] {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_1_theorem1_constants():
    with _Budget("criterion 1: p=2 constants and envelopes", 1.0):
        ec_c = envelope_constants(TC, 2)
        assert ec_c.lower == 0.375
        assert ec_c.upper == 4.0 / math.pi**2
        ec_s = envelope_constants(TS, 2)
        assert ec_s.lower == (4.0 / math.pi**2) * (2.0 - 1.0 / math.sin(math.pi / 4.0))
        assert ec_s.upper == 0.25
        for family in (TC, TS):
            r = verify_envelope(family, 2, CFG)
            assert r.status is Status.CERTIFIED and r.min_margin > 0.0


def test_criterion_2_theorem2_sweep():
    with _Budget("criterion 2: trig sweep p=3..16 + rigorous signs p=3..8", 30.0):
        for family in (TC, TS):
            for p in range(3, 17):
                assert verify_envelope(family, p, CFG).status is Status.CERTIFIED
                assert verify_monotonicity(family, p, CFG).status is Status.CERTIFIED
        rigorous = VerificationConfig(mode=Mode.RIGOROUS, max_subdivisions=20)
        for family in (TC, TS):
            for p in range(3, 9):
                r = verify_sign_D(family, p, expected_sign_D(family, p), rigorous)
                assert r.status is Status.CERTIFIED, (family, p)


def test_criterion_3_hyperbolic_sweep():
    with _Budget("criterion 3: hyperbolic sweep p=2..16", 30.0):
        for family in (HC, HS):
            for p in range(2, 17):
                assert verify_envelope(family, p, CFG).status is Status.CERTIFIED
                assert verify_monotonicity(family, p, CFG).status is Status.CERTIFIED
        # sign claims via the x -> ix closed forms of D, the same GRID path
        # as the trigonometric families (strictly signed at every grid point)
        for family, p_lo in ((HC, 3), (HS, 2)):
            for p in range(p_lo, 17):
                r = verify_sign_D(family, p, Sign.NEG, CFG)
                assert r.status is Status.CERTIFIED, (family, p)


def test_criterion_4_lemma_identity_suite():
    with _Budget("criterion 4: identity suite", 10.0):
        reports = {r.claim_id: r for r in verify_identities(CFG)}
        for claim in (
            "identity:general-vs-even-sum",
            "identity:general-vs-odd-sum",
            "identity:dirichlet-sum",
            "identity:vanishing-limits",
            "identity:chebyshev-trig",
        ):
            assert reports[claim].status is Status.CERTIFIED, claim
        xs = np.linspace(0.05, HALF_PI - 0.05, 40)
        for p in (2, 2.5, 3, 4, 7, -2):
            for family in (TC, TS):
                reference = np.array([float(mp_D(family, p, x)) for x in xs.tolist()])
                assert np.max(np.abs(reference - d_general(family, p, xs))) < 1e-13, (family, p)
        for k in range(1, 11):
            for x in np.linspace(0.01, math.pi - 0.01, 100):
                a, b = dirichlet_sum(k, float(x))
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b))
        for family in FamilyKind:
            for p in range(2, 9):
                l1, l2 = vanishing_limits_check(family, p)
                assert abs(l1) < 1e-8 and abs(l2) < 1e-8


def test_criterion_5_example_reproduction():
    with _Budget("criterion 5: worked example", 1.0):
        value = 196.0 * (7.0 - 1.0 / math.sin(math.pi / 14.0)) / math.pi**2
        assert value == pytest.approx(49.7673, abs=5e-5)
        for y in np.linspace(1e-3, math.pi / 14.0 - 1e-3, 200):
            lo, hi = corollary_bounds(7, float(y))
            assert lo < cheb_u_eval(6, math.cos(float(y))) < hi
        u6 = cheb_u_eval(6, math.cos(0.1))
        assert 6.44 < u6 < 6.502327


def test_criterion_6_chebyshev_identity():
    with _Budget("criterion 6: Chebyshev identity and tables", 1.0):
        thetas = np.linspace(0.01, math.pi - 0.01, 100)
        for n in range(0, 31):
            for t in thetas:
                err = abs(cheb_u_eval(n, math.cos(t)) * math.sin(t) - math.sin((n + 1) * t))
                assert err < 1e-11
        tables = {
            0: (1,),
            1: (0, 2),
            2: (-1, 0, 4),
            3: (0, -4, 0, 8),
            4: (1, 0, -12, 0, 16),
            5: (0, 6, 0, -32, 0, 32),
            6: (-1, 0, 24, 0, -80, 0, 64),
        }
        for n, coeffs in tables.items():
            assert cheb_u(n).coeffs == coeffs


def test_criterion_7_mutation_sensitivity(mutate_table):
    with _Budget("criterion 7: mutation sensitivity", 10.0):
        mutate_table(tuple(FamilyKind), delta=1)  # the top-frequency weight, 1 further from 0
        reports = {r.claim_id: r for r in verify_identities(CFG)}
        assert reports["identity:general-vs-even-sum"].status is Status.FALSIFIED
        assert reports["identity:general-vs-odd-sum"].status is Status.FALSIFIED

        ec = envelope_constants(TC, 3)
        swapped = dataclasses.replace(ec, lower=ec.upper, upper=ec.lower)
        assert verify_envelope(TC, 3, CFG, constants=swapped).status is Status.FALSIFIED
