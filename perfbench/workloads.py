"""The four workloads: seeded inputs, one timed round, and the gate that
checks the round's answers.

Each workload builds all of its inputs from the seed in `__init__`, before
the library sees anything, and hashes them into `digest`.  `round(tracer,
tick)` runs the inputs once through the public API (with `tracer` None, or
a `tracing.Tracer` in the traced run), calls `tick` between ops (the speed
probe of speed.py; its time is left out of the round's wall time) and
returns the answers untouched;
`check(result)` compares them with the expectations afterwards, so no
checking happens inside the timed region.  `finish()` runs the checks that
need mpmath, once per run, and returns the number of mismatches.

All x inputs lie in [1e-3, pi/2 - 1e-3], the interior margin the library's
own campaigns use: below it the strict envelope inequalities are not
resolvable in double precision (f(x) rounds to its limit at 0).
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import types
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

import oracle
from oracle import FAMILIES, TRIG, TOL, expected_status, paper_sign, sign_claim
from tracing import direct

HALF_PI = math.pi / 2.0
X_LO, X_HI = 1e-3, HALF_PI - 1e-3
SERIES_HI = 0.15  # eval_f switches to the series branch below this (sin-type)
P_RANGE = range(2, 17)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def sample_x(rng, n: int) -> np.ndarray:
    """Three quarters uniform on [X_LO, X_HI], one quarter log-uniform on
    [X_LO, SERIES_HI] so the series branch is well covered."""
    k = n // 4
    xs = np.concatenate(
        [rng.uniform(X_LO, X_HI, n - k), np.exp(rng.uniform(math.log(X_LO), math.log(SERIES_HI), k))]
    )
    return xs[rng.permutation(n)]


def make_api(tr, **overrides):
    """The library's public functions, with optional substitutes.

    The self-check passes substitutes that give wrong answers, to show the
    gates catch them."""
    api = types.SimpleNamespace(**{name: getattr(tr, name) for name in tr.__all__})
    api.__dict__.update(overrides)
    return api


def no_probe() -> int:
    return 0


@dataclass
class RoundResult:
    ops: int
    wall_ns: int
    lat_ns: list
    answers: list = field(repr=False)
    # per op, the index of the speed probe taken right after it, or -1 for
    # an op that is not scaled; None: op i is followed by probe i
    probe_after: list | None = None


# --- sweep -------------------------------------------------------------------


class Sweep:
    """Every claim of the paper for all 4 families x p = 2..16, in seeded order."""

    name = "sweep"
    min_rounds = 3
    probe = "numeric"  # most of a round is numeric_D on longdouble grids

    def __init__(self, tr, seed, ctx, api=None):
        self.tr, self.api = tr, api or make_api(tr)
        claims = [("identities", None, 0)]
        for fam in FAMILIES:
            for p in P_RANGE:
                claims += [("envelope", fam, p), ("monotone", fam, p), ("sign_grid", fam, p)]
                if fam in TRIG:
                    claims.append(("sign_rigorous", fam, p))
        rng = np.random.default_rng(seed)
        self.claims = [claims[i] for i in rng.permutation(len(claims))]
        self.digest = digest(self.claims)
        self.n_claims = len(claims) - 1 + len(IDENTITIES)
        self.grid = tr.VerificationConfig(mode=tr.Mode.GRID)
        self.rigorous = tr.VerificationConfig(mode=tr.Mode.RIGOROUS)

    def _invoke(self, call, kind, fam, p):
        api, tr = self.api, self.tr
        if kind == "identities":
            return call("certify.verify_identities", api.verify_identities, self.grid)
        family = tr.FamilyKind(fam)
        if kind == "envelope":
            return [call("certify.verify_envelope", api.verify_envelope, family, p, self.grid)]
        if kind == "monotone":
            return [call("certify.verify_monotonicity", api.verify_monotonicity, family, p, self.grid)]
        sign = tr.Sign(paper_sign(fam, p))
        if kind == "sign_rigorous":
            return [call("certify.verify_sign_D.rigorous", api.verify_sign_D, family, p, sign, self.rigorous)]
        span = "certify.verify_sign_D.grid_trig" if fam in TRIG else "certify.verify_sign_D.grid_hyp"
        return [call(span, api.verify_sign_D, family, p, sign, self.grid)]

    def round(self, tracer=None, tick=no_probe) -> RoundResult:
        call = tracer.call if tracer else direct
        lat, answers, paused = [], [], 0
        start = perf_counter_ns()
        for kind, fam, p in self.claims:
            t0 = perf_counter_ns()
            try:
                reports = self._invoke(call, kind, fam, p)
            except Exception as exc:  # a claim that raises is a failed op, not the end of the run
                reports = exc
            lat.append(perf_counter_ns() - t0)
            answers.append(reports)
            paused += tick()
        wall = perf_counter_ns() - start - paused
        return RoundResult(self.n_claims, wall, lat, answers)

    def check(self, result: RoundResult) -> int:
        failed = 0
        for (kind, fam, p), reports in zip(self.claims, result.answers):
            if isinstance(reports, Exception):
                failed += report_exception(reports, len(IDENTITIES) if kind == "identities" else 1)
                continue
            if kind == "identities":
                names = {r.claim_id for r in reports}
                missing = IDENTITIES - names
                failed += len(missing)
                failed += sum(r.status.value != "certified" for r in reports)
                continue
            (r,) = reports
            expected_id = {
                "envelope": f"envelope:{fam}:p={p}",
                "monotone": f"monotone:{fam}:p={p}",
            }.get(kind, sign_claim(fam, p))
            mode = "rigorous" if kind == "sign_rigorous" else "grid"
            failed += r.claim_id != expected_id or r.status.value != expected_status(expected_id, mode)
        return failed

    def finish(self) -> int:
        return 0


IDENTITIES = {
    "identity:general-vs-even-sum",
    "identity:general-vs-odd-sum",
    "identity:dirichlet-sum",
    "identity:vanishing-limits",
    "identity:chebyshev-trig",
}


# --- rigorous ------------------------------------------------------------------


class Rigorous:
    """Interval sign proofs for the trig families at p = 2..64, at the default
    margin and again near the edge (margin 1e-6, 40 bisections allowed).

    At the default cap of 20 bisections the near-edge pass leaves 27 of the
    63 trig-cos claims INCONCLUSIVE; with 40 every claim certifies, so every
    expected verdict is definite."""

    name = "rigorous"
    min_rounds = 3
    probe = "interpreted"
    PASSES = ((1e-3, 20), (1e-6, 40))

    def __init__(self, tr, seed, ctx, api=None):
        self.tr, self.api = tr, api or make_api(tr)
        claims = [(m, cap, fam, p) for m, cap in self.PASSES for fam in TRIG for p in range(2, 65)]
        rng = np.random.default_rng(seed)
        self.claims = [claims[i] for i in rng.permutation(len(claims))]
        self.digest = digest(self.claims)
        self.configs = {
            (m, cap): tr.VerificationConfig(mode=tr.Mode.RIGOROUS, interior_margin=m, max_subdivisions=cap)
            for m, cap in self.PASSES
        }
        self.cells: list[list[int]] = []

    def round(self, tracer=None, tick=no_probe) -> RoundResult:
        call = tracer.call if tracer else direct
        tr, api = self.tr, self.api
        lat, answers, paused = [], [], 0
        start = perf_counter_ns()
        for m, cap, fam, p in self.claims:
            t0 = perf_counter_ns()
            try:
                r = call("certify.verify_sign_D.rigorous", api.verify_sign_D,
                         tr.FamilyKind(fam), p, tr.Sign(paper_sign(fam, p)), self.configs[m, cap])
            except Exception as exc:
                r = exc
            lat.append(perf_counter_ns() - t0)
            answers.append(r)
            paused += tick()
        wall = perf_counter_ns() - start - paused
        return RoundResult(len(answers), wall, lat, answers)

    def check(self, result: RoundResult) -> int:
        failed = 0
        for (m, cap, fam, p), r in zip(self.claims, result.answers):
            if isinstance(r, Exception):
                failed += report_exception(r, 1)
                continue
            claim = sign_claim(fam, p)
            failed += r.claim_id != claim or r.status.value != expected_status(claim, "rigorous")
        self.cells.append([getattr(r, "cells_checked", 0) for r in result.answers])
        return failed

    def finish(self) -> int:
        # the cell counts are a property of the proofs, not of the order: every
        # round must have needed exactly the same cells
        totals = {sum(c) for c in self.cells}
        return int(len(totals) > 1)


# --- evaluate ----------------------------------------------------------------

SCALAR_FNS = ("eval_f", "eval_ratio", "ratio_bounds", "corollary_bounds", "cheb_u_eval", "envelope_constants")
SCALAR_MODULE = {
    "eval_f": "families",
    "eval_ratio": "families",
    "ratio_bounds": "envelopes",
    "envelope_constants": "envelopes",
    "corollary_bounds": "chebyshev",
    "cheb_u_eval": "chebyshev",
}


class Evaluate:
    """One seeded stream of scalar calls into the evaluation API, with eight
    bulk calls on 2^20-point arrays at evenly spaced places in it.

    The bulk calls' times are left unscaled by the speed probe: ufuncs over
    2^20 points hardly slow in the host's slow phases, so scaling them by a
    probe that does would only add its swings."""

    name = "evaluate"
    min_rounds = 3
    probe = "interpreted"  # the scalar calls; the bulk calls are not scaled
    N_SCALAR = 200_000
    N_BULK = 1 << 20
    N_ORACLE = 100  # oracle-checked calls per scalar function, and points per bulk call
    PROBE_EVERY = 500  # scalar calls between two speed probes

    def __init__(self, tr, seed, ctx, api=None):
        self.tr, self.api = tr, api or make_api(tr)
        rng = np.random.default_rng(seed)
        n = self.N_SCALAR
        self.kind = rng.integers(0, len(SCALAR_FNS), n)
        self.fam = rng.integers(0, 4, n)
        self.p = rng.integers(2, 17, n)
        self.x = sample_x(rng, n)
        self.y = self.x / self.p  # corollary argument, in (0, pi/(2p))
        self.t = np.cos(self.y)  # Chebyshev argument, U_{p-1}(cos y)
        bulk = [("eval_f_grid", fam, int(rng.integers(2, 17))) for fam in FAMILIES]
        for fam in TRIG:
            bulk.append(("d_general", fam, int(rng.integers(2, 17))))
        bulk.append(("d_sum", "trig-cos", int(rng.choice(np.arange(3, 17, 2)))))  # cos sum form: odd p
        bulk.append(("d_sum", "trig-sin", int(rng.integers(2, 17))))
        self.bulk = [(fn, fam, p, sample_x(rng, self.N_BULK)) for fn, fam, p in bulk]
        # Evenly spaced and in a fixed order, so the memory held when each
        # bulk call runs (and so the peak RSS) is the same for every seed.
        self.cuts = [(i + 1) * n // (len(bulk) + 1) for i in range(len(bulk))]
        self.oracle_idx = [
            rng.choice(np.flatnonzero(self.kind == k), self.N_ORACLE, replace=False) for k in range(len(SCALAR_FNS))
        ]
        self.bulk_idx = [rng.choice(self.N_BULK, self.N_ORACLE, replace=False) for _ in self.bulk]
        self.digest = digest(self.kind, self.fam, self.p, self.x,
                             [(fn, fam, p) for fn, fam, p, _ in self.bulk], *[xs for *_, xs in self.bulk])
        fams = [tr.FamilyKind(f) for f in FAMILIES]
        self.args = []
        for k, f, p, x, y, t in zip(self.kind.tolist(), self.fam.tolist(), self.p.tolist(),
                                    self.x.tolist(), self.y.tolist(), self.t.tolist()):
            self.args.append(
                (fams[f], p, x) if k < 3 else (p, y) if k == 3 else (p - 1, t) if k == 4 else (fams[f], p)
            )
        self.ops = n + len(self.bulk) * self.N_BULK
        self.samples: list = []  # per round: scalar answers and bulk values at the oracle points

    def round(self, tracer=None, tick=no_probe) -> RoundResult:
        call = tracer.call if tracer else direct
        api, tr = self.api, self.tr
        fns = [getattr(api, name) for name in SCALAR_FNS]
        if tracer:
            fns = [tracer.wrap(f"{SCALAR_MODULE[name]}.{name}", fn) for name, fn in zip(SCALAR_FNS, fns)]
        kinds, args = self.kind.tolist(), self.args
        lat, answers, bulk_out, after, paused, probes = [], [], [], [], 0, 0
        bounds = [0, *self.cuts, len(args)]
        start = perf_counter_ns()
        for seg in range(len(bounds) - 1):
            for i in range(bounds[seg], bounds[seg + 1]):
                fn = fns[kinds[i]]
                t0 = perf_counter_ns()
                try:
                    r = fn(*args[i])
                except Exception as exc:
                    r = exc
                lat.append(perf_counter_ns() - t0)
                answers.append(r)
                after.append(probes)
                if i % self.PROBE_EVERY == 0:
                    paused += tick()
                    probes += 1
            if seg < len(self.bulk):
                fn, fam, p, xs = self.bulk[seg]
                module = "families" if fn == "eval_f_grid" else "derivatives"
                t0 = perf_counter_ns()
                try:
                    out = call(f"{module}.{fn}", getattr(api, fn), tr.FamilyKind(fam), p, xs)
                except Exception as exc:
                    out = exc
                lat.append(perf_counter_ns() - t0)
                after.append(-1)
                bulk_out.append(out)
                paused += tick()
                probes += 1
        wall = perf_counter_ns() - start - paused
        return RoundResult(self.ops, wall, lat, [answers, bulk_out], after)

    def _constants(self):
        tr = self.tr
        lower = np.empty((4, 17))
        upper = np.empty((4, 17))
        for i, fam in enumerate(FAMILIES):
            for p in P_RANGE:
                ec = tr.envelope_constants(tr.FamilyKind(fam), p)
                lower[i, p], upper[i, p] = ec.lower, ec.upper
        return lower, upper

    def check(self, result: RoundResult) -> int:
        """Strict envelope and corollary inequalities on every answer, the
        paper's sign of D on every bulk point, and consistency with the
        reference formulas at an explicit tolerance."""
        answers, bulk_out = result.answers
        lower, upper = self._constants()
        k, f, p, x, y = self.kind, self.fam, self.p, self.x, self.y
        lo_c, up_c = lower[f, p], upper[f, p]
        a = np.where(f % 2 == 0, 1.0, p)  # cos families: ratio -> 1; sin families: -> p
        fam_fn = [np.cos, np.sin, np.cosh, np.sinh]
        ratio = np.empty_like(x)
        for i, fn in enumerate(fam_fn):
            m = f == i
            ratio[m] = fn(x[m]) / fn(x[m] / p[m])
        u = np.sin(p * y) / np.sin(y)  # U_{p-1}(cos y)
        v0 = np.full(len(answers), np.nan)
        v1 = np.full(len(answers), np.nan)
        raised = []
        for i, r in enumerate(answers):  # an exception leaves NaN, which fails every test
            if isinstance(r, tuple):
                v0[i], v1[i] = r
            elif isinstance(r, float):
                v0[i] = r
            elif isinstance(r, Exception):
                raised.append(r)
            else:
                v0[i], v1[i] = r.lower, r.upper
        if raised:
            report_exception(raised[0], 0, f" (and {len(raised) - 1} more)")
        ok = np.ones(len(answers), dtype=bool)
        for kind, name in enumerate(SCALAR_FNS):
            m = k == kind
            if name == "eval_f":
                good = (lo_c < v0) & (v0 < up_c)
            elif name == "eval_ratio":
                good = (a - up_c * x * x < v0) & (v0 < a - lo_c * x * x) & self._near(v0, ratio, TOL[name])
            elif name == "ratio_bounds":
                good = (v0 < ratio) & (ratio < v1) & self._near(v0, a - up_c * x * x, TOL[name]) \
                    & self._near(v1, a - lo_c * x * x, TOL[name])
            elif name == "corollary_bounds":
                xx = p * y  # the sin-family envelope at x = p*y
                sin_lo, sin_up = lower[1, p], upper[1, p]
                good = (v0 < u) & (u < v1) & self._near(v0, p - sin_up * xx * xx, TOL[name]) \
                    & self._near(v1, p - sin_lo * xx * xx, TOL[name])
            elif name == "cheb_u_eval":
                good = self._near(v0, u, TOL[name])
            else:
                good = (v0 == lo_c) & (v1 == up_c)
            ok[m] = good[m]
        failed = int(np.count_nonzero(~ok))
        for j, out in enumerate(bulk_out):
            if isinstance(out, Exception):  # NaN fails every test below
                report_exception(out, 0)
                bulk_out[j] = np.full(self.N_BULK, np.nan)
        for (fn, fam, pp, xs), out in zip(self.bulk, bulk_out):
            if fn == "eval_f_grid":
                i = FAMILIES.index(fam)
                good = (lower[i, pp] < out) & (out < upper[i, pp])
            else:
                good = np.sign(out) == paper_sign(fam, pp)
            failed += int(np.count_nonzero(~good))
        self.samples.append(
            ([[_plain(answers[i]) for i in idx.tolist()] for idx in self.oracle_idx],
             [out[idx].tolist() for out, idx in zip(bulk_out, self.bulk_idx)])
        )
        return failed

    @staticmethod
    def _near(got, ref, tol):
        return np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref))

    def finish(self) -> int:
        """Every round must give the same answers at the oracle points, and
        those answers must match mpmath at 50 digits."""
        first = self.samples[0]
        failed = sum(s != first for s in self.samples[1:])
        with oracle.precision():
            return failed + self._against_oracle(*first)

    def _against_oracle(self, scalar, bulk) -> int:
        failed = 0
        self.worst = {}
        for kind, (name, idx) in enumerate(zip(SCALAR_FNS, self.oracle_idx)):
            for i, got in zip(idx.tolist(), scalar[kind]):
                fam, p = FAMILIES[self.fam[i]], int(self.p[i])
                x, y = float(self.x[i]), float(self.y[i])
                if name == "eval_f":
                    pairs = [(got, oracle.f_exact(fam, p, x))]
                elif name == "eval_ratio":
                    pairs = [(got, oracle.ratio_exact(fam, p, x))]
                elif name in ("ratio_bounds", "corollary_bounds"):
                    if name == "corollary_bounds":
                        fam, x = "trig-sin", p * y
                    lo, hi, _ = oracle.envelope_exact(fam, p)
                    a = 1 if fam.endswith("cos") else p
                    pairs = [(got[0], a - hi * x * x), (got[1], a - lo * x * x)]
                elif name == "cheb_u_eval":
                    pairs = [(got, oracle.cheb_exact(p - 1, float(self.t[i])))]
                else:
                    lo, hi, increasing = oracle.envelope_exact(fam, p)
                    pairs = [(got[0], lo), (got[1], hi)]
                    failed += (got[2] == "increasing") != increasing
                failed += self._score(name, pairs)
        for (fn, fam, p, xs), idx, got in zip(self.bulk, self.bulk_idx, bulk):
            exact = oracle.f_exact if fn == "eval_f_grid" else oracle.D_exact
            failed += self._score(fn, [(g, exact(fam, p, float(xs[i]))) for i, g in zip(idx.tolist(), got)])
        return failed

    def _score(self, name, pairs) -> int:
        bad = 0
        for got, exact in pairs:
            err = abs(got - float(exact)) / max(1.0, abs(float(exact)))
            self.worst[name] = max(self.worst.get(name, 0.0), err)
            bad += not oracle.close(got, exact, TOL[name])
        return bad


def report_exception(exc, count, more=""):
    """Print a failed op's exception; returns the ops it counts as failed."""
    print(f"op raised {type(exc).__name__}: {exc}{more}", file=sys.stderr)
    return count


def _plain(r):
    if hasattr(r, "direction"):
        return (r.lower, r.upper, r.direction.value)
    return r


# --- cli ------------------------------------------------------------------------

CYCLE = ["eval"] * 5 + ["bounds"] * 4 + ["cheb"] * 5 + ["verify-grid-trig"] * 2 + ["verify-rigorous"] \
    + ["verify-grid-hyp"] * 2 + ["table"]
TABLE_POINTS = 50_000
CHILD_TIMEOUT_S = 60


def spawn(args, ctx):
    """Run `python <args>` in the checkout; returns (exit code, stdout,
    stderr, peak RSS of that one child in KiB).

    os.wait4 reaps the child so its own rusage is read; a watchdog kills a
    child that hangs, so the benchmark always ends."""
    err_path = os.path.join(ctx.out_dir, "stderr.txt")
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen([sys.executable, *args], cwd=ctx.root, env=ctx.env,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        err.seek(0)
        return proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss


class Cli:
    """Closed-loop CLI invocations, one at a time, in cycles of 20 with a
    fixed mix; parameters are seeded.  The mix puts the two grid verifies of
    hyperbolic families (the numeric_D path) at the 85th-95th percentile of
    cost, so p90 sits inside one kind of call."""

    name = "cli"
    min_rounds = 5  # 100 invocations
    probe = "interpreted"
    max_rounds = 16

    def __init__(self, tr, seed, ctx, api=None):
        self.tr, self.api = tr, api or make_api(tr)
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        self.table = (FAMILIES[int(rng.integers(0, 4))], int(rng.integers(2, 17)))
        self.cycles = []
        for _ in range(self.max_rounds):
            verbs = [CYCLE[i] for i in rng.permutation(len(CYCLE))]
            self.cycles.append([self._op(rng, verb) for verb in verbs])
        self.digest = digest(self.cycles)
        self.child_rss_kb: list[int] = []
        self.tables: list[bytes] = []
        self.seen = 0

    def _op(self, rng, verb):
        fam = FAMILIES[int(rng.integers(0, 4))]
        p = int(rng.integers(2, 17))
        x = float(sample_x(rng, 1)[0])
        if verb == "eval":
            xs = f"pi/{int(rng.integers(3, 13))}" if rng.random() < 0.2 else repr(x)
            return ("eval", ["eval", "--family", fam, "--p", str(p), "--x", xs])
        if verb == "bounds":
            return ("bounds", ["bounds", "--family", fam, "--p", str(p)])
        if verb == "cheb":
            if rng.random() < 0.5:
                return ("cheb", ["cheb", "--n", str(p - 1), "--t", repr(math.cos(x / p))])
            return ("cheb", ["cheb", "--p", str(p), "--y", repr(x / p)])
        if verb == "table":
            fam, p = self.table
            path = os.path.join(self.ctx.out_dir, "table.csv")  # one per cycle, checked before the next
            return ("table", ["table", "--family", fam, "--p", str(p), "--points", str(TABLE_POINTS), "--out", path])
        if verb == "verify-grid-hyp":
            fam = FAMILIES[2 + int(rng.integers(0, 2))]
        else:
            fam = TRIG[int(rng.integers(0, 2))]
        argv = ["verify", "--family", fam, "--p", str(p)]
        return ("verify", argv + ["--mode", "rigorous"] if verb == "verify-rigorous" else argv)

    def invoke(self, argv):
        return spawn(["-m", "trigratio.cli", *argv], self.ctx)

    def round(self, tracer=None, tick=no_probe) -> RoundResult:
        call = tracer.call if tracer else direct
        ops = self.cycles[self.seen % self.max_rounds]
        self.seen += 1
        lat, answers, paused = [], [], 0
        start = perf_counter_ns()
        for verb, argv in ops:
            t0 = perf_counter_ns()
            answers.append(call(f"cli.{verb}", self.invoke, argv))
            lat.append(perf_counter_ns() - t0)
            paused += tick()
        wall = perf_counter_ns() - start - paused
        return RoundResult(len(ops), wall, lat, [ops, answers])

    def check(self, result: RoundResult) -> int:
        ops, answers = result.answers
        failed = 0
        for (verb, argv), (code, out, err, rss) in zip(ops, answers):
            self.child_rss_kb.append(rss)
            try:
                good = getattr(self, f"_check_{verb}")(dict(zip(argv[1::2], argv[2::2])), code, out)
            except (ValueError, KeyError, IndexError, AttributeError):
                good = False
            if not good:
                print(f"cli mismatch: {' '.join(argv)} -> exit {code}\n{out}{err}", file=sys.stderr)
            failed += not good
        return failed

    # Each checker gets the options, the exit code and stdout, and compares
    # the printed numbers with the library called in this process.

    def _fields(self, out):
        return dict(re.findall(r"([A-Za-z_]\w*)=(\S+)", out))

    def _family(self, opts):
        return self.tr.FamilyKind(opts["--family"]), int(opts["--p"])

    def _check_eval(self, opts, code, out):
        api = self.api
        family, p = self._family(opts)
        text = opts["--x"]
        x = math.pi / int(text[3:]) if text.startswith("pi/") else float(text)
        v = self._fields(out)
        ec = api.envelope_constants(family, p)
        f = float(v["f"])
        return (code == 0 and f == api.eval_f(family, p, x) and float(v["ratio"]) == api.eval_ratio(family, p, x)
                and float(v["lower"]) == ec.lower and float(v["upper"]) == ec.upper
                and v["direction"] == ec.direction.value and ec.lower < f < ec.upper)

    def _check_bounds(self, opts, code, out):
        family, p = self._family(opts)
        v = self._fields(out)
        ec = self.api.envelope_constants(family, p)
        return (code == 0 and float(v["lower"]) == ec.lower and float(v["upper"]) == ec.upper
                and v["direction"] == ec.direction.value)

    def _check_cheb(self, opts, code, out):
        api = self.api
        if "--n" in opts:
            n, t = int(opts["--n"]), float(opts["--t"])
            m = re.match(r"U_(\d+)\((\S+)\) = (\S+)$", out.strip())
            return code == 0 and int(m[1]) == n and float(m[3]) == api.cheb_u_eval(n, t)
        p, y = int(opts["--p"]), float(opts["--y"])
        v = self._fields(out)
        lo, hi = api.corollary_bounds(p, y)
        value = float(v["value"])
        return (code == 0 and float(v["lo"]) == lo and float(v["hi"]) == hi
                and value == api.cheb_u_eval(p - 1, math.cos(y)) and lo < value < hi)

    def _check_verify(self, opts, code, out):
        fam, p = opts["--family"], int(opts["--p"])
        mode = opts.get("--mode", "grid")
        wanted = [(f"envelope:{fam}:p={p}", "grid"), (f"monotone:{fam}:p={p}", "grid"), (sign_claim(fam, p), mode)]
        lines = out.strip().splitlines()
        if len(lines) != 3:
            return False
        statuses = [expected_status(c, m) for c, m in wanted]
        for line, (claim, m), status in zip(lines, wanted, statuses):
            if not line.startswith(f"{claim}: {status} "):
                return False
        if not lines[-1].endswith(f"mode={mode}"):  # a sign proof is labelled as what it was
            return False
        return code == (1 if "falsified" in statuses else 0)

    def _check_table(self, opts, code, out):
        family, p = self._family(opts)
        n = int(opts["--points"])
        with open(opts["--out"], "rb") as fh:
            data = fh.read()
        if out.strip() != f"wrote {n} rows to {opts['--out']}" or code != 0:
            return False
        if self.tables:
            return data == self.tables[0]  # byte-identical across invocations
        self.tables.append(data)
        rows = np.array([[float(v) for v in line.split(",")] for line in data.decode().splitlines()[1:]])
        fs = self.api.eval_f_grid(family, p, rows[:, 0])
        ec = self.api.envelope_constants(family, p)
        return (rows.shape == (n, 6) and bool(np.all(np.diff(rows[:, 0]) > 0)) and np.array_equal(rows[:, 1], fs)
                and bool(np.all((ec.lower < fs) & (fs < ec.upper))))

    def finish(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Sweep, Rigorous, Evaluate, Cli)}
