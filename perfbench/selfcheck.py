"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Inputs: the same seed gives byte-identical inputs (equal digests) and
   another seed gives other inputs, for every workload.
2. Gates: each planted fault below must make its workload's error rate
   come out above 0.  A gate that cannot fail proves nothing.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

from run import prepare


@contextlib.contextmanager
def planted(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def error_rate(wl):
    r = wl.round()
    failed = wl.check(r) + wl.finish()
    return failed / r.ops


def main():
    ctx = prepare()
    import trigratio as tr

    import workloads
    from workloads import WORKLOADS, make_api

    results = []
    for name, cls in WORKLOADS.items():
        a, b, c = (cls(tr, seed, ctx).digest for seed in (7, 7, 8))
        results.append((f"{name}: seed 7 twice gives identical inputs", a == b))
        results.append((f"{name}: seed 8 gives other inputs", a != c))

    def swapped_envelope(family, p, cfg):
        ec = tr.envelope_constants(family, p)
        return tr.verify_envelope(family, p, cfg, constants=dataclasses.replace(ec, lower=ec.upper, upper=ec.lower))

    def shallow_proofs(family, p, sign, cfg):
        return tr.verify_sign_D(family, p, sign, dataclasses.replace(cfg, max_subdivisions=2))

    def eval_f_off(family, p, x):
        return tr.eval_f(family, p, x) * (1.0 + 1e-9)

    def swapped_constants(family, p):
        ec = tr.envelope_constants(family, p)
        return dataclasses.replace(ec, lower=ec.upper, upper=ec.lower)

    faults = [
        ("sweep: expect CERTIFIED for sign-D:hyp-cos:p=2",
         lambda: planted(workloads, "expected_status", lambda claim, mode: "certified"),
         lambda: workloads.Sweep(tr, 1, ctx)),
        ("sweep: verify_envelope given swapped constants", contextlib.nullcontext,
         lambda: workloads.Sweep(tr, 1, ctx, make_api(tr, verify_envelope=swapped_envelope))),
        ("rigorous: bisection capped at depth 2", contextlib.nullcontext,
         lambda: workloads.Rigorous(tr, 1, ctx, make_api(tr, verify_sign_D=shallow_proofs))),
        ("evaluate: eval_f off by 1e-9 relative", contextlib.nullcontext,
         lambda: workloads.Evaluate(tr, 1, ctx, make_api(tr, eval_f=eval_f_off))),
        ("cli: library reference with swapped constants", contextlib.nullcontext,
         lambda: workloads.Cli(tr, 1, ctx, make_api(tr, envelope_constants=swapped_constants))),
    ]
    for label, plant, build in faults:
        with plant():
            rate = error_rate(build())
        results.append((f"{label}: error_rate {rate:.3g} > 0", rate > 0))

    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
