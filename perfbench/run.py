"""Benchmark of the trigratio package: how long it takes to prove the paper's
claims, evaluate the families and get an answer from the CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Workloads (see workloads.py): sweep, rigorous, evaluate, cli.  Each runs
single-process and closed-loop, one client, with BLAS/OpenMP threads pinned
to 1, repeating a seeded round until --seconds have passed, and checks
every answer.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it makes the traced run of layers.py and prints the per-layer
metrics.  Human-readable lines and a run record (provenance and the hash
of the generated inputs) come first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import types
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "rigorous", "evaluate", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def prepare():
    """Pin threads (before numpy loads), put ./src first on the path and
    return the context the workloads need to start CLI processes."""
    from provenance import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return types.SimpleNamespace(root=ROOT, out_dir=OUT_DIR, env=env)


def setup_once(ctx):
    """One fresh interpreter importing trigratio and filling its caches:
    its time and the speed factor of its own probes (setup_child.py)."""
    from workloads import spawn

    code, out, err, _ = spawn([os.path.join(HERE, "setup_child.py")], ctx)
    if code != 0:
        raise RuntimeError(f"set-up child failed with exit {code}: {err.strip()}")
    seconds, factor = out.split()
    return float(seconds), float(factor)


def timed_run(wl, seconds, ctx):
    """Rounds until `seconds` have passed (at least wl.min_rounds).

    The host is shared and runs the same code up to ~1.8x slower in phases
    of seconds to minutes, so every op's time is scaled to the reference
    speed by the workload's probes run just before and after it (see
    speed.py); the unscaled figures are printed alongside.  ops_per_s is
    the median over rounds of ops over their summed scaled times.  Where
    every round runs the same ops, an op's latency is its median scaled
    time over rounds; the cli's ops are all distinct, so its latencies are
    those of every round.  One set-up child runs after each round, so
    set-up samples the whole run too; setup_s is the median of their
    scaled times."""
    import numpy as np

    from speed import Speed

    speed = Speed(wl.probe)
    rounds, setup, failed = [], [], 0
    deadline = perf_counter() + seconds
    cap = getattr(wl, "max_rounds", None)
    while len(rounds) < wl.min_rounds or (perf_counter() < deadline and (cap is None or len(rounds) < cap)):
        r = wl.round(tick=speed.tick)
        failed += wl.check(r)
        r.answers = None
        after = range(len(r.lat_ns)) if r.probe_after is None else r.probe_after
        factors = speed.factors(after)
        r.speed = np.percentile(factors, [10, 50, 90])
        r.lat_ns = (np.asarray(r.lat_ns) * factors).astype(np.float32)  # scaled from here on
        rounds.append(r)
        gc.collect()  # so the peak RSS does not depend on when the collector ran
        if len(setup) < SETUP_RUNS:
            setup.append(setup_once(ctx))
    while len(setup) < SETUP_RUNS:
        setup.append(setup_once(ctx))
    if wl.name == "cli":
        peak_kb = max(wl.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before mpmath is loaded
    failed += wl.finish()
    lat_ms = np.array([r.lat_ns for r in rounds], dtype=np.float64) / 1e6
    lat_ms = lat_ms.ravel() if wl.name == "cli" else np.median(lat_ms, axis=0)
    attempted = sum(r.ops for r in rounds)
    metrics = {
        "ops_per_s": statistics.median(r.ops / (r.lat_ns.sum(dtype=np.float64) / 1e9) for r in rounds),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
        "setup_s": statistics.median(t * f for t, f in setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    p10, p50, p90 = np.median([r.speed for r in rounds], axis=0)
    notes = [f"rounds={len(rounds)} latency_samples={lat_ms.size} ops={attempted}",
             f"error_rate={failed / attempted:.6g} ({failed} of {attempted})",
             f"speed factor per op, median over rounds of p10 {p10:.3f} p50 {p50:.3f} p90 {p90:.3f} "
             "(1 = reference speed; below 1 = slower)",
             f"unscaled: ops_per_s={statistics.median(r.ops / (r.wall_ns / 1e9) for r in rounds):.6g} "
             f"setup_s={statistics.median(t for t, _ in setup):.6g}"]
    for name, err in sorted(getattr(wl, "worst", {}).items()):
        notes.append(f"worst oracle error {name}: {err:.3g}")
    return metrics, failed, attempted, notes


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trigratio", "__init__.py")):
        return fail(f"no package source at {os.path.join(ROOT, 'src', 'trigratio')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    ctx = prepare()

    import numpy as np
    import trigratio as tr

    import provenance
    from setup_child import warm_up
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](tr, args.seed, ctx)
    record = provenance.record(ROOT, args, wl.digest)
    warm_up(tr, np)
    if args.trace:
        from layers import traced_run

        metrics, spans, failed, attempted = traced_run(tr, args.seed, ctx)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "fields": ["name", "start_ns", "end_ns", "parent", "op", "n"],
                       "spans": spans}, fh, separators=(",", ":"))
        notes = [f"spans written to {os.path.relpath(path, ROOT)}", f"failed={failed} of {attempted}"]
        wanted = spec["per_layer"]
    else:
        metrics, failed, attempted, notes = timed_run(wl, args.seconds, ctx)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    result = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    for line in notes:
        print(f"{args.workload}: {line}")
    for name, v in result.items():
        print(f"{args.workload}: {name} = {v['value']:.6g} {v['unit']}")
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
