"""The traced run: per-layer metrics for every module, and the cost of tracing.

Every traced run covers all four workloads, whichever one `--workload`
names, because it must report every per-layer metric and each module is
exercised by a different workload.  For each workload it alternates
untraced and traced rounds on the same inputs; traced over untraced wall
time is that workload's tracing overhead, and the traced rounds' spans
give the layer numbers.  Interval primitives are too fine-grained for spans (tens
of thousands per proof), so they are microtimed on seeded intervals.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

import numpy as np

from tracing import Tracer
from workloads import SCALAR_FNS, SCALAR_MODULE, TABLE_POINTS, WORKLOADS, spawn

HALF_PI = math.pi / 2.0
PROBES = 5  # bare-interpreter and import-only children in the cli probe
PAIRS = 2  # untraced/traced round pairs per workload


def patch_targets(tr):
    """Names one module imported from another, so the library's own calls
    across module boundaries get spans.  A name a later version no longer
    imports is skipped and its metrics read 0."""
    targets = [
        (tr.certify, "numeric_D_with_estimate", "derivatives.numeric_D"),
        (tr.certify, "d_general", "derivatives.d_general"),
        (tr.certify, "d_sum", "derivatives.d_sum"),
        (tr.certify, "eval_f_grid", "families.eval_f_grid"),
        (tr.derivatives, "eval_f_grid", "families.eval_f_grid"),
    ]
    return [t for t in targets if hasattr(t[0], t[1])]


def interval_ns(tr, seed, n=5000, reps=7):
    """Median over `reps` of the time per operation over n seeded intervals
    in (0, pi/2], loop overhead included."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(1e-3, HALF_PI - 1e-2, n)
    width = rng.uniform(0.0, 1e-2, n)
    ivs = [tr.Interval(a, b) for a, b in zip(lo.tolist(), (lo + width).tolist())]
    pairs = list(zip(ivs, ivs[1:] + ivs[:1]))
    loops = {
        "add": lambda: [a + b for a, b in pairs],
        "mul": lambda: [a * b for a, b in pairs],
        "reciprocal": lambda: [a.reciprocal() for a in ivs],
        "pow": lambda: [a**4 for a in ivs],
        "sin": lambda: [a.sin() for a in ivs],
        "cos": lambda: [a.cos() for a in ivs],
    }
    out = {}
    for name, loop in loops.items():
        times = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            loop()
            times.append((perf_counter_ns() - t0) / n)
        out[f"interval.{name}.ns_per_call"] = statistics.median(times)
    return out


def cli_probe(ctx, tracer):
    """Interpreter start alone, and `import trigratio.cli` on top of it."""
    failed = 0
    for name, args in (("cli.interpreter", ["-c", "pass"]), ("cli.import", ["-c", "import trigratio.cli"])):
        for _ in range(PROBES):
            failed += tracer.call(name, spawn, args, ctx)[0] != 0
    durations = _durations(tracer)
    interpreter = statistics.median(durations["cli.interpreter"]) / 1e6
    imported = statistics.median(durations["cli.import"]) / 1e6
    return {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter}, failed


def _durations(tracer):
    return {name: [d for d, _, _, _ in rows] for name, rows in tracer.by_name().items()}


def _self_s(spans, name, parent=None):
    return sum(own for _, own, _, p in spans.get(name, ()) if parent is None or p == parent) / 1e9


def _ns_per_point(spans, name):
    rows = [(d, n) for d, _, n, p in spans.get(name, ()) if p is None]
    return sum(d for d, _ in rows) / max(1, sum(n for _, n in rows))


def _median(spans, name, scale):
    return statistics.median(d for d, _, _, _ in spans[name]) / scale


def layer_metrics(wl, results, tracer):
    """Per-layer numbers from the traced rounds `results` of workload `wl`,
    all recorded by `tracer`; busy times and counts are per round."""
    name = wl.name
    spans = tracer.by_name()
    rounds = len(results)
    if name == "sweep":
        return {
            **{f"certify.verify_sign_D.{k}.self_s": _self_s(spans, f"certify.verify_sign_D.{k}") / rounds
               for k in ("grid_trig", "grid_hyp", "rigorous")},
            **{f"certify.{k}.self_s": _self_s(spans, f"certify.{k}") / rounds
               for k in ("verify_envelope", "verify_monotonicity", "verify_identities")},
            "derivatives.numeric_D.self_s": _self_s(spans, "derivatives.numeric_D") / rounds,
            "derivatives.numeric_D.points": sum(n for _, _, n, _ in spans.get("derivatives.numeric_D", ())) / rounds,
            "families.eval_f_grid.self_s":
                _self_s(spans, "families.eval_f_grid", parent="derivatives.numeric_D") / rounds,
            "sweep.claims": results[0].ops,
        }
    if name == "rigorous":
        cells = wl.cells[0]  # identical in every round: Rigorous.finish checks it
        busy_us = sum(d for d, _, _, _ in spans["certify.verify_sign_D.rigorous"]) / 1e3
        return {
            "certify.rigorous.cells": sum(cells),
            "certify.rigorous.max_cells": max(cells),
            "certify.rigorous.us_per_cell": busy_us / (rounds * sum(cells)),
            "rigorous.claims": results[0].ops,
        }
    if name == "evaluate":
        return {
            **{f"{SCALAR_MODULE[fn]}.{fn}.us_per_call": _median(spans, f"{SCALAR_MODULE[fn]}.{fn}", 1e3)
               for fn in SCALAR_FNS},
            "families.eval_f_grid.ns_per_point": _ns_per_point(spans, "families.eval_f_grid"),
            "derivatives.d_general.ns_per_point": _ns_per_point(spans, "derivatives.d_general"),
            "derivatives.d_sum.ns_per_point": _ns_per_point(spans, "derivatives.d_sum"),
            "evaluate.points": results[0].ops,
        }
    table_s = _median(spans, "cli.table", 1e9)
    return {
        **{f"cli.{verb}.ms": _median(spans, f"cli.{verb}", 1e6) for verb in ("eval", "bounds", "cheb", "verify", "table")},
        "cli.table.rows_per_s": TABLE_POINTS / table_s,
        "cli.invocations": results[0].ops,
    }


def traced_run(tr, seed, ctx):
    """Returns (metrics, spans per workload, failed, attempted)."""
    metrics = interval_ns(tr, seed)
    probe = Tracer()
    probe_metrics, failed = cli_probe(ctx, probe)
    metrics.update(probe_metrics)
    attempted = 2 * PROBES
    spans = {"cli-probe": probe.spans}
    for name, cls in WORKLOADS.items():
        wl = cls(tr, seed, ctx)
        tracer = Tracer()
        plain, traced = [], []
        for _ in range(PAIRS):  # alternate, so slow phases of the machine hit both sides
            for side in plain, traced:
                if side is plain:
                    r = wl.round()
                else:
                    if name == "cli":
                        wl.seen -= 1  # replay the same cycle traced
                    with tracer.patch(patch_targets(tr)):
                        r = wl.round(tracer)
                failed += wl.check(r)
                attempted += r.ops
                r.answers = None
                side.append(r)
        failed += wl.finish()
        metrics.update(layer_metrics(wl, traced, tracer))
        metrics[f"trace.overhead.{name}"] = sum(r.wall_ns for r in traced) / sum(r.wall_ns for r in plain)
        spans[name] = tracer.spans
    return metrics, spans, failed, attempted
