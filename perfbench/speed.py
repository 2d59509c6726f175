"""How fast the machine runs at the moment, measured between the ops.

The benchmark shares a few cores of a host with other people's work, and
the same code runs up to ~1.8x slower for seconds to tens of minutes at a
time, however long a run lasts.  So every timed run also runs a fixed probe
after each op (or each block of cheap ops), outside the op's timing, and
scales the op's time by how slow the probe ran around it:

    scaled time = measured time * REF_NS / (probe time around the op)

that is, the time the op would have taken on a machine on which one probe
takes REF_NS.  The probe times used for an op are the two taken just before
and just after it: slow phases come and go within seconds, and ops of
~0.1 ms follow them closely.  The probes use none of the package's code,
so a change to the package moves the scaled figures as much as the
measured ones, while a slow phase of the host moves the probe too and
mostly cancels out.

Slow phases do not slow all code alike: interpreted Python that allocates
objects (the interval proofs, the scalar API, interpreter start) slows about
as much as the `interpreted` probe; numpy on longdouble grids (the grid sign
proofs) slows less, about like the `numeric` probe; ufuncs over 2^20-point
arrays hardly slow at all and are not scaled (see Evaluate).  Each workload
names the probe of the work it spends its time on.  Each probe runs twice
and the second, warm run is timed, so the figure is the core's speed and not
the refilling of caches the op before evicted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

_X64 = np.linspace(0.1, 1.5, 256)
_XLD = _X64.astype(np.longdouble)
_DATA = [math.fmod(0.618034 * k, 1.0) for k in range(200)]


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __add__(self, other):
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        ps = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(ps), max(ps))


def interpreted():
    """Method calls and allocation on small objects, Fraction arithmetic,
    dict and list work."""
    a, acc = _Pair(0.5, 0.6), _Pair(0.0, 0.0)
    for v in _DATA[:60]:
        acc = acc + a * _Pair(v, v + 0.01)
    f = Fraction(1, 3)
    for k in range(1, 12):
        f += Fraction(k, k + 7)
    d: dict = {}
    for i, v in enumerate(_DATA):
        d[i % 37] = d.get(i % 37, 0.0) + v
    sorted(_DATA)
    return acc.hi + float(f)


def numeric():
    """A float loop through libm, and ufuncs on a small longdouble array."""
    s = 0.0
    for i in range(300):
        s += math.sin(i * 1e-3) * (i % 7) / (1.0 + i)
    return s + float((np.sin(_XLD) / np.cos(_XLD * 0.5))[0])


# One warm probe's time on the machine the benchmark was defined on (2-vCPU
# Intel Xeon VM at 2.1 GHz, between ops of its workloads, in a quiet phase).
# Only the scale of the reported figures depends on them, not their ratios
# between runs.
REF_NS = {"interpreted": 200_000, "numeric": 100_000}
PROBES = {"interpreted": interpreted, "numeric": numeric}


class Speed:
    """Runs the probe on `tick()` and keeps its warm times until `factor()`
    or `factors()` uses them."""

    def __init__(self, kind: str):
        self.probe, self.ref_ns = PROBES[kind], REF_NS[kind]
        self.ns: list[int] = []

    def tick(self) -> int:
        """Runs the probe twice and keeps the second time; returns the
        nanoseconds both took."""
        t0 = perf_counter_ns()
        self.probe()
        t1 = perf_counter_ns()
        self.probe()
        t2 = perf_counter_ns()
        self.ns.append(t2 - t1)
        return t2 - t0

    def factor(self) -> float:
        """REF_NS over the mean probe time since the last call: multiply a
        time measured meanwhile by it to scale it to the reference."""
        mean = sum(self.ns) / len(self.ns)
        self.ns = []
        return self.ref_ns / mean

    def factors(self, after) -> np.ndarray:
        """Per op, REF_NS over the mean of the probes taken just before and
        just after it, from the probe times since the last call; `after[i]`
        is the index of the probe after op i, -1 for an op not to scale
        (factor 1)."""
        ns = np.asarray(self.ns, dtype=float)
        self.ns = []
        after = np.asarray(after)
        hi = np.clip(after, 0, len(ns) - 1)
        lo = np.clip(after - 1, 0, len(ns) - 1)
        return np.where(after < 0, 1.0, self.ref_ns / ((ns[lo] + ns[hi]) / 2))
