"""In-memory spans around calls into the library's modules.

Spans are recorded from the benchmark's side: the benchmark's own call
sites go through `Tracer.call`, and `Tracer.patch` swaps the names one
library module imported from another (e.g. certify's `numeric_D_with_estimate`)
for a recording wrapper, so calls the library makes across its own module
boundaries get child spans too.  Nothing in the library changes.

A span is (name, start_ns, end_ns, parent, op, n): `parent` is the index of
the enclosing span or -1, `op` is the benchmark operation it belongs to and
`n` the number of points of an array argument (0 for scalars).  Each span
with no parent starts a new op; its children share its op id.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


def direct(name, fn, *args, **kwargs):
    """The untraced call path: no bookkeeping at all."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self.op += 1
        n = next((a.size for a in args if isinstance(a, np.ndarray)), 0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op, n)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch(self, targets):
        """targets: (module, attribute, span name); restored on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, name in targets:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # --- summaries -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self):
        """name -> list of (duration_ns, self_ns, n, parent name)."""
        own = self.self_ns()
        out = defaultdict(list)
        for i, (name, start, end, parent, _, n) in enumerate(self.spans):
            pname = self.spans[parent][0] if parent >= 0 else None
            out[name].append((end - start, own[i], n, pname))
        return out
