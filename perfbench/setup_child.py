"""Set-up cost as a user pays it: import trigratio in a fresh interpreter and
fill its lazy caches (the per-(family, p) exact-rational series, float and
80-bit).  Prints the seconds taken, then the speed factor of the
`interpreted` probe (speed.py) run in this process right afterwards, so the
time can be scaled by the speed of the CPU it ran on.  `run.py` starts this
several times with PYTHONPATH pointing at the checkout's src/ and reports
the median of the scaled times.
"""

import time

T0 = time.perf_counter()

import numpy as np  # noqa: E402
import trigratio as tr  # noqa: E402


def warm_up(tr, np):
    for family in tr.FamilyKind:
        for p in range(2, 17):
            tr.eval_f(family, p, 0.0)
            tr.eval_f_grid(family, p, np.zeros(1), dtype=np.longdouble)


PROBES = 20


if __name__ == "__main__":
    warm_up(tr, np)
    seconds = time.perf_counter() - T0
    from speed import Speed

    speed = Speed("interpreted")
    for _ in range(PROBES):
        speed.tick()
    print(repr(seconds), repr(speed.factor()))
