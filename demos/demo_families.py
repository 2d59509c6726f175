"""Tour of the four ratio families: values, branches, and endpoint limits.

Run:  python demos/demo_families.py
"""

import numpy as np

from trigratio import (
    FamilyKind,
    eval_f,
    eval_ratio,
    limit_at_half_pi,
    limit_at_zero,
)
from trigratio.families import HALF_PI, series_threshold


def main():
    print("The four normalized ratio families, sampled across (0, pi/2):\n")
    xs = [1e-4, 0.1, 0.5, 1.0, 1.5, HALF_PI - 1e-6]
    for family in FamilyKind:
        p = 3
        print(f"  {family.value}, p={p}  (series branch below x={series_threshold(family):g})")
        print(f"    limit at 0     = {limit_at_zero(family, p):+.12f}")
        for x in xs:
            print(f"    f({x:<9.6g}) = {eval_f(family, p, x):+.12f}")
        print(f"    limit at pi/2  = {limit_at_half_pi(family, p):+.12f}\n")

    print("The normalization is exactly (A - ratio)/x^2 with A = 1 or p:")
    x, p = 0.8, 5
    for family, a in [(FamilyKind.TRIG_COS, 1.0), (FamilyKind.TRIG_SIN, 5.0)]:
        lhs = eval_f(family, p, x)
        rhs = (a - eval_ratio(family, p, x)) / x**2
        print(f"  {family.value}: f = {lhs:.15f}, (A - ratio)/x^2 = {rhs:.15f}")

    print("\nThe series and direct branches agree at the crossover:")
    for family in FamilyKind:
        th = series_threshold(family)
        below = eval_f(family, 3, np.nextafter(th, 0.0))
        above = eval_f(family, 3, np.nextafter(th, 2.0))
        print(f"  {family.value}: f(th-) = {below:.15f}, f(th+) = {above:.15f}")


if __name__ == "__main__":
    main()
