"""Reference values from the definitions of the four families, in mpmath."""

import mpmath

from trigratio.families import FamilyKind

_G = {
    FamilyKind.TRIG_COS: mpmath.cos,
    FamilyKind.TRIG_SIN: mpmath.sin,
    FamilyKind.HYP_COS: mpmath.cosh,
    FamilyKind.HYP_SIN: mpmath.sinh,
}


def _f(family, p, x):
    # at the context's precision, which mpmath.diff raises as it needs
    a = 1 if family.is_cos else p
    return (a - _G[family](x) / _G[family](x / p)) / x**2


def mp_f(family, p, x, dps=50):
    """f at x from its definition, (A - g(x)/g(x/p)) / x^2, at dps digits."""
    with mpmath.workdps(dps):
        return _f(family, mpmath.mpf(p), mpmath.mpf(x))


def mp_D(family, p, x):
    """D at x from the definition, by mpmath differentiation at 40 digits."""
    with mpmath.workdps(40):
        p, x = mpmath.mpf(p), mpmath.mpf(x)
        return mpmath.diff(lambda t: t**3 * mpmath.diff(lambda u: _f(family, p, u), t), x, 2)


def mp_df(family, p, x):
    """f' at x from the definition, by mpmath differentiation at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.diff(lambda u: _f(family, mpmath.mpf(p), u), mpmath.mpf(x))
