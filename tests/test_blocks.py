"""Tests for the block-wise array evaluators `eval_f_grid`, `d_general` and
`d_sum`: their values do not depend on how an array is split, whole-array
checks run before any block, and temporaries stay at about one block.  Also
the one point check all four array evaluators share (`families._as_points`),
and `dirichlet_sum`'s cap on k."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from trigratio import derivatives, families
from trigratio.chebyshev import cheb_u_eval
from trigratio.derivatives import d_general, d_sum, dirichlet_sum
from trigratio.families import (
    _BLOCK as B,
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    _as_points,
    eval_f_grid,
)

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)

# name -> (evaluator, p values, whether x = 0 is in the domain); p = 1.5,
# the bottom of p's range, puts D's series and general form inside one block
EVALUATORS = {
    "eval_f_grid": (eval_f_grid, (1.5, 7), True),
    "eval_f_grid-longdouble": (lambda f, p, x: eval_f_grid(f, p, x, dtype=np.longdouble), (1.5, 7), True),
    "d_general": (d_general, (1.5, 7), False),
    "d_sum": (d_sum, (3, 7), False),
}


def _points(rng, n, closed):
    """n points in the domain, a third of them log-uniform in [1e-6, 0.2]
    (the series branches); with an exact 0 where the domain is closed."""
    k = n // 3
    xs = np.concatenate([rng.uniform(1e-3, HALF_PI - 1e-3, n - k), np.exp(rng.uniform(math.log(1e-6), math.log(0.2), k))])
    xs = xs[rng.permutation(n)]
    if closed and n:
        xs[n // 2] = 0.0
    return xs


def _split_calls(fn, xs, rng):
    """fn over xs in C order, called on random consecutive slices shorter
    than a block and concatenated, in xs's shape."""
    flat = np.ascontiguousarray(xs).reshape(-1)
    parts, i = [], 0
    while i < flat.size:
        j = min(flat.size, i + int(rng.integers(1, B)))
        parts.append(np.asarray(fn(flat[i:j])))
        i = j
    return np.concatenate(parts).reshape(xs.shape) if parts else np.asarray(fn(flat)).reshape(xs.shape)


def _assert_same_bits(a, b):
    """a and b hold the same values bit for bit: byte-equal in float64; in
    np.longdouble equal with equal signs, as its padding bytes are unset."""
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    if a.dtype == np.float64:
        assert a.tobytes() == b.tobytes()
    else:
        assert np.isfinite(a).all() and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize("family", list(FamilyKind))
def test_values_do_not_depend_on_the_split(name, family):
    """Each evaluator on one array equals, bit for bit, its calls on random
    slices shorter than a block, for every shape around the block size, a
    2-D array and strided views.  Compared with the function itself, not a
    pinned hash: libm differs between platforms."""
    fn, ps, closed = EVALUATORS[name]
    rng = np.random.default_rng(19)
    base = _points(rng, 6 * B, closed)
    arrays = [_points(rng, n, closed) for n in (0, B - 1, B, B + 1, 3 * B + 5)]
    arrays += [np.array(base[1]), _points(rng, 3 * B, closed).reshape(3, B), base[1::3][: B + 7], base[2::5][:100], base.reshape(3, -1).T]
    for p in ps:
        f = lambda x: fn(family, p, x)
        for xs in arrays:
            whole = f(xs)
            if not xs.ndim and not name.startswith("eval_f_grid"):
                assert type(whole) is float
            _assert_same_bits(np.asarray(whole), _split_calls(f, xs, rng))


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize("family", list(FamilyKind))
def test_scalar_result_type_on_both_sides_of_the_split(name, family):
    """A scalar x gives eval_f_grid a 0-d array of its dtype, and d_general
    and d_sum a Python float, below the series split and above it (at
    p = 1.5, D's split lies at 0.59 or 1.18; d_sum has none), where a block
    wholly on the series side takes a shortcut that yields a numpy scalar."""
    fn, (p, _), _ = EVALUATORS[name]
    for x in (0.005, 1.4):
        got = fn(family, p, x)
        if name.startswith("eval_f_grid"):
            dtype = np.longdouble if name.endswith("longdouble") else np.float64
            assert type(got) is np.ndarray and (got.ndim, got.dtype) == (0, dtype)
        else:
            assert type(got) is float


def _forbid_blocks(monkeypatch):
    """Make every kernel of a block fail, so a call that raises the expected
    error has run none."""

    def ran(*args, **kwargs):
        raise AssertionError("a block ran before the whole array was checked")

    for module, name in (
        (families, "_series_or"),
        (families, "_even_series"),
        (families, "_f_direct"),
        (derivatives, "eval_sin_comb"),
    ):
        monkeypatch.setattr(module, name, ran)


BAD_POINTS = [
    (name, bad) for name, (_, _, closed) in EVALUATORS.items() for bad in (math.nan, -0.1, HALF_PI, 2.0, *((0.0,) * (not closed)))
]


@pytest.mark.parametrize(("name", "bad"), BAD_POINTS)
def test_bad_point_in_last_block_raises_before_any_block(name, bad, monkeypatch):
    """A NaN or out-of-domain point in the last of four blocks raises the
    evaluator's domain error before any block runs."""
    fn, (_, p), closed = EVALUATORS[name]
    xs = _points(np.random.default_rng(3), 3 * B + 5, closed)
    xs[-1] = bad
    _forbid_blocks(monkeypatch)
    message = r"^grid points must lie in \[0, pi/2\)$" if closed else r"^x must lie in \(0, pi/2\)$"
    with pytest.raises(DomainError, match=message):
        fn(TS, p, xs)


@pytest.mark.parametrize("family", [HC, HS])
def test_hyperbolic_guard_in_last_block_raises_before_any_block(family, monkeypatch):
    """p = 0.005 lies outside p's range, where cosh(x/p)^4 would overflow:
    ParameterError before any block runs, on every point."""
    xs = np.full(3 * B + 5, 0.5)
    xs[-1] = 1.0
    _forbid_blocks(monkeypatch)
    with pytest.raises(ParameterError, match=r"^p must satisfy 3/2 <= \|p\| <= 2\^53, got 0\.005$"):
        d_general(family, 0.005, xs)


CALLS = [(fn, family) for fn in (eval_f_grid, d_general, d_sum) for family in FamilyKind]


@pytest.mark.parametrize(("fn", "family"), CALLS, ids=[f"{fn.__name__}-{f.value}" for fn, f in CALLS])
def test_peak_memory_of_an_array_call(fn, family):
    """A call on 2^20 points peaks at no more than its output plus 4 MiB of
    traced memory; whole-array temporaries took 24-50 MiB."""
    xs = _points(np.random.default_rng(5), 1 << 20, False)
    fn(family, 7, xs[:100])  # the series and tables, built once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(family, 7, xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (4 << 20)


# the four array evaluators, each on its own domain: name -> call on x
FOUR = {
    "eval_f_grid": lambda x: eval_f_grid(TS, 3, x),
    "d_general": lambda x: d_general(TC, 3, x),
    "d_sum": lambda x: d_sum(TS, 3, x),
    "cheb_u_eval": lambda x: cheb_u_eval(3, x),
}


NOT_REAL = [
    (x, "complex numbers") for x in (0.5 + 0j, np.array([0.5 + 0j]), [0.5, 0.5 + 0.1j], np.array([0.5], dtype=np.complex64))
] + [(x, "bools") for x in (np.array([True]), [True, False], np.True_)] + [
    (["0.5"], "<U3 values"),
    (np.array(["0.5"]), "<U3 values"),
    (np.array([0.5], dtype=object), "object values"),
]


@pytest.mark.parametrize("name", FOUR)
def test_points_that_are_not_real_raise(name):
    """A complex point is no real point, even with a zero imaginary part:
    numpy would drop that part with a ComplexWarning.  Neither is a bool,
    which it would read as 1.0, nor a string or an object, which conversion
    would parse.  All four evaluators say so alike."""
    for x, what in NOT_REAL:
        with pytest.raises(DomainError, match=f"^points must be real numbers, not {what}$"):
            FOUR[name](x)


@pytest.mark.parametrize("name", FOUR)
def test_a_list_is_its_array(name):
    """Each evaluator takes any array-like: a list or a tuple gives, bit for
    bit, the array's result; an empty array is in every domain."""
    x = [0.1, 0.2, 0.7, 0.9]
    want = FOUR[name](np.array(x))
    for got in (FOUR[name](x), FOUR[name](tuple(x))):
        for a, b in zip(*(w if isinstance(w, tuple) else (w,) for w in (want, got))):
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
    empty = FOUR[name](np.array([]))
    assert all(e.shape == (0,) for e in (empty if isinstance(empty, tuple) else (empty,)))


def test_as_points_reads_the_span():
    """least and greatest point by one pass each: NaN makes both NaN, and an
    empty array spans (inf, -inf), so a domain comparison on them passes it."""
    x, least, most = _as_points([0.3, -2.0, 5.0])
    assert x.dtype == np.float64 and (least, most) == (-2.0, 5.0)
    _, least, most = _as_points([0.3, math.nan, 5.0])
    assert math.isnan(least) and math.isnan(most)
    assert _as_points(np.array([]))[1:] == (math.inf, -math.inf)
    x, least, most = _as_points(np.arange(4), np.longdouble)
    assert x.dtype == np.longdouble and (least, most) == (0, 3)
    x = np.linspace(0.0, 1.0, 5)
    assert _as_points(x)[0] is x  # no copy where x already has the dtype


def test_dirichlet_caps_k():
    """k above 2^20 is refused before any cosine is taken, as a point's k
    terms alone peak at 48 MiB there."""
    for k, text in ((2**20 + 1, "1048577"), (10**400, "|k| >= 2^1328")):
        with pytest.raises(ParameterError, match=rf"^k must be in \[1, 2\^20\], got {re.escape(text)}$"):
            dirichlet_sum(k, 0.5)
