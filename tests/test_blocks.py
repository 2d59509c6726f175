"""Tests for the block-wise array evaluators `eval_f_grid`, `d_general` and
`d_sum`: their values do not depend on how an array is split, whole-array
checks run before any block, and temporaries stay at about one block."""

import math
import tracemalloc

import numpy as np
import pytest

from trigratio import derivatives, families
from trigratio.derivatives import d_general, d_sum
from trigratio.families import (
    _BLOCK as B,
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    PoleError,
    eval_f_grid,
)

TC, TS, HC, HS = (
    FamilyKind.TRIG_COS,
    FamilyKind.TRIG_SIN,
    FamilyKind.HYP_COS,
    FamilyKind.HYP_SIN,
)

# name -> (evaluator, p values, whether x = 0 is in the domain); p = 1.25
# puts D's series and general form, and f's pole check, inside one block
EVALUATORS = {
    "eval_f_grid": (eval_f_grid, (1.25, 7), True),
    "eval_f_grid-longdouble": (lambda f, p, x: eval_f_grid(f, p, x, dtype=np.longdouble), (1.25, 7), True),
    "d_general": (d_general, (1.25, 7), False),
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


def _forbid_blocks(monkeypatch):
    """Make every kernel of a block fail, so a call that raises the expected
    error has run none."""

    def ran(*args, **kwargs):
        raise AssertionError("a block ran before the whole array was checked")

    for module, name in (
        (families, "_even_series"),
        (families, "_f_direct"),
        (derivatives, "_even_series"),
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
    xs = np.full(3 * B + 5, 0.5)
    xs[-1] = 1.0  # > 175 * 0.005
    _forbid_blocks(monkeypatch)
    with pytest.raises(ParameterError, match=r"^D overflows or loses every digit at p=0\.005$"):
        d_general(family, 0.005, xs)


def test_pole_in_last_block_is_the_whole_arrays_error():
    """eval_f_grid's pole check runs in the blocks, but its PoleError or
    ParameterError is chosen over the whole array, as for one block."""
    xs = np.full(3 * B + 5, 0.1)
    xs[-1] = math.pi / 4  # cos(x / 0.5) = cos(pi/2) ~ 6e-17, beyond |p|
    with pytest.raises(PoleError, match=r"^denominator vanishes on the grid, p=0\.5$"):
        eval_f_grid(TC, 0.5, xs)
    with pytest.raises(ParameterError, match=r"^x/p underflows float64 on the grid, p=1\.7e\+308$"):
        eval_f_grid(TS, 1.7e308, np.full(3 * B + 5, 0.5))


def test_f_series_overflow_outranks_a_pole_in_an_earlier_block(monkeypatch):
    """On one block eval_f_grid builds f's series before its pole check, so
    at |p| < ~3.5e-20 the series' ParameterError wins over a pole in an
    earlier block too.  No float x poles cos(x/p) at such p, so a stub
    `_pole` marks x = 0.5 as one."""
    xs = np.full(3 * B + 5, 0.5)
    xs[-1] = 1e-30  # below the crossover 0.225 |p|
    monkeypatch.setattr(families, "_pole", lambda den, x, p: x == 0.5)
    with pytest.raises(ParameterError, match=r"^f's series overflows float64 at p=1e-21$"):
        eval_f_grid(TC, 1e-21, xs)
    with pytest.raises(PoleError, match=r"^denominator vanishes on the grid, p=1e-21$"):
        eval_f_grid(TC, 1e-21, xs[:-1])


def test_d_general_pole_outranks_a_missing_series_in_an_earlier_block():
    """At |p| < ~7.5e-10 D's series overflows; as on one block, a pole of
    the general form anywhere is raised before the series' ParameterError,
    which only points that need the series raise."""
    p = 3e-10
    xs = np.full(3 * B + 5, 0.5)
    xs[0] = 1e-11  # below D's series reach |p|*pi/8
    xs[-1] = p * HALF_PI  # cos(x/p) ~ 1e-16
    with pytest.raises(PoleError, match=r"^cos\(x/p\) vanishes for p=3e-10$"):
        d_general(TC, p, xs)
    with pytest.raises(ParameterError, match="^D's series overflows float64 at p=3e-10$"):
        d_general(TC, p, xs[:-1])
    with pytest.raises(ParameterError, match="^D's series overflows float64 at p=3e-10$"):
        d_general(TC, p, np.array([]))
    assert np.isfinite(d_general(TC, p, xs[1:-1])).all()


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
