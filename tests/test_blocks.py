"""Tests for the block-wise array evaluators `eval_f_grid`, `d_general` and
`d_sum`: their values do not depend on how an array is split, whole-array
checks run before any block, and temporaries stay at about one block.  Also
the one point check all four array evaluators share (`families._as_points`),
`dirichlet_sum`'s cap on k, and the even series' Horner loop they all sum,
pinned bit for bit."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from trigratio import certify, derivatives, families
from trigratio.chebyshev import cheb_u_eval
from trigratio.derivatives import _d_series_coeffs, d_general, d_sum, dirichlet_sum
from trigratio.families import (
    _BLOCK as B,
    DomainError,
    FamilyKind,
    HALF_PI,
    ParameterError,
    _as_points,
    _even_series,
    eval_f_grid,
    f_series_coeffs,
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


def _textbook_horner(x, coeffs):
    """sum_i coeffs[i] x^(2i) by Horner in x^2, a new value at every step."""
    x2 = x * x
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * x2 + a
    return acc


def _series_inputs():
    """(kind, x) for every kind of point the even series is summed on."""
    rng = np.random.default_rng(34)
    xs = _points(rng, 3 * B + 5, True)
    return [
        ("float64", xs),
        ("longdouble", xs.astype(np.longdouble)),
        ("float64-view", xs[: B // 8]),
        ("0-d", np.array(0.3)),
        ("0-d-longdouble", np.array(0.3, dtype=np.longdouble)),
        ("np.float64", np.float64(0.3)),
        ("float", 0.3),
        ("float-zero", 0.0),
    ]


@pytest.mark.parametrize("family", list(FamilyKind))
def test_even_series_is_textbook_horner(family):
    """`_even_series` with f's 8 coefficients and D's 17 equals, bit for
    bit, an out-of-place Horner loop: the same type per kind of input, the
    same values, with x and the coefficients left as they were and no
    result that is x itself or a view of it."""
    for coeffs in (f_series_coeffs(family, 7), _d_series_coeffs(family, 7), f_series_coeffs(family, 7.3)):
        assert len(coeffs) in (8, 17)
        kept = tuple(coeffs)
        for kind, x in _series_inputs():
            before = np.array(x, copy=True)
            got, want = _even_series(x, coeffs), _textbook_horner(x, coeffs)
            assert type(got) is type(want), kind
            assert coeffs == kept and np.array_equal(np.asarray(x), before), kind
            if isinstance(x, np.ndarray) and x.ndim:
                assert not np.shares_memory(got, x), kind
                _assert_same_bits(got, want)
            else:  # a scalar: a Python float or a numpy scalar
                assert np.asarray(got).dtype == np.asarray(want).dtype, kind
                assert np.array_equal(got, want) and np.signbit(got) == np.signbit(want), kind


# sha256 (first 16 hex digits) of the float64 output bytes of each array
# evaluator, over the p values below in turn, per point set and family,
# taken before `_even_series` updated its accumulator in place: the values
# are bit for bit those of the out-of-place Horner loop it replaced.  The
# point sets are the GRID default (2048 points, margin 1e-3) and 3*2^14+5
# seeded points, a third of them on the series branches.
_PIN_PS = (2, 3, 5, 16, 64, 7.3)
_OUTPUT_SHA = {
    ("eval_f_grid", TC, "grid"): "ff9cda1f8e11302c",
    ("eval_f_grid", TS, "grid"): "b5a16ebccd354507",
    ("eval_f_grid", HC, "grid"): "a985c56cc1ceb799",
    ("eval_f_grid", HS, "grid"): "ea0ca34775b22276",
    ("eval_f_grid", TC, "seeded"): "10335d7b706d7db0",
    ("eval_f_grid", TS, "seeded"): "6c98c303c54fe289",
    ("eval_f_grid", HC, "seeded"): "f9bc7abf77b59f0a",
    ("eval_f_grid", HS, "seeded"): "bf7257f9c3efb5eb",
    ("d_general", TC, "grid"): "0d670df8280b1463",
    ("d_general", TS, "grid"): "73796d6818c1813c",
    ("d_general", HC, "grid"): "96c3a39819ee6930",
    ("d_general", HS, "grid"): "34aa96e1d012eef7",
    ("d_general", TC, "seeded"): "0ebd013b92321ce8",
    ("d_general", TS, "seeded"): "67617a2ef3e0ac35",
    ("d_general", HC, "seeded"): "ee6e7c0cb969b512",
    ("d_general", HS, "seeded"): "ec1ca5a62dfb919a",
    ("d_sum", TC, "grid"): "bb12b30fbd28b519",
    ("d_sum", TS, "grid"): "e0d56089c3565f4b",
    ("d_sum", HC, "grid"): "c28a5eded468b256",
    ("d_sum", HS, "grid"): "71713dade31a0d11",
    ("d_sum", TC, "seeded"): "ccd1972e8cce704d",
    ("d_sum", TS, "seeded"): "436162531f040a95",
    ("d_sum", HC, "seeded"): "42b08bc6f4ef0556",
    ("d_sum", HS, "seeded"): "ebcddebcf50ff45e",
}


def _pin_ps(name, family):
    """The p of `_PIN_PS` the evaluator takes: d_sum no p = 7.3, and no even
    p for the cos families, which have no sum form there."""
    if name != "d_sum":
        return _PIN_PS
    return tuple(p for p in _PIN_PS if p == int(p) and (not family.is_cos or p % 2))


def _pin_points(where):
    if where == "grid":
        return certify._grid(1e-3, 2048)
    return _points(np.random.default_rng(34), 3 * B + 5, False)


def _output_digest(name, family, where):
    fn = {"eval_f_grid": eval_f_grid, "d_general": d_general, "d_sum": d_sum}[name]
    xs, h = _pin_points(where), hashlib.sha256()
    for p in _pin_ps(name, family):
        out = fn(family, p, xs)
        assert out.dtype == np.float64 and out.shape == xs.shape
        h.update(out.tobytes())
    return h.hexdigest()[:16]


PINNED = [(n, f, w) for n in ("eval_f_grid", "d_general", "d_sum") for w in ("grid", "seeded") for f in FamilyKind]


@pytest.mark.parametrize(("name", "family", "where"), PINNED, ids=[f"{n}-{f.value}-{w}" for n, f, w in PINNED])
def test_array_outputs_are_pinned(name, family, where):
    """Each array evaluator's output bytes on both point sets, at every p it
    takes, against the pin."""
    assert _output_digest(name, family, where) == _OUTPUT_SHA[name, family, where]
