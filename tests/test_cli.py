"""End-to-end tests of the command-line interface and its exit codes."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import trigratio
from trigratio.cli import (
    EXIT_CANTCREAT,
    EXIT_DOMAIN,
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    parse_number,
    run,
)


def test_parse_number_pi_fractions():
    assert parse_number("pi/2") == pytest.approx(math.pi / 2.0)
    assert parse_number("pi/14") == pytest.approx(math.pi / 14.0)
    assert parse_number("0.25") == 0.25
    assert parse_number("1e-3") == 1e-3


def test_parse_number_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_number("pi/0")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_number("two")


def test_eval_ok(capsys):
    assert run(["eval", "--family", "trig-sin", "--p", "2", "--x", "1.0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "f=0.24483487621925" in out
    assert "ratio=1.75516512378074" in out


def test_eval_domain_error(capsys):
    assert run(["eval", "--family", "trig-sin", "--p", "2", "--x", "2.0"]) == EXIT_DOMAIN


def test_bounds_ok(capsys):
    assert run(["bounds", "--family", "trig-cos", "--p", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lower=0.375 " in out
    assert "direction=increasing" in out


def test_verify_grid_ok(capsys):
    assert run(["verify", "--family", "trig-sin", "--p", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("certified") == 3


def test_verify_rigorous_ok(capsys):
    assert (
        run(["verify", "--family", "trig-cos", "--p", "2", "--mode", "rigorous"])
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "mode=rigorous" in out


def test_verify_hyp_cos_p2_reports_falsified_sign(capsys):
    code = run(["verify", "--family", "hyp-cos", "--p", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_FALSIFIED
    assert "sign-D:hyp-cos:p=2:POS: falsified" in out
    assert "envelope:hyp-cos:p=2: certified" in out


def test_verify_rigorous_hyperbolic(capsys):
    assert run(["verify", "--family", "hyp-sin", "--p", "3", "--mode", "rigorous"]) == EXIT_OK
    assert "sign-D:hyp-sin:p=3:NEG: certified" in capsys.readouterr().out


def test_verify_rigorous_hyp_cos_p2_falsified(capsys):
    """Falsified at the exact witness x = 3/2 at every margin, 0.3 included,
    which leaves out the tail past x = 1.31696 where D < 0."""
    for margin in ("1e-6", "1e-3", "0.3"):
        code = run(["verify", "--family", "hyp-cos", "--p", "2", "--mode", "rigorous", "--interior-margin", margin])
        sign_line = capsys.readouterr().out.splitlines()[-1]
        assert code == EXIT_FALSIFIED
        assert sign_line == "sign-D:hyp-cos:p=2:POS: falsified min_margin=-inf worst_x=1.5 cells=1 mode=rigorous"


def test_verify_rigorous_inconclusive_exit(capsys):
    """At p = 2 the cos general form has a negative weight and frequency, so
    near x = 0 its enclosure straddles zero below the default 20 bisections."""
    argv = ["verify", "--family", "trig-cos", "--p", "2", "--mode", "rigorous", "--interior-margin", "1e-6"]
    assert run(argv) == EXIT_INCONCLUSIVE
    sign_line = capsys.readouterr().out.splitlines()[-1]
    assert sign_line.startswith("sign-D:trig-cos:p=2:POS: inconclusive ")
    assert sign_line.endswith(" cells=21 mode=rigorous")


def test_verify_envelope_tie_exits_inconclusive(capsys):
    """At interior margin 1e-8 f's float value at the grid's end ties its
    limit: a worst margin of 0.0 is INCONCLUSIVE, exit 2, not a FALSIFIED 1."""
    argv = ["verify", "--family", "trig-sin", "--p", "3", "--interior-margin", "1e-8"]
    assert run(argv) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "envelope:trig-sin:p=3: inconclusive min_margin=0 worst_x=1e-08 cells=2 mode=grid\n" in out


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["verify", "--family", "trig-sin", "--p", "64", "--mode", "rigorous"],
            "envelope:trig-sin:p=64: certified min_margin=5.3289936730038789e-07 worst_x=0.001 cells=2 mode=grid\n"
            "monotone:trig-sin:p=64: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
            "sign-D:trig-sin:p=64:NEG: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n",
        ),
        (
            ["verify", "--family", "hyp-cos", "--p", "3", "--mode", "rigorous"],
            "envelope:hyp-cos:p=3: certified min_margin=1.6460905583048913e-08 worst_x=0.001 cells=2 mode=grid\n"
            "monotone:hyp-cos:p=3: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
            "sign-D:hyp-cos:p=3:NEG: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n",
        ),
        (
            ["verify", "--family", "trig-sin", "--p", "1000000000", "--mode", "rigorous"],
            "envelope:trig-sin:p=1000000000: certified min_margin=8.3333331346511841 worst_x=0.001 cells=2 mode=grid\n"
            "monotone:trig-sin:p=1000000000: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
            "sign-D:trig-sin:p=1000000000:NEG: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n",
        ),
        (
            ["verify", "--family", "hyp-sin", "--p", "9007199254740992", "--mode", "rigorous"],
            "envelope:hyp-sin:p=9007199254740992: certified min_margin=75059995.5 worst_x=0.001 cells=2 mode=grid\n"
            "monotone:hyp-sin:p=9007199254740992: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
            "sign-D:hyp-sin:p=9007199254740992:NEG: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n",
        ),
    ],
    ids=["trig-sin-64", "hyp-cos-3", "trig-sin-1e9", "hyp-sin-2^53"],
)
def test_verify_rigorous_output_bytes(capsys, argv, expected):
    """The stdout bytes of four CI smoke proofs: the 32-term sum form of
    trig-sin p = 64, the general form of hyp-cos p = 3, and the sin
    families past the sum table's limit 2^16, whose sign reads no table;
    all proved by the termwise lemma, which checks no cell and finds no
    margin; so is the monotonicity, which follows from D's sign, and so the
    envelope reads f at the grid's two ends."""
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify", "--family", "trig-sin", "--p", "65537"],
            "envelope:trig-sin:p=65537: certified min_margin=0.00054614165310340468 worst_x=0.001 cells=2 mode=grid\n"
            "monotone:trig-sin:p=65537: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
            "sign-D:trig-sin:p=65537:NEG: certified min_margin=0.013107398429422931 worst_x=0.001 cells=2 mode=grid\n",
        ),
        (
            ["verify", "--family", "trig-sin", "--p", "1000000000"],
            "envelope:trig-sin:p=1000000000: certified min_margin=8.3333331346511841 worst_x=0.001 cells=2 mode=grid\n"
            "monotone:trig-sin:p=1000000000: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
            "sign-D:trig-sin:p=1000000000:NEG: certified min_margin=199.9999761904771 worst_x=0.001 cells=2 mode=grid\n",
        ),
    ],
    ids=["trig-sin-65537", "trig-sin-1e9"],
)
def test_verify_grid_output_bytes(capsys, argv, expected):
    """The stdout bytes of a default (GRID) verify past the sum table's
    limit 2^16, which it once refused (exit 65): the sign claim reads D's
    float series, d_general's below its reach, and no sum table; the series
    provably rises over the 2048-point grid, so it reads the grid's first two
    points, the worst, alone."""
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_verify_refuses_margin_that_puts_the_grid_end_on_half_pi(capsys):
    """pi/2 - 1e-300 is pi/2 in float64: refused by the config, where every
    claim's grid raised or falsified on it."""
    argv = ["verify", "--family", "trig-cos", "--p", "3", "--interior-margin", "1e-300"]
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: interior_margin must leave pi/2 - margin below pi/2 in float64, got 1e-300\n"


def test_main_module_exit_code():
    """`python -m trigratio.cli` reaches main() and exits with run()'s code."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trigratio.__file__)))
    argv = ["verify", "--family", "hyp-cos", "--p", "2", "--mode", "rigorous"]
    proc = subprocess.run([sys.executable, "-m", "trigratio.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_FALSIFIED
    assert "sign-D:hyp-cos:p=2:POS: falsified" in proc.stdout


def test_cheb_by_degree(capsys):
    assert run(["cheb", "--n", "6", "--t", "0.995"]) == EXIT_OK
    assert "6.452480548800" in capsys.readouterr().out


def test_cheb_by_corollary(capsys):
    assert run(["cheb", "--p", "7", "--y", "0.1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lo=6.4399999999999995" in out  # 17g rendering of 7 - (48/42)*0.49
    assert "hi=6.5023265620569" in out


def test_cheb_argument_exclusivity(capsys):
    assert run(["cheb", "--n", "6"]) == EXIT_USAGE
    assert run(["cheb", "--n", "6", "--t", "0.5", "--p", "7", "--y", "0.1"]) == EXIT_USAGE


def test_unknown_family_is_usage_error():
    assert run(["eval", "--family", "bogus", "--p", "2", "--x", "0.5"]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert run([]) == EXIT_USAGE


def test_table_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    args = [
        "table", "--family", "trig-sin", "--p", "2",
        "--points", "64", "--out", str(out_path),
    ]
    assert run(args) == EXIT_OK
    raw = out_path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "x,f,lower,upper,margin_lower,margin_upper"
    assert len(lines) == 65
    from trigratio.families import FamilyKind, eval_f

    for line in lines[1:]:
        x, f, lower, upper, ml, mu = map(float, line.split(","))
        # 17 significant digits round-trip float64 exactly
        assert f == eval_f(FamilyKind.TRIG_SIN, 2, x)
        assert ml == f - lower and mu == upper - f
        assert lower < f < upper


def test_table_idempotent(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["table", "--family", "hyp-cos", "--p", "4", "--points", "32", "--out"]
    assert run(args + [str(a)]) == EXIT_OK
    assert run(args + [str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_table_rejects_single_point():
    assert run(["table", "--family", "trig-sin", "--p", "2", "--points", "1", "--out", "/tmp/x.csv"]) == EXIT_USAGE


_TABLE_CAP_ERR = "usage error: --points must be <= 2^20"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["table", "--family", "trig-sin", "--p", "2", "--points", "1000000000000"], EXIT_USAGE, _TABLE_CAP_ERR),
        (["table", "--family", "trig-sin", "--p", "2", "--points", str(2**20 + 1)], EXIT_USAGE, _TABLE_CAP_ERR),
        (
            ["verify", "--family", "trig-sin", "--p", "2", "--grid-points", "1000000000000"],
            EXIT_DOMAIN,
            "domain error: grid_points must be in [16, 2^20], got 1000000000000",
        ),
    ],
    ids=["table-1e12", "table-2^20+1", "verify-1e12"],
)
def test_huge_counts_are_refused_at_once(tmp_path, capsys, argv, code, err):
    """A count past 2^20 exits 64 (table) or 65 (verify) before any
    allocation, not 1, the FALSIFIED code, after numpy's MemoryError."""
    out = tmp_path / "t.csv"
    t0 = time.perf_counter()
    assert run(argv + (["--out", str(out)] if argv[0] == "table" else [])) == code
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err + "\n") and not out.exists()


def _table_reference(family, p, points):
    """The CSV as built one field at a time over numpy scalars."""
    from trigratio import FamilyKind, envelope_constants, eval_f_grid
    from trigratio.families import HALF_PI

    family = FamilyKind(family)
    ec = envelope_constants(family, p)
    xs = np.linspace(1e-3, HALF_PI - 1e-3, points)
    fs = eval_f_grid(family, p, xs)
    lines = ["x,f,lower,upper,margin_lower,margin_upper"]
    for x, f in zip(xs, fs):
        lines.append(",".join(format(v, ".17g") for v in (x, f, ec.lower, ec.upper, f - ec.lower, ec.upper - f)))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("points", [2, 3, 777])
@pytest.mark.parametrize("p", [2, 3, 16])
@pytest.mark.parametrize("family", ["trig-cos", "trig-sin", "hyp-cos", "hyp-sin"])
def test_table_bytes_match_per_field_reference(tmp_path, capsys, family, p, points):
    out_path = tmp_path / "table.csv"
    args = ["table", "--family", family, "--p", str(p), "--points", str(points), "--out", str(out_path)]
    assert run(args) == EXIT_OK
    assert out_path.read_bytes() == _table_reference(family, p, points)


def test_table_blocks_match_one_join(tmp_path, capsys):
    """The rows go out in blocks of `families._BLOCK` rows: the bytes of one
    join of every row, over a count that ends in a partial block."""
    from trigratio import FamilyKind, envelope_constants, eval_f_grid
    from trigratio.families import HALF_PI

    points = 2**15 + 3
    out_path = tmp_path / "table.csv"
    assert run(["table", "--family", "hyp-sin", "--p", "5", "--points", str(points), "--out", str(out_path)]) == EXIT_OK
    ec = envelope_constants(FamilyKind.HYP_SIN, 5)
    xs = np.linspace(1e-3, HALF_PI - 1e-3, points)
    fs = eval_f_grid(FamilyKind.HYP_SIN, 5, xs)
    rows = zip(xs.tolist(), fs.tolist(), (fs - ec.lower).tolist(), (ec.upper - fs).tolist())
    want = "x,f,lower,upper,margin_lower,margin_upper\n" + "".join(
        f"{x:.17g},{f:.17g},{ec.lower:.17g},{ec.upper:.17g},{m:.17g},{u:.17g}\n" for x, f, m, u in rows
    )
    assert out_path.read_bytes() == want.encode()


HUGE_P = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--family", "trig-sin", "--p", HUGE_P],
        ["bounds", "--family", "hyp-cos", "--p", HUGE_P],
        ["eval", "--family", "trig-cos", "--p", HUGE_P, "--x", "0.5"],
        ["cheb", "--p", HUGE_P, "--y", "1e-3"],
        ["verify", "--family", "hyp-sin", "--p", HUGE_P],
        # past the top of p's range, 2^53 (the cos families' D table rounds its
        # four frequencies to 1.0 in float64 from p = 3*2^54 on), and below its
        # bottom, where cos(x/p) has a pole
        pytest.param(["eval", "--family", "trig-cos", "--p", str(2**53 + 2), "--x", "1.0"], id="eval-trig-cos-2^53+2"),
        pytest.param(["eval", "--family", "trig-cos", "--p", "1", "--x", "1.5707963267948963"], id="eval-trig-cos-p1"),
        pytest.param(["verify", "--family", "trig-cos", "--p", str(10**103)], id="verify-trig-cos-1e103"),
        pytest.param(
            ["verify", "--family", "hyp-cos", "--p", str(10**103), "--mode", "rigorous"], id="verify-hyp-cos-1e103"
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_p_past_float64_is_domain_error(capsys, argv):
    """A p outside its range 2 <= p <= 2^53 exits 65 at once with a
    one-line message, not a traceback and the 1 of a FALSIFIED claim."""
    assert run(argv) == EXIT_DOMAIN == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, degree",
    [
        (["cheb", "--n", "1000000000000", "--t", "0.5"], 10**12),
        (["cheb", "--p", "1000000000000", "--y", "1e-13"], 10**12 - 1),
    ],
    ids=["by-degree", "by-corollary"],
)
def test_cheb_huge_degree_is_domain_error(capsys, argv, degree):
    """A degree of ~10^12, given or p - 1, would take hours of recurrence
    steps: it exits 65 at once, naming the degree and the cap."""
    t0 = time.perf_counter()
    assert run(argv) == EXIT_DOMAIN
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: degree must be in [0, 2^20], got {degree}\n"


@pytest.mark.parametrize("where", ["missing/table.csv", "."])
def test_table_unwritable_out_is_cantcreat(tmp_path, capsys, where):
    """An --out that cannot be created exits 73, not the 1 of a FALSIFIED claim."""
    args = ["table", "--family", "trig-cos", "--p", "3", "--points", "3", "--out", str(tmp_path / where)]
    assert run(args) == EXIT_CANTCREAT == 73
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
