"""Lazy package exports: what a fresh interpreter imports, and what it still resolves.

Each check runs in a fresh interpreter, since this test process has long
since imported every submodule and numpy."""

import json
import os
import subprocess
import sys

import pytest

import trigratio

SRC = os.path.dirname(os.path.dirname(trigratio.__file__))
ENV = dict(os.environ, PYTHONPATH=SRC)

# the package's public names, pinned: __all__ is derived from the export map
PUBLIC_API = [
    "ChebPoly",
    "Direction",
    "DomainError",
    "EnvelopeConstants",
    "FamilyKind",
    "Interval",
    "Mode",
    "ParameterError",
    "ParityError",
    "Sign",
    "Status",
    "VerificationConfig",
    "VerificationReport",
    "cheb_u",
    "cheb_u_eval",
    "corollary_bounds",
    "d_general",
    "d_sum",
    "dirichlet_sum",
    "envelope_constants",
    "eval_f",
    "eval_f_grid",
    "eval_ratio",
    "expected_sign_D",
    "limit_at_half_pi",
    "limit_at_zero",
    "ratio_bounds",
    "vanishing_limits_check",
    "verify_envelope",
    "verify_identities",
    "verify_monotonicity",
    "verify_sign_D",
    "__version__",
]


def _python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=120)


def _fresh(code):
    """Run `code` in a fresh interpreter and return what it prints as JSON."""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _imported_modules(importtime_log):
    # `-X importtime` lines: "import time: self | cumulative | name"
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines() if line.startswith("import time:")}


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import json, sys, trigratio; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("trigratio")] == ["trigratio"]


def test_every_export_resolves_and_is_listed():
    got = _fresh(
        "import json, trigratio\n"
        "listed = dir(trigratio)\n"
        "resolved = [n for n in trigratio.__all__ if getattr(trigratio, n, None) is not None]\n"
        "ns = {}\n"
        "exec('from trigratio import *', ns)\n"
        "print(json.dumps([trigratio.__all__, listed, resolved, sorted(ns)]))"
    )
    names, listed, resolved, star = got
    assert names == PUBLIC_API
    assert set(names) <= set(listed)
    assert resolved == names
    assert set(names) <= set(star)


def test_submodules_resolve_as_attributes():
    got = _fresh(
        "import json, trigratio\n"
        "print(json.dumps([trigratio.certify.__name__, trigratio.derivatives.__name__,"
        " callable(trigratio.certify.verify_envelope)]))"
    )
    assert got == ["trigratio.certify", "trigratio.derivatives", True]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        trigratio.bogus


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "trig-sin", "--p", "2", "--x", "1.0"],
        ["eval", "--family", "hyp-cos", "--p", "5", "--x", "0"],
        ["bounds", "--family", "hyp-cos", "--p", "4"],
        ["cheb", "--n", "6", "--t", "0.995"],
        ["cheb", "--p", "7", "--y", "pi/28"],
    ],
)
def test_point_verbs_do_not_import_numpy(argv):
    proc = _python("-X", "importtime", "-m", "trigratio.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    modules = _imported_modules(proc.stderr)
    assert "trigratio.families" in modules
    assert not {m for m in modules if m == "numpy" or m.startswith("numpy.")}
    assert "trigratio.certify" not in modules


POINT_VERBS = [
    ["eval", "--family", "trig-sin", "--p", "2", "--x", "1.0"],
    ["bounds", "--family", "hyp-cos", "--p", "4"],
    ["cheb", "--n", "6", "--t", "0.995"],
    ["cheb", "--p", "7", "--y", "pi/28"],
]


def test_point_verbs_load_no_proof_module():
    """The four point-verb commands, run by `cli.run` in one fresh
    interpreter, leave no interval arithmetic, no certification engine and
    no numpy in sys.modules.  `-X importtime` cannot show this: it logs no
    submodule reached by `from . import` or importlib."""
    codes, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from trigratio import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.run(argv) for argv in {POINT_VERBS!r}]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))"
    )
    assert codes == [0, 0, 0, 0]
    assert "trigratio.families" in loaded
    assert not {"trigratio.interval", "trigratio.certify", "numpy"} & set(loaded)


def test_families_loads_no_interval_arithmetic():
    loaded = _fresh("import json, sys, trigratio.families; print(json.dumps(sorted(sys.modules)))")
    assert "trigratio.interval" not in loaded


def test_array_verbs_still_run(tmp_path):
    out = tmp_path / "t.csv"
    proc = _python("-m", "trigratio.cli", "table", "--family", "trig-cos", "--p", "3", "--points", "5", "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, f"wrote 5 rows to {out}\n")
    assert len(out.read_text().splitlines()) == 6
    proc = _python("-m", "trigratio.cli", "verify", "--family", "trig-sin", "--p", "3", "--mode", "rigorous")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(": certified ") == 3


# `verify` pairs whose three claims are decided with no array: exact rationals,
# the envelope's two ends and the two-point GRID sign route, read as floats
NUMPY_FREE_VERIFY = [
    ["verify", "--family", "hyp-sin", "--p", "7"],
    ["verify", "--family", "trig-sin", "--p", "11", "--mode", "rigorous"],
]
# trig-cos p = 3 still scans its GRID sign claim's grid, whose top leaves D's series
SCANNING_VERIFY = ["verify", "--family", "trig-cos", "--p", "3"]
SCANNING_VERIFY_OUT = (
    "envelope:trig-cos:p=3: certified min_margin=1.6460905083448552e-08 worst_x=0.001 cells=2 mode=grid\n"
    "monotone:trig-cos:p=3: certified min_margin=inf worst_x=nan cells=0 mode=rigorous\n"
    "sign-D:trig-cos:p=3:NEG: certified min_margin=3.9506169913123062e-07 worst_x=0.001 cells=2048 mode=grid\n"
)


def _numpy_imported(importtime_log):
    return bool({m for m in _imported_modules(importtime_log) if m == "numpy" or m.startswith("numpy.")})


@pytest.mark.parametrize(
    "argv", [*NUMPY_FREE_VERIFY, SCANNING_VERIFY], ids=["hyp-sin-7", "trig-sin-11-rigorous", "trig-cos-3"]
)
def test_verify_imports_numpy_only_to_scan_a_grid(argv):
    """By `-X importtime`: a `verify` whose claims read no array imports the
    certification engine but no numpy, and one that scans a grid imports it,
    printing the same bytes as before numpy became lazy."""
    proc = _python("-X", "importtime", "-m", "trigratio.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert "trigratio.certify" in _imported_modules(proc.stderr)
    assert _numpy_imported(proc.stderr) is (argv is SCANNING_VERIFY)
    if argv is SCANNING_VERIFY:
        assert proc.stdout == SCANNING_VERIFY_OUT


def test_verify_leaves_numpy_out_of_sys_modules_unless_it_scans():
    """The same, by sys.modules after `cli.run` in fresh interpreters: the
    two numpy-free `verify` runs in one, then the scanning one on top."""
    got = _fresh(
        "import contextlib, io, json, sys\n"
        "from trigratio import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.run(argv) for argv in {NUMPY_FREE_VERIFY!r}]\n"
        "loaded = ['trigratio.certify' in sys.modules, 'numpy' in sys.modules]\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    codes.append(cli.run({SCANNING_VERIFY!r}))\n"
        "print(json.dumps([codes, loaded, 'numpy' in sys.modules, out.getvalue()]))"
    )
    assert got == [[0, 0, 0], [True, False], True, SCANNING_VERIFY_OUT]
