"""Command-line front end: point evaluation, bounds, certification, CSV tables.

Exit codes: 0 success / all CERTIFIED, 1 any FALSIFIED, 2 any INCONCLUSIVE,
64 usage error, 65 domain error, 73 `table` cannot create its --out file
(64, 65 and 73 are sysexits' EX_USAGE, EX_DATAERR and EX_CANTCREAT).

`eval`, `bounds` and `cheb` run without loading numpy: `verify` imports the
certification engine and `table` imports numpy when they run.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .chebyshev import cheb_u_eval, corollary_bounds
from .envelopes import envelope_constants
from .families import (
    DomainError,
    FamilyKind,
    ParameterError,
    HALF_PI,
    _BLOCK,
    eval_f,
    eval_f_grid,
    eval_ratio,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_CANTCREAT = 73

_PI_FRACTION = re.compile(r"^pi/(-?\d+)$")
# table's row cap, for time: 2^20 rows take 3-5 s (~4 us a row, nearly all of
# it formatting).  The rows go out in blocks, so memory does not grow with the
# count (~53 MiB peak RSS at the cap)
_TABLE_ROWS_CAP = 2**20


def parse_number(text: str) -> float:
    """Plain decimals plus 'pi/N' fractions for endpoint-relative inputs."""
    m = _PI_FRACTION.match(text.strip())
    if m:
        n = int(m.group(1))
        if n == 0:
            raise argparse.ArgumentTypeError("pi/0 is not a number")
        return math.pi / n
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def parse_family(text: str) -> FamilyKind:
    try:
        return FamilyKind(text)
    except ValueError:
        valid = ", ".join(f.value for f in FamilyKind)
        raise argparse.ArgumentTypeError(f"unknown family {text!r} (choose from {valid})") from None


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigratio",
        description="Certified quadratic envelopes for trig/hyperbolic ratio functions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    pe = sub.add_parser("eval", help="evaluate a ratio family at a point")
    pe.add_argument("--family", type=parse_family, required=True)
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--x", type=parse_number, required=True)

    pb = sub.add_parser("bounds", help="print the envelope constants")
    pb.add_argument("--family", type=parse_family, required=True)
    pb.add_argument("--p", type=int, required=True)

    pv = sub.add_parser("verify", help="run the certification campaign for one family")
    pv.add_argument("--family", type=parse_family, required=True)
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--mode", choices=["grid", "rigorous"], default="grid")
    pv.add_argument("--grid-points", type=int, default=2048)
    pv.add_argument("--interior-margin", type=parse_number, default=1e-3)

    pc = sub.add_parser("cheb", help="Chebyshev U_n values and corollary bounds")
    pc.add_argument("--n", type=int)
    pc.add_argument("--t", type=parse_number)
    pc.add_argument("--p", type=int)
    pc.add_argument("--y", type=parse_number)

    pt = sub.add_parser("table", help="emit a CSV table of f and its envelope")
    pt.add_argument("--family", type=parse_family, required=True)
    pt.add_argument("--p", type=int, required=True)
    pt.add_argument("--points", type=int, required=True)
    pt.add_argument("--out", required=True)
    return parser


def _cmd_eval(args) -> int:
    f = eval_f(args.family, args.p, args.x)
    ec = envelope_constants(args.family, args.p)
    ratio = eval_ratio(args.family, args.p, args.x) if args.x > 0.0 else math.nan
    print(f"family={args.family.value} p={args.p} x={_fmt(args.x)}")
    print(f"f={_fmt(f)}")
    print(f"ratio={_fmt(ratio)}")
    print(f"lower={_fmt(ec.lower)} upper={_fmt(ec.upper)} direction={ec.direction.value}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    ec = envelope_constants(args.family, args.p)
    print(f"family={args.family.value} p={args.p}")
    print(f"lower={_fmt(ec.lower)} upper={_fmt(ec.upper)} direction={ec.direction.value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .certify import (
        Mode,
        Status,
        VerificationConfig,
        expected_sign_D,
        verify_envelope,
        verify_monotonicity,
        verify_sign_D,
    )

    mode = Mode(args.mode)
    cfg = VerificationConfig(
        grid_points=args.grid_points, interior_margin=args.interior_margin, mode=mode
    )
    reports = [
        verify_envelope(args.family, args.p, cfg),
        verify_monotonicity(args.family, args.p, cfg),
        verify_sign_D(args.family, args.p, expected_sign_D(args.family, args.p), cfg),
    ]
    code = EXIT_OK
    for r in reports:
        print(
            f"{r.claim_id}: {r.status.value} min_margin={_fmt(r.min_margin)} "
            f"worst_x={_fmt(r.worst_x)} cells={r.cells_checked} mode={r.mode.value}"
        )
        if r.status is Status.FALSIFIED:
            code = EXIT_FALSIFIED
        elif r.status is Status.INCONCLUSIVE and code == EXIT_OK:
            code = EXIT_INCONCLUSIVE
    return code


def _cmd_cheb(args) -> int:
    by_nt = args.n is not None and args.t is not None
    by_py = args.p is not None and args.y is not None
    if by_nt == by_py:
        raise UsageError("cheb needs exactly one of (--n, --t) or (--p, --y)")
    if by_nt:
        print(f"U_{args.n}({_fmt(args.t)}) = {_fmt(cheb_u_eval(args.n, args.t))}")
        return EXIT_OK
    lo, hi = corollary_bounds(args.p, args.y)
    value = cheb_u_eval(args.p - 1, math.cos(args.y))
    print(f"p={args.p} y={_fmt(args.y)}")
    print(f"lo={_fmt(lo)}")
    print(f"value={_fmt(value)}")
    print(f"hi={_fmt(hi)}")
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if args.points > _TABLE_ROWS_CAP:
        raise UsageError("--points must be <= 2^20")
    import numpy as np

    ec = envelope_constants(args.family, args.p)
    margin = 1e-3
    xs = np.linspace(margin, HALF_PI - margin, args.points)
    fs = eval_f_grid(args.family, args.p, xs)
    # one format call per row; the constant columns are formatted once
    row = f"{{:.17g}},{{:.17g}},{_fmt(ec.lower)},{_fmt(ec.upper)},{{:.17g}},{{:.17g}}\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,f,lower,upper,margin_lower,margin_upper\n")
            # in blocks of rows, so the text and its Python floats stay at one block
            for i in range(0, args.points, _BLOCK):
                x, f = xs[i : i + _BLOCK], fs[i : i + _BLOCK]
                fh.write("".join(map(row.format, *(c.tolist() for c in (x, f, f - ec.lower, ec.upper - f)))))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    print(f"wrote {args.points} rows to {args.out}")
    return EXIT_OK


class UsageError(ValueError):
    pass


_COMMANDS = {
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "cheb": _cmd_cheb,
    "table": _cmd_table,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ParameterError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
