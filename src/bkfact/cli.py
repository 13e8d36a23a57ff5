"""Command-line front end.

Subcommands: residual, exact, certify, family, sufficient.  Text output by
default; --format json emits canonical JSON (sorted keys, rationals as exact
strings) that is byte-identical across runs on identical inputs.

Exit status: 0 certified/true, 1 violated/false, 2 unknown, 64 usage error,
65 input or parse error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .certify import Unknown, Violated, lifted_sufficient, triangle_sufficient
from .errors import BkfactError, ParseError
from .lpdo import (
    LPDO2,
    PrincipalSymbol,
    characteristic_roots,
    exactness_system_deg1,
    family_deg1,
    residual,
)
from .parsing import parse_poly
from .poly import Box, Poly2, format_poly
from .report import _theorem1_applicable, approx_factor_report, reduced_problem

EX_OK = 0
EX_VIOLATED = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through UsageError
    # so the documented status 64 is used instead.
    def error(self, message):
        raise UsageError(message)


def _parse_rational(text: str, decimals: bool) -> Fraction:
    try:
        if "." in text:
            if not decimals:
                raise UsageError(
                    f"decimal {text!r} rejected; pass --decimal-as-rational or use p/q form")
            return Fraction(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational {text!r}: {exc}") from exc


def _parse_positive(text: str, decimals: bool, flag: str) -> Fraction:
    value = _parse_rational(text, decimals)
    if value <= 0:
        raise UsageError(f"{flag} must be positive, got {text!r}")
    return value


def _parse_poly_arg(text: str, decimals: bool, flag: str) -> Poly2:
    try:
        return parse_poly(text, decimals=decimals)
    except ParseError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="bkfact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    operator_flags = _ArgumentParser(add_help=False)
    operator_flags.add_argument("--a20", default="1", help="symbol coefficient (rational, default 1)")
    operator_flags.add_argument("--a11", default="0", help="symbol coefficient (rational, default 0)")
    operator_flags.add_argument("--a02", default="-1", help="symbol coefficient (rational, default -1)")
    operator_flags.add_argument("--a10", default="0", help="coefficient of Dx (polynomial, default 0)")
    operator_flags.add_argument("--a01", default="0", help="coefficient of Dy (polynomial, default 0)")
    operator_flags.add_argument("--a00", default="0", help="zero-order coefficient (polynomial, default 0)")
    operator_flags.add_argument("--root", default="all", help="characteristic root, or 'all'")
    operator_flags.add_argument("--input", default=None, metavar="FILE",
                                help="batch mode: read one extra flag set per line")

    common = _ArgumentParser(add_help=False)
    common.add_argument("--eps", default="1", help="tolerance (positive rational, default 1)")
    common.add_argument("--m", default="1", help="x half-width (positive rational, default 1)")
    common.add_argument("--n", default="1", help="y half-width (positive rational, default 1)")
    common.add_argument("--depth", type=int, default=12, help="Bernstein subdivision depth (default 12)")
    common.add_argument("--grid", type=int, default=0,
                        help="falsifier grid resolution, 0 = off (default 0)")

    output = _ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--decimal-as-rational", action="store_true",
                        help="accept finite decimals and convert them exactly")

    sub.add_parser("residual", parents=[operator_flags, output],
                   help="print the factorization residual per root")
    sub.add_parser("exact", parents=[operator_flags, output],
                   help="print the exactness residual values and verdict")
    sub.add_parser("certify", parents=[operator_flags, common, output],
                   help="certify |a00 - R| < eps on the open box")
    sub.add_parser("sufficient", parents=[operator_flags, common, output],
                   help="evaluate the theorem1/triangle sufficient conditions only")

    family = sub.add_parser("family", parents=[output],
                            help="print a member of the exactly factorizable affine family")
    family.add_argument("--c3", default="0")
    family.add_argument("--c2", default="0")
    family.add_argument("--c1", default="0")
    family.add_argument("--d1", default="0")
    family.add_argument("--root", default="-1", help="1 or -1 (default -1)")

    return parser


def _build_operator(args, decimals: bool) -> LPDO2:
    symbol = PrincipalSymbol(
        _parse_rational(args.a20, decimals),
        _parse_rational(args.a11, decimals),
        _parse_rational(args.a02, decimals),
    )
    return LPDO2(
        symbol,
        _parse_poly_arg(args.a10, decimals, "--a10"),
        _parse_poly_arg(args.a01, decimals, "--a01"),
        _parse_poly_arg(args.a00, decimals, "--a00"),
    )


def _select_roots(op: LPDO2, root_text: str, decimals: bool):
    roots = characteristic_roots(op.symbol)
    if root_text == "all":
        return roots
    wanted = _parse_rational(root_text, decimals)
    for root in roots:
        if root.omega == wanted:
            return (root,)
    raise InputError(f"{root_text} is not a characteristic root "
                     f"(roots: {roots[0].omega}, {roots[1].omega})")


def _cmd_residual(args, out) -> int:
    decimals = args.decimal_as_rational
    op = _build_operator(args, decimals)
    roots = _select_roots(op, args.root, decimals)
    if args.format == "json":
        payload = {"roots": [{"omega": str(r.omega),
                              "residual": format_poly(residual(op, r).r)}
                             for r in roots]}
        print(json.dumps(payload, sort_keys=True), file=out)
    elif len(roots) == 1:
        print(format_poly(residual(op, roots[0]).r), file=out)
    else:
        for root in roots:
            print(f"omega = {root.omega}: R = {format_poly(residual(op, root).r)}", file=out)
    return EX_OK


def _cmd_exact(args, out) -> int:
    decimals = args.decimal_as_rational
    op = _build_operator(args, decimals)
    roots = _select_roots(op, args.root, decimals)
    records = []
    for root in roots:
        values, ok = exactness_system_deg1(op, root)
        records.append((root, values, ok))
    if args.format == "json":
        payload = {"roots": [{"omega": str(root.omega),
                              "residuals": [str(v) for v in values],
                              "factorizable": ok}
                             for root, values, ok in records]}
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        for root, values, ok in records:
            rendered = ", ".join(str(v) for v in values)
            print(f"omega = {root.omega}: residuals = [{rendered}], "
                  f"factorizable = {'true' if ok else 'false'}", file=out)
    return EX_OK if all(ok for _, _, ok in records) else EX_VIOLATED


def _certify_status(report) -> int:
    kinds = [r.certificate for r in report.roots]
    if any(isinstance(c, Violated) for c in kinds):
        return EX_VIOLATED
    if any(isinstance(c, Unknown) for c in kinds):
        return EX_UNKNOWN
    return EX_OK


def _cmd_certify(args, out) -> int:
    decimals = args.decimal_as_rational
    op = _build_operator(args, decimals)
    roots = _select_roots(op, args.root, decimals)
    box = Box(_parse_positive(args.m, decimals, "--m"), _parse_positive(args.n, decimals, "--n"))
    eps = _parse_positive(args.eps, decimals, "--eps")
    if args.depth < 0:
        raise UsageError("--depth must be nonnegative")
    if args.grid != 0 and args.grid < 2:
        raise UsageError("--grid must be 0 (off) or at least 2")
    report = approx_factor_report(op, box, eps, max_depth=args.depth,
                                  grid_k=args.grid, roots=roots)
    print(report.to_json() if args.format == "json" else report.to_text(), file=out)
    return _certify_status(report)


def _cmd_sufficient(args, out) -> int:
    # Evaluates the cheap sufficient conditions only; no certification runs.
    decimals = args.decimal_as_rational
    op = _build_operator(args, decimals)
    roots = _select_roots(op, args.root, decimals)
    box = Box(_parse_positive(args.m, decimals, "--m"), _parse_positive(args.n, decimals, "--n"))
    eps = _parse_positive(args.eps, decimals, "--eps")
    theorem1_ok = _theorem1_applicable(op, eps, box)
    records = []
    for root in roots:
        difference = op.a00 - residual(op, root).r
        theorem1 = lifted_sufficient(reduced_problem(op, root)) if theorem1_ok else None
        records.append((root, theorem1, triangle_sufficient(difference, box, eps)))
    established = all((theorem1 is True) or triangle for _, theorem1, triangle in records)
    if args.format == "json":
        payload = {
            "parameters": {"eps": str(eps), "m": str(box.m), "n": str(box.n)},
            "roots": [{"omega": str(root.omega),
                       "sufficient": {"theorem1": "n/a" if theorem1 is None else theorem1,
                                      "triangle": triangle}}
                      for root, theorem1, triangle in records],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(f"parameters: eps = {eps}, m = {box.m}, n = {box.n}", file=out)
        for root, theorem1, triangle in records:
            rendered = "n/a" if theorem1 is None else ("true" if theorem1 else "false")
            print(f"omega = {root.omega}: theorem1 = {rendered}, "
                  f"triangle = {'true' if triangle else 'false'}", file=out)
    return EX_OK if established else EX_VIOLATED


def _cmd_family(args, out) -> int:
    decimals = args.decimal_as_rational
    root_text = args.root
    if root_text == "all":
        raise UsageError("family requires --root 1 or --root -1")
    omega = _parse_rational(root_text, decimals)
    if omega not in (1, -1):
        raise UsageError("family requires --root 1 or --root -1")
    values = [_parse_rational(getattr(args, name), decimals) for name in ("c3", "c2", "c1", "d1")]
    op = family_deg1(*values, omega)
    if args.format == "json":
        payload = {"omega": str(omega), "a10": format_poly(op.a10),
                   "a01": format_poly(op.a01), "a00": format_poly(op.a00)}
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(f"a10 = {format_poly(op.a10)}", file=out)
        print(f"a01 = {format_poly(op.a01)}", file=out)
        print(f"a00 = {format_poly(op.a00)}", file=out)
    return EX_OK


_HANDLERS = {
    "residual": _cmd_residual,
    "exact": _cmd_exact,
    "certify": _cmd_certify,
    "sufficient": _cmd_sufficient,
    "family": _cmd_family,
}


def _names_flag(token: str, flag: str) -> bool:
    # argparse accepts any unambiguous prefix, so --inp FILE is --input too.
    name = token.partition("=")[0]
    return len(name) > 2 and flag.startswith(name)


def _run_batch(parser, argv: Sequence[str], path: str, out) -> int:
    # Run the subcommand once per line, parsing the base invocation (minus
    # --input itself) with the line's flags appended, so the line's flags win.
    base, tokens = [], iter(argv)
    for token in tokens:
        if _names_flag(token, "--input"):
            if "=" not in token:
                next(tokens, None)
        else:
            base.append(token)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(f"cannot read batch file: {exc}") from exc
    statuses = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = shlex.split(line)
            # --help would print the usage and exit in the middle of the run.
            if any(word == "-h" or _names_flag(word, "--help") for word in words):
                raise InputError("--help is not allowed in a batch file")
            args = parser.parse_args(base + words)
            if args.input is not None:
                raise InputError("--input is not allowed in a batch file")
            statuses.append(_HANDLERS[args.command](args, out))
        except (UsageError, InputError, BkfactError, ValueError) as exc:
            raise InputError(f"batch line {lineno}: {exc}") from exc
    if EX_VIOLATED in statuses:
        return EX_VIOLATED
    if EX_UNKNOWN in statuses:
        return EX_UNKNOWN
    return EX_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    out, err = sys.stdout, sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "input", None):
            return _run_batch(parser, argv, args.input, out)
        return _HANDLERS[args.command](args, out)
    except UsageError as exc:
        print(f"bkfact: usage error: {exc}", file=err)
        return EX_USAGE
    except InputError as exc:
        print(f"bkfact: input error: {exc}", file=err)
        return EX_DATA
    except (BkfactError, ValueError) as exc:
        print(f"bkfact: input error: {exc}", file=err)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
