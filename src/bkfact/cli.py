"""Command-line front end.

Subcommands: residual, exact, certify, family, sufficient.  Text output by
default; --format json emits canonical JSON (sorted keys, rationals as exact
strings) that is byte-identical across runs on identical inputs.

Exit status: 0 certified/true, 1 violated/false, 2 unknown, 64 usage error,
65 input or parse error, 74 stdout closed before all output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .certify import DEFAULT_DEPTH
from .errors import BkfactError, ParseError
from .lpdo import (
    LPDO2,
    CharRoot,
    PrincipalSymbol,
    characteristic_roots,
    exactness_system_deg1,
    family_deg1,
    residual,
)
from .parsing import parse_poly
from .poly import Box, Poly2, format_poly
from .report import (
    approx_factor_report,
    parameters_json,
    parameters_text,
    sufficient_conditions,
    sufficient_json,
    sufficient_text,
)

EX_OK = 0
EX_VIOLATED = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65
EX_IOERR = 74
_CERTIFICATE_STATUS = {"inside": EX_OK, "violated": EX_VIOLATED, "unknown": EX_UNKNOWN}
# Largest --depth and --grid accepted: subdivision visits up to 2^(depth+1) - 1
# rectangles and the falsifier (2*grid - 1)^2 points.
MAX_DEPTH = 16
MAX_GRID = 1024


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through UsageError
    # so the documented status 64 is used instead.
    def error(self, message):
        raise UsageError(message)


# A scalar flag's literal: an integer or p/q, or a finite decimal once the "."
# check has passed.  Fraction() alone would also take "1e-3" and "1_0".
_RATIONAL = re.compile(r"\s*[-+]?(?:\d+(?:/\d+|\.\d*)?|\.\d+)\s*")


def _parse_rational(text: str, decimals: bool) -> Fraction:
    if "." in text and not decimals:
        raise UsageError(f"decimal {text!r} rejected; pass --decimal-as-rational or use p/q form")
    if _RATIONAL.fullmatch(text) is None:
        raise UsageError(f"invalid rational {text!r}: expected an integer, p/q or a finite decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"invalid rational {text!r}: zero denominator") from exc
    except ValueError as exc:
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

    box_flags = _ArgumentParser(add_help=False)
    box_flags.add_argument("--eps", default="1", help="tolerance (positive rational, default 1)")
    box_flags.add_argument("--m", default="1", help="x half-width (positive rational, default 1)")
    box_flags.add_argument("--n", default="1", help="y half-width (positive rational, default 1)")

    output = _ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument("--decimal-as-rational", action="store_true",
                        help="accept finite decimals and convert them exactly")

    sub.add_parser("residual", parents=[operator_flags, output],
                   help="print the factorization residual per root")
    sub.add_parser("exact", parents=[operator_flags, output],
                   help="print the exactness residual values and verdict")
    certify = sub.add_parser("certify", parents=[operator_flags, box_flags, output],
                             help="certify |a00 - R| < eps on the open box")
    certify.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                         help=f"Bernstein subdivision depth (default {DEFAULT_DEPTH})")
    certify.add_argument("--grid", type=int, default=0,
                         help="falsifier grid resolution, 0 = off (default 0)")
    sub.add_parser("sufficient", parents=[operator_flags, box_flags, output],
                   help="evaluate the theorem1/triangle sufficient conditions only")

    family = sub.add_parser("family", parents=[output],
                            help="print a member of the affine family with a00 = R")
    family.add_argument("--c3", default="0")
    family.add_argument("--c2", default="0")
    family.add_argument("--c1", default="0")
    family.add_argument("--d1", default="0")
    family.add_argument("--root", default="-1", help="1 or -1 (default -1)")

    return parser


def _operator_and_roots(args) -> tuple[LPDO2, tuple[CharRoot, ...]]:
    decimals = args.decimal_as_rational
    symbol = PrincipalSymbol(
        _parse_rational(args.a20, decimals),
        _parse_rational(args.a11, decimals),
        _parse_rational(args.a02, decimals),
    )
    op = LPDO2(
        symbol,
        _parse_poly_arg(args.a10, decimals, "--a10"),
        _parse_poly_arg(args.a01, decimals, "--a01"),
        _parse_poly_arg(args.a00, decimals, "--a00"),
    )
    roots = characteristic_roots(symbol)
    if args.root == "all":
        return op, roots
    wanted = _parse_rational(args.root, decimals)
    for root in roots:
        if root.omega == wanted:
            return op, (root,)
    raise InputError(f"{args.root} is not a characteristic root "
                     f"(roots: {roots[0].omega}, {roots[1].omega})")


def _box_and_eps(args) -> tuple[Box, Fraction]:
    decimals = args.decimal_as_rational
    box = Box(_parse_positive(args.m, decimals, "--m"), _parse_positive(args.n, decimals, "--n"))
    return box, _parse_positive(args.eps, decimals, "--eps")


def _emit(args, out, payload: dict, lines: list[str]) -> None:
    # The one text/JSON switch of the record-printing subcommands.
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print("\n".join(lines), file=out)


def _cmd_residual(args, out) -> int:
    op, roots = _operator_and_roots(args)
    records = [(root, format_poly(residual(op, root).r)) for root in roots]
    if len(records) == 1:
        lines = [records[0][1]]
    else:
        lines = [f"omega = {root.omega}: R = {text}" for root, text in records]
    payload = {"roots": [{"omega": str(root.omega), "residual": text} for root, text in records]}
    _emit(args, out, payload, lines)
    return EX_OK


def _cmd_exact(args, out) -> int:
    op, roots = _operator_and_roots(args)
    records = [(root, *exactness_system_deg1(op, root)) for root in roots]
    payload = {"roots": [{"omega": str(root.omega),
                          "residuals": [str(v) for v in values],
                          "factorizable": ok}
                         for root, values, ok in records]}
    lines = [f"omega = {root.omega}: residuals = [{', '.join(str(v) for v in values)}], "
             f"factorizable = {'true' if ok else 'false'}"
             for root, values, ok in records]
    _emit(args, out, payload, lines)
    return EX_OK if all(ok for _, _, ok in records) else EX_VIOLATED


def _worst(statuses: list[int]) -> int:
    # A violation outranks an unknown, which outranks success.
    for status in (EX_VIOLATED, EX_UNKNOWN):
        if status in statuses:
            return status
    return EX_OK


def _cmd_certify(args, out) -> int:
    op, roots = _operator_and_roots(args)
    box, eps = _box_and_eps(args)
    if not 0 <= args.depth <= MAX_DEPTH:
        raise UsageError(f"--depth must be between 0 and {MAX_DEPTH}")
    if args.grid != 0 and not 2 <= args.grid <= MAX_GRID:
        raise UsageError(f"--grid must be 0 (off) or between 2 and {MAX_GRID}")
    report = approx_factor_report(op, box, eps, max_depth=args.depth,
                                  grid_k=args.grid, roots=roots)
    print(report.to_json() if args.format == "json" else report.to_text(), file=out)
    return _worst([_CERTIFICATE_STATUS[r.certificate.kind] for r in report.roots])


def _cmd_sufficient(args, out) -> int:
    # Evaluates the cheap sufficient conditions only; no certification runs.
    op, roots = _operator_and_roots(args)
    box, eps = _box_and_eps(args)
    records = [(root, *sufficient_conditions(op, root, op.a00 - residual(op, root).r, box, eps))
               for root in roots]
    payload = {
        "parameters": parameters_json(eps, box.m, box.n),
        "roots": [{"omega": str(root.omega), "sufficient": sufficient_json(theorem1, triangle)}
                  for root, theorem1, triangle in records],
    }
    lines = [parameters_text(eps, box.m, box.n)]
    lines += [f"omega = {root.omega}: {sufficient_text(theorem1, triangle)}"
              for root, theorem1, triangle in records]
    _emit(args, out, payload, lines)
    established = all(theorem1 is True or triangle for _, theorem1, triangle in records)
    return EX_OK if established else EX_VIOLATED


def _cmd_family(args, out) -> int:
    decimals = args.decimal_as_rational
    omega = None if args.root == "all" else _parse_rational(args.root, decimals)
    if omega not in (1, -1):
        raise UsageError("family requires --root 1 or --root -1")
    values = [_parse_rational(getattr(args, name), decimals) for name in ("c3", "c2", "c1", "d1")]
    op = family_deg1(*values, omega)
    coeffs = {name: format_poly(getattr(op, name)) for name in ("a10", "a01", "a00")}
    _emit(args, out, {"omega": str(omega), **coeffs},
          [f"{name} = {text}" for name, text in coeffs.items()])
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


# The POSIX shell-word subset batch files use: bare characters, '...', and
# "..." without backslashes, adjacent parts forming one word, separated by
# shlex's whitespace " \t\r\n".  Each unit of a word starts with a
# different character, so a failed match backtracks in linear time.
_WORD = r"""(?:[^ \t\r\n'"\\]|'[^']*'|"[^"\\]*")+"""
_WORDS = re.compile(_WORD)
_LINE = re.compile(rf"[ \t\r\n]*(?:{_WORD}(?:[ \t\r\n]+|\Z))*")
_QUOTED = re.compile(r"""'([^']*)'|"([^"]*)"|([^'"]+)""")


def _split(line: str) -> list[str]:
    """shlex.split(line), by regex when the line is in the subset above.

    Any other line (a backslash, an unbalanced quote) goes to shlex.split,
    which also raises its own ValueError on it.
    """
    if _LINE.fullmatch(line) is None:
        return shlex.split(line)
    return ["".join(["".join(part) for part in _QUOTED.findall(word)])
            if "'" in word or '"' in word else word
            for word in _WORDS.findall(line)]


def _run_batch(parser, argv: Sequence[str], path: str, out) -> int:
    # Run the subcommand once per line, parsing the base invocation with the
    # line's flags appended, so the line's flags win.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read batch file: {exc}") from exc
    statuses = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = _split(line)
            # --help would print the usage and exit in the middle of the run,
            # and a line's --input would be ignored.
            for word in words:
                for flag in ("--help", "--input"):
                    if _names_flag("--help" if word == "-h" else word, flag):
                        raise InputError(f"{flag} is not allowed in a batch file")
            args = parser.parse_args([*argv, *words])
            statuses.append(_HANDLERS[args.command](args, out))
        except UsageError as exc:
            raise UsageError(f"batch line {lineno}: {exc}") from exc
        except (InputError, BkfactError, ValueError) as exc:
            raise InputError(f"batch line {lineno}: {exc}") from exc
    return _worst(statuses)


def _to_devnull(stream) -> None:
    # The reader is gone (e.g. "| head -n 1").  Point the stream at devnull so
    # that the interpreter's flush at exit has nowhere to fail.
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    out, err = sys.stdout, sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "input", None) is not None:
            status = _run_batch(parser, argv, args.input, out)
        else:
            status = _HANDLERS[args.command](args, out)
        out.flush()  # so that a failure to write the tail is caught here too
        return status
    except BrokenPipeError:
        _to_devnull(out)
        return EX_IOERR
    except UsageError as exc:
        message, status = f"usage error: {exc}", EX_USAGE
    except (InputError, BkfactError, ValueError) as exc:
        message, status = f"input error: {exc}", EX_DATA
    try:
        print(f"bkfact: {message}", file=err, flush=True)
    except BrokenPipeError:  # a closed stderr keeps the error status
        _to_devnull(err)
    return status


if __name__ == "__main__":
    sys.exit(main())
