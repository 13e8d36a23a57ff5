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


class UsageError(argparse.ArgumentTypeError):
    # argparse names the flag when a type function raises this.
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through UsageError
    # so the documented status 64 is used instead.
    def error(self, message):
        raise UsageError(message)


# A scalar flag's literal: an integer or p/q, or a finite decimal once the "."
# check has passed.  Fraction() alone would also take "1e-3" and "1_0".
_RATIONAL = re.compile(r"\s*[-+]?(?:\d+(?:/\d+|\.\d*)?|\.\d+)\s*")
_INTEGER = re.compile(r"\s*[-+]?\d+\s*")


def _parse_rational(text: str, decimals: bool) -> Fraction:
    if "." in text and not decimals:
        raise UsageError(f"decimal {text!r} rejected; pass --decimal-as-rational or use p/q form")
    if _RATIONAL.fullmatch(text) is None:
        raise UsageError(f"invalid rational {text!r}: expected an integer, p/q or a finite decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"invalid rational {text!r}: zero denominator") from exc
    except ValueError:  # a digit run past the int-conversion limit; not echoed
        digits = max(map(len, re.findall(r"\d+", text)))
        raise UsageError(f"number of {digits} digits is too long") from None


def _parse_int(text: str) -> int:
    # The type of --depth and --grid; int() alone would also take "1_2".
    if _INTEGER.fullmatch(text) is None:
        raise UsageError(f"invalid int value: {text!r}")
    return int(_parse_rational(text, False))


def _rational(args, name: str, positive: bool = False) -> Fraction:
    # A scalar flag's value; its usage errors name the flag as argparse does.
    text = getattr(args, name)
    try:
        value = _parse_rational(text, args.decimal_as_rational)
    except UsageError as exc:
        raise UsageError(f"argument --{name}: {exc}") from exc
    if positive and value <= 0:
        raise UsageError(f"--{name} must be positive, got {text!r}")
    return value


def _poly(args, name: str) -> Poly2:
    try:
        return parse_poly(getattr(args, name), decimals=args.decimal_as_rational)
    except ParseError as exc:
        raise ValueError(f"--{name}: {exc}") from exc


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
                   help="print the factorization residual per root",
                   ).set_defaults(handler=_cmd_residual)
    sub.add_parser("exact", parents=[operator_flags, output],
                   help="print the exactness residual values and verdict",
                   ).set_defaults(handler=_cmd_exact)
    certify = sub.add_parser("certify", parents=[operator_flags, box_flags, output],
                             help="certify |a00 - R| < eps on the open box")
    certify.set_defaults(handler=_cmd_certify)
    certify.add_argument("--depth", type=_parse_int, default=DEFAULT_DEPTH,
                         help=f"Bernstein subdivision depth (default {DEFAULT_DEPTH})")
    certify.add_argument("--grid", type=_parse_int, default=0,
                         help="falsifier grid resolution, 0 = off (default 0)")
    sub.add_parser("sufficient", parents=[operator_flags, box_flags, output],
                   help="evaluate the theorem1/triangle sufficient conditions only",
                   ).set_defaults(handler=_cmd_sufficient)

    family = sub.add_parser("family", parents=[output],
                            help="print a member of the affine family with a00 = R")
    family.set_defaults(handler=_cmd_family)
    for flag in ("--c3", "--c2", "--c1", "--d1"):
        family.add_argument(flag, default="0")
    family.add_argument("--root", default="-1", help="1 or -1 (default -1)")
    for subparser in sub.choices.values():
        # Batch mode parses each line with the subcommand's own parser.
        subparser.set_defaults(parser=subparser)

    return parser


def _operator_and_roots(args) -> tuple[LPDO2, tuple[CharRoot, ...]]:
    symbol = PrincipalSymbol(*(_rational(args, name) for name in ("a20", "a11", "a02")))
    op = LPDO2(symbol, *(_poly(args, name) for name in ("a10", "a01", "a00")))
    roots = characteristic_roots(symbol)
    if args.root == "all":
        return op, roots
    wanted = _rational(args, "root")
    for root in roots:
        if root.omega == wanted:
            return op, (root,)
    raise ValueError(f"{args.root} is not a characteristic root "
                     f"(roots: {roots[0].omega}, {roots[1].omega})")


def _box_and_eps(args) -> tuple[Box, Fraction]:
    box = Box(_rational(args, "m", positive=True), _rational(args, "n", positive=True))
    return box, _rational(args, "eps", positive=True)


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
    omega = None if args.root == "all" else _rational(args, "root")
    if omega not in (1, -1):
        raise UsageError("family requires --root 1 or --root -1")
    values = [_rational(args, name) for name in ("c3", "c2", "c1", "d1")]
    op = family_deg1(*values, omega)
    coeffs = {name: format_poly(getattr(op, name)) for name in ("a10", "a01", "a00")}
    _emit(args, out, {"omega": str(omega), **coeffs},
          [f"{name} = {text}" for name, text in coeffs.items()])
    return EX_OK


def _names_flag(token: str, flag: str) -> bool:
    # argparse takes any unambiguous prefix (--inp FILE is --input), and -h
    # for --help, also with a value attached (-hx, -h=1).
    name = token.partition("=")[0]
    name = "--help" if name.startswith("-h") else name
    return len(name) > 2 and flag.startswith(name)


def _run_batch(invocation: argparse.Namespace, out) -> int:
    # Run the subcommand once per line, parsing the line's flags onto a copy
    # of the invocation's namespace, so the line's flags win for that line.
    try:
        with open(invocation.input, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read batch file: {exc}") from exc
    statuses = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = shlex.split(line)
            # --help would print the usage and exit in the middle of the run,
            # and a line's --input would be ignored.
            for word in words:
                for flag in ("--help", "--input"):
                    if _names_flag(word, flag):
                        raise ValueError(f"{flag} is not allowed in a batch file")
            args = invocation.parser.parse_args(words, argparse.Namespace(**vars(invocation)))
            statuses.append(args.handler(args, out))
        except UsageError as exc:
            raise UsageError(f"batch line {lineno}: {exc}") from exc
        except (BkfactError, ValueError) as exc:
            raise ValueError(f"batch line {lineno}: {_data_message(exc)}") from exc
    return _worst(statuses)


def _data_message(exc: Exception) -> str:
    # The parser bounds the input's integers, so str() refuses only computed ones.
    if str(exc).startswith("Exceeds the limit"):
        return (f"a computed result, not the input, has more than "
                f"{sys.get_int_max_str_digits()} digits and cannot be printed")
    return str(exc)


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
            status = _run_batch(args, out)
        else:
            status = args.handler(args, out)
        out.flush()  # so that a failure to write the tail is caught here too
        return status
    except BrokenPipeError:
        _to_devnull(out)
        return EX_IOERR
    except UsageError as exc:
        message, status = f"usage error: {exc}", EX_USAGE
    except (BkfactError, ValueError) as exc:
        message, status = f"input error: {_data_message(exc)}", EX_DATA
    try:
        print(f"bkfact: {message}", file=err, flush=True)
    except BrokenPipeError:  # a closed stderr keeps the error status
        _to_devnull(err)
    return status


if __name__ == "__main__":
    sys.exit(main())
