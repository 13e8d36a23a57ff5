"""CLI behavior: golden outputs, JSON schema and determinism, exit codes."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import validate

import bkfact
from bkfact.cli import MAX_DEPTH, MAX_GRID, main
from bkfact.parsing import MAX_DEGREE, MAX_NESTING

GOLDEN = Path(__file__).parent / "golden"

REPORT_SCHEMA = {
    "type": "object",
    "required": ["parameters", "roots"],
    "additionalProperties": False,
    "properties": {
        "parameters": {
            "type": "object",
            "required": ["eps", "m", "n"],
            "additionalProperties": False,
            "properties": {"eps": {"type": "string"}, "m": {"type": "string"},
                           "n": {"type": "string"}},
        },
        "roots": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["omega", "residual", "exact", "certificate", "sufficient"],
                "additionalProperties": False,
                "properties": {
                    "omega": {"type": "string"},
                    "residual": {"type": "string"},
                    "exact": {"type": "boolean"},
                    "certificate": {
                        "oneOf": [
                            {"type": "object", "additionalProperties": False,
                             "required": ["kind", "margin"],
                             "properties": {"kind": {"const": "inside"},
                                            "margin": {"type": "string"}}},
                            {"type": "object", "additionalProperties": False,
                             "required": ["kind", "witness", "value"],
                             "properties": {"kind": {"const": "violated"},
                                            "witness": {"type": "array",
                                                        "items": {"type": "string"},
                                                        "minItems": 2, "maxItems": 2},
                                            "value": {"type": "string"}}},
                            {"type": "object", "additionalProperties": False,
                             "required": ["kind", "gap"],
                             "properties": {"kind": {"const": "unknown"},
                                            "gap": {"type": "string"}}},
                        ]
                    },
                    "sufficient": {
                        "type": "object",
                        "required": ["theorem1", "triangle"],
                        "additionalProperties": False,
                        "properties": {
                            "theorem1": {"oneOf": [{"type": "boolean"}, {"const": "n/a"}]},
                            "triangle": {"type": "boolean"},
                        },
                    },
                },
            },
        },
    },
}


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestGolden:
    def test_certify_default(self, capsys):
        status, out, _ = run(capsys, "certify")
        assert status == 0
        assert out == (GOLDEN / "certify_default.txt").read_text()

    def test_family(self, capsys):
        status, out, _ = run(capsys, "family", "--c3", "2", "--c2", "3",
                             "--c1", "5", "--d1", "1", "--root", "-1")
        assert status == 0
        assert out == (GOLDEN / "family_affine.txt").read_text()

    def test_residual_single_root(self, capsys):
        status, out, _ = run(capsys, "residual", "--a10", "x", "--a01", "y", "--root", "1")
        assert status == 0
        assert out == (GOLDEN / "residual_cross.txt").read_text()

    def test_batch_quadratic(self, capsys):
        # Degree <= 2 cases: margin, interior and boundary-only violations,
        # boundary-tight margin 0, critical lines, non-canonical symbols.
        status, out, err = run(capsys, "certify", "--format", "json",
                               "--input", str(GOLDEN / "batch_quadratic.txt"))
        assert (status, err) == (1, "")
        assert out == (GOLDEN / "batch_quadratic.json").read_text()

    def test_batch_quoting(self, capsys):
        # Bare, quoted and adjacent parts, tabs, --flag=value, a backslash,
        # decimals, and a "#" inside quotes on the last line, which fails.
        status, out, err = run(capsys, "certify", "--input", str(GOLDEN / "batch_quoting.txt"))
        assert (status, err) == (65, "bkfact: input error: batch line 21: --a00: unexpected "
                                     "character '#' at position 2 (expected number, x, y, "
                                     "operator, parenthesis)\n")
        assert out == (GOLDEN / "batch_quoting.out").read_text()


SUBCOMMAND_GOLDENS = json.loads((GOLDEN / "subcommands.json").read_text())


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_GOLDENS))
def test_subcommand_golden(capsys, name):
    # residual, exact, sufficient and family in text and JSON form.
    case = SUBCOMMAND_GOLDENS[name]
    status, out, err = run(capsys, *case["argv"])
    assert (status, err) == (case["status"], case["stderr"])
    assert out == (GOLDEN / "subcommands" / f"{name}.out").read_text()


class TestJson:
    def test_schema_and_determinism(self, capsys):
        args = ("certify", "--a10", "x", "--a01", "y", "--eps", "2", "--format", "json")
        status1, out1, _ = run(capsys, *args)
        status2, out2, _ = run(capsys, *args)
        assert status1 == status2
        assert out1 == out2  # byte-identical across runs
        payload = json.loads(out1)
        validate(payload, REPORT_SCHEMA)
        assert [r["omega"] for r in payload["roots"]] == ["-1", "1"]

    def test_violated_schema(self, capsys):
        status, out, _ = run(capsys, "certify", "--a00", "4 - x^2", "--eps", "4",
                             "--format", "json")
        assert status == 1
        payload = json.loads(out)
        validate(payload, REPORT_SCHEMA)
        cert = payload["roots"][0]["certificate"]
        assert cert["kind"] == "violated"
        assert cert["witness"] == ["0", "0"]

    def test_unknown_schema(self, capsys):
        status, out, _ = run(capsys, "certify", "--a00", "x^4", "--eps", "1/2",
                             "--depth", "0", "--format", "json")
        assert status == 2
        payload = json.loads(out)
        validate(payload, REPORT_SCHEMA)
        assert payload["roots"][0]["certificate"]["kind"] == "unknown"


class TestExitCodes:
    def test_inside_is_zero(self, capsys):
        assert run(capsys, "certify")[0] == 0

    def test_violated_is_one(self, capsys):
        assert run(capsys, "certify", "--a00", "2")[0] == 1

    def test_unknown_is_two(self, capsys):
        assert run(capsys, "certify", "--a00", "x^4", "--eps", "1/2", "--depth", "0")[0] == 2

    def test_boundary_tight_is_zero(self, capsys):
        status, out, _ = run(capsys, "certify", "--a00", "x^4", "--eps", "1", "--depth", "0")
        assert status == 0 and "certificate = inside(margin = 0)" in out

    def test_usage_error(self, capsys):
        status, _, err = run(capsys, "certify", "--eps", "0")
        assert status == 64 and "usage error" in err
        assert run(capsys, "nonsense")[0] == 64
        assert run(capsys, "certify", "--grid", "1")[0] == 64
        assert run(capsys, "family", "--root", "all")[0] == 64

    def test_parse_error(self, capsys):
        status, _, err = run(capsys, "residual", "--a10", "x^-1")
        assert status == 65 and "input error" in err
        assert run(capsys, "residual", "--a10", "2x")[0] == 65

    @pytest.mark.parametrize("text, message", [
        ("\u00b2", "unexpected character '\u00b2' at position 0 (expected number, x, y, "
                   "operator, parenthesis)"),
        ("x^\u2460", "unexpected character '\u2460' at position 2 (expected number, x, y, "
                     "operator, parenthesis)"),
        ("9" * 5000, "number of 5000 digits is too long at position 0"),
        ("x^" + "1" * 5000, "number of 5000 digits is too long at position 2"),
        ("2^3000000", "exponent 3000000 exceeds 32 at position 2"),
    ])
    def test_literal_errors_name_the_flag(self, capsys, text, message):
        status, out, err = run(capsys, "certify", "--a00", text)
        assert (status, out, err) == (65, "", f"bkfact: input error: --a00: {message}\n")

    def test_constant_power_names_the_flag(self, capsys):
        # 2^1024 has 1025 bits, so its 32nd power would print with 9,865 digits.
        status, out, err = run(capsys, "certify", "--a00", "2^32^32^32")
        assert (status, out, err) == (65, "", "bkfact: input error: --a00: constant power of "
                                              "up to 32800 bits exceeds 14000 at position 8\n")

    @pytest.mark.parametrize("args, message", [
        (("certify", "--a00", "9" * 3000 + "*" + "9" * 3000),
         "--a00: product of up to 19933 bits exceeds 14000 at position 3000"),
        (("residual", "--a10", "(x+2^32^30)^32"),
         "--a10: power of up to 30752 bits exceeds 14000 at position 12"),
        (("certify", "--a00", "*".join(["2^32^32"] * 15)),
         "--a00: product of up to 14339 bits exceeds 14000 at position 103"),
        (("certify", "--a01", "1/" + "7" * 4000 + " + 1/" + "3" * 3999 + "1"),
         "--a01: sum of 26574 bits exceeds 14000 at position 4003"),
    ])
    def test_long_coefficients_name_the_flag(self, capsys, args, message):
        status, out, err = run(capsys, *args)
        assert (status, out, err) == (65, "", f"bkfact: input error: {message}\n")

    def test_deep_nesting_names_the_flag(self, capsys, tmp_path):
        nested = "(" * 200 + "x" + ")" * 200
        message = f"--a10: parentheses nested deeper than {MAX_NESTING} at position {MAX_NESTING}"
        assert run(capsys, "residual", "--a10", nested) == (
            65, "", f"bkfact: input error: {message}\n")
        batch = tmp_path / "batch.txt"
        batch.write_text(f"--a10=x\n--a10={'-' * 1000}x\n--a10='{nested}'\n--a10=y\n")
        status, out, err = run(capsys, "residual", "--input", str(batch))
        assert (status, err) == (65, f"bkfact: input error: batch line 3: {message}\n")
        assert out == run(capsys, "residual", "--a10=x")[1] * 2

    @pytest.mark.parametrize("argv", [
        ["residual", "--a10", "7" * 2500 + "*x"],  # R squares a10's coefficient
        ["certify", "--a00", "x^32", "--m", "9" * 140, "--eps", "1/2"],  # witness value
    ])
    def test_results_past_int_string_limit(self, capsys, tmp_path, argv):
        # The parser bounds the operator's coefficients, not what is computed
        # from them; a result too long to print is an input error.
        message = "a computed result, not the input, has more than 4300 digits and cannot be printed"
        assert run(capsys, *argv) == (65, "", f"bkfact: input error: {message}\n")
        batch = tmp_path / "batch.txt"
        batch.write_text("--a00 0\n" + shlex.join(argv[1:]) + "\n")
        assert run(capsys, argv[0], "--input", str(batch)) == (
            65, run(capsys, argv[0], "--a00", "0")[1],
            f"bkfact: input error: batch line 2: {message}\n")

    def test_input_errors(self, capsys):
        # elliptic symbol: no rational characteristic roots
        assert run(capsys, "residual", "--a02", "1")[0] == 65
        # requested root is not a root of the symbol
        assert run(capsys, "residual", "--root", "2")[0] == 65
        # exactness system needs affine coefficients
        assert run(capsys, "exact", "--a00", "x^2")[0] == 65

    def test_exact_verdict_statuses(self, capsys):
        ok = run(capsys, "exact", "--a10", "2*x+3*y+5", "--a01", "2*x+3*y+1",
                 "--a00", "4", "--root", "-1")
        assert ok[0] == 0
        bad = run(capsys, "exact", "--a00", "x", "--root", "-1")
        assert bad[0] == 1

    def test_sufficient_statuses(self, capsys):
        assert run(capsys, "sufficient", "--a00", "1/8*x")[0] == 0
        assert run(capsys, "sufficient", "--a00", "2")[0] == 1


class TestFlags:
    def test_decimal_flag(self, capsys):
        rejected = run(capsys, "certify", "--eps", "0.5")
        assert rejected[0] == 64
        accepted = run(capsys, "certify", "--eps", "0.5", "--decimal-as-rational")
        assert accepted[0] == 0
        status, out, _ = run(capsys, "certify", "--eps", "1/2", "--format", "json")
        assert json.loads(out)["parameters"]["eps"] == "1/2"

    @pytest.mark.parametrize("command, flag", [
        *(("certify", flag) for flag in ("--a20", "--a11", "--a02", "--root", "--eps", "--m",
                                         "--n")),
        *(("family", flag) for flag in ("--c3", "--c2", "--c1", "--d1", "--root")),
    ])
    @pytest.mark.parametrize("text, decimals", [("1e-3", False), ("1_0", False), ("1.5e1", True)])
    def test_scalar_flags_take_literals_only(self, capsys, command, flag, text, decimals):
        # Fraction() alone would read these as 1/1000, 10 and 15.
        argv = [command, f"{flag}={text}"] + ["--decimal-as-rational"] * decimals
        assert run(capsys, *argv) == (64, "", f"bkfact: usage error: argument {flag}: invalid "
                                              f"rational {text!r}: expected an integer, p/q or a "
                                              "finite decimal\n")

    @pytest.mark.parametrize("text, decimals, same_as", [
        (" +1/2 ", False, "1/2"), ("\u0663/\u0664", False, "3/4"), ("5", False, "5"),
        (".5", True, "1/2"), ("5.", True, "5"), ("+0.25\t", True, "1/4"),
    ])
    def test_scalar_literal_forms(self, capsys, text, decimals, same_as):
        argv = ["certify", "--a00", "1/2*x"] + ["--decimal-as-rational"] * decimals
        assert run(capsys, *argv, "--eps", text) == run(capsys, *argv, "--eps", same_as)

    @pytest.mark.parametrize("argv", [["certify", "--eps"], ["certify", "--a20"],
                                      ["family", "--root", "1", "--c1"]])
    def test_zero_denominator(self, capsys, argv):
        assert run(capsys, *argv, "1/0") == (
            64, "", f"bkfact: usage error: argument {argv[-1]}: invalid rational '1/0': "
                    "zero denominator\n")

    def test_root_filter(self, capsys):
        status, out, _ = run(capsys, "certify", "--root", "-1", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        assert [r["omega"] for r in payload["roots"]] == ["-1"]

    def test_residual_all_roots_labeled(self, capsys):
        status, out, _ = run(capsys, "residual", "--a10", "x", "--a01", "y")
        assert status == 0
        lines = out.splitlines()
        assert lines[0].startswith("omega = -1: R = ")
        assert lines[1].startswith("omega = 1: R = ")

    def test_batch_input(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text(
            "# two instances, one violated\n"
            "--a00 0\n"
            '--a00 "2"\n')
        status, out, _ = run(capsys, "certify", "--input", str(batch))
        assert status == 1
        assert out.count("parameters:") == 2

    def test_batch_missing_file(self, capsys):
        assert run(capsys, "certify", "--input", "/nonexistent/batch.txt")[0] == 65

    def test_batch_not_utf8(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_bytes(b"--a00 0\n--a00 '\xff'\n")
        status, out, err = run(capsys, "certify", "--input", str(batch))
        assert (status, out) == (65, "")
        assert err == ("bkfact: input error: cannot read batch file: 'utf-8' codec can't "
                       "decode byte 0xff in position 15: invalid start byte\n")

    @pytest.mark.parametrize("argv", [["--input", ""], ["--input="]])
    def test_batch_empty_path(self, capsys, argv):
        # An empty path is still batch mode, not a single-shot run.
        status, out, err = run(capsys, "certify", *argv)
        assert (status, out) == (65, "")
        assert "cannot read batch file" in err

    @pytest.mark.parametrize("flag, cap, low", [("--depth", MAX_DEPTH, -1), ("--grid", MAX_GRID, 1)])
    def test_subdivision_caps(self, capsys, tmp_path, flag, cap, low):
        assert run(capsys, "certify", flag, str(cap))[0] == 0
        for value in (low, cap + 1):
            status, out, err = run(capsys, "certify", flag, str(value))
            assert (status, out) == (64, "") and err.startswith(f"bkfact: usage error: {flag} must")
        batch = tmp_path / "batch.txt"
        batch.write_text(f"--a00 2\n{flag} {cap + 1}\n")
        status, out, err = run(capsys, "certify", "--input", str(batch))
        assert status == 64 and out == run(capsys, "certify", "--a00", "2")[1]
        assert err.startswith(f"bkfact: usage error: batch line 2: {flag} must")
        batch.write_text("--a00 2\n")
        assert run(capsys, "certify", flag, str(cap + 1), "--input", str(batch))[0] == 64

    @pytest.mark.parametrize("flag, text", [("--depth", "1_2"), ("--grid", "1_6"),
                                            ("--depth", "4/2"), ("--grid", "2.")])
    def test_subdivision_flags_take_integers_only(self, capsys, tmp_path, flag, text):
        # int() alone would run 1_2 at depth 12 and accept 1_6 as 16.
        message = f"argument {flag}: invalid int value: {text!r}"
        assert run(capsys, "certify", f"{flag}={text}") == (
            64, "", f"bkfact: usage error: {message}\n")
        batch = tmp_path / "batch.txt"
        batch.write_text(f"--a00 2\n{flag}={text}\n")
        assert run(capsys, "certify", "--input", str(batch)) == (
            64, run(capsys, "certify", "--a00", "2")[1],
            f"bkfact: usage error: batch line 2: {message}\n")

    @pytest.mark.parametrize("text", [" 3 ", "+3", "\u0663", "03"])
    def test_subdivision_literal_forms(self, capsys, text):
        argv = ["certify", "--a00", "x^4", "--eps", "1/2"]
        assert run(capsys, *argv, "--depth", text) == run(capsys, *argv, "--depth", "3")

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--m", "1/" + "9" * 5000], "number of 5000 digits is too long"),
        (["certify", "--eps", "9" * 4999 + ".5", "--decimal-as-rational"],
         "number of 4999 digits is too long"),
        (["certify", "--a20", "-" + "7" * 4400], "number of 4400 digits is too long"),
        (["certify", "--depth", "9" * 5000], "argument --depth: number of 5000 digits is too long"),
    ])
    def test_overlong_scalar_literal(self, capsys, tmp_path, argv, message):
        # One short line without the literal or Python's int-limit advice.
        # It names the flag: argparse prefixes --depth's message, and the
        # scalar flags get the same prefix.
        if not message.startswith("argument "):
            message = f"argument {argv[1]}: {message}"
        assert run(capsys, *argv) == (64, "", f"bkfact: usage error: {message}\n")
        assert len(f"bkfact: usage error: {message}\n") < 200
        batch = tmp_path / "batch.txt"
        batch.write_text("--a00 0\n" + shlex.join(argv[1:]) + "\n")
        assert run(capsys, "certify", "--input", str(batch)) == (
            64, run(capsys, "certify")[1], f"bkfact: usage error: batch line 2: {message}\n")

    @pytest.mark.parametrize("line, message", [
        ("--m=1e-3", "usage error: batch line 2: argument --m: invalid rational '1e-3': "
                     "expected an integer, p/q or a finite decimal"),
        ("--root 1.5", "usage error: batch line 2: argument --root: decimal '1.5' rejected; "
                       "pass --decimal-as-rational or use p/q form"),
        ("--eps 0", "usage error: batch line 2: --eps must be positive, got '0'"),
        ("--a01 2x", "input error: batch line 2: --a01: unexpected variable 'x' at "
                     "position 1 (expected +, -, *, ^, end of input)"),
    ])
    def test_flag_errors_name_line_and_flag(self, capsys, tmp_path, line, message):
        batch = tmp_path / "batch.txt"
        batch.write_text(f"--a00 2\n{line}\n--a00 0\n")
        status = 64 if message.startswith("usage") else 65
        assert run(capsys, "certify", "--input", str(batch)) == (
            status, run(capsys, "certify", "--a00", "2")[1], f"bkfact: {message}\n")

    def test_degree_cap(self, capsys):
        status, out, err = run(capsys, "certify", "--a00", "(x+1/3*y-2/7)^200")
        assert (status, out) == (65, "")
        assert err == ("bkfact: input error: --a00: power of total degree 200 exceeds "
                       f"{MAX_DEGREE} at position 14\n")

    def test_subdivision_flags_belong_to_certify(self, capsys):
        assert run(capsys, "sufficient", "--depth", "3")[0] == 64
        assert run(capsys, "sufficient", "--grid", "4")[0] == 64
        assert run(capsys, "certify", "--depth", "3", "--grid", "4")[0] == 0


# Per-subcommand batch lines.  The second line overrides base flags and the
# third does not, so state leaking from one parsed line to the next shows.
BATCH_BASE = {
    "certify": ["--eps", "1/2", "--a10", "1/2*y"],
    "sufficient": ["--eps", "1/2", "--a10", "1/2*y"],
    "residual": ["--a10", "1/2*y"],
}
BATCH_LINES = {
    "certify": ['--a00 "1/8*x + 1/16*y"', "--a00 2 --eps 2 --root 1", "--a00 2",
                '--a00 "x^4" --depth 2'],
    "sufficient": ['--a00 "1/8*x"', "--a00 1 --eps 2 --root 1", "--a00 1"],
    "residual": ['--a01 "x*y"', "--a10 x --root 1", "--a01 y"],
}


def _worst(statuses):
    if 1 in statuses:
        return 1
    return 2 if 2 in statuses else 0


class TestBatch:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", sorted(BATCH_LINES))
    def test_matches_single_shot(self, capsys, tmp_path, command, fmt):
        base = [command, "--format", fmt] + BATCH_BASE[command]
        lines = BATCH_LINES[command]
        batch = tmp_path / "batch.txt"
        batch.write_text("# comment\n\n" + "\n".join(lines) + "\n")
        expected, statuses = "", []
        for line in lines:
            status, out, err = run(capsys, *base, *shlex.split(line))
            assert err == ""
            expected += out
            statuses.append(status)
        assert command == "residual" or len(set(statuses)) > 1  # residual always exits 0
        status, out, err = run(capsys, *base, "--input", str(batch))
        assert (status, out, err) == (_worst(statuses), expected, "")

    def test_self_reference_rejected(self, capsys, tmp_path):
        batch = tmp_path / "self.txt"
        batch.write_text(f"# names itself\n--input {batch}\n")
        status, out, err = run(capsys, "certify", "--input", str(batch))
        assert status == 65 and out == ""
        assert err == "bkfact: input error: batch line 2: --input is not allowed in a batch file\n"

    @pytest.mark.parametrize("flag", ["--help", "-h", "--he", "-h=1", "--he=1", "-hx", "-h1"])
    def test_help_rejected(self, capsys, tmp_path, flag):
        # argparse would print the help and exit 0, skipping the third line
        # and losing the first line's violation.
        batch = tmp_path / "batch.txt"
        batch.write_text(f"--a00 2\n{flag}\n--a00 3\n")
        status, out, err = run(capsys, "certify", "--input", str(batch))
        assert status == 65 and out == run(capsys, "certify", "--a00", "2")[1]
        assert err == "bkfact: input error: batch line 2: --help is not allowed in a batch file\n"

    def test_abbreviated_input_flag(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("--a00 0\n")
        assert run(capsys, "certify", "--inp", str(batch))[:2] == run(capsys, "certify")[:2]
        assert run(capsys, "certify", f"--input={batch}")[:2] == run(capsys, "certify")[:2]
        batch.write_text(f"--inp={batch}\n")
        status, _, err = run(capsys, "certify", "--input", str(batch))
        assert status == 65 and "batch line 1: --input is not allowed" in err

    @pytest.mark.parametrize("line, flag", [("--input x", "--input"), ("--inp=x", "--input"),
                                            ("--help", "--help")])
    @pytest.mark.parametrize("rest", ["", " --bogus"])
    def test_refused_flags_win_over_other_errors(self, capsys, tmp_path, line, flag, rest):
        # Checked before the line is parsed, so an unknown flag after it
        # does not turn the error into a usage error.
        batch = tmp_path / "batch.txt"
        batch.write_text(f"--a00 0\n{line}{rest}\n")
        status, out, err = run(capsys, "certify", "--input", str(batch))
        assert (status, out) == (65, run(capsys, "certify", "--a00", "0")[1])
        assert err == f"bkfact: input error: batch line 2: {flag} is not allowed in a batch file\n"

    def test_value_errors_name_the_line(self, capsys, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text('--a00 0\n--a00 "x\n')
        status, _, err = run(capsys, "certify", "--input", str(batch))
        assert status == 65
        assert err == "bkfact: input error: batch line 2: No closing quotation\n"
        # the exactness system raises ValueError off the canonical symbol
        batch.write_text("--a02 -4\n")
        status, _, err = run(capsys, "exact", "--input", str(batch))
        assert status == 65
        assert err == ("bkfact: input error: batch line 1: "
                       "exactness system is defined for the canonical symbol\n")

    def test_closed_stdout_exits_74_quietly(self, tmp_path):
        # A reader that stops early ("| head -n 1") closes the pipe while the
        # batch still writes: ~440 KB of output, far above a pipe's buffer.
        batch = tmp_path / "batch.txt"
        batch.write_text("--a00 x^3\n" * 2000)
        env = dict(os.environ, PYTHONPATH=str(Path(bkfact.__file__).resolve().parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bkfact.cli", "certify", "--input", str(batch)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"parameters: eps = 1, m = 1, n = 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (74, b"")

    @pytest.mark.parametrize("argv, status", [(["residual", "--a10", "2x"], 65),
                                              (["certify", "--depth", "99"], 64)])
    def test_closed_stderr_keeps_error_status(self, argv, status):
        # A closed stderr must not turn an error into status 1 ("violated").
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(bkfact.__file__).resolve().parent.parent))
        try:
            proc = subprocess.run([sys.executable, "-m", "bkfact.cli", *argv],
                                  stdout=subprocess.DEVNULL, stderr=write_end, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == status


# Batch lines against single calls.  A line mixes --flag v, --flag=v and
# abbreviated spellings, repeats flags, and quotes its words in several ways.
# About one word pair in five is bad: an unknown or ambiguous flag, a bad or
# missing value, or a stray "--".
_GOOD_VALUES = {"--eps": ["1/2", "2"], "--ep": ["1/3"], "--a00": ["x", "2", "1/8*x + 1/16*y"],
                "--a10": ["x^2 - y", "1/2*y"], "--root": ["1", "-1"], "--form": ["json", "text"],
                "--dep": ["0", "2"]}
_PAIRS = 3 * [(flag, value) for flag, values in _GOOD_VALUES.items() for value in values] + [
    ("--a0", "1"), ("--bogus", "1"), ("--eps", "0"), ("--eps", "1.5"), ("--a00", "2x"),
    ("--root", "2"), ("--format", "yaml"), ("--a10", ""), ("--eps", None), ("--", None)]
_INVOCATIONS = [[], ["--format", "json"], ["--a10", "1/2*y", "--root", "-1"],
                ["--decimal-as-rational", "--a00", "1/4*x"]]
# Flags of the invocation that only some subcommands take.
_OWN_FLAGS = {"certify": ["--eps", "1/2", "--dep", "1"], "sufficient": ["--eps", "1/2"]}


def _quote(word, style):
    # No vocabulary word holds a quote or a backslash.
    if style == "single":
        return f"'{word}'"
    if style == "double":
        return f'"{word}"'
    if style == "adjacent" and len(word) > 1:
        return f"'{word[0]}'\"{word[1:]}\""
    return shlex.quote(word)


def _line(pairs):
    words = []
    for (flag, value), joined, style in pairs:
        if value is None:
            words.append(flag)
        elif joined:
            words.append(f"{flag}={_quote(value, style)}")
        else:
            words += [flag, _quote(value, style)]
    return " \t"[len(words) % 2].join(words)  # some lines separate their words by tabs


_LINES = st.lists(st.tuples(st.sampled_from(_PAIRS), st.booleans(),
                            st.sampled_from(["bare", "single", "double", "adjacent"])),
                  min_size=1, max_size=3).map(_line)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if status in (64, 65):
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("bkfact: ")
    else:
        assert status in (0, 1, 2) and err.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    return status, out.getvalue(), err.getvalue()


@given(st.sampled_from(["certify", "exact", "residual", "sufficient"]),
       st.sampled_from(_INVOCATIONS), st.booleans(), st.lists(_LINES, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_batch_equals_single_calls(command, invocation, own_flags, lines):
    # Equal to the single calls, so a line's flags never reach the next line.
    base = [command, *invocation, *(_OWN_FLAGS.get(command, []) if own_flags else [])]
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "batch.txt"
        batch.write_text("# one line per call\n" + "\n".join(lines) + "\n")
        status, out, err = _call([*base, "--input", str(batch)])
    expected, statuses = "", []
    for lineno, line in enumerate(lines, start=2):
        single, single_out, single_err = _call([*base, *shlex.split(line)])
        expected += single_out
        if single in (64, 65):
            kind, _, message = single_err.partition(" error: ")
            assert (status, err) == (single, f"{kind} error: batch line {lineno}: {message}")
            break
        statuses.append(single)
    else:
        assert (status, err) == (_worst(statuses), "")
    assert out == expected


# Expressions near the parser's caps: 40-digit literals, 60-digit
# denominators, a Unicode digit, a decimal, runs of unary minus, nesting at
# and past MAX_NESTING, exponents around MAX_DEGREE, and towers of powers.
_HUGE = "1" + "0" * 2999
_ATOMS = ["x", "y", "2", "1/3", "\u0663", "0.5", "7" * 40, "5/" + "9" * 60, "x/" + "3" * 60,
          "2^32^32", "2^32^32^32", f"{_HUGE} * {_HUGE}"]
_EXPRESSIONS = st.recursive(st.sampled_from(_ATOMS), lambda inner: st.one_of(
    st.tuples(st.integers(1, 8), inner).map(lambda t: "-" * t[0] + t[1]),
    st.tuples(inner, st.sampled_from([0, 1, 2, 3, 5, 8, 16, 31, 32, 33])).map(
        lambda t: f"({t[0]})^{t[1]}"),
    st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
    st.tuples(st.sampled_from([MAX_NESTING, MAX_NESTING + 1]), inner).map(
        lambda t: "(" * t[0] + t[1] + ")" * t[0])), max_leaves=4)


@given(_EXPRESSIONS, st.booleans(), st.booleans())
@example("2^32^32", False, False)
@example("2^32^32^32", False, True)
@example(f"{_HUGE} * {_HUGE}", True, False)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_expressions_near_the_caps(expression, decimals, grid):
    # "=E" keeps an expression that starts with "-" from being read as a flag.
    flags = ["--decimal-as-rational"] if decimals else []
    grid_flags = ["--grid", "4"] if grid else []
    for argv in (["residual", f"--a10={expression}"],
                 ["certify", f"--a00={expression}", "--depth", "3", *grid_flags],
                 ["sufficient", f"--a00={expression}"],
                 ["exact", f"--a10={expression}"]):
        status, out, _ = _call([*argv, *flags])  # checks the status and stderr
        assert status not in (64, 65) or out == ""
