"""Run the committed mutation catalogue: does each mutant fail its tests?

    python3 tools/mutants.py [NAME ...]

A mutant is one small deliberate fault in src/bkfact: an exact snippet of
one file replaced by another.  For each mutant of the catalogue below (all
of them, or the NAMEs given), the checkout is copied to a temporary
directory, without .git, caches, .bench_work and BENCH_*.json; the mutant
is applied there, and

    python -m pytest -x -q -p no:cacheprovider TESTS

runs in the copy on the mutant's test files.  The copy's pyproject.toml
puts its own src/ first on the tests' import path.  One line is printed
per mutant,

    NAME killed|survived|timeout|error SECONDS

killed when a test fails, survived when all pass.  A run that outlasts
TIMEOUT_S is stopped and counts as killed (printed as timeout): some
mutants turn a terminating loop into an endless one.  error is a pytest
status other than pass or fail, e.g. a test file that does not collect.
The exit status is 0 when every mutant is killed, 1 otherwise, and 2 when
a NAME is unknown or an old snippet does not occur exactly once in its
file; then no mutant runs, and the catalogue needs updating for the code.

Equivalent mutants, which change no behaviour, are left out: with every
|b| <= level, the face rule's `== level` and `>= level` agree, and so do
the edge-vertex `<` and `<=` in quad_box_extrema.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
_SKIPPED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work",
            "BENCH_*.json")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/bkfact/
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # test files expected to kill it


POLY, CERTIFY = "tests/test_poly.py", "tests/test_certify.py"

MUTANTS = (
    # Power form to Bernstein form, and the halving.
    Mutant("poly-shift-sign", "poly.py",
           "a[i] += t * a[i + 1]", "a[i] -= t * a[i + 1]", (POLY,)),
    Mutant("poly-width-scale-dropped", "poly.py",
           "power *= s", "power *= 1", (POLY,)),
    Mutant("poly-weights-binomial", "poly.py",
           "scale // comb(d, k) * comb(r, k)", "scale // comb(d, r) * comb(r, k)", (POLY,)),
    Mutant("poly-weights-other-degree", "poly.py",
           "_weights(len(lines[0]) - 1)", "_weights(len(lines) - 1)", (POLY,)),
    Mutant("poly-pass-order-swapped", "poly.py",
           "((xlo, xhi, qx), (ylo, yhi, qy))", "((ylo, yhi, qy), (xlo, xhi, qx))", (POLY,)),
    Mutant("poly-pass-transpose-dropped", "poly.py",
           "lines = [list(line) for line in zip(*grid)]", "lines = [list(line) for line in grid]",
           (POLY,)),
    Mutant("poly-lift-unscaled", "poly.py",
           "p.lift(Fraction(1, qx), Fraction(1, qy))", "p.lift(1, 1)", (POLY,)),
    Mutant("poly-width-from-hi", "poly.py",
           "hi.numerator * (q // hi.denominator) - t", "hi.numerator * (q // hi.denominator)",
           (POLY,)),
    Mutant("poly-q-from-lo", "poly.py",
           "lcm(xlo.denominator, xhi.denominator), lcm(ylo.denominator, yhi.denominator)",
           "xlo.denominator, ylo.denominator", (POLY,)),
    Mutant("poly-halves-shift-off-by-one", "poly.py",
           "b << (d - j) for b in a[0]", "b << (d - j + 1) for b in a[0]", (POLY,)),
    Mutant("poly-halves-swapped", "poly.py",
           "for half in (lower, upper)", "for half in (upper, lower)", (POLY,)),
    Mutant("poly-halves-y-transpose-dropped", "poly.py",
           "a = list(zip(*self.numerators) if along_y else self.numerators)",
           "a = list(self.numerators)", (POLY,)),
    # Exact arithmetic.
    Mutant("poly-lift-power", "poly.py",
           "b ** (dx - i)", "b ** i", (POLY,)),
    Mutant("poly-mul-zero-filter-dropped", "poly.py",
           "Poly2._of({key: coeff for key, coeff in out.items() if coeff})", "Poly2._of(out)",
           (POLY,)),
    Mutant("poly-contains-open-closed", "poly.py",
           "abs(as_fraction(x)) < self.m", "abs(as_fraction(x)) <= self.m", (POLY,)),
    # Bernstein subdivision.
    Mutant("certify-face-rule-and", "certify.py",
           "if not (on_x or on_y):", "if not (on_x and on_y):", (CERTIFY,)),
    Mutant("certify-face-rule-off", "certify.py",
           "    return reached\n", "    return False\n", (CERTIFY,)),
    Mutant("certify-inside-not-strict", "certify.py",
           "if lhs < rhs or", "if lhs <= rhs or", (CERTIFY,)),
    Mutant("certify-ties-split-y", "certify.py",
           "if x_side << ky >= y_side << kx:", "if x_side << ky > y_side << kx:", (CERTIFY,)),
    Mutant("certify-push-order-swapped", "certify.py",
           "stack += [(mid, xhi, ylo, yhi, kx, ky, upper), (xlo, mid, ylo, yhi, kx, ky, lower)]",
           "stack += [(xlo, mid, ylo, yhi, kx, ky, lower), (mid, xhi, ylo, yhi, kx, ky, upper)]",
           (CERTIFY,)),
    Mutant("certify-x-split-along-y", "certify.py",
           'lower, upper = enclosure.halves("x")', 'lower, upper = enclosure.halves("y")',
           (CERTIFY,)),
    Mutant("certify-centre-weights-swapped", "certify.py",
           "for k in (dx, dy))", "for k in (dy, dx))", (CERTIFY,)),
    Mutant("certify-centre-strict", "certify.py",
           "abs(center) * eps.denominator >= eps", "abs(center) * eps.denominator > eps",
           (CERTIFY,)),
    Mutant("certify-worst-leaf-first", "certify.py",
           "elif top * worst_leaf[1] > worst_leaf[0] * scale:", "elif not worst_leaf[0]:",
           (CERTIFY,)),
    # The exact low-degree decisions.
    Mutant("certify-open-attainer-negated", "certify.py",
           "if box.contains_open(*point):", "if not box.contains_open(*point):", (CERTIFY,)),
    Mutant("certify-extreme-not-strict", "certify.py",
           "if extreme < eps:", "if extreme <= eps:", (CERTIFY,)),
    Mutant("certify-inward-sign-dropped", "certify.py",
           "if sign * value >= eps:", "if value >= eps:", (CERTIFY,)),
    # The grid falsifier.
    Mutant("falsify-power-of-j-exponent", "certify.py",
           "row[b] += c * i ** a", "row[b] += c * i ** b", (CERTIFY,)),
    Mutant("falsify-assign-not-add", "certify.py",
           "row[b] += c * i ** a", "row[b] = c * i ** a", (CERTIFY,)),
    Mutant("falsify-row-sized-by-x", "certify.py",
           "row = [0] * (d.y_degree + 1)", "row = [0] * (d.x_degree + 1)", (CERTIFY,)),
    Mutant("falsify-linear-rows-shortcut", "certify.py",
           "any(row[1:])", "any(row[2:])", (CERTIFY,)),
    Mutant("falsify-hit-strict", "certify.py",
           "abs(value) * t_den >= t_num", "abs(value) * t_den > t_num", (CERTIFY,)),
    # Residuals, parsing and the CLI.
    Mutant("lpdo-root-test-swapped", "lpdo.py",
           "(symbol.a20 * root.omega + symbol.a11) * root.omega + symbol.a02 != 0",
           "(symbol.a20 * root.omega + symbol.a02) * root.omega + symbol.a11 != 0",
           ("tests/test_lpdo.py",)),
    Mutant("lpdo-drift-smaller-root", "lpdo.py",
           "drift = max(root.omega,", "drift = min(root.omega,", ("tests/test_lpdo.py",)),
    Mutant("parsing-sum-bits-loosened", "parsing.py",
           'if bits > MAX_POWER_BITS:\n                        raise ParseError(f"sum',
           'if bits > MAX_POWER_BITS + 1:\n                        raise ParseError(f"sum',
           ("tests/test_parsing.py",)),
    Mutant("parsing-fold-unit-exemption-narrowed", "parsing.py",
           "terms[0][1] not in (1, -1)", "terms[0][1] not in (1,)", ("tests/test_parsing.py",)),
    Mutant("parsing-fold-power-adds-exponents", "parsing.py",
           "i * exponent", "i + exponent", ("tests/test_parsing.py",)),
    Mutant("parsing-fold-zero-literal-monomial", "parsing.py",
           "(value, 0, 0) if value else Poly2.zero()", "(value, 0, 0)", ("tests/test_parsing.py",)),
    Mutant("parsing-fold-product-ignores-unit-factor", "parsing.py",
           "value[0] if factor[0] == 1 else", "value[0] if factor[0] in (1, -1) else",
           ("tests/test_parsing.py",)),
    Mutant("cli-worst-order-swapped", "cli.py",
           "for status in (EX_VIOLATED, EX_UNKNOWN):", "for status in (EX_UNKNOWN, EX_VIOLATED):",
           ("tests/test_cli.py",)),
    Mutant("cli-batch-namespace-shared", "cli.py",
           "parse_args(words, argparse.Namespace(**vars(invocation)))",
           "parse_args(words, invocation)", ("tests/test_cli.py",)),
    Mutant("cli-batch-namespace-empty", "cli.py",
           "parse_args(words, argparse.Namespace(**vars(invocation)))",
           "parse_args(words, argparse.Namespace())", ("tests/test_cli.py",)),
)


def check(mutants=MUTANTS) -> list[str]:
    """One message per mutant whose old snippet does not occur exactly once."""
    problems = []
    for mutant in mutants:
        count = (ROOT / "src" / "bkfact" / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: old snippet occurs {count} times in "
                            f"src/bkfact/{mutant.file}")
    return problems


def run(mutant: Mutant) -> str:
    """killed, survived, timeout or error, for one mutant in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="bkfact-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*_SKIPPED))
        target = copy / "src" / "bkfact" / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *mutant.tests]
        # A session of its own, so that a timeout also stops the tests' children.
        proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            status = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    return {0: "survived", 1: "killed"}.get(status, "error")


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else list(MUTANTS)
    problems = check(chosen)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    caught = True
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        print(f"{mutant.name} {outcome} {time.perf_counter() - start:.1f}", flush=True)
        caught &= outcome in ("killed", "timeout")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
