"""Paired A/B timing of one layer: the working tree against a base revision,
with an A/A control.

    python3 tools/ab.py --base REV --layer LAYER [--seed N] [--rounds K]
                        [--count N] [--repeat R]

REV is exported with `git archive` into a temporary directory.  Each round
runs three fresh interpreters in the order base, change, base; each imports
bkfact from its tree's src/, builds the layer's inputs from the checkout's
bench/corpus.py (loaded by path, so both trees get the same inputs), and
prints the best of R timed passes over them.  The layers are:

  parse      parse_poly on every text of N lowdeg and N highdeg cases;
  roots      poly.bernstein_on_rect on the root box of every requested
             root of N highdeg cases (the root conversion);
  bernstein  certify.bernstein_certify on the same requests;
  mul        Poly2.__mul__ on every product lpdo.residual computes for N
             expand-residual cases;
  batch      one `bkfact certify --format json --input FILE` pass over the
             batch lines of N lowdeg cases.

One line is printed per round, with the three times, the change/base ratio
(change over the mean of the two base runs) and the base/base ratio (second
base run over the first).  Then a summary: the rounds the change won, the
median ratio, both medians and the A/A spread.  The last line is one JSON
object with the same figures, each tree's digest of the layer's results and
its deterministic counts: every count-unit metric of the tree's own
bench/spans.py Tracer (poly.mul_calls, poly.enclosures, ...), over one
untimed traced pass.  outputs_equal is false when the digests differ,
counts_equal when the trees did unequal work; a change may remove work and
keep its outputs.  A claim should show the change's median ratio outside
the A/A spread, won in at least 9 of 10 rounds.  Run from a git checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("parse", "roots", "bernstein", "mul", "batch")


def _load(tree: Path, name: str):
    """bench/NAME.py of TREE, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, tree / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _requests(corpus, seed: int, count: int) -> list:
    """One CertRequest per requested root of each highdeg case, as
    approx_factor_report builds it."""
    from bkfact import Box, certify, lpdo, parsing
    requests = []
    for case in corpus.highdeg_cases(seed, count):
        symbol = lpdo.PrincipalSymbol(case.sym.a20, case.sym.a11, case.sym.a02)
        op = lpdo.LPDO2(symbol, *(parsing.parse_poly(text) for text in case.texts))
        for root in lpdo.characteristic_roots(symbol):
            if root.omega in case.omegas:
                requests.append(certify.CertRequest(
                    d=op.a00 - lpdo.residual(op, root).r, box=Box(case.m, case.n),
                    eps=case.eps, max_depth=case.depth))
    return requests


def _products(corpus, seed: int, count: int) -> list:
    """The operand pairs of every Poly2 product lpdo.residual computes."""
    from bkfact import lpdo, parsing, poly
    pairs, multiply = [], poly.Poly2.__mul__

    def recorded(left, right):
        pairs.append((left, right))
        return multiply(left, right)
    cases = corpus.residual_cases(seed, count)
    ops = [(lpdo.LPDO2(lpdo.PrincipalSymbol(case.sym.a20, case.sym.a11, case.sym.a02),
                       *(parsing.parse_poly(text) for text in case.texts),
                       poly.Poly2.zero()), case.omegas) for case in cases]
    poly.Poly2.__mul__ = recorded
    try:
        for op, omegas in ops:
            for root in lpdo.characteristic_roots(op.symbol):
                if root.omega in omegas:
                    lpdo.residual(op, root)
    finally:
        poly.Poly2.__mul__ = multiply
    return pairs


def _layer(name: str, seed: int, count: int, workdir: Path):
    """The untimed setup of a layer; returns its timed pass."""
    from bkfact import certify, cli, parsing, poly
    corpus = _load(ROOT, "corpus")
    if name == "parse":
        texts = [text for cases in (corpus.lowdeg_cases(seed, count),
                                    corpus.highdeg_cases(seed, count))
                 for case in cases for text in case.texts]
        return lambda: [parsing.parse_poly(text) for text in texts]
    if name in ("roots", "bernstein"):
        requests = _requests(corpus, seed, count)
        if name == "bernstein":
            return lambda: [certify.bernstein_certify(request) for request in requests]
        return lambda: [poly.bernstein_on_rect(r.d, -r.box.m, r.box.m, -r.box.n, r.box.n)
                        for r in requests]
    if name == "mul":
        pairs = _products(corpus, seed, count)
        return lambda: [left * right for left, right in pairs]
    batch = workdir / "batch.txt"
    batch.write_text("".join(case.batch_line() + "\n"
                             for case in corpus.lowdeg_cases(seed, count)), encoding="utf-8")

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli.main(["certify", "--format", "json", "--input", str(batch)])
        return out.getvalue(), status
    return run


def _work(tree: Path, layer: str, seed: int, count: int, repeat: int) -> None:
    sys.path.insert(0, str(tree / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        run = _layer(layer, seed, count, Path(workdir))
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        spans = _load(tree, "spans")
        with spans.Tracer() as tracer:
            result = run()
    counts = {name: value for name, value in tracer.layer_metrics().items()
              if spans.LAYER_UNITS[name] == "count"}
    print(json.dumps({"seconds": best, "counts": counts,
                      "digest": hashlib.sha256(repr(result).encode()).hexdigest()[:16]}))


def _spawn(tree: Path, args) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
            "--layer", args.layer, "--seed", str(args.seed), "--count", str(args.count),
            "--repeat", str(args.repeat)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(args) -> dict:
    archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True,
                             check=True).stdout
    ratios, controls, base_times, change_times = [], [], [], []
    with tempfile.TemporaryDirectory(prefix="bkfact-ab-") as tmp:
        base = Path(tmp) / "base"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # The "data" filter, where this Python has it, refuses unsafe members.
            tar.extractall(base, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        for number in range(1, args.rounds + 1):
            first, change, second = (_spawn(tree, args) for tree in (base, ROOT, base))
            a, b, c = first["seconds"], change["seconds"], second["seconds"]
            ratios.append(b / ((a + c) / 2))
            controls.append(c / a)
            base_times += [a, c]
            change_times.append(b)
            print(f"round {number}: base {a * 1e3:.2f} ms, change {b * 1e3:.2f} ms, "
                  f"base {c * 1e3:.2f} ms; change/base {ratios[-1]:.3f}, "
                  f"base/base {controls[-1]:.3f}", flush=True)
    counts = {"base": first["counts"], "change": change["counts"]}
    digests = {"base": first["digest"], "change": change["digest"]}
    return {"layer": args.layer, "seed": args.seed, "count": args.count, "rounds": args.rounds,
            "wins": sum(ratio < 1 for ratio in ratios),
            "ratio_median": statistics.median(ratios),
            "aa_min": min(controls), "aa_max": max(controls),
            "base_ms_median": statistics.median(base_times) * 1e3,
            "change_ms_median": statistics.median(change_times) * 1e3,
            "outputs_equal": digests["base"] == digests["change"] == second["digest"],
            "counts_equal": counts["base"] == counts["change"] == second["counts"],
            "digests": digests, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--layer", required=True, choices=LAYERS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--count", type=int, default=200,
                        help="cases per corpus (expand-residual: at most 66 differ)")
    parser.add_argument("--repeat", type=int, default=5, help="timed passes per process")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _work(args.worker, args.layer, args.seed, args.count, args.repeat)
        return 0
    result = compare(args)
    print(f"{args.layer}: change won {result['wins']} of {args.rounds} rounds; "
          f"median change/base {result['ratio_median']:.3f}, A/A base/base "
          f"{result['aa_min']:.3f}-{result['aa_max']:.3f}; medians base "
          f"{result['base_ms_median']:.2f} ms, change {result['change_ms_median']:.2f} ms; "
          f"outputs {'equal' if result['outputs_equal'] else 'UNEQUAL'}, "
          f"counts {'equal' if result['counts_equal'] else 'UNEQUAL'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
