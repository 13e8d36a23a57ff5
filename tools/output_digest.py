"""Print one sha256 per output family of bkfact on the benchmark corpora.

    python3 tools/output_digest.py --seeds 1-5 [--counts 200,200,66]

Two trees that print the same digests for the same arguments gave
byte-identical outputs on every case.  The families are:

  certify-text-lowdeg, certify-json-lowdeg, certify-text-highdeg,
  certify-json-highdeg
      `bkfact certify [--format json] --input FILE` on the batch lines of
      the lowdeg and highdeg corpora: stdout, stderr and exit status;
  report-json-highdeg, report-text-highdeg
      approx_factor_report(...).to_json() and .to_text() per highdeg case;
  residual-json-expand
      `bkfact residual --format json` per expand-residual case: stdout,
      stderr and exit status.

Each family's digest covers the given seeds in order.  --counts gives the
number of lowdeg, highdeg and expand-residual cases per seed (by default
the benchmark's corpus sizes).  Run from the root of a checkout: bkfact is
imported from ./src, and the corpora come from bench/corpus.py, loaded by
path and left unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bkfact import Box, cli, lpdo, parsing, report  # noqa: E402

FAMILIES = ("certify-text-lowdeg", "certify-json-lowdeg", "certify-text-highdeg",
            "certify-json-highdeg", "report-json-highdeg", "report-text-highdeg",
            "residual-json-expand")


def _load_corpus():
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["corpus"] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return [out.getvalue(), err.getvalue(), status]


def _report(case) -> report.Report:
    symbol = lpdo.PrincipalSymbol(case.sym.a20, case.sym.a11, case.sym.a02)
    op = lpdo.LPDO2(symbol, *(parsing.parse_poly(text) for text in case.texts))
    roots = tuple(r for r in lpdo.characteristic_roots(symbol) if r.omega in case.omegas)
    return report.approx_factor_report(op, Box(case.m, case.n), case.eps, max_depth=case.depth,
                                       grid_k=case.grid, roots=roots)


def outputs(corpus, seed: int, counts: tuple[int, int, int], workdir: Path):
    """Yield (family, output) for one seed, in a fixed order."""
    lowdeg, highdeg, expand = counts
    for name, cases in (("lowdeg", corpus.lowdeg_cases(seed, lowdeg)),
                        ("highdeg", corpus.highdeg_cases(seed, highdeg))):
        batch = workdir / f"{name}-{seed}.txt"
        batch.write_text("".join(case.batch_line() + "\n" for case in cases), encoding="utf-8")
        yield f"certify-text-{name}", _run_cli(["certify", "--input", str(batch)])
        yield f"certify-json-{name}", _run_cli(["certify", "--format", "json", "--input",
                                                str(batch)])
        if name == "highdeg":
            for case in cases:
                result = _report(case)
                yield "report-json-highdeg", result.to_json()
                yield "report-text-highdeg", result.to_text()
    for case in corpus.residual_cases(seed, expand):
        yield "residual-json-expand", _run_cli(case.argv())


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"),
                        help="one seed N or a range A-B (default 1-5)")
    parser.add_argument("--counts", default="200,200,66",
                        type=lambda text: tuple(int(n) for n in text.split(",")),
                        help="lowdeg,highdeg,expand cases per seed (default 200,200,66)")
    args = parser.parse_args(argv)
    corpus = _load_corpus()
    digests = {family: hashlib.sha256() for family in FAMILIES}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            for family, output in outputs(corpus, seed, args.counts, Path(workdir)):
                digests[family].update(json.dumps(output).encode("ascii") + b"\n")
    for family in FAMILIES:
        print(f"{digests[family].hexdigest()}  {family}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
