"""Identical inputs give byte-identical output: tools/output_digest.py,
run twice in fresh interpreters on a small seed-1 corpus, prints the same
digest for every output family, and the first run prints the committed
golden digests."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "output_digest_seed1.txt"


def test_digests_repeat_across_runs():
    argv = [sys.executable, str(TOOL), "--seeds", "1", "--counts", "10,10,3"]
    first, second = (subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
                     for _ in range(2))
    lines = first.stdout.splitlines()
    assert [line.split()[1] for line in lines] == [
        "certify-text-lowdeg", "certify-json-lowdeg", "certify-text-highdeg",
        "certify-json-highdeg", "report-json-highdeg", "report-text-highdeg",
        "residual-json-expand"]
    assert all(len(line.split()[0]) == 64 for line in lines)
    assert (second.stdout, second.stderr, first.stderr) == (first.stdout, "", "")
    assert first.stdout == GOLDEN.read_text(encoding="utf-8")
