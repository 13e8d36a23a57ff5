"""tools/ab.py runs end to end: HEAD against HEAD, one round per layer on a
tiny corpus, prints one line per round, a summary and a JSON line whose
deterministic counts agree.  No timing is asserted; the host is noisy."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


@pytest.fixture(scope="module")
def checkout():
    if not (ROOT / ".git").exists() or _git("rev-parse", "HEAD").returncode:
        pytest.skip("not a git checkout")
    if _git("diff", "--quiet", "HEAD", "--", "src", "bench").returncode:
        pytest.skip("src/ or bench/ differs from HEAD, so the change is not HEAD")


@pytest.mark.parametrize("layer", ["parse", "roots", "bernstein", "mul", "batch"])
def test_head_against_head(checkout, layer):
    argv = [sys.executable, str(TOOL), "--base", "HEAD", "--layer", layer, "--rounds", "1",
            "--count", "2", "--repeat", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and lines[0].startswith("round 1: base ")
    assert lines[1].startswith(f"{layer}: change won ")
    result = json.loads(lines[2])
    assert (result["layer"], result["rounds"]) == (layer, 1)
    assert result["wins"] in (0, 1) and result["aa_min"] == result["aa_max"] > 0
    assert result["counts_equal"] and result["counts"]["base"] == result["counts"]["change"]
    assert set(result["counts"]["base"]) == {"mul_calls", "enclosures", "digest"}
