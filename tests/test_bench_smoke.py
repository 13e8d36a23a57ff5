"""One pass of each benchmark workload on a small corpus, checked by the
benchmark's own verifier.  The verifier reads package API such as
canonical_residual(...).r, reduced_coeffs(...).degree and CharRoot.omega, so
a change that breaks it fails here, not only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# The corpus sizes of bench/tests: small, yet holding every case class.
SIZES = {"batch-lowdeg": 20, "bernstein-highdeg": 20, "expand-residual": 6}


@pytest.fixture
def workloads(monkeypatch):
    # The bench modules import each other by their plain names.
    for name in ("corpus", "verify", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SIZES))
def test_one_pass_verifies(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path, count=SIZES[name])
    tally = workload.tally(workload.run(passes=1))
    assert (tally.attempted, tally.failed, tally.messages) == (len(workload.cases), 0, [])
