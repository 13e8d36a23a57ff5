"""Tests of the benchmark itself: determinism, the verifier's teeth, and the
bypass predictions of the traced run.

Run with:  python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from bkfact import certify, cli, poly  # noqa: E402

WORKDIR = ROOT / ".bench_work"
# Small corpora that still hold every case class of each workload.
SIZES = {"batch-lowdeg": 20, "bernstein-highdeg": 20, "expand-residual": 6}


def make(name, seed=7):
    return workloads.WORKLOADS[name](seed, WORKDIR, count=SIZES[name])


def traced_pass(name, seed=7):
    workload = make(name, seed)
    tracer = spans.Tracer()
    with tracer:
        outcome = workload.run(passes=1, tracer=tracer)
    metrics = tracer.layer_metrics()
    metrics["trace.pass_s"] = outcome.wall_s
    return workload, outcome, metrics


@pytest.fixture(scope="module")
def passes():
    return {name: traced_pass(name) for name in SIZES}


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", "_us"))}


def test_same_seed_same_corpus():
    assert corpus.lowdeg_cases(3, 40) == corpus.lowdeg_cases(3, 40)
    assert corpus.highdeg_cases(3, 20) == corpus.highdeg_cases(3, 20)
    assert corpus.residual_cases(3, 12) == corpus.residual_cases(3, 12)
    assert corpus.lowdeg_cases(3, 40) != corpus.lowdeg_cases(4, 40)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_same_seed_same_outputs_and_counts(name, passes):
    workload, outcome, metrics = passes[name]
    _, again, metrics_again = traced_pass(name)
    assert outcome.outputs == again.outputs
    assert _counts(metrics) == _counts(metrics_again)
    counts = workload.tally(outcome)
    assert counts.failed == 0, counts.messages
    assert counts.attempted == len(workload.cases)


def test_tracer_restores_the_package():
    before = (cli.build_parser, certify.bernstein_on_rect, poly.Poly2.__dict__["__mul__"])
    with spans.Tracer():
        assert cli.build_parser is not before[0]
    assert (cli.build_parser, certify.bernstein_on_rect,
            poly.Poly2.__dict__["__mul__"]) == before


def test_bypass_predictions(passes):
    _, _, low = passes["batch-lowdeg"]
    _, _, high = passes["bernstein-highdeg"]
    _, _, expand = passes["expand-residual"]
    for metrics in (low, expand):
        assert metrics["poly.enclosures"] == metrics["certify.bernstein_calls"] == 0
    assert expand["certify.quad_calls"] == 0
    assert high["poly.enclosure_s"] > 0.5 * high["trace.pass_s"]
    assert low["cli.parser_build_calls"] == SIZES["batch-lowdeg"] + 1
    assert high["certify.bernstein_calls"] > 0 and low["certify.quad_calls"] > 0


def _first_with(workload, outcome, kind):
    for cid, output in zip(outcome.cids, outcome.outputs):
        record = json.loads(output)
        if record["roots"][0]["certificate"]["kind"] == kind:
            return cid, record
    raise AssertionError(f"no {kind} certificate in the pass")


def _failed_after(workload, cid, record):
    outcome = workloads.Outcome(cids=[cid], latencies=[0.0],
                                outputs=[json.dumps(record, sort_keys=True)])
    return workload.tally(outcome).failed


def test_tampered_witness_is_counted(passes):
    workload, outcome, _ = passes["bernstein-highdeg"]
    cid, record = _first_with(workload, outcome, "violated")
    assert _failed_after(workload, cid, record) == 0
    certificate = record["roots"][0]["certificate"]
    witness = list(certificate["witness"])
    certificate["witness"] = [str(workload.cases[cid].m), "0"]  # on the boundary
    assert _failed_after(workload, cid, record) == 1
    certificate["witness"] = witness
    certificate["value"] = str(-2 * workload.cases[cid].eps)
    assert _failed_after(workload, cid, record) == 1


def test_tampered_verdict_is_counted(passes):
    workload, outcome, _ = passes["batch-lowdeg"]
    cid, record = _first_with(workload, outcome, "violated")
    record["roots"][0]["certificate"] = {"kind": "inside", "margin": "0"}
    assert _failed_after(workload, cid, record) == 1
    cid, record = _first_with(workload, outcome, "inside")
    record["roots"][0]["certificate"]["margin"] = str(workload.cases[cid].eps)
    assert _failed_after(workload, cid, record) == 1


def test_tampered_residual_is_counted(passes):
    workload, outcome, _ = passes["expand-residual"]
    record = json.loads(outcome.outputs[0])
    record["roots"][0]["residual"] += " + 1"
    assert verify.check_residual_record(workload.cases[0], json.dumps(record))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_one_command_runs_every_workload():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--seed", "2",
                           "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {f"{w['name']}/{m['name']}" for w in spec["workloads"]
                                      for m in spec["end_to_end"]}


def test_fails_without_the_package():
    bare = WORKDIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "batch-lowdeg",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
