"""Benchmark for bkfact: one run of one workload (or of all three) for one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is batch-lowdeg, bernstein-highdeg, expand-residual, or all (each in
turn, in its own interpreter, with one combined result line at the end).

With --trace 0 the run measures the end-to-end metrics with tracing off:
set-up time (a fresh interpreter importing bkfact.cli, median of several),
then a closed loop of problems for S seconds.  With --trace 1 it runs one
pass over the seed's corpus untraced and one traced, and reports per-layer
metrics of the traced pass; the spans are written to
.bench_work/spans-<workload>-<seed>.jsonl.  Either way every output is
verified, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Run from a checkout: the package is imported from ./src, never from an
installed copy, and the run fails without printing a result when ./src is
missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 15
WARMUP_S = 1.0
WORKLOAD_NAMES = ("batch-lowdeg", "bernstein-highdeg", "expand-residual")


def _load_package() -> None:
    package = SRC / "bkfact"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bkfact

    if Path(bkfact.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported bkfact from {bkfact.__file__}, not from {package}")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports bkfact.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import bkfact.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _percentile(sorted_values: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload, seconds: float) -> tuple[dict, object]:
    setup_s = measure_setup()
    workload.run(seconds=WARMUP_S)
    outcome = workload.run(seconds=seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = workload.tally(outcome)
    latencies = sorted(s * 1e3 for s in outcome.latencies)
    tail, beyond = _percentile(latencies, workload.tail_percentile)
    print(f"{workload.name}: problem_latency_tail_ms is p{workload.tail_percentile} "
          f"of {len(latencies)} samples ({beyond} beyond it)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "problem_latency_p50_ms": (statistics.median(latencies), "ms"),
        "problem_latency_tail_ms": (tail, "ms"),
        "problems_per_s": (counts.attempted / outcome.wall_s, "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "verified_ratio": ((counts.attempted - counts.failed) / counts.attempted, "ratio"),
        "decided_ratio": (1 - counts.unknown / counts.certificates
                          if counts.certificates else 1.0, "ratio"),
    }
    return metrics, counts


def traced(workload, seed: int) -> tuple[dict, object]:
    from spans import LAYER_UNITS, Tracer, src_loc

    workload.run(seconds=WARMUP_S)
    plain = workload.run(passes=1)
    tracer = Tracer()
    with tracer:
        outcome = workload.run(passes=1, tracer=tracer)
    tracer.write(WORKDIR / f"spans-{workload.name}-{seed}.jsonl")
    counts = workload.tally(outcome)
    changed = sum(a != b for a, b in zip(plain.outputs, outcome.outputs))
    if changed:
        counts.messages.append(f"{changed} outputs changed under tracing")
        counts.failed = min(counts.attempted, counts.failed + changed)
    values = tracer.layer_metrics()
    values["trace.pass_s"] = outcome.wall_s
    values["trace.overhead_ratio"] = outcome.wall_s / plain.wall_s - 1
    values["src.loc"] = src_loc(ROOT)
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}, counts


def run_all(args) -> int:
    """Every workload, each in its own interpreter so that peak RSS stays
    per workload; relays their reports, then prints one combined result
    whose metrics are named <workload>/<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode:
            sys.exit(f"bench: workload {name} exited with status {proc.returncode}")
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_package()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        metrics, counts = traced(workload, args.seed)
    else:
        metrics, counts = end_to_end(workload, args.seconds)
    for message in counts.messages[:20]:
        print(f"{args.workload}: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: attempted {counts.attempted}, "
          f"failed {counts.failed}, certificates {counts.certificates}, "
          f"unknown {counts.unknown}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
