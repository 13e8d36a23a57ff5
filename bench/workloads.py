"""The three closed-loop workloads: one client in one process, no threads;
each problem is sent only after the previous one has finished.

A problem is one operator with all its requested roots.  A workload runs
passes over its seeded corpus: `run(seconds)` keeps going until the time is
up (the end-to-end run), `run(passes=1)` does exactly one pass (the traced
run, whose counts must repeat exactly for a seed).
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import corpus
import verify
from bkfact import Box, cli, lpdo, parsing, report


@dataclass
class Outcome:
    """What the client saw: per attempted problem the case, its latency and
    its output (None when the call raised)."""

    cids: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (cid, message) of calls that raised
    bad_status: set = field(default_factory=set)  # attempt indexes whose exit status was wrong
    wall_s: float = 0.0


class _Records(io.TextIOBase):
    """stdout stand-in that timestamps every completed line."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._parts: list[str] = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        if text.endswith("\n"):
            self.stamps.append(perf_counter())
            self.lines.extend("".join(self._parts).splitlines())
            self._parts.clear()
        return len(text)


def _worst_status(records: list[str]) -> Optional[int]:
    """The exit status the CLI documents for these certify records."""
    try:
        kinds = {r["certificate"]["kind"] for record in records
                 for r in json.loads(record)["roots"]}
    except (ValueError, KeyError, TypeError):
        return None
    if "violated" in kinds:
        return cli.EX_VIOLATED
    return cli.EX_UNKNOWN if "unknown" in kinds else cli.EX_OK


@dataclass
class Tally:
    attempted: int
    failed: int
    certificates: int
    unknown: int
    messages: list


class Workload:
    name = ""
    tail_percentile = 90

    def run(self, seconds: Optional[float] = None, passes: Optional[int] = None,
            tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, cid: int, output: str) -> tuple[list[str], int, int]:
        """(errors, certificates, unknown certificates) for one output."""
        raise NotImplementedError

    def tally(self, outcome: Outcome) -> Tally:
        """Verify each distinct output once.  A problem fails when its call
        raised, its exit status was wrong, its output fails a check, or its
        output differs from the first output of the same case."""
        checked: dict = {}
        first: dict = {}
        failed = certs = unknown = 0
        messages = [f"case {cid}: raised {msg}" for cid, msg in outcome.errors]
        for index, (cid, output) in enumerate(zip(outcome.cids, outcome.outputs)):
            if output is None:
                failed += 1
                continue
            key = (cid, output)
            if key not in checked:
                checked[key] = self.check(cid, output)
                if checked[key][0]:
                    messages.append(f"case {cid}: {'; '.join(checked[key][0])}")
            errors, n_certs, n_unknown = checked[key]
            certs += n_certs
            unknown += n_unknown
            if first.setdefault(cid, output) != output:
                messages.append(f"case {cid}: output differs between attempts")
                failed += 1
            elif errors or index in outcome.bad_status:
                failed += 1
        if outcome.bad_status:
            messages.append(f"{len(outcome.bad_status)} problems had a wrong exit status")
        return Tally(len(outcome.cids), failed, certs, unknown, messages)


class _PerProblem(Workload):
    """A workload whose client makes one call per problem."""

    cases: list

    def solve(self, case) -> tuple[str, bool]:
        """Output of one problem and whether its exit status was right."""
        raise NotImplementedError

    def run(self, seconds=None, passes=None, tracer=None) -> Outcome:
        out = Outcome()
        limit = None if passes is None else passes * len(self.cases)
        start = perf_counter()
        deadline = start + (seconds or 0)
        index = 0
        while limit is None or index < limit:
            case = self.cases[index % len(self.cases)]
            if tracer is not None:
                tracer.problem = index
            t0 = perf_counter()
            try:
                output, status_ok = self.solve(case)
            except Exception as exc:  # a failed problem is counted, the run goes on
                output, status_ok = None, True
                out.errors.append((case.cid, repr(exc)))
            t1 = perf_counter()
            if not status_ok:
                out.bad_status.add(index)
            out.cids.append(case.cid)
            out.latencies.append(t1 - t0)
            out.outputs.append(output)
            index += 1
            if limit is None and t1 >= deadline:
                break
        out.wall_s = perf_counter() - start
        return out


class BernsteinHighdeg(_PerProblem):
    """approx_factor_report on degree 3-6 differences, as a library user
    would call it: parse the operator, certify every requested root,
    serialize the report."""

    name = "bernstein-highdeg"
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path, count: int = 200):
        self.cases = corpus.highdeg_cases(seed, count)

    def solve(self, case):
        parse = parsing.parse_poly
        symbol = lpdo.PrincipalSymbol(case.sym.a20, case.sym.a11, case.sym.a02)
        op = lpdo.LPDO2(symbol, *(parse(text) for text in case.texts))
        roots = tuple(r for r in lpdo.characteristic_roots(symbol) if r.omega in case.omegas)
        result = report.approx_factor_report(op, Box(case.m, case.n), case.eps,
                                             max_depth=case.depth, grid_k=case.grid,
                                             roots=roots)
        return result.to_json(), True

    def check(self, cid, output):
        return verify.check_certify_record(self.cases[cid], output)


class ExpandResidual(_PerProblem):
    """In-process `bkfact residual --format json` on high-degree products."""

    name = "expand-residual"
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path, count: int = 66):
        self.cases = corpus.residual_cases(seed, count)

    def solve(self, case):
        records = _Records()
        with redirect_stdout(records):
            status = cli.main(case.argv())
        return "\n".join(records.lines), status == cli.EX_OK

    def check(self, cid, output):
        errors = verify.check_residual_record(self.cases[cid], output)
        return errors, 0, 0


class BatchLowdeg(Workload):
    """One `bkfact certify --format json --input FILE` call per pass over a
    batch of affine and quadratic differences; a line's latency is the time
    from the previous record (or the call's start) to its own record."""

    name = "batch-lowdeg"
    tail_percentile = 99

    def __init__(self, seed: int, workdir: Path, count: int = 200):
        self.cases = corpus.lowdeg_cases(seed, count)
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"batch-{seed}.txt"
        self.path.write_text("".join(c.batch_line() + "\n" for c in self.cases), encoding="utf-8")

    def run(self, seconds=None, passes=None, tracer=None) -> Outcome:
        out = Outcome()
        argv = ["certify", "--format", "json", "--input", str(self.path)]
        start = perf_counter()
        deadline = start + (seconds or 0)
        done = 0
        while passes is None or done < passes:
            if tracer is not None:
                tracer.problem = done
            records = _Records()
            t0 = perf_counter()
            with redirect_stdout(records):
                try:
                    status = cli.main(argv)
                except Exception as exc:  # counted against every line of the pass
                    status = None
                    out.errors.append((-1, repr(exc)))
            first = len(out.cids)
            stamps = [t0] + records.stamps
            for i, case in enumerate(self.cases):
                out.cids.append(case.cid)
                if i < len(records.lines):
                    out.outputs.append(records.lines[i])
                    out.latencies.append(stamps[i + 1] - stamps[i])
                else:
                    out.outputs.append(None)
            if status != _worst_status(records.lines) or len(records.lines) != len(self.cases):
                out.bad_status.update(range(first, len(out.cids)))
            done += 1
            if passes is None and perf_counter() >= deadline:
                break
        out.wall_s = perf_counter() - start
        return out

    def check(self, cid, output):
        case = self.cases[cid]
        errors, certs, unknown = verify.check_certify_record(case, output)
        if output != verify.library_report(case):
            errors.append("batch record differs from the library Report")
        return errors, certs, unknown


WORKLOADS = {
    "batch-lowdeg": BatchLowdeg,
    "bernstein-highdeg": BernsteinHighdeg,
    "expand-residual": ExpandResidual,
}
