"""Traced run: spans around the package's layer boundaries, recorded from
outside the package.

Each public function is wrapped at the module attribute where its caller
looks it up (bkfact.certify.bernstein_on_rect is the name bernstein_certify
calls; bkfact.cli.build_parser the one _run_once calls), so the package's
source is untouched and uninstalling restores it exactly.  A span is
(name, start, end, parent, problem); spans stay in memory and are written
out once, at the end.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

from bkfact import certify, cli, parsing, poly, report

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "cli.parser_build_calls": "count",
    "cli.parser_build_s": "s",
    "cli.self_s": "s",
    "parsing.calls": "count",
    "parsing.parse_s": "s",
    "parsing.terms_out": "count",
    "lpdo.residual_calls": "count",
    "lpdo.residual_s": "s",
    "poly.mul_calls": "count",
    "poly.mul_s": "s",
    "poly.eval_calls": "count",
    "certify.quad_calls": "count",
    "certify.quad_s": "s",
    "certify.sufficient_s": "s",
    "certify.bernstein_calls": "count",
    "certify.bernstein_s": "s",
    "certify.bernstein_max_depth": "count",
    "poly.enclosures": "count",
    "poly.enclosure_s": "s",
    "poly.enclosure_us": "us",
    "poly.enclosure_useful_ratio": "ratio",
    "certify.falsify_calls": "count",
    "certify.falsify_s": "s",
    "certify.falsify_hit_ratio": "ratio",
    "certify.verdicts.inside": "count",
    "certify.verdicts.violated": "count",
    "certify.verdicts.unknown": "count",
    "report.self_s": "s",
    "report.serialize_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_ratio": "ratio",
    "src.loc": "lines",
}


class Tracer:
    """Installs span wrappers on enter and removes them on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.problem = -1
        self._stack: list[int] = []
        self._requests: list = []  # CertRequest of the bernstein_certify in progress
        self._saved: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.problem)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_terms(self, args, result):
        self.counts["parsing.terms_out"] += len(result.terms())

    def _count_verdict(self, args, result):
        self.counts["certify.verdicts." + result.kind] += 1

    def _count_hit(self, args, result):
        self.counts["certify.falsify_hits"] += result is not None

    def _with_request(self, fn):
        def bernstein(request):
            self._requests.append(request)
            try:
                return fn(request)
            finally:
                self._requests.pop()
        return bernstein

    def _observe_enclosure(self, args, result):
        _, xlo, xhi, ylo, yhi = args
        request = self._requests[-1]
        # Every rectangle is the root box halved a whole number of times
        # along each axis; the split count is its depth.
        depth = sum((2 * half / (hi - lo)).numerator.bit_length() - 1
                    for half, lo, hi in ((request.box.m, xlo, xhi), (request.box.n, ylo, yhi)))
        if depth > self.counts["certify.bernstein_max_depth"]:
            self.counts["certify.bernstein_max_depth"] = depth
        eps = request.eps
        self.counts["poly.enclosures_useful"] += -eps < result.lo and result.hi < eps

    def _count_eval(self, fn):
        counts = self.counts

        def counted(self_, x0, y0):
            counts["poly.eval_calls"] += 1
            return fn(self_, x0, y0)
        return counted

    def _patches(self):
        return [
            (cli, "main", lambda f: self._span("cli.main", f)),
            (cli, "build_parser", lambda f: self._span("cli.build_parser", f)),
            (cli, "parse_poly", lambda f: self._span("parsing.parse_poly", f, self._count_terms)),
            (parsing, "parse_poly",
             lambda f: self._span("parsing.parse_poly", f, self._count_terms)),
            (cli, "residual", lambda f: self._span("lpdo.residual", f)),
            (report, "residual", lambda f: self._span("lpdo.residual", f)),
            (cli, "approx_factor_report",
             lambda f: self._span("report.approx_factor_report", f)),
            (report, "approx_factor_report",
             lambda f: self._span("report.approx_factor_report", f)),
            (report.Report, "to_json", lambda f: self._span("report.serialize", f)),
            (report, "certify_open_box",
             lambda f: self._span("certify.open_box", f, self._count_verdict)),
            (report, "sample_falsify", lambda f: self._span("certify.falsify", f, self._count_hit)),
            (report, "triangle_sufficient", lambda f: self._span("certify.sufficient", f)),
            (report, "lifted_sufficient", lambda f: self._span("certify.sufficient", f)),
            (certify, "quad_box_extrema", lambda f: self._span("certify.quad", f)),
            (certify, "bernstein_certify",
             lambda f: self._span("certify.bernstein", self._with_request(f))),
            (certify, "bernstein_on_rect",
             lambda f: self._span("poly.enclosure", f, self._observe_enclosure)),
            (poly.Poly2, "__mul__", lambda f: self._span("poly.mul", f)),
            (poly.Poly2, "eval", self._count_eval),
        ]

    def __enter__(self) -> "Tracer":
        for owner, attr, make in self._patches():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, problem) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "problem": problem}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded (times in seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: defaultdict = defaultdict(int)
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name.split(".")[0]] += end - start - child_ns[sid]

        def seconds(ns):
            return ns / 1e9

        def ratio(part, whole):
            return part / whole if whole else 0.0

        enclosures = calls["poly.enclosure"]
        c = self.counts
        return {
            "cli.parser_build_calls": calls["cli.build_parser"],
            "cli.parser_build_s": seconds(total_ns["cli.build_parser"]),
            "cli.self_s": seconds(self_ns["cli"]),
            "parsing.calls": calls["parsing.parse_poly"],
            "parsing.parse_s": seconds(total_ns["parsing.parse_poly"]),
            "parsing.terms_out": c["parsing.terms_out"],
            "lpdo.residual_calls": calls["lpdo.residual"],
            "lpdo.residual_s": seconds(total_ns["lpdo.residual"]),
            "poly.mul_calls": calls["poly.mul"],
            "poly.mul_s": seconds(total_ns["poly.mul"]),
            "poly.eval_calls": c["poly.eval_calls"],
            "certify.quad_calls": calls["certify.quad"],
            "certify.quad_s": seconds(total_ns["certify.quad"]),
            "certify.sufficient_s": seconds(total_ns["certify.sufficient"]),
            "certify.bernstein_calls": calls["certify.bernstein"],
            "certify.bernstein_s": seconds(total_ns["certify.bernstein"]),
            "certify.bernstein_max_depth": c["certify.bernstein_max_depth"],
            "poly.enclosures": enclosures,
            "poly.enclosure_s": seconds(total_ns["poly.enclosure"]),
            "poly.enclosure_us": ratio(total_ns["poly.enclosure"] / 1e3, enclosures),
            "poly.enclosure_useful_ratio": ratio(c["poly.enclosures_useful"], enclosures),
            "certify.falsify_calls": calls["certify.falsify"],
            "certify.falsify_s": seconds(total_ns["certify.falsify"]),
            "certify.falsify_hit_ratio": ratio(c["certify.falsify_hits"],
                                               calls["certify.falsify"]),
            "certify.verdicts.inside": c["certify.verdicts.inside"],
            "certify.verdicts.violated": c["certify.verdicts.violated"],
            "certify.verdicts.unknown": c["certify.verdicts.unknown"],
            "report.self_s": seconds(self_ns["report"]),
            "report.serialize_s": seconds(total_ns["report.serialize"]),
        }


def src_loc(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "bkfact").glob("*.py")))

