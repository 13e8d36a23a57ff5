"""The traced benchmark run wraps package attributes by name; each one it
patches must exist, or `bench/run.py --trace 1` crashes on entry, and each
per-layer count it reports must still see the calls it is named after."""

import importlib.util
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from bkfact import Box, CertRequest, certify, cli, lpdo, parsing, report

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_patched_attribute_exists():
    spans = _load_spans()
    patches = spans.Tracer()._patches()
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches if attr not in owner.__dict__]
    assert missing == []


def _report(a00: str, eps, depth: int, grid: int):
    # With a10 = a01 = 0 the canonical residual is 0, so the difference is a00.
    op = lpdo.LPDO2(lpdo.CANONICAL_SYMBOL, parsing.parse_poly("0"), parsing.parse_poly("0"),
                    parsing.parse_poly(a00))
    return report.approx_factor_report(op, Box(1, 1), eps, max_depth=depth, grid_k=grid)


def test_traced_counts_see_every_layer(tmp_path, capsys):
    spans = _load_spans()
    batch = tmp_path / "batch.txt"
    batch.write_text("--a00=x^2+1/2*y --eps=2\n--a00=4-x^2-y^2 --eps=4\n", encoding="utf-8")
    with spans.Tracer() as tracer:
        statuses = [cli.main(["certify", "--format", "json", "--input", str(batch)]),
                    cli.main(["residual", "--format", "json", "--a10=x*y", "--a01=x"])]
        # A bernstein-highdeg inside case and a grid-hit case (sup 1.03*eps
        # within 1% of x = +-1, found on the K = 256 grid).
        reports = [_report("x^4 + 1/2*y^2", 2, 12, 0), _report("103/100*x^6", 1, 8, 256)]
    records = capsys.readouterr().out.splitlines()
    assert statuses == [cli.EX_VIOLATED, cli.EX_OK] and len(records) == 3
    kinds = Counter(root["certificate"]["kind"]
                    for record in records[:2] for root in json.loads(record)["roots"])
    kinds.update(r.certificate.kind for rep in reports for r in rep.roots)
    assert [r.certificate.kind for r in reports[1].roots] == ["violated", "violated"]

    metrics, hits = tracer.layer_metrics(), tracer.counts["certify.falsify_hits"]
    assert metrics["certify.quad_calls"] == 4
    assert metrics["poly.enclosures"] > 0
    assert metrics["certify.falsify_calls"] == 2 and hits == 2
    assert metrics["cli.parser_build_calls"] == 2  # one per main()
    # Verdicts count certify_open_box, before the grid turns Unknown into Violated.
    verdicts = {kind: metrics[f"certify.verdicts.{kind}"]
                for kind in ("inside", "violated", "unknown")}
    assert verdicts == {"inside": kinds["inside"], "violated": kinds["violated"] - hits,
                        "unknown": kinds["unknown"] + hits}


@pytest.mark.parametrize("a00, eps, depth, kind", [
    ("x^4 - 1/4*(y - 1/3)^2", Fraction(11, 10), 12, "inside"),
    ("x^4 + y^4 - 1/3*x*y", Fraction(3, 2), 8, "violated"),
    ("x^4 - 1/4*(y - 1/3)^2", Fraction(1), 6, "unknown"),  # depth budget runs out
])
def test_one_enclosure_per_node(monkeypatch, a00, eps, depth, kind):
    """The traced poly.enclosures counts certify.bernstein_on_rect calls, so
    bernstein_certify must make exactly one per node it visits."""
    request = CertRequest(parsing.parse_poly(a00), Box(1, 1), eps, depth)
    original, nodes = helpers.bernstein_on_rect, []

    def counted(*args):
        nodes.append(args)
        return original(*args)

    monkeypatch.setattr(helpers, "bernstein_on_rect", counted)
    expected = helpers.reference_bernstein_certify(request)
    monkeypatch.undo()
    spans, observed = _load_spans(), []
    observe = spans.Tracer._observe_enclosure

    def recorded(self, args, result):
        observed.append(result)
        observe(self, args, result)

    monkeypatch.setattr(spans.Tracer, "_observe_enclosure", recorded)
    with spans.Tracer() as tracer:
        got = certify.bernstein_certify(request)
    assert got == expected and got.kind == kind
    assert len(nodes) > 1
    assert tracer.layer_metrics()["poly.enclosures"] == len(nodes) == len(observed)
    # The tracer reads each enclosure's lo and hi as Fractions.
    assert all(type(e.lo) is Fraction and type(e.hi) is Fraction for e in observed)
