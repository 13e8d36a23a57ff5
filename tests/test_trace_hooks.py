"""The traced benchmark run wraps package attributes by name; each one it
patches must exist, or `bench/run.py --trace 1` crashes on entry, and each
per-layer count it reports must still see the calls it is named after."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from bkfact import Box, cli, lpdo, parsing, report

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_patched_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
