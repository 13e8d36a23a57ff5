"""Output verifier: every check returns a list of problems found (empty when
the output is right).

A certify record is checked against its case: the residual against the
generator's reference (and, for the canonical symbol, the package's
independent canonical_residual path and the degree <= 2 closed forms), the
round trip through the parser, each Violated witness by exact evaluation of
the known difference at a point strictly inside the box, each
CertifiedInside against the truth label, the exact margin where it is known
and an exact rational grid sample, and the sufficient-condition flags
against their definitions.  Unknown is not an error; it is counted as
undecided.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import bkfact
from bkfact import lpdo
from corpus import CertCase, ResidualCase, peval, pdegree, residual_at

# Interior sample points, as fractions of the half-widths.
_GRID = [F(i, 8) for i in (-7, -5, -3, -1, 0, 1, 3, 5, 7)]
# Points for the pointwise residual identity; no affine factor in the corpus
# vanishes at them.
_POINTS = [(F(3, 11), F(-5, 13)), (F(-7, 17), F(2, 19)), (F(13, 23), F(11, 29))]


def _as_dict(p: bkfact.Poly2) -> dict:
    return dict(p.terms())


def parse_residual(text: str) -> tuple[bkfact.Poly2 | None, list[str]]:
    """Parse the program's residual text; it must print back to itself."""
    try:
        parsed = bkfact.parse_poly(text)
    except bkfact.ParseError as exc:
        return None, [f"residual does not parse: {exc}"]
    if bkfact.format_poly(parsed) != text:
        return parsed, ["residual text is not canonical"]
    return parsed, []


def _check_cert_residual(case: CertCase, omega: F, text: str) -> list[str]:
    parsed, errors = parse_residual(text)
    if parsed is None:
        return errors
    if _as_dict(parsed) != case.residual:
        errors.append("residual differs from the reference")
    if case.sym.canonical:
        a10, a01 = bkfact.Poly2(case.a10), bkfact.Poly2(case.a01)
        if parsed != lpdo.canonical_residual(a10, a01, omega).r:
            errors.append("residual differs from canonical_residual")
        if max(pdegree(case.a10), pdegree(case.a01)) <= 2:
            rc = lpdo.reduced_coeffs(a10, a01, int(omega))
            closed = lpdo.residual_closed_deg1 if rc.degree == 1 else lpdo.residual_closed_deg2
            if closed(rc) != parsed:
                errors.append("residual differs from the closed form")
    return errors


def _theorem1_applicable(case: CertCase) -> bool:
    return (case.sym.canonical and case.eps == case.m == case.n == 1
            and max(pdegree(case.a10), pdegree(case.a01), pdegree(case.a00)) <= 1)


def _triangle(case: CertCase) -> bool:
    total = sum((abs(c) * case.m ** i * case.n ** j for (i, j), c in case.g.items()), F(0))
    return total < case.eps


def check_certificate(case: CertCase, cert: dict) -> list[str]:
    g, eps, m, n, truth = case.g, case.eps, case.m, case.n, case.truth
    kind = cert.get("kind")
    if kind == "violated":
        x, y = (F(v) for v in cert["witness"])
        if not (abs(x) < m and abs(y) < n):
            return ["witness not strictly inside the box"]
        value = peval(g, x, y)
        errors = []
        if value != F(cert["value"]):
            errors.append("witness value differs from exact evaluation")
        if abs(value) < eps:
            errors.append("witness does not violate")
        if truth.inside:
            errors.append("violated, but the label is inside")
        return errors
    if kind == "inside":
        margin = F(cert["margin"])
        errors = []
        if not truth.inside:
            errors.append("inside, but the label is violated")
        if margin < 0:
            errors.append("negative margin")
        if pdegree(g) <= 2 and margin != eps - truth.sup:
            errors.append("margin differs from the exact one")
        if margin > eps - truth.sup:
            errors.append("margin larger than eps - sup")
        bound = eps - margin
        if any(abs(peval(g, m * u, n * v)) > bound for u in _GRID for v in _GRID):
            errors.append("grid sample exceeds eps - margin")
        return errors
    if kind == "unknown":
        return [] if F(cert["gap"]) >= 0 else ["negative gap"]
    return [f"unknown certificate kind {kind!r}"]


def check_certify_record(case: CertCase, record: str) -> tuple[list[str], int, int]:
    """Verify one certify JSON record; returns (errors, certificates,
    unknown certificates)."""
    try:
        data = json.loads(record)
        params = data["parameters"]
        roots = data["roots"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed record: {exc}"], 0, 0
    errors = []
    if params != {"eps": str(case.eps), "m": str(case.m), "n": str(case.n)}:
        errors.append("parameters differ from the input")
    if [r.get("omega") for r in roots] != [str(w) for w in case.omegas]:
        return errors + ["roots differ from the requested ones"], 0, 0
    unknown = 0
    theorem1_ok = _theorem1_applicable(case)
    for entry, omega in zip(roots, case.omegas):
        try:
            errors += _check_cert_residual(case, omega, entry["residual"])
            if entry["exact"] != (not case.g):
                errors.append("exact flag wrong")
            cert = entry["certificate"]
            errors += check_certificate(case, cert)
            unknown += cert.get("kind") == "unknown"
            sufficient = entry["sufficient"]
            if sufficient["triangle"] != _triangle(case):
                errors.append("triangle flag wrong")
            theorem1 = sufficient["theorem1"]
            if (theorem1 == "n/a") == theorem1_ok:
                errors.append("theorem1 applicability wrong")
            if (theorem1 is True or sufficient["triangle"]) and cert.get("kind") != "inside":
                errors.append("a sufficient condition holds but the certificate is not inside")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            errors.append(f"malformed root entry: {exc!r}")
    return errors, len(roots), unknown


def library_report(case: CertCase) -> str:
    """The library Report for a case, serialized as the CLI does."""
    symbol = lpdo.PrincipalSymbol(case.sym.a20, case.sym.a11, case.sym.a02)
    op = lpdo.LPDO2(symbol, *(bkfact.parse_poly(t) for t in case.texts))
    roots = tuple(r for r in lpdo.characteristic_roots(symbol) if r.omega in case.omegas)
    return bkfact.approx_factor_report(op, bkfact.Box(case.m, case.n), case.eps,
                                       max_depth=case.depth, grid_k=case.grid,
                                       roots=roots).to_json()


def check_residual_record(case: ResidualCase, record: str) -> list[str]:
    """Verify one `residual --format json` record by the pointwise identity
    with the reference formula and, for the canonical symbol, against
    canonical_residual."""
    try:
        roots = json.loads(record)["roots"]
        texts = [r["residual"] for r in roots]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed record: {exc}"]
    if [r.get("omega") for r in roots] != [str(w) for w in case.omegas]:
        return ["roots differ from the requested ones"]
    errors = []
    for text, omega in zip(texts, case.omegas):
        parsed, problems = parse_residual(text)
        errors += problems
        if parsed is None:
            continue
        if any(parsed.eval(x, y) != residual_at(case, omega, x, y) for x, y in _POINTS):
            errors.append("residual differs from the reference formula")
        if case.sym.canonical:
            a10, a01 = (bkfact.parse_poly(t) for t in case.texts)
            if parsed != lpdo.canonical_residual(a10, a01, omega).r:
                errors.append("residual differs from canonical_residual")
    return errors
