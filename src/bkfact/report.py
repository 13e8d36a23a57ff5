"""Per-root certification reports with deterministic text and JSON forms.

A report runs, for every requested characteristic root: the residual, the
a00 = R verdict, the open-box certificate for the difference a00 - R, and
the two cheap sufficient conditions.  Serialization is
canonical (sorted keys, canonical monomial order, rationals as exact
strings), so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certify import (
    DEFAULT_DEPTH,
    Certificate,
    CertifiedInside,
    CertRequest,
    Unknown,
    Violated,
    certify_open_box,
    lifted_sufficient,
    sample_falsify,
    triangle_sufficient,
)
from .lpdo import LPDO2, CharRoot, affine_reduction, characteristic_roots, residual
from .poly import Box, Poly2, Scalar, as_fraction, format_poly


@dataclass(frozen=True)
class RootReport:
    """Certification outcome for one characteristic root."""

    omega: Fraction
    residual: Poly2
    exact: bool
    certificate: Certificate
    theorem1: Optional[bool]  # None when the lifted condition does not apply
    triangle: bool


@dataclass(frozen=True)
class Report:
    eps: Fraction
    m: Fraction
    n: Fraction
    roots: tuple[RootReport, ...]

    def to_json(self) -> str:
        return json.dumps({
            "parameters": parameters_json(self.eps, self.m, self.n),
            "roots": [_root_json(r) for r in self.roots],
        }, sort_keys=True)

    def to_text(self) -> str:
        lines = [parameters_text(self.eps, self.m, self.n)]
        for r in self.roots:
            lines.append(
                f"omega = {r.omega}: exact = {_bool_text(r.exact)}, "
                f"certificate = {_certificate_text(r.certificate)}, "
                f"{sufficient_text(r.theorem1, r.triangle)}")
        return "\n".join(lines)


def parameters_json(eps: Fraction, m: Fraction, n: Fraction) -> dict:
    return {"eps": str(eps), "m": str(m), "n": str(n)}


def parameters_text(eps: Fraction, m: Fraction, n: Fraction) -> str:
    return f"parameters: eps = {eps}, m = {m}, n = {n}"


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _certificate_text(cert: Certificate) -> str:
    if isinstance(cert, CertifiedInside):
        return f"inside(margin = {cert.margin})"
    if isinstance(cert, Violated):
        return f"violated(witness = ({cert.witness[0]}, {cert.witness[1]}), value = {cert.value})"
    return f"unknown(gap = {cert.gap})"


def certificate_json(cert: Certificate) -> dict:
    if isinstance(cert, CertifiedInside):
        return {"kind": "inside", "margin": str(cert.margin)}
    if isinstance(cert, Violated):
        return {"kind": "violated",
                "witness": [str(cert.witness[0]), str(cert.witness[1])],
                "value": str(cert.value)}
    return {"kind": "unknown", "gap": str(cert.gap)}


def _root_json(r: RootReport) -> dict:
    return {
        "omega": str(r.omega),
        "residual": format_poly(r.residual),
        "exact": r.exact,
        "certificate": certificate_json(r.certificate),
        "sufficient": sufficient_json(r.theorem1, r.triangle),
    }


def sufficient_conditions(op: LPDO2, root: CharRoot, difference: Poly2, box: Box,
                          eps: Fraction) -> tuple[Optional[bool], bool]:
    """(theorem1, triangle) for the difference a00 - R along one root.

    The lifted condition applies only to canonical operators with affine
    coefficients at eps = m = n = 1; elsewhere theorem1 is None.
    """
    applicable = (op.symbol.is_canonical
                  and eps == 1 and box.m == 1 and box.n == 1
                  and op.a10.degree <= 1 and op.a01.degree <= 1 and op.a00.degree <= 1)
    theorem1 = None
    if applicable:
        b1, b2, b3, rc = affine_reduction(op, root)
        theorem1 = lifted_sufficient(b1, b2, b3, rc.s1, rc.s2, rc.s3)
    return theorem1, triangle_sufficient(difference, box, eps)


def sufficient_json(theorem1: Optional[bool], triangle: bool) -> dict:
    return {"theorem1": "n/a" if theorem1 is None else theorem1, "triangle": triangle}


def sufficient_text(theorem1: Optional[bool], triangle: bool) -> str:
    rendered = "n/a" if theorem1 is None else _bool_text(theorem1)
    return f"theorem1 = {rendered}, triangle = {_bool_text(triangle)}"


def approx_factor_report(op: LPDO2, box: Box, eps: Scalar,
                         max_depth: int = DEFAULT_DEPTH, grid_k: int = 0,
                         roots: Optional[tuple[CharRoot, ...]] = None) -> Report:
    """Run the full per-root analysis of an operator on a box.

    For each characteristic root (ascending omega unless an explicit subset
    is given): residual, exact verdict, difference certificate, and the
    sufficient-condition verdicts (see sufficient_conditions).  When
    grid_k >= 2, an Unknown certificate is retried with the grid falsifier
    and replaced by the Violated certificate it returns, if any.
    """
    eps_v = as_fraction(eps)
    if roots is None:
        roots = characteristic_roots(op.symbol)
    entries = []
    for root in roots:
        trace = residual(op, root)
        difference = op.a00 - trace.r
        request = CertRequest(d=difference, box=box, eps=eps_v, max_depth=max_depth)
        certificate = certify_open_box(request)
        if isinstance(certificate, Unknown) and grid_k >= 2:
            certificate = sample_falsify(request, grid_k) or certificate
        theorem1, triangle = sufficient_conditions(op, root, difference, box, eps_v)
        entries.append(RootReport(
            omega=root.omega,
            residual=trace.r,
            exact=difference.is_zero,
            certificate=certificate,
            theorem1=theorem1,
            triangle=triangle,
        ))
    return Report(eps=eps_v, m=box.m, n=box.n, roots=tuple(entries))
