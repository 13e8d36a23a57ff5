"""Acceptance suite: one test per release criterion, each printing a
PASS line with the scale it ran at (visible with pytest -s)."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bkfact import (
    Box,
    CertifiedInside,
    CertRequest,
    LPDO2,
    Poly2,
    PreconditionViolatedError,
    ReducedCoeffs,
    ReducedProblem,
    Unknown,
    UnivQuad,
    Violated,
    bernstein_certify,
    canonical_residual,
    certify_open_box,
    characteristic_roots,
    exactness_system_deg1,
    family_deg1,
    format_poly,
    lifted_sufficient,
    parse_poly,
    qf_linear,
    qf_neg_casewise,
    qf_neg_compact,
    qf_nonpos_combined,
    quad_box_extrema,
    quad_interval_decision,
    reduced_coeffs,
    residual,
    residual_closed_deg1,
    residual_closed_deg2,
    sample_falsify,
    triangle_sufficient,
)
from bkfact.cli import main as cli_main
from bkfact.lpdo import CANONICAL_SYMBOL
from helpers import difference_from_expansion, exact_grid_extrema, rand_frac, rand_poly2

GOLDEN = Path(__file__).parent / "golden"
UNIT = Box(1, 1)
ROOT_MINUS, ROOT_PLUS = characteristic_roots(CANONICAL_SYMBOL)


def _pass(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS  {message}")


def exact_unit(q: UnivQuad) -> bool:
    return quad_interval_decision(q, 1, 4)


def closed_deg1_from_values(s1, s2, s3) -> Poly2:
    rc = ReducedCoeffs(Fraction(s1), Fraction(s2), Fraction(s3),
                       Fraction(0), Fraction(0), Fraction(0), degree=1)
    return residual_closed_deg1(rc)


def test_criterion_01_linear_formula_equivalence():
    started = time.monotonic()
    rng = random.Random(1001)
    checked = 0
    while checked < 10_000:
        b = rand_frac(rng, 12, 6)
        if b == 0:
            continue
        q = UnivQuad(0, b, rand_frac(rng, 12, 6))
        assert qf_linear(q) == exact_unit(q)
        checked += 1
    # Integer boundary grid; b = 0 is outside the criterion's domain and
    # must be rejected as a precondition violation instead.
    for b in range(-5, 6):
        for c in range(-5, 6):
            if b == 0:
                with pytest.raises(PreconditionViolatedError):
                    qf_linear(UnivQuad(0, 0, c))
                continue
            q = UnivQuad(0, b, c)
            assert qf_linear(q) == exact_unit(q)
            checked += 1
    # Exact |c +/- b| = 4 boundary cases.
    for b_num in range(-10, 11):
        b = Fraction(b_num, 2)
        if b == 0:
            continue
        for c in (4 - b, 4 + b, -4 - b, -4 + b):
            q = UnivQuad(0, b, c)
            assert qf_linear(q) == exact_unit(q)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _pass(1, f"linear criterion == exact decision on {checked} cases ({elapsed:.1f}s)")


def test_criterion_02_negative_leading_formulas():
    started = time.monotonic()
    rng = random.Random(1002)
    checked = 0
    for _ in range(10_000):
        a = -abs(rand_frac(rng, 8, 5)) - Fraction(1, 9)
        q = UnivQuad(a, rand_frac(rng, 12, 5), rand_frac(rng, 12, 5))
        exact = exact_unit(q)
        assert qf_neg_compact(q) == exact
        assert qf_neg_casewise(q) == exact
        checked += 1
    # Curated boundary cases: vertex parked on an endpoint, vertex value
    # exactly +/-4, endpoint values exactly +/-4.
    curated = []
    for a in (Fraction(-1), Fraction(-2), Fraction(-1, 2), Fraction(-5, 3)):
        for b in (-2 * a, 2 * a):  # vertex at x = +1 / x = -1
            for c in (Fraction(0), Fraction(4), Fraction(-4), Fraction(7, 2)):
                curated.append(UnivQuad(a, b, c))
        for b in (Fraction(0), Fraction(1), Fraction(-3), -a):
            for sign in (4, -4):
                curated.append(UnivQuad(a, b, sign + b * b / (4 * a)))  # vertex value
                curated.append(UnivQuad(a, b, sign - a - b))            # f(1) = +/-4
                curated.append(UnivQuad(a, b, sign - a + b))            # f(-1) = +/-4
    for q in curated:
        exact = exact_unit(q)
        assert qf_neg_compact(q) == exact
        assert qf_neg_casewise(q) == exact
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _pass(2, f"negative-leading criteria == exact decision on {checked} cases ({elapsed:.1f}s)")


def test_criterion_03_combined_formula_and_boundary_artifact():
    rng = random.Random(1003)
    checked = 0
    while checked < 10_000:
        if rng.random() < 0.4:
            a = Fraction(0)
            b = rand_frac(rng, 6, 4) if rng.random() < 0.8 else Fraction(0)
        else:
            a = -abs(rand_frac(rng, 6, 4)) - Fraction(1, 9)
            b = rand_frac(rng, 8, 4)
        c = rand_frac(rng, 10, 4)
        if a == 0 and b == 0 and abs(c) == 4:
            continue  # the documented degenerate set, asserted below
        q = UnivQuad(a, b, c)
        assert qf_nonpos_combined(q) == exact_unit(q)
        checked += 1
    # The known boundary artifact: the printed criterion answers true on the
    # constants +/-4 although the strict predicate is false there.
    for c in (4, -4):
        q = UnivQuad(0, 0, c)
        assert qf_nonpos_combined(q) is True
        assert exact_unit(q) is False
    _pass(3, f"combined criterion == exact on {checked} cases; "
             "disagreement confirmed exactly at (0, 0, +/-4)")


def test_criterion_04_residual_identities():
    rng = random.Random(1004)
    for degree in (1, 2):
        for _ in range(100):
            if degree == 1:
                a10 = Poly2.affine(rand_frac(rng), rand_frac(rng), rand_frac(rng))
                a01 = Poly2.affine(rand_frac(rng), rand_frac(rng), rand_frac(rng))
            else:
                a10 = rand_poly2(rng, 2)
                a01 = rand_poly2(rng, 2)
            op = LPDO2.canonical(a10, a01)
            for root in (ROOT_MINUS, ROOT_PLUS):
                general = residual(op, root).r            # constant-symbol path
                s_path = canonical_residual(a10, a01, root.omega).r
                rc = reduced_coeffs(a10, a01, int(root.omega))
                closed = residual_closed_deg1(rc) if degree == 1 else residual_closed_deg2(rc)
                assert general == s_path == closed
            # mirror symmetry: flipping a01's sign swaps the two roots
            assert (residual(LPDO2.canonical(a10, a01), ROOT_PLUS).r
                    == residual(LPDO2.canonical(a10, -a01), ROOT_MINUS).r)
    _pass(4, "general path == S-path == closed forms (100 ops per degree), "
             "with the sign-mirror symmetry")


def test_criterion_05_affine_family():
    rng = random.Random(1005)
    for _ in range(100):
        c3, c2, c1, d1 = (rand_frac(rng) for _ in range(4))
        op = family_deg1(c3, c2, c1, d1, -1)
        assert op.a00 == Poly2.const((c1 - d1) ** 2 / 4)
        assert residual(op, ROOT_MINUS).r == op.a00
        values, ok = exactness_system_deg1(op, ROOT_MINUS)
        assert ok and all(v == 0 for v in values)
    _pass(5, "100 random affine-family members: exact, all six residuals zero, "
             "a00 == (c1-d1)^2/4")


def test_criterion_06_lifted_condition_never_falsified():
    started = time.monotonic()
    rng = random.Random(1006)
    accepted = 0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 400_000, "acceptance rate collapsed"
        b1, b3, s1, s3 = (rand_frac(rng, 4, 4) for _ in range(4))
        problem = ReducedProblem(b1, 0, b3, s1, 0, s3)
        if not lifted_sufficient(problem):
            continue
        accepted += 1
        d = Poly2.affine(b3, 0, b1) - closed_deg1_from_values(s1, 0, s3)
        assert d == difference_from_expansion(b1, 0, b3, s1, 0, s3)
        witness = sample_falsify(CertRequest(d=d, box=UNIT, eps=1), 101)
        assert witness is None
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _pass(6, f"1000 lifted-sufficient instances, grid 201x201: no witness "
             f"({attempts} draws, {elapsed:.1f}s)")


def test_criterion_07_triangle_condition_soundness():
    rng = random.Random(1007)
    accepted = 0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 400_000, "acceptance rate collapsed"
        b1, b2, b3, s1, s2, s3 = (rand_frac(rng, 3, 4) for _ in range(6))
        d = Poly2.affine(b3, b2, b1) - closed_deg1_from_values(s1, s2, s3)
        if not triangle_sufficient(d, UNIT, 1):
            continue
        accepted += 1
        cert = certify_open_box(CertRequest(d=d, box=UNIT, eps=1))
        assert isinstance(cert, CertifiedInside)
    _pass(7, f"1000 triangle-sufficient instances all certified inside "
             f"({attempts} draws)")


def _coefficient_sup_bound(p: Poly2, box: Box) -> Fraction:
    return sum((abs(c) * box.m ** i * box.n ** j for (i, j), c in p.terms()),
               Fraction(0))


def test_criterion_08_exact_extrema_vs_grid_oracle():
    rng = random.Random(1008)
    grid_k = 101  # 201 x 201 interior points
    for _ in range(500):
        d = rand_poly2(rng, 2)
        ext = quad_box_extrema(d, UNIT)
        grid_lo, grid_hi = exact_grid_extrema(d, UNIT, grid_k)
        assert ext.min_val <= grid_lo and grid_hi <= ext.max_val
        # Mean-value bound: a box point is within m/101 (x) and n/101 (y) of
        # a grid point, so the gap is at most Lx*m/101 + Ly*n/101 with
        # Lx, Ly coefficient bounds on |dD/dx|, |dD/dy|.  This is tighter
        # than (and implies) the gradient-bound * diagonal/200 tolerance.
        allowance = (_coefficient_sup_bound(d.diff("x"), UNIT) * UNIT.m
                     + _coefficient_sup_bound(d.diff("y"), UNIT) * UNIT.n) / grid_k
        assert ext.max_val - grid_hi <= allowance
        assert grid_lo - ext.min_val <= allowance
    _pass(8, "500 quadratics: grid never exceeds exact extrema and gaps are "
             "within the mean-value allowance")


def test_criterion_09_bernstein_certifier():
    rng = random.Random(1009)
    # (a) never contradicts the exact quadratic path
    for _ in range(500):
        d = rand_poly2(rng, 2, num_max=3, den_max=4)
        eps = abs(rand_frac(rng, 3, 3)) + Fraction(1, 4)
        request = CertRequest(d=d, box=UNIT, eps=eps, max_depth=4)
        exact_cert = certify_open_box(request)
        sub_cert = bernstein_certify(request)
        if isinstance(sub_cert, CertifiedInside):
            assert isinstance(exact_cert, CertifiedInside)
        elif isinstance(sub_cert, Violated):
            assert isinstance(exact_cert, Violated)
            assert abs(d.eval(*sub_cert.witness)) >= eps
            assert UNIT.contains_open(*sub_cert.witness)
    # (b) quartic differences: witnesses verify exactly, Unknown gaps shrink
    X, Y = Poly2.var("x"), Poly2.var("y")
    cases = [(X ** 4 + Y ** 4, Fraction(2))]  # sup reached only at corners: inside(margin = 0)
    while len(cases) < 101:
        a10, a01 = rand_poly2(rng, 2, num_max=2), rand_poly2(rng, 2, num_max=2)
        d = rand_poly2(rng, 2) - canonical_residual(a10, a01, rng.choice((1, -1))).r
        if d.degree <= 2:
            continue
        coarse = max((abs(d.eval(Fraction(i, 4), Fraction(j, 4)))
                      for i in range(-4, 5) for j in range(-4, 5)), default=Fraction(0))
        eps = coarse + Fraction(1, 100) if coarse > 0 and rng.random() < 0.5 \
            else abs(rand_frac(rng, 2, 2)) + Fraction(1, 2)
        cases.append((d, eps))
    monotone_checked = 0
    for d, eps in cases:
        shallow = bernstein_certify(CertRequest(d=d, box=UNIT, eps=eps, max_depth=3))
        deep = bernstein_certify(CertRequest(d=d, box=UNIT, eps=eps, max_depth=5))
        for cert in (shallow, deep):
            if isinstance(cert, Violated):
                assert d.eval(*cert.witness) == cert.value
                assert abs(cert.value) >= eps
                assert UNIT.contains_open(*cert.witness)
        if isinstance(shallow, Unknown) and isinstance(deep, Unknown):
            assert deep.gap <= shallow.gap
            monotone_checked += 1
    assert monotone_checked > 0
    _pass(9, f"500 quadratics without contradiction; 100 quartics with exact "
             f"witnesses and {monotone_checked} monotone Unknown gaps")


def test_criterion_10_residual_degree_bound():
    rng = random.Random(1010)
    for degree in (1, 2, 3):
        for _ in range(50):
            op = LPDO2.canonical(rand_poly2(rng, degree), rand_poly2(rng, degree),
                                 rand_poly2(rng, degree))
            for root in (ROOT_MINUS, ROOT_PLUS):
                assert residual(op, root).r.degree <= 2 * degree
    _pass(10, "deg(R) <= 2n for 50 random operators per n in {1, 2, 3}, both roots")


def test_criterion_11_cli_golden_and_round_trip(capsys):
    # Golden runs of the three documented invocations.
    assert cli_main(["certify"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "certify_default.txt").read_text()
    assert cli_main(["family", "--c3", "2", "--c2", "3", "--c1", "5",
                     "--d1", "1", "--root", "-1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "family_affine.txt").read_text()
    assert cli_main(["residual", "--a10", "x", "--a01", "y", "--root", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "residual_cross.txt").read_text()
    # Parse/format round trip at full coefficient scale.
    rng = random.Random(1011)
    for _ in range(1000):
        p = rand_poly2(rng, 4, num_max=10 ** 6, den_max=10 ** 6)
        assert parse_poly(format_poly(p)) == p
    # JSON output is canonical and stable.
    assert cli_main(["certify", "--a10", "x", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["certify", "--a10", "x", "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)
    _pass(11, "golden CLI outputs, 1000 parse/format round trips, stable JSON")
