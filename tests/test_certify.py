"""Decision procedures: quantifier-free criteria, exact extrema, certificates,
Bernstein subdivision, and the grid falsifier."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from bkfact import (
    Box,
    CertifiedInside,
    CertRequest,
    DegreeTooHighError,
    Poly2,
    PreconditionViolatedError,
    Unknown,
    UnivQuad,
    Violated,
    bernstein_certify,
    canonical_residual,
    certify_open_box,
    lifted_sufficient,
    qf_linear,
    qf_neg_casewise,
    qf_neg_compact,
    qf_nonpos_combined,
    quad_box_extrema,
    quad_from_reduced,
    quad_interval_decision,
    sample_falsify,
    triangle_sufficient,
    univariate_sufficient,
)
from bkfact import certify, poly

import helpers
from helpers import (
    difference_from_expansion,
    exact_grid_extrema,
    rand_frac,
    rand_nonzero_frac,
    rand_poly2,
    reference_bernstein_certify,
    reference_certificate,
    reference_critical_candidates,
    reference_grid_witness,
    reference_quad_extrema,
    restrict,
)

X = Poly2.var("x")
Y = Poly2.var("y")
UNIT = Box(1, 1)


def exact_unit_decision(q: UnivQuad) -> bool:
    return quad_interval_decision(q, 1, 4)


class TestQfCriteria:
    def test_zero_polynomial(self):
        assert qf_nonpos_combined(UnivQuad(0, 0, 0))

    def test_downward_square(self):
        # 4ac - b^2 - 16a = 16 > 0 carries the vertex disjunct.
        assert qf_neg_compact(UnivQuad(-1, 0, 0))

    def test_line(self):
        # x + 3 ranges over (2, 4) on (-1, 1); the endpoint value 4 is a
        # limit, not attained, so the criterion holds.
        assert qf_linear(UnivQuad(0, 1, 3))

    def test_combined_boundary_artifact(self):
        # The printed a <= 0 criterion answers true for the constants +/-4,
        # where the exact decision is false: the a = 0 disjunct swallows the
        # strictness of the constant case.  Kept as printed and documented.
        for c in (4, -4):
            q = UnivQuad(0, 0, c)
            assert qf_nonpos_combined(q)
            assert not exact_unit_decision(q)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolatedError):
            qf_neg_compact(UnivQuad(0, 1, 0))
        with pytest.raises(PreconditionViolatedError):
            qf_neg_casewise(UnivQuad(1, 1, 0))
        with pytest.raises(PreconditionViolatedError):
            qf_linear(UnivQuad(0, 0, 1))
        with pytest.raises(PreconditionViolatedError):
            qf_nonpos_combined(UnivQuad(Fraction(1, 3), 0, 0))

    def test_equivalences_random(self):
        rng = random.Random(16)
        for _ in range(2000):
            a = -abs(rand_frac(rng, 8, 5)) - Fraction(1, 7)
            b = rand_frac(rng, 12, 5)
            c = rand_frac(rng, 12, 5)
            q = UnivQuad(a, b, c)
            exact = exact_unit_decision(q)
            assert qf_neg_compact(q) == exact
            assert qf_neg_casewise(q) == qf_neg_compact(q)
        for _ in range(2000):
            b = rand_frac(rng, 12, 5)
            if b == 0:
                continue
            q = UnivQuad(0, b, rand_frac(rng, 12, 5))
            assert qf_linear(q) == exact_unit_decision(q)


class TestQuadIntervalDecision:
    def test_examples(self):
        assert quad_interval_decision(UnivQuad(0, 0, 0), 1, 4)
        assert not quad_interval_decision(UnivQuad(0, 0, 4), 1, 4)
        assert quad_interval_decision(UnivQuad(0, 1, 3), 1, 4)
        assert not quad_interval_decision(UnivQuad(-1, 0, 4), 1, 4)

    def test_vertex_at_endpoint(self):
        # a = -1, b = 2: vertex at x = 1, value c + 1.  The vertex sits on
        # the excluded endpoint, so value exactly 4 there is allowed.
        assert quad_interval_decision(UnivQuad(-1, 2, 3), 1, 4)
        # Pushed inside (b = 1, vertex at 1/2, value c + 1/4 = 4) it is not.
        assert not quad_interval_decision(UnivQuad(-1, 1, Fraction(15, 4)), 1, 4)
        # General half-width m = 3/2: b = 2*a*m parks the vertex at x = -m.
        # a = -1/2, b = -3/2, c = 23/8: f(-3/2) = 4 (endpoint only, allowed),
        # f(3/2) = -1/2.
        m = Fraction(3, 2)
        assert quad_interval_decision(UnivQuad(Fraction(-1, 2), Fraction(-3, 2), Fraction(23, 8)), m, 4)
        # Vertex moved inside (x* = -1) with value exactly 4: rejected.
        assert not quad_interval_decision(UnivQuad(Fraction(-1, 2), -1, Fraction(7, 2)), m, 4)

    def test_magnitude_eps_at_endpoints(self):
        # Endpoint limits of exactly eps are fine; an interior crossing is not.
        assert quad_interval_decision(UnivQuad(0, 4, 0), 1, 4)
        assert not quad_interval_decision(UnivQuad(0, 5, 0), 1, 4)

    def test_minimum_side(self):
        # Upward parabola dipping to exactly -eps at the interior vertex.
        assert not quad_interval_decision(UnivQuad(1, 0, -4), 1, 4)
        # Same dip at the endpoint: x^2 - ... with vertex moved to x = 1.
        assert quad_interval_decision(UnivQuad(1, -2, -3), 1, 4)

    def test_constants(self):
        assert quad_interval_decision(UnivQuad(0, 0, Fraction(39, 10)), 1, 4)
        assert not quad_interval_decision(UnivQuad(0, 0, -4), 1, 4)

    def test_general_box_and_eps(self):
        assert quad_interval_decision(UnivQuad(1, 0, 0), Fraction(1, 2), Fraction(1, 4))
        assert not quad_interval_decision(UnivQuad(1, 0, 0), Fraction(1, 2), Fraction(1, 5))

    def test_against_certify_embedding(self):
        # The univariate decision agrees with the restriction-route oracle
        # (independent of the integer lift) on y-free polynomials over a box
        # of another height, on seeded draws and a grid of boundary cases.
        rng = random.Random(17)
        draws = [(rand_frac(rng, 4, 3), rand_frac(rng, 4, 3), rand_frac(rng, 4, 3),
                  abs(rand_frac(rng, 3, 2)) + Fraction(1, 3),
                  abs(rand_frac(rng, 3, 2)) + Fraction(1, 4)) for _ in range(300)]
        half = Fraction(1, 2)
        grid = itertools.product((-1, 0, 1, -half, 2), (-2, -1, 0, 1, 2, Fraction(3, 2)),
                                 (4, -4, 3, -3, 0, Fraction(15, 4), Fraction(23, 8)),
                                 (1, Fraction(3, 2), half), (4, 1, Fraction(1, 4)))
        for a, b, c, m, eps in itertools.chain(draws, grid):
            d, box = Poly2({(2, 0): a, (1, 0): b, (0, 0): c}), Box(m, 2)
            reference = reference_certificate(d, box, eps, *reference_quad_extrema(d, box))
            assert quad_interval_decision(UnivQuad(a, b, c), m, eps) == (
                reference.kind == "inside"), (a, b, c, m, eps)


class TestReducedSubstitution:
    def test_examples(self):
        assert quad_from_reduced(0, 0, 0, 0) == UnivQuad(0, 0, 0)
        assert quad_from_reduced(0, 0, 0, 2) == UnivQuad(-4, 0, -4)
        assert quad_from_reduced(Fraction(1, 2), 0, 0, 0) == UnivQuad(0, 0, 2)

    def test_substitution_matches_difference(self):
        # The quadratic must be 4 * (a00 - R) restricted to y = 0 when
        # b2 = s2 = 0; checked coefficientwise against the hand expansion.
        rng = random.Random(18)
        for _ in range(200):
            b1, b3, s1, s3 = (rand_frac(rng, 4, 3) for _ in range(4))
            q = quad_from_reduced(b1, b3, s1, s3)
            diff = difference_from_expansion(b1, 0, b3, s1, 0, s3)
            line = restrict(diff, "y", 0)
            assert q.a == 4 * line.coeff(2)
            assert q.b == 4 * line.coeff(1)
            assert q.c == 4 * line.coeff(0)

    def test_univariate_sufficient_examples(self):
        assert univariate_sufficient(0, 0, 0, 0)
        assert not univariate_sufficient(0, 0, 0, 2)   # -4x^2 - 4 hits -4 at x = 0
        assert univariate_sufficient(Fraction(1, 2), 0, 0, 0)  # constant 2

    def test_univariate_sufficient_sound_on_constants(self):
        # b1 = 1, s1 = s3 = b3 = 0 maps to the constant 4, which is not
        # strictly inside; the decision must be false despite the printed
        # criterion's artifact there.
        assert not univariate_sufficient(1, 0, 0, 0)
        assert not univariate_sufficient(-1, 0, 0, 0)

    def test_lifted_examples(self):
        assert lifted_sufficient(0, 0, 0, 0, 0, 0)
        assert not lifted_sufficient(0, 1, 0, 0, 0, 0)  # b2 gate
        assert not lifted_sufficient(0, 0, 0, 0, Fraction(1, 5), 0)  # s2 gate
        assert lifted_sufficient(Fraction(1, 2), 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("position", range(6))
    def test_lifted_rejects_floats(self, position):
        # Every position is coerced, also behind a gate that already fails.
        for args in ([0] * 6, [0, 1, 0, 0, 1, 0]):
            args[position] = 0.5
            with pytest.raises(TypeError):
                lifted_sufficient(*args)


class TestTriangle:
    def test_examples(self):
        assert triangle_sufficient(Poly2.zero(), UNIT, 1)
        assert triangle_sufficient(X / 7, UNIT, 1)
        assert not triangle_sufficient(X * X + Y * Y, UNIT, 1)

    def test_scales_with_box(self):
        d = X * Y
        assert triangle_sufficient(d, Box(Fraction(1, 2), 1), 1)
        assert not triangle_sufficient(d, Box(2, 1), 1)

    def test_matches_fraction_sum(self):
        # The integer-lift decision against the Fraction sum it replaced; an
        # eps equal to the sum is not strictly above it.
        rng = random.Random(81)
        for _ in range(1500):
            d = rand_poly2(rng, rng.randint(0, 6), num_max=40, den_max=30)
            box = Box(abs(rand_nonzero_frac(rng, 9, 7)), abs(rand_nonzero_frac(rng, 9, 7)))
            total = sum((abs(c) * box.m ** i * box.n ** j for (i, j), c in d.terms()),
                        Fraction(0))
            for eps in (abs(rand_nonzero_frac(rng, 60, 60)), total, total * Fraction(1001, 1000),
                        total * Fraction(999, 1000)):
                if eps > 0:
                    assert triangle_sufficient(d, box, eps) == (total < eps)


def attained_inside(points, box: Box) -> bool:
    return any(box.contains_open(*point) for point in points)


class TestQuadBoxExtrema:
    def test_bowl(self):
        ext = quad_box_extrema(X * X + Y * Y, UNIT)
        assert (ext.min_val, ext.max_val) == (0, 2)
        assert attained_inside(ext.min_points, UNIT)
        assert not attained_inside(ext.max_points, UNIT)
        assert (Fraction(0), Fraction(0)) in ext.min_points
        assert len(ext.max_points) == 4

    def test_saddle(self):
        ext = quad_box_extrema(X * Y, UNIT)
        assert (ext.min_val, ext.max_val) == (-1, 1)
        assert not attained_inside(ext.min_points, UNIT)
        assert not attained_inside(ext.max_points, UNIT)

    def test_critical_line(self):
        ext = quad_box_extrema(Poly2.const(4) - X * X, Box(1, 7))
        assert ext.max_val == 4
        assert attained_inside(ext.max_points, Box(1, 7))  # along the segment x = 0
        assert ext.min_val == 3

    def test_constant(self):
        ext = quad_box_extrema(Poly2.const(-2), UNIT)
        assert ext.min_val == ext.max_val == -2
        assert attained_inside(ext.min_points, UNIT)
        assert attained_inside(ext.max_points, UNIT)

    def test_critical_point_on_boundary(self):
        # Vertex of (x-1)^2 + y^2 sits on the edge x = 1: a closed-box
        # minimum but not an interior attainment.
        d = (X - Poly2.const(1)) ** 2 + Y * Y
        ext = quad_box_extrema(d, UNIT)
        assert ext.min_val == 0
        assert not attained_inside(ext.min_points, UNIT)

    def test_grid_never_beats_exact(self):
        rng = random.Random(19)
        for _ in range(200):
            d = rand_poly2(rng, 2)
            box = Box(abs(rand_frac(rng, 3, 2)) + 1, abs(rand_frac(rng, 3, 2)) + 1)
            ext = quad_box_extrema(d, box)
            glo, ghi = exact_grid_extrema(d, box, 21)
            assert ext.min_val <= glo and ghi <= ext.max_val

    def test_grid_gap_shrinks_with_resolution(self):
        # The grid extrema approach the exact ones at least like 1/K: the
        # gap is bounded by the mean-value allowance (Lx*m + Ly*n)/K.
        rng = random.Random(25)
        for _ in range(25):
            d = rand_poly2(rng, 2)
            box = Box(1, 1)
            ext = quad_box_extrema(d, box)
            lx = sum(abs(c) for _, c in d.diff("x").terms())
            ly = sum(abs(c) for _, c in d.diff("y").terms())
            for k in (8, 32, 128):
                glo, ghi = exact_grid_extrema(d, box, k)
                allowance = Fraction(lx + ly, k)
                assert ext.max_val - ghi <= allowance
                assert glo - ext.min_val <= allowance


def _random_quadratic(rng: random.Random, shape: int, box: Box) -> Poly2:
    if shape == 0:  # general
        return rand_poly2(rng, 2, num_max=9, den_max=9)
    if shape in (1, 2):  # no x^2 term, or no y^2 term
        p = rand_poly2(rng, 2)
        key = (2, 0) if shape == 1 else (0, 2)
        return p - Poly2.monomial(*key, p.coeff(*key))
    if shape == 3:  # det = 0: a critical line when the linear part is parallel
        p, q = rand_frac(rng), rand_frac(rng)
        form = Poly2.affine(p, q, 0)
        slope = rand_frac(rng) if rng.random() < 0.7 else rand_poly2(rng, 1)
        return rand_frac(rng) * form * form + slope * form + Poly2.const(rand_frac(rng))
    if shape == 4:  # constant, zero included
        return Poly2.const(rand_frac(rng))
    if shape == 5:  # affine
        return rand_poly2(rng, 1, num_max=9, den_max=9)
    if shape == 6:  # one variable only: an axis-parallel critical line
        var = X if rng.random() < 0.5 else Y
        return rand_frac(rng) * var * var + rand_frac(rng) * var + Poly2.const(rand_frac(rng))
    # a stationary point on the boundary: an edge, or a corner
    x0 = box.m * rng.choice((-1, 1))
    y0 = box.n * Fraction(rng.randint(-4, 4), 4)
    if rng.random() < 0.5:
        x0, y0 = box.m * y0 / box.n, box.n * x0 / box.m
    u, v = X - Poly2.const(x0), Y - Poly2.const(y0)
    return (rand_nonzero_frac(rng) * u * u + rand_frac(rng) * u * v
            + rand_nonzero_frac(rng) * v * v + Poly2.const(rand_frac(rng)))


class TestIntegerLiftAgainstReference:
    def test_extrema_and_certificates_match(self):
        rng = random.Random(20261018)
        for k in range(2400):
            box = UNIT if k % 3 == 0 else Box(abs(rand_nonzero_frac(rng)),
                                               abs(rand_nonzero_frac(rng)))
            d = _random_quadratic(rng, k % 8, box)
            ext, interior_min, interior_max = reference_quad_extrema(d, box)
            got = quad_box_extrema(d, box)
            assert got == ext, (d, box)
            # A side is attained in the open box iff one of its points lies there.
            assert attained_inside(got.min_points, box) == interior_min, (d, box)
            assert attained_inside(got.max_points, box) == interior_max, (d, box)
            # eps = |max| and eps = |min| land exactly on the strictness rule.
            for eps in {abs(ext.max_val), abs(ext.min_val), abs(rand_nonzero_frac(rng))}:
                if eps > 0:
                    assert certify_open_box(CertRequest(d, box, eps)) == reference_certificate(
                        d, box, eps, ext, interior_min, interior_max), (d, box, eps)


def _rank_one_quadratic(rng: random.Random, k: int, box: Box) -> Poly2:
    """A seeded det = 0 input: kappa*l^2 + c0 for the line l = alpha*x +
    beta*y + gamma = 0 (horizontal, vertical or oblique), placed through a
    point of the box, through a corner (along an edge when axis-parallel),
    against one corner from outside, or missing the box.  Every third of
    these gets a term delta*(-beta*x + alpha*y), which makes the gradient
    system inconsistent.  One case in ten is a constant, one an affine d."""
    if k % 10 == 0:
        return Poly2.const(rand_frac(rng))
    if k % 10 == 1:
        return rand_poly2(rng, 1)
    m, n = box.m, box.n
    alpha, beta = rand_nonzero_frac(rng), rand_nonzero_frac(rng)
    if k % 3 == 0:
        alpha = Fraction(0)
    elif k % 3 == 1:
        beta = Fraction(0)
    placement = (k // 3) % 4
    if placement == 0:
        x0, y0 = helpers.rand_point_in_box(rng, box, den=4)
        gamma = -(alpha * x0 + beta * y0)
    elif placement in (1, 2):
        sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
        if placement == 2:  # the corner maximizing alpha*x + beta*y
            sx, sy = (1 if alpha >= 0 else -1), (1 if beta >= 0 else -1)
        gamma = -(alpha * sx * m + beta * sy * n)
    else:
        gamma = rng.choice((-1, 1)) * (abs(alpha) * m + abs(beta) * n + abs(rand_nonzero_frac(rng)))
    line = Poly2.affine(alpha, beta, gamma)
    d = rand_nonzero_frac(rng) * line * line + Poly2.const(rand_frac(rng))
    if (k // 12) % 3 == 2:
        d = d + rand_nonzero_frac(rng) * Poly2.affine(-beta, alpha, 0)
    return d


class TestRankOneAgainstReference:
    def test_critical_line_matches_reference(self, monkeypatch):
        # quad_box_extrema evaluates d only at a critical-line point, so the
        # points it evaluates must be those of the reference line path.
        evaluated = []
        evaluate = Poly2.eval

        def recording(p, x, y):
            evaluated.append((x, y))
            return evaluate(p, x, y)

        monkeypatch.setattr(Poly2, "eval", recording)
        rng = random.Random(9)
        seen = {"no line": 0, "open": 0, "edge": 0, "corner": 0}
        for k in range(3000):
            box = UNIT if k % 4 == 0 else Box(abs(rand_nonzero_frac(rng)),
                                               abs(rand_nonzero_frac(rng)))
            d = _rank_one_quadratic(rng, k, box)
            line = reference_critical_candidates(d, box)
            ext, interior_min, interior_max = reference_quad_extrema(d, box)
            evaluated.clear()
            assert quad_box_extrema(d, box) == ext, (d, box)
            if d.degree == 2:  # a constant's candidate needs no evaluation
                assert evaluated == [point for point, _, _ in line], (d, box)
            if not line:
                seen["no line"] += 1
            else:
                (x, y), _, meets_open = line[0]
                seen["open" if meets_open else
                     "corner" if (abs(x), abs(y)) == (box.m, box.n) else "edge"] += 1
            for eps in {abs(ext.max_val), abs(ext.min_val)} - {0}:
                assert certify_open_box(CertRequest(d, box, eps)) == reference_certificate(
                    d, box, eps, ext, interior_min, interior_max), (d, box, eps)
        assert min(seen.values()) > 150, seen


class TestCertifyOpenBox:
    def test_zero(self):
        cert = certify_open_box(CertRequest(d=Poly2.zero(), box=UNIT, eps=1))
        assert isinstance(cert, CertifiedInside) and cert.margin == 1

    def test_boundary_supremum(self):
        cert = certify_open_box(CertRequest(d=X * X, box=UNIT, eps=1))
        assert isinstance(cert, CertifiedInside) and cert.margin == 0

    def test_interior_peak(self):
        cert = certify_open_box(CertRequest(d=Poly2.const(4) - X * X, box=UNIT, eps=4))
        assert isinstance(cert, Violated)
        assert cert.witness == (0, 0) and cert.value == 4

    def test_boundary_violation_gets_interior_witness(self):
        # max is 9 at the corners; the witness must still be strictly inside.
        d = 4 * X * Y + Poly2.const(5)
        cert = certify_open_box(CertRequest(d=d, box=UNIT, eps=6))
        assert isinstance(cert, Violated)
        assert UNIT.contains_open(*cert.witness)
        assert abs(cert.value) >= 6
        assert d.eval(*cert.witness) == cert.value

    def test_minimum_side_violation(self):
        cert = certify_open_box(CertRequest(d=X * X - Poly2.const(3), box=UNIT, eps=2))
        assert isinstance(cert, Violated)
        assert cert.value <= -2

    def test_witnesses_always_verify(self):
        rng = random.Random(20)
        for _ in range(300):
            d = rand_poly2(rng, 2)
            eps = abs(rand_frac(rng, 3, 3)) + Fraction(1, 5)
            cert = certify_open_box(CertRequest(d=d, box=UNIT, eps=eps))
            if isinstance(cert, Violated):
                assert UNIT.contains_open(*cert.witness)
                assert d.eval(*cert.witness) == cert.value
                assert abs(cert.value) >= eps
            else:
                assert isinstance(cert, CertifiedInside)
                witness = sample_falsify(CertRequest(d=d, box=UNIT, eps=eps), 25)
                assert witness is None


class TestBernsteinCertify:
    def test_zero(self):
        cert = bernstein_certify(CertRequest(d=Poly2.zero(), box=UNIT, eps=3))
        assert isinstance(cert, CertifiedInside) and cert.margin == 3

    def test_quartic_inside(self):
        cert = bernstein_certify(CertRequest(d=X ** 4, box=UNIT, eps=2, max_depth=8))
        assert isinstance(cert, CertifiedInside)

    def test_quartic_violated(self):
        d = X ** 4
        cert = bernstein_certify(CertRequest(d=d, box=UNIT, eps=Fraction(1, 2), max_depth=8))
        assert isinstance(cert, Violated)
        assert UNIT.contains_open(*cert.witness)
        assert d.eval(*cert.witness) == cert.value
        assert abs(cert.value) >= Fraction(1, 2)

    def test_unknown_when_supremum_equals_eps(self):
        # sup = 1 = eps only at (+-1, 1/3) on the excluded boundary, but that
        # point is no subrectangle corner: every enclosure around it
        # overshoots eps, so the subdivision budget runs out.
        d = X ** 4 - (Y - Poly2.const(Fraction(1, 3))) ** 2 / 4
        cert = bernstein_certify(CertRequest(d=d, box=UNIT, eps=1, max_depth=4))
        assert isinstance(cert, Unknown)
        assert cert.gap > 0

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("d, eps", [(X ** 4, 1), (X ** 3, 1), (X ** 4 + Y ** 4, 2),
                                        (X ** 6, 1)])
    def test_boundary_tight_is_inside(self, d, eps, depth):
        # |d| = eps only on x = +-1 or at the corners, which the open box
        # excludes; the coefficients show it at every depth.
        cert = bernstein_certify(CertRequest(d=d, box=UNIT, eps=eps, max_depth=depth))
        assert cert == CertifiedInside(margin=0)

    @pytest.mark.parametrize("n, depth, expected", [
        # 2/3*(1 - x^2/2 - 4/9*(y - 1/2)^2) reaches eps only at (0, 1/2), a
        # corner of the nodes beside it and the center of none.  Inside
        # (-1, 1)^2 those nodes stay undecided down to the budget.
        (1, 6, Unknown(gap=Fraction(0))),
        # On (-1, 1) x (-1/2, 1/2) the same corner lies on y = n: the depth-1
        # nodes certify with max |b| = eps.
        (Fraction(1, 2), 1, CertifiedInside(margin=Fraction(0))),
    ])
    def test_leaf_at_eps_is_strict(self, n, depth, expected):
        d = (Poly2.const(1) - X * X / 2 - (Y - Poly2.const(Fraction(1, 2))) ** 2 * Fraction(4, 9)
             ) * Fraction(2, 3)
        cert = bernstein_certify(CertRequest(d=d, box=Box(1, n), eps=Fraction(2, 3),
                                             max_depth=depth))
        assert cert == expected

    def test_undecided_within_budget(self):
        cert = bernstein_certify(CertRequest(d=X ** 4, box=UNIT, eps=Fraction(1, 2),
                                             max_depth=0))
        assert cert == Unknown(gap=Fraction(1, 2))

    def test_interior_touch_is_violated(self):
        # 1 - x^2*y^2 reaches eps = 1 on the axes, inside the open box.
        d = Poly2.const(1) - X * X * Y * Y
        cert = bernstein_certify(CertRequest(d=d, box=UNIT, eps=1, max_depth=4))
        assert isinstance(cert, Violated)
        assert UNIT.contains_open(*cert.witness) and d.eval(*cert.witness) == 1

    def test_never_contradicts_exact_on_quadratics(self):
        rng = random.Random(21)
        for _ in range(100):
            d = rand_poly2(rng, 2)
            eps = abs(rand_frac(rng, 3, 3)) + Fraction(1, 4)
            request = CertRequest(d=d, box=UNIT, eps=eps, max_depth=4)
            exact = certify_open_box(request)
            sub = bernstein_certify(request)
            if isinstance(sub, CertifiedInside):
                assert isinstance(exact, CertifiedInside)
            if isinstance(sub, Violated):
                assert isinstance(exact, Violated)
                assert abs(d.eval(*sub.witness)) >= eps

    def test_gap_monotone_in_depth(self):
        # sup = 1 = eps is reached only at (+-1, 1/3), on the boundary but at
        # no subrectangle corner: Unknown at every depth, with a gap that can
        # only shrink as boxes split.
        checked = 0
        cases = [(X ** 4 - (Y - Poly2.const(Fraction(1, 3))) ** 2 / 4, Fraction(1))]
        rng = random.Random(22)
        for _ in range(40):
            a10, a01 = rand_poly2(rng, 2), rand_poly2(rng, 2)
            d = rand_poly2(rng, 2) - canonical_residual(a10, a01, 1).r
            if d.degree > 2:
                cases.append((d, abs(rand_frac(rng, 2, 2)) + Fraction(1, 2)))
        for d, eps in cases:
            shallow = bernstein_certify(CertRequest(d=d, box=UNIT, eps=eps, max_depth=2))
            deep = bernstein_certify(CertRequest(d=d, box=UNIT, eps=eps, max_depth=4))
            if isinstance(shallow, Unknown) and isinstance(deep, Unknown):
                assert deep.gap <= shallow.gap
                checked += 1
        assert checked > 0

    def test_deterministic(self):
        d = X ** 4 - Y ** 3 / 2
        request = CertRequest(d=d, box=UNIT, eps=Fraction(9, 10), max_depth=6)
        assert bernstein_certify(request) == bernstein_certify(request)

    def test_power_form_converted_once(self, monkeypatch):
        # Only the root's grid comes from D's power form; every other node's
        # is halved from its parent's.  certify.bernstein_on_rect is still
        # called once per node, with the node's five positional arguments.
        d = X ** 4 - (Y - Poly2.const(Fraction(1, 3))) ** 2 / 4
        request = CertRequest(d=d, box=UNIT, eps=Fraction(1), max_depth=6)
        expected = reference_bernstein_certify(request)
        conversions, nodes = [], []
        convert, enclose = poly.bernstein_on_rect, certify.bernstein_on_rect

        def counted_convert(p, *rect):
            conversions.append(rect)
            return convert(p, *rect)

        def counted_node(*args, **kwargs):
            nodes.append(args)
            return enclose(*args, **kwargs)

        monkeypatch.setattr(poly, "bernstein_on_rect", counted_convert)
        monkeypatch.setattr(certify, "bernstein_on_rect", counted_node)
        for runs in (1, 2):
            assert bernstein_certify(request) == expected and expected.kind == "unknown"
            assert conversions == [(-1, 1, -1, 1)] * runs
        assert len(nodes) == 2 * len({args[1:] for args in nodes}) > 2 * request.max_depth
        assert all(len(args) == 5 and args[0] is d
                   and all(type(c) is Fraction for c in args[1:]) for args in nodes)

    def test_eval_only_confirms_witnesses(self, monkeypatch):
        # Each node's center value is read off its grid; d.eval runs once
        # per Violated, to confirm the witness, and never for inside or unknown.
        evaluate, calls = Poly2.eval, []

        def counted(p, x0, y0):
            calls.append((x0, y0))
            return evaluate(p, x0, y0)

        monkeypatch.setattr(Poly2, "eval", counted)
        rng = random.Random(20261021)
        requests = [CertRequest(X ** 4, UNIT, 2, 8), CertRequest(X ** 4, UNIT, Fraction(1, 2), 8),
                    CertRequest(X ** 4 - (Y - Poly2.const(Fraction(1, 3))) ** 2 / 4, UNIT, 1, 4),
                    CertRequest(Poly2.const(1) - X * X * Y * Y, UNIT, 1, 4)]
        for _ in range(150):
            box = Box(abs(rand_nonzero_frac(rng, 3, 3)), abs(rand_nonzero_frac(rng, 3, 3)))
            requests.append(CertRequest(_sparse_high_degree(rng), box,
                                        abs(rand_nonzero_frac(rng, 4, 3)), rng.randint(0, 5)))
        kinds = Counter()
        for request in requests:
            calls.clear()
            cert = bernstein_certify(request)
            kinds[cert.kind] += 1
            assert calls == ([cert.witness] if cert.kind == "violated" else []), request
        assert min(kinds[kind] for kind in ("inside", "violated", "unknown")) >= 5, kinds

    @pytest.mark.parametrize("ratio", [1, 2, Fraction(1, 2), 3, Fraction(3, 5), Fraction(4, 3)])
    def test_splits_longer_side(self, monkeypatch, ratio):
        # The split axis comes from the split counts kx and ky; each child
        # must halve the longer side of its parent's rectangle, x on a tie.
        # Every node at one depth has the same sides, so the one path this
        # boundary-tight case follows down to depth 12 checks each depth.
        box = Box(ratio * Fraction(5, 7), Fraction(5, 7))
        d = (X / box.m) ** 4 - (Y / box.n - Poly2.const(Fraction(1, 3))) ** 2 / 4
        enclose, sides = certify.bernstein_on_rect, {}

        def recorded(p, xlo, xhi, ylo, yhi, **kwargs):
            wx, wy = xhi - xlo, yhi - ylo
            depth = ((2 * box.m / wx).numerator.bit_length()
                     + (2 * box.n / wy).numerator.bit_length() - 2)
            sides.setdefault(depth, set()).add((wx, wy))
            return enclose(p, xlo, xhi, ylo, yhi, **kwargs)

        monkeypatch.setattr(certify, "bernstein_on_rect", recorded)
        assert bernstein_certify(CertRequest(d, box, 1)).kind == "unknown"
        assert sorted(sides) == list(range(13))
        assert sides[0] == {(2 * box.m, 2 * box.n)}
        for depth in range(12):
            (wx, wy), = sides[depth]
            assert sides[depth + 1] == {(wx / 2, wy) if wx >= wy else (wx, wy / 2)}, depth
        ties = sum(wx == wy for depth in range(12) for wx, wy in sides[depth])
        assert (ties > 0) == (ratio in (1, 2, Fraction(1, 2)))


def _separable_even(rng: random.Random, box: Box) -> tuple[Poly2, Fraction]:
    """a*x^k + b*y^l + c with even k, l (l may be 0), and an eps equal to the
    exact value at a corner, on an edge, or at the center."""
    a, b, c = rand_nonzero_frac(rng, 3, 3), rand_frac(rng, 3, 3), rand_frac(rng, 3, 3)
    k, l = rng.choice((2, 4, 6)), rng.choice((0, 2, 4))
    d = a * X ** k + b * Y ** l + Poly2.const(c)
    corner = a * box.m ** k + b * box.n ** l + c
    edge = a * box.m ** k + b * (box.n * rng.choice((0, Fraction(1, 2), Fraction(1, 3)))) ** l + c
    eps = abs(rng.choice((corner, edge, c)))
    return d, eps if eps > 0 else abs(corner) + 1


def _sparse_high_degree(rng: random.Random) -> Poly2:
    """A random quadratic plus one or two monomials of total degree 3-6."""
    d = rand_poly2(rng, 2, num_max=3, den_max=3)
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(3, 6)
        i = rng.randint(0, degree)
        d = d + Poly2.monomial(i, degree - i, rand_nonzero_frac(rng, 3, 3))
    return d


class TestFaceRuleAgainstReference:
    """bernstein_certify against the subdivision without the outer-boundary
    face rule (helpers.reference_bernstein_certify): the two agree except
    that an Unknown may become CertifiedInside(0), and then its gap is 0."""

    def test_matches_reference(self):
        # bernstein_certify halves each parent's grid and the reference
        # converts every node from power form, so no enclosure is shared.
        rng = random.Random(20261019)
        upgraded = 0
        for k in range(2000):
            box = UNIT if k % 3 == 0 else Box(abs(rand_nonzero_frac(rng, 3, 3)),
                                               abs(rand_nonzero_frac(rng, 3, 3)))
            if k % 2:
                d, eps = _separable_even(rng, box)
            else:
                d, eps = _sparse_high_degree(rng), abs(rand_nonzero_frac(rng, 4, 3))
            # Depths 0-6, shallow ones more often: a full tree costs 2^(depth+1).
            request = CertRequest(d, box, eps, max_depth=min(rng.randint(0, 6),
                                                             rng.randint(0, 6)))
            new, ref = bernstein_certify(request), reference_bernstein_certify(request)
            if new != ref:
                assert isinstance(ref, Unknown) and ref.gap == 0, (d, box, eps)
                assert new == CertifiedInside(margin=0), (d, box, eps)
                upgraded += 1
        assert upgraded > 100

    def test_never_contradicts_exact_on_tight_quadratics(self):
        rng = random.Random(20261020)
        decided = 0
        for k in range(600):
            box = UNIT if k % 3 == 0 else Box(abs(rand_nonzero_frac(rng)),
                                               abs(rand_nonzero_frac(rng)))
            d = _random_quadratic(rng, k % 8, box)
            ext = quad_box_extrema(d, box)
            for eps in {abs(ext.max_val), abs(ext.min_val)} - {0}:
                request = CertRequest(d, box, eps, max_depth=k % 4)
                exact, sub = certify_open_box(request), bernstein_certify(request)
                if isinstance(sub, CertifiedInside):
                    assert isinstance(exact, CertifiedInside) and exact.margin >= sub.margin
                    decided += sub.margin == 0
                elif isinstance(sub, Violated):
                    assert isinstance(exact, Violated)
                    assert abs(d.eval(*sub.witness)) >= eps and box.contains_open(*sub.witness)
        assert decided > 50


class TestNodeRectsAgainstReference:
    """The rectangles bernstein_certify passes to its bernstein_on_rect
    hook, in order, against those helpers.reference_bernstein_certify
    visits: the midpoints, the halves and their push order are kept in
    certify.py, the reference builds each from the rectangle alone."""

    @staticmethod
    def _visited(monkeypatch, owner, run, request) -> tuple[object, list, bool]:
        enclose, touches = owner.bernstein_on_rect, certify._touches_only_outer_boundary
        rects, fired = [], []

        def recorded(p, xlo, xhi, ylo, yhi, **kwargs):
            rects.append((xlo, xhi, ylo, yhi))
            return enclose(p, xlo, xhi, ylo, yhi, **kwargs)

        def face_rule(*args):
            fired.append(touches(*args))
            return fired[-1]

        with monkeypatch.context() as patch:
            patch.setattr(owner, "bernstein_on_rect", recorded)
            patch.setattr(certify, "_touches_only_outer_boundary", face_rule)
            return run(request), rects, any(fired)

    def test_matches_reference(self, monkeypatch):
        rng = random.Random(20261024)
        compared = Counter()
        for k in range(600):
            ratio = (1, Fraction(3, 5))[k % 2]
            n = abs(rand_nonzero_frac(rng, 3, 3))
            box = Box(ratio * n, n)
            eps = abs(rand_nonzero_frac(rng, 4, 3))
            request = CertRequest(_sparse_high_degree(rng), box, eps,
                                  max_depth=min(rng.randint(0, 9), rng.randint(0, 9)))
            got, rects, fired = self._visited(monkeypatch, certify, bernstein_certify, request)
            expected, expected_rects, _ = self._visited(monkeypatch, helpers,
                                                        reference_bernstein_certify, request)
            if fired:
                # The face rule certifies a node the reference splits further.
                continue
            assert got == expected, request
            assert rects == expected_rects, request
            assert len(set(rects)) == len(rects)
            compared[ratio, got.kind] += 1
        assert min(compared[ratio, kind] for ratio in (1, Fraction(3, 5))
                   for kind in ("inside", "violated", "unknown")) >= 10, compared


class TestSampleFalsify:
    def test_zero(self):
        assert sample_falsify(CertRequest(d=Poly2.zero(), box=UNIT, eps=1), 10) is None

    def test_row_order(self):
        witness = sample_falsify(CertRequest(d=Poly2.const(4) - X * X, box=UNIT, eps=4), 10)
        assert witness is not None
        assert witness.witness == (0, Fraction(-9, 10))
        assert witness.value == 4

    def test_interior_grid_misses_boundary_growth(self):
        # x^2 < 1 at every interior grid point, whatever the resolution.
        for k in (2, 10, 37):
            assert sample_falsify(CertRequest(d=X * X, box=UNIT, eps=1), k) is None

    def test_values_exact(self):
        rng = random.Random(23)
        for _ in range(50):
            d = rand_poly2(rng, 3)
            eps = Fraction(1, 3)
            witness = sample_falsify(CertRequest(d=d, box=Box(Fraction(3, 2), Fraction(2, 3)), eps=eps), 7)
            if witness is not None:
                assert d.eval(*witness.witness) == witness.value
                assert abs(witness.value) >= eps

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sample_falsify(CertRequest(d=X, box=UNIT, eps=1), 1)

    def test_rows_with_vanishing_y_terms(self):
        # Differences whose coefficients in y vanish at some x: row i = 0 of
        # x*y^2 + x^2 is all zero, and the top power of y drops out of the
        # rows where its x factor vanishes.  Row 0 of y + 1/2 - x^2*y^2 is
        # linear in y, and at K = 2, eps = 1 only its last point hits.
        c = Poly2.const
        cases = [X * Y * Y + X * X, (X * X - c(Fraction(1, 4))) * Y ** 3 + X,
                 X ** 3 * Y * Y - X * Y + c(Fraction(1, 5)), (X - c(Fraction(1, 3))) * Y ** 4,
                 Y + c(Fraction(1, 2)) - X * X * Y * Y]
        for d in cases:
            for box in (UNIT, Box(Fraction(3, 2), Fraction(2, 3))):
                for grid_k in (2, 3, 6):
                    for eps in (Fraction(1, 100), Fraction(1, 3), 1, 10):
                        assert sample_falsify(CertRequest(d, box, eps), grid_k) == \
                            reference_grid_witness(d, box, eps, grid_k), (d, box, eps, grid_k)

    def test_matches_row_major_scan(self):
        # Degree 0-6 on rational boxes; eps is the magnitude at a random grid
        # point, scaled so that scans hit early or exactly there, and on every
        # fifth case (kept to coarse grids, as d.eval is slow) late or never.
        rng = random.Random(6)
        for k in range(2000):
            d = rand_poly2(rng, k % 7)
            box = Box(abs(rand_nonzero_frac(rng)), abs(rand_nonzero_frac(rng)))
            long_scan = k % 5 == 0
            grid_k = rng.randint(2, 6 if long_scan else 12)
            i, j = (rng.randint(1 - grid_k, grid_k - 1) for _ in range(2))
            eps = abs(d.eval(Fraction(i, grid_k) * box.m, Fraction(j, grid_k) * box.n))
            eps = max(eps, Fraction(1, 7)) * rng.choice(
                (2, 1000) if long_scan else (Fraction(1, 2), 1))
            assert sample_falsify(CertRequest(d, box, eps), grid_k) == \
                reference_grid_witness(d, box, eps, grid_k), (d, box, eps, grid_k)


@pytest.mark.parametrize("call, error", [
    (lambda: quad_interval_decision(UnivQuad(1, 0, 0), 0, 1), ValueError),
    (lambda: quad_interval_decision(UnivQuad(1, 0, 0), -1, 1), ValueError),
    (lambda: quad_interval_decision(UnivQuad(1, 0, 0), 1, 0), ValueError),
    (lambda: quad_interval_decision(UnivQuad(1, 0, 0), 1, Fraction(-1, 2)), ValueError),
    (lambda: triangle_sufficient(X, UNIT, 0), ValueError),
    (lambda: triangle_sufficient(X, UNIT, -1), ValueError),
    (lambda: quad_box_extrema(X ** 3, UNIT), DegreeTooHighError),
    (lambda: quad_box_extrema(X * X * Y, UNIT), DegreeTooHighError),
    (lambda: CertifiedInside(-1), ValueError),
    (lambda: CertRequest(X, UNIT, 0), ValueError),
    (lambda: CertRequest(X, UNIT, -1), ValueError),
    (lambda: CertRequest(X, UNIT, 1, max_depth=-1), ValueError),
])
def test_invalid_arguments_rejected(call, error):
    with pytest.raises(error):
        call()


class TestSoundness:
    def test_sufficient_conditions_imply_exact(self):
        # Whenever a closed-form criterion answers true, the exact decision
        # agrees: no counterexample over 10^4 mixed random inputs.
        rng = random.Random(24)
        true_cases = 0
        for _ in range(10_000):
            style = rng.randrange(4)
            if style == 0:
                q = UnivQuad(-abs(rand_frac(rng, 6, 4)) - Fraction(1, 9),
                             rand_frac(rng, 8, 4), rand_frac(rng, 8, 4))
                if qf_neg_compact(q):
                    true_cases += 1
                    assert exact_unit_decision(q)
            elif style == 1:
                b = rand_frac(rng, 8, 4)
                if b == 0:
                    continue
                q = UnivQuad(0, b, rand_frac(rng, 8, 4))
                if qf_linear(q):
                    true_cases += 1
                    assert exact_unit_decision(q)
            elif style == 2:
                b1, b3, s1, s3 = (rand_frac(rng, 3, 4) for _ in range(4))
                if lifted_sufficient(b1, 0, b3, s1, 0, s3):
                    true_cases += 1
                    d = difference_from_expansion(b1, 0, b3, s1, 0, s3)
                    cert = certify_open_box(CertRequest(d=d, box=UNIT, eps=1))
                    assert isinstance(cert, CertifiedInside)
            else:
                d = rand_poly2(rng, 2, num_max=2, den_max=5)
                eps = abs(rand_frac(rng, 2, 2)) + Fraction(1, 3)
                if triangle_sufficient(d, UNIT, eps):
                    true_cases += 1
                    cert = certify_open_box(CertRequest(d=d, box=UNIT, eps=eps))
                    assert isinstance(cert, CertifiedInside)
        assert true_cases > 1000  # the sample actually exercised the conditions
