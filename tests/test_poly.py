"""Polynomial core: arithmetic, calculus, evaluation, integer lift, Bernstein enclosures."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bkfact import Box, Poly2, char_diff, format_poly, parse_poly
from bkfact.poly import RangeEnclosure, bernstein_on_rect
from helpers import (Poly1, rand_frac, rand_nonzero_frac, rand_point_in_box, rand_poly2,
                     reference_bernstein_coefficients, reference_eval, reference_mul, restrict)

X = Poly2.var("x")
Y = Poly2.var("y")

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(
    keys=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    values=small_fractions,
    max_size=6,
).map(Poly2)


class TestConstruction:
    def test_zero_normal_form(self):
        assert Poly2({(2, 0): 0, (0, 0): Fraction(0)}).is_zero
        assert Poly2.zero().degree == -1

    def test_degree_sentinels(self):
        assert Poly2.zero().x_degree == -1
        assert Poly2.const(3).degree == 0
        assert (X * Y * Y).degree == 3

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly2({(0, 0): 0.5})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly2({(-1, 0): 1})


class TestArithmetic:
    def test_linear_comb_addition(self):
        assert X * 1 + Y * 1 == Poly2({(1, 0): 1, (0, 1): 1})

    def test_linear_comb_cancellation(self):
        assert (X * 1 + X * -1).is_zero

    def test_linear_comb_affine_difference(self):
        # (2x+3y+5) - (2x+3y+1) = 4: the constant gap between two affine
        # coefficients that agree except in their constant term.
        p = Poly2.affine(2, 3, 5)
        q = Poly2.affine(2, 3, 1)
        assert p * 1 + q * -1 == Poly2.const(4)

    def test_mul_square(self):
        assert (X + Y) * (X + Y) == Poly2({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_mul_annihilator(self):
        assert (Poly2.zero() * (X * Y + Poly2.const(7))).is_zero

    def test_mul_difference_of_squares(self):
        one = Poly2.const(1)
        assert (X + one) * (X - one) == X * X - one

    def test_one_term_factors(self):
        # Powers of one term skip the product loop, and a one-term factor
        # gives distinct product keys; values must still multiply pointwise.
        rng = random.Random(5)
        for _ in range(100):
            p = rand_poly2(rng, 3)
            term = Poly2.monomial(rng.randint(0, 3), rng.randint(0, 3), rand_frac(rng))
            k = rng.randint(0, 5)
            x, y = rand_frac(rng), rand_frac(rng)
            assert (p * term).eval(x, y) == (term * p).eval(x, y) == p.eval(x, y) * term.eval(x, y)
            assert (term ** k).eval(x, y) == term.eval(x, y) ** k
        assert (X ** 3) * Y == Poly2.monomial(3, 1)
        assert Poly2.const(0) * X == Poly2.zero()

    def test_product_degree_additivity(self):
        rng = random.Random(101)
        for _ in range(50):
            p = rand_poly2(rng, 2)
            q = rand_poly2(rng, 2)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, polys)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


class TestMulAgainstReference:
    """Poly2.__mul__ against reference_mul, the product loop it replaced."""

    @staticmethod
    def assert_matches(p, q):
        product = p * q
        assert product == reference_mul(p, q)
        assert all(coeff != 0 for _, coeff in product.terms())
        return product

    def test_seeded(self):
        # Coefficients from a small set, so that products cancel often.
        rng = random.Random(21)

        def sparse(max_terms):
            return Poly2({(rng.randint(0, 4), rng.randint(0, 4)):
                          Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                          for _ in range(rng.randint(0, max_terms))})

        for _ in range(300):
            p, one_term = sparse(8), sparse(1)
            self.assert_matches(p, one_term)
            self.assert_matches(one_term, p)
            self.assert_matches(p, sparse(8))
            self.assert_matches(p, Poly2.const(rand_frac(rng)))

    def test_zero_and_constant_factors(self):
        p = Poly2.affine(2, Fraction(-1, 3), 5) * X * Y
        for factor in (Poly2.zero(), Poly2.const(1), Poly2.const(Fraction(-7, 3))):
            self.assert_matches(p, factor)
            self.assert_matches(factor, p)
        assert self.assert_matches(Poly2.zero(), Poly2.zero()).is_zero

    def test_cancelling_products(self):
        # In the second and third cases every key that two products reach
        # cancels to zero.
        one = Poly2.const(1)
        cases = [
            (X + Y, X - Y, X * X - Y * Y),
            (X * X + X * Y + Y * Y, X - Y, X ** 3 - Y ** 3),
            (one + X + X ** 2 + X ** 3, one - X, one - X ** 4),
            ((X + Y) ** 2, (X - Y) ** 2, X ** 4 - 2 * X ** 2 * Y ** 2 + Y ** 4),
        ]
        for p, q, expected in cases:
            assert self.assert_matches(p, q) == expected
            assert self.assert_matches(q, p) == expected


class TestCalculus:
    def test_diff_examples(self):
        assert (X * X + Y).diff("x") == 2 * X
        assert Poly2.const(12).diff("y").is_zero
        assert (X * X * Y).diff("y") == X * X

    def test_char_diff_affine_plus(self):
        # d/dx - w*d/dy on c3*x + c2*y + c1 gives c3 - w*c2; with w = 1
        # the value is c3 - c2.
        assert char_diff(Poly2.affine(3, 5, 7), 1) == Poly2.const(-2)

    def test_char_diff_affine_minus(self):
        assert char_diff(Poly2.affine(3, 5, 7), -1) == Poly2.const(8)

    def test_char_diff_constant(self):
        assert char_diff(Poly2.const(5), Fraction(7, 3)).is_zero

    @given(polys, polys, small_fractions, small_fractions, small_fractions)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_char_diff_linearity(self, p, q, alpha, beta, omega):
        lhs = char_diff(alpha * p + beta * q, omega)
        rhs = alpha * char_diff(p, omega) + beta * char_diff(q, omega)
        assert lhs == rhs

    @given(polys, small_fractions)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_char_diff_drops_degree(self, p, omega):
        if p.degree >= 1:
            assert char_diff(p, omega).degree <= p.degree - 1


class TestEvalRestrict:
    def test_eval_examples(self):
        assert (X * X - Y).eval(2, 1) == 3
        assert Poly2.zero().eval(5, Fraction(-1, 3)) == 0
        quarter_square = (X + Y) * (X + Y) / 4
        assert quarter_square.eval(1, 1) == 1

    def test_eval_against_reference(self):
        rng = random.Random(18)
        coordinates = [0, -3, "-2/3", Fraction(-7, 3), Fraction(9, 16), Fraction(-35, 11),
                       10 ** 30 + 1, Fraction(-(2 ** 61), 3 ** 40), Fraction(10 ** 25, 7 ** 20)]
        for index in range(700):
            shape = ("zero", "constant", "x-only", "y-only", "dense")[index % 5]
            p = _shaped_poly(rng, shape, rng.randint(0, 8), rng.randint(0, 8))
            x0 = rng.choice(coordinates) if index % 3 else rand_frac(rng, 99, 97)
            y0 = rng.choice(coordinates) if index % 4 else rand_frac(rng, 89, 83)
            value = p.eval(x0, y0)
            assert value == reference_eval(p, x0, y0), (p, x0, y0)
            assert type(value) is Fraction
        with pytest.raises(TypeError):
            (X + Y).eval(0.5, 0)

    def test_restrict_examples(self):
        assert restrict(X * X + Y * Y, "y", 1) == Poly1([1, 0, 1])
        assert restrict(X * Y, "x", 0) == Poly1([])
        assert restrict(X * X + 2 * X * Y, "y", -1) == Poly1([0, -2, 1])

    def test_restrict_commutes_with_eval(self):
        rng = random.Random(77)
        for _ in range(100):
            p = rand_poly2(rng, 3)
            x0 = rand_frac(rng)
            y0 = rand_frac(rng)
            assert restrict(p, "y", y0).eval(x0) == p.eval(x0, y0)
            assert restrict(p, "x", x0).eval(y0) == p.eval(x0, y0)


class TestLift:
    def test_integer_identity(self):
        # L * p(m*u, n*v) == sum of c * u^i * v^j with int c, on rational boxes.
        rng = random.Random(31)
        for k in range(300):
            p = rand_poly2(rng, k % 6)
            m, n = abs(rand_frac(rng)) + Fraction(1, 5), abs(rand_frac(rng)) + Fraction(1, 3)
            coeffs, scale = p.lift(m, n)
            assert type(scale) is int and scale > 0
            assert all(type(c) is int for c in coeffs.values())
            for _ in range(5):
                u, v = rng.randint(-6, 6), rng.randint(-6, 6)
                total = sum(c * u ** i * v ** j for (i, j), c in coeffs.items())
                assert total == scale * p.eval(m * u, n * v), (p, m, n, u, v)
        assert Poly2.zero().lift(2, 3) == ({}, 1)


class TestBernstein:
    def test_constant(self):
        enc = bernstein_on_rect(Poly2.const(5), -3, 3, Fraction(-1, 2), Fraction(1, 2))
        assert (enc.lo, enc.hi) == (5, 5)

    def test_linear_tight(self):
        enc = bernstein_on_rect(X, -1, 1, -1, 1)
        assert (enc.lo, enc.hi) == (-1, 1)

    def test_square_depth0(self):
        # On [-1, 1] the coefficients of x^2 after mapping to the unit
        # square are {1, -1, 1}: valid but not tight at depth 0.
        enc = bernstein_on_rect(X * X, -1, 1, -1, 1)
        assert (enc.lo, enc.hi) == (-1, 1)

    def test_soundness_random_points(self):
        rng = random.Random(2024)
        box = Box(Fraction(3, 2), Fraction(2, 3))
        for _ in range(5):
            p = rand_poly2(rng, 4)
            enc = bernstein_on_rect(p, -box.m, box.m, -box.n, box.n)
            for _ in range(200):
                x, y = rand_point_in_box(rng, box)
                assert enc.lo <= p.eval(x, y) <= enc.hi

    def test_affine_exact_at_corners(self):
        rng = random.Random(9)
        box = Box(Fraction(5, 4), 2)
        for _ in range(50):
            p = Poly2.affine(rand_frac(rng), rand_frac(rng), rand_frac(rng))
            enc = bernstein_on_rect(p, -box.m, box.m, -box.n, box.n)
            corners = [p.eval(sx * box.m, sy * box.n) for sx in (-1, 1) for sy in (-1, 1)]
            assert enc.lo == min(corners)
            assert enc.hi == max(corners)



def _shaped_poly(rng: random.Random, shape: str, dx: int, dy: int) -> Poly2:
    if shape == "zero":
        return Poly2.zero()
    if shape == "constant":
        return Poly2.const(rand_nonzero_frac(rng))
    if shape == "x-only":
        dy = 0
    elif shape == "y-only":
        dx = 0
    if shape == "sparse":
        cells = [(i, j) for i in range(dx + 1) for j in range(dy + 1)]
        picked = rng.sample(cells, min(len(cells), rng.randint(1, 4)))
        return Poly2({cell: rand_nonzero_frac(rng) for cell in picked})
    if shape == "separable":
        terms = {(i, 0): rand_nonzero_frac(rng) for i in range(dx + 1)}
        terms.update({(0, j): rand_nonzero_frac(rng) for j in range(1, dy + 1)})
        return Poly2(terms)
    # dense, x-only and y-only: every monomial of the grid
    return Poly2({(i, j): rand_nonzero_frac(rng) for i in range(dx + 1) for j in range(dy + 1)})


def _random_rectangle(rng: random.Random) -> tuple[Fraction, ...]:
    xlo, ylo = rand_frac(rng), rand_frac(rng)
    return (xlo, xlo + abs(rand_nonzero_frac(rng)), ylo, ylo + abs(rand_nonzero_frac(rng)))


def _dyadic_rectangle(rng: random.Random) -> tuple[Fraction, ...]:
    # A subrectangle bernstein_certify can visit: the box (-m, m) x (-n, n)
    # halved kx times along x and ky times along y.
    sides = []
    for half in (abs(rand_nonzero_frac(rng)), abs(rand_nonzero_frac(rng))):
        splits = rng.randint(0, 6)
        width = 2 * half / 2 ** splits
        lo = -half + width * rng.randrange(2 ** splits)
        sides += [lo, lo + width]
    return tuple(sides)


def assert_matches_reference(p: Poly2, rect: tuple[Fraction, ...],
                             enclosure: RangeEnclosure | None = None) -> RangeEnclosure:
    """Checks enclosure, by default bernstein_on_rect(p, *rect), as p's on rect."""
    if enclosure is None:
        enclosure = bernstein_on_rect(p, *rect)
    expected = reference_bernstein_coefficients(p, *rect)
    numerators, denominator = enclosure.numerators, enclosure.denominator
    assert type(denominator) is int and denominator > 0
    assert all(type(b) is int for row in numerators for b in row), (p, rect)
    assert [list(row) for row in numerators] == [[b * denominator for b in row]
                                                 for row in expected], (p, rect)
    got = enclosure.coefficients
    assert [list(row) for row in got] == expected, (p, rect)
    assert all(type(b) is Fraction for row in got for b in row), (p, rect)
    assert type(enclosure.lo) is Fraction and type(enclosure.hi) is Fraction
    assert (enclosure.lo, enclosure.hi) == (min(map(min, expected)), max(map(max, expected)))
    assert len(got) == max(p.x_degree, 0) + 1
    assert all(len(row) == max(p.y_degree, 0) + 1 for row in got)
    return enclosure


class TestBernsteinAgainstReference:
    """bernstein_on_rect's coefficients against the direct O(dx^2*dy^2) conversion."""

    SHAPES = ("dense", "sparse", "separable", "x-only", "y-only", "constant", "zero")

    def test_seeded(self):
        rng = random.Random(10)
        for index in range(2100):
            shape = self.SHAPES[index % len(self.SHAPES)]
            p = _shaped_poly(rng, shape, rng.randint(0, 8), rng.randint(0, 8))
            rect = _dyadic_rectangle(rng) if index % 2 else _random_rectangle(rng)
            assert_matches_reference(p, rect)

    @pytest.mark.parametrize("text, rect", [
        ("(x + 1/3*y - 2/7)^16", (-1, 1, -1, 1)),
        ("(x + 1/3*y - 2/7)^16", (Fraction(-3, 2), Fraction(-3, 4), 0, Fraction(1, 3))),
        ("(3/2*x*y - x + 5/4*y^2 - 1)^8", (Fraction(-5, 7), Fraction(5, 7), Fraction(-2, 3),
                                          Fraction(2, 3))),
        ("(x + 1/3*y - 2/7)^32", (Fraction(3, 8), Fraction(3, 4), Fraction(-2, 3), 0)),
        # Degree 16 on a depth-12 node: (-3/2, 3/2) x (-5/7, 5/7) halved six
        # times along each side.
        ("(x^2 - 2/3*x*y + 1/5*y - 3/7)^8", (Fraction(15, 64), Fraction(9, 32),
                                             Fraction(65, 224), Fraction(5, 16))),
        # xlo and the width have coprime denominators: 2/9 and 3/10, -5/7 and 4/11.
        ("(3/2*x*y - x + 5/4*y^2 - 1)^3", (Fraction(2, 9), Fraction(47, 90), Fraction(-5, 7),
                                          Fraction(-27, 77))),
        # Pairwise distinct coefficient denominators.
        ("1/2*x^3*y - 2/3*x^2*y^2 + 3/5*x*y^3 - 4/7*y^4 + 5/11*x^2 - 6/13*y + 7/17",
         (Fraction(-3, 4), Fraction(1, 6), Fraction(-2, 5), Fraction(5, 9))),
    ])
    def test_high_degree(self, text, rect):
        assert_matches_reference(parse_poly(text), rect)

    def test_rejects_empty_sides(self):
        for rect in ((1, 1, 0, 1), (0, 1, 2, 1)):
            with pytest.raises(ValueError):
                bernstein_on_rect(X * Y, *rect)


def _half(rect: tuple[Fraction, ...], axis: str, side: int) -> tuple[Fraction, ...]:
    """The lower (side 0) or upper (side 1) half of rect along axis."""
    k = 0 if axis == "x" else 2
    lo, hi = rect[k:k + 2]
    mid = (lo + hi) / 2
    return rect[:k] + ((lo, mid) if side == 0 else (mid, hi)) + rect[k + 2:]


class TestHalvingAgainstReference:
    """RangeEnclosure.halves(axis) (de Casteljau halving of the parent's
    grid) against the direct conversion of each child, along random
    halving paths from rational root rectangles."""

    def _walk(self, rng: random.Random, p: Poly2, rect: tuple[Fraction, ...],
              depth: int) -> None:
        enclosure = assert_matches_reference(p, rect)
        for _ in range(depth):
            axis, side = rng.choice("xy"), rng.randrange(2)
            rect = _half(rect, axis, side)
            enclosure = assert_matches_reference(p, rect, enclosure.halves(axis)[side])

    def test_seeded(self):
        rng = random.Random(20)
        shapes = TestBernsteinAgainstReference.SHAPES
        for index in range(84):
            shape = shapes[index % len(shapes)]
            p = _shaped_poly(rng, shape, rng.randint(0, 8), rng.randint(0, 8))
            rect = _dyadic_rectangle(rng) if index % 3 == 0 else _random_rectangle(rng)
            self._walk(rng, p, rect, rng.randint(12, 16))

    @pytest.mark.parametrize("text, rect", [
        ("(x + 1/3*y - 2/7)^16", (-1, 1, -1, 1)),
        # Coprime denominators: xlo = 2/9 and the width 3/10, -5/7 and 4/11.
        ("(x^2 - 2/3*x*y + 1/5*y - 3/7)^8", (Fraction(2, 9), Fraction(47, 90),
                                             Fraction(-5, 7), Fraction(-27, 77))),
        # Degree 32 in one variable: the oracle's cost grows as (dx*dy)^2.
        ("(x - 2/7)^32 - 1/3*x*y + y", (Fraction(-3, 2), Fraction(3, 2), Fraction(-5, 7),
                                        Fraction(5, 7))),
        ("(3/5*y - 1/3)^32 + x", (Fraction(3, 8), Fraction(3, 4), Fraction(-2, 3), 0)),
    ])
    def test_high_degree(self, text, rect):
        self._walk(random.Random(text), parse_poly(text),
                   tuple(map(Fraction, rect)), 12)


def _grid_center(enclosure: RangeEnclosure) -> Fraction:
    """The polynomial's value at the rectangle's center, read off the grid:
    at u = v = 1/2 every B_r(u)*B_s(v) is C(dx, r)*C(dy, s)/2^(dx+dy)."""
    grid = enclosure.numerators
    dx, dy = len(grid) - 1, len(grid[0]) - 1
    total = sum(comb(dx, r) * comb(dy, s) * b
                for r, row in enumerate(grid) for s, b in enumerate(row))
    return Fraction(total, enclosure.denominator << (dx + dy))


class TestCenterFromGrid:
    """The center value bernstein_certify reads off each node's grid against
    Poly2.eval at the node's center, along random halving paths."""

    def _walk(self, rng: random.Random, p: Poly2, rect: tuple[Fraction, ...],
              depth: int) -> None:
        enclosure = bernstein_on_rect(p, *rect)
        for _ in range(depth + 1):
            xlo, xhi, ylo, yhi = rect
            assert _grid_center(enclosure) == p.eval((xlo + xhi) / 2, (ylo + yhi) / 2), (p, rect)
            axis, side = rng.choice("xy"), rng.randrange(2)
            enclosure, rect = enclosure.halves(axis)[side], _half(rect, axis, side)

    def test_seeded(self):
        rng = random.Random(20)
        shapes = TestBernsteinAgainstReference.SHAPES
        for index in range(84):
            shape = shapes[index % len(shapes)]
            p = _shaped_poly(rng, shape, rng.randint(0, 8), rng.randint(0, 8))
            rect = _dyadic_rectangle(rng) if index % 3 == 0 else _random_rectangle(rng)
            self._walk(rng, p, rect, rng.randint(12, 16))

    @pytest.mark.parametrize("text", ["0", "-7/3", "(x - 2/7)^5 - 1/3*x", "(3/5*y - 1/3)^6 + y",
                                      "(x + 1/3*y - 2/7)^16", "(x^2 - 2/3*x*y + 1/5*y - 3/7)^8"])
    def test_shapes(self, text):
        rect = (Fraction(2, 9), Fraction(47, 90), Fraction(-5, 7), Fraction(-27, 77))
        self._walk(random.Random(text), parse_poly(text), rect, 12)


class TestHalves:
    """RangeEnclosure.halves(axis): both halves from one de Casteljau
    triangle."""

    def test_against_reference(self):
        rng = random.Random(23)
        shapes = TestBernsteinAgainstReference.SHAPES
        for index in range(140):
            p = _shaped_poly(rng, shapes[index % len(shapes)], rng.randint(0, 6), rng.randint(0, 6))
            rect = _dyadic_rectangle(rng) if index % 2 else _random_rectangle(rng)
            enclosure = bernstein_on_rect(p, *rect)
            for axis in ("x", "y"):
                pair = enclosure.halves(axis)
                assert len(pair) == 2
                for side, half in enumerate(pair):
                    half_rect = _half(rect, axis, side)
                    expected = reference_bernstein_coefficients(p, *half_rect)
                    assert [list(row) for row in half.coefficients] == expected, (p, half_rect)
                    assert all(type(b) is int for row in half.numerators for b in row)

    def test_value_semantics(self):
        # An enclosure is its numerators and denominator: equal enclosures
        # have equal halves, and == and hash compare both fields.
        p = parse_poly("x^3*y - 2/3*y^2 + x")
        enclosure = bernstein_on_rect(p, -1, 1, Fraction(-1, 2), Fraction(1, 2))
        fresh = RangeEnclosure(enclosure.numerators, enclosure.denominator)
        assert fresh == enclosure and hash(fresh) == hash(enclosure)
        assert repr(fresh) == repr(enclosure)
        for axis in ("x", "y"):
            assert fresh.halves(axis) == enclosure.halves(axis)
        # No memo rides on an enclosure: halves(axis) leaves it as it was.
        assert vars(enclosure) == {"numerators": fresh.numerators,
                                   "denominator": fresh.denominator}
        doubled = RangeEnclosure(tuple(tuple(2 * b for b in row) for row in enclosure.numerators),
                                 2 * enclosure.denominator)
        assert doubled.coefficients == enclosure.coefficients and doubled != enclosure
        other = RangeEnclosure(enclosure.numerators, enclosure.denominator + 1)
        assert other != enclosure and hash(other) != hash(enclosure)
        assert RangeEnclosure(doubled.numerators, enclosure.denominator) != enclosure
        with pytest.raises(ValueError):
            enclosure.halves("z")


class TestDisplay:
    def test_zero(self):
        assert format_poly(Poly2.zero()) == "0"

    def test_canonical_order(self):
        quarter_square = (X + Y) * (X + Y) / 4
        assert format_poly(quarter_square) == "1/4*x^2 + 1/2*x*y + 1/4*y^2"

    def test_constant(self):
        assert format_poly(Poly2.const(4)) == "4"

    def test_signs(self):
        assert format_poly(-X * X + Poly2.const(1)) == "-x^2 + 1"
        assert format_poly(X - Y) == "x - y"


class TestBoxTypes:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(0, 1)
        with pytest.raises(ValueError):
            Box(1, Fraction(-1, 2))

    def test_open_vs_closed_membership(self):
        box = Box(1, 2)
        assert box.contains_closed(1, 2)
        assert not box.contains_open(1, 0)
        assert box.contains_open(Fraction(99, 100), -1)
