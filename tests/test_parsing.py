"""Expression parser and canonical formatter."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bkfact import ExponentError, ParseError, Poly2, format_poly, parse_poly
from bkfact.parsing import MAX_DEGREE
from helpers import rand_poly2

X = Poly2.var("x")
Y = Poly2.var("y")


class TestParse:
    def test_variable(self):
        assert parse_poly("x") == X

    def test_three_terms(self):
        expected = Poly2({(2, 0): 3, (1, 1): 2, (0, 0): Fraction(-1, 2)})
        assert parse_poly("3*x^2 + 2*x*y - 1/2") == expected

    def test_negative_exponent(self):
        with pytest.raises(ExponentError):
            parse_poly("x^-1")

    def test_fractional_exponent(self):
        with pytest.raises(ExponentError):
            parse_poly("x^1/2")

    def test_rational_literals(self):
        assert parse_poly("5/3") == Poly2.const(Fraction(5, 3))
        assert parse_poly("1 / 2 * x") == X / 2

    def test_precedence(self):
        # ^ over unary minus: -x^2 is -(x^2)
        assert parse_poly("-x^2") == -(X * X)
        assert parse_poly("(-x)^2") == X * X
        # * over binary -: 1 - 2*x
        assert parse_poly("1 - 2*x") == Poly2.const(1) - 2 * X
        # literal slash binds tighter than ^: 1/2^2 = (1/2)^2
        assert parse_poly("1/2^2") == Poly2.const(Fraction(1, 4))

    def test_parentheses(self):
        assert parse_poly("(x + y)^2") == (X + Y) * (X + Y)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_poly("2x")
        with pytest.raises(ParseError):
            parse_poly("x y")

    def test_no_division_operator(self):
        with pytest.raises(ParseError):
            parse_poly("x/2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_error_position_and_expectations(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x + ")
        assert info.value.position == 4
        assert info.value.expected

    def test_unknown_character(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x + z")
        assert info.value.position == 4

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_poly("(x + 1")

    def test_decimals_flagged(self):
        assert parse_poly("0.25*x", decimals=True) == X / 4
        with pytest.raises(ParseError):
            parse_poly("0.25*x")

    def test_decimal_exponent_rejected(self):
        with pytest.raises(ExponentError):
            parse_poly("x^1.5", decimals=True)


class TestDegreeCap:
    def test_at_the_cap(self):
        assert parse_poly(f"x^{MAX_DEGREE}").degree == MAX_DEGREE
        assert parse_poly(f"x^{MAX_DEGREE - 1}*y").degree == MAX_DEGREE
        assert parse_poly(f"(x*y)^{MAX_DEGREE // 2}").degree == MAX_DEGREE

    @pytest.mark.parametrize("text, error, position", [
        (f"x^{MAX_DEGREE + 1}", ExponentError, 2),
        (f"1 + (x^2)^{MAX_DEGREE // 2 + 1}", ExponentError, 10),
        (f"x^{MAX_DEGREE}*y", ParseError, 2 + len(str(MAX_DEGREE))),
        (f"2*x^{MAX_DEGREE // 2}*(x + y)^{MAX_DEGREE // 2}*x", ParseError,
         13 + 2 * len(str(MAX_DEGREE // 2))),
    ])
    def test_over_the_cap(self, text, error, position):
        with pytest.raises(error) as info:
            parse_poly(text)
        assert type(info.value) is error and info.value.position == position

    def test_rejected_before_expanding(self):
        start = time.perf_counter()
        with pytest.raises(ExponentError) as info:
            parse_poly("(x+1/3*y-2/7)^200")
        assert time.perf_counter() - start < 1
        assert info.value.position == 14
        assert str(info.value) == ("power of total degree 200 exceeds "
                                   f"{MAX_DEGREE} at position 14")

    def test_zero_factor_has_no_degree(self):
        assert parse_poly(f"0*x^{MAX_DEGREE}*x^{MAX_DEGREE}") == Poly2.zero()


class TestFormat:
    def test_examples(self):
        assert format_poly(Poly2.zero()) == "0"
        assert format_poly((X + Y) ** 2 / 4) == "1/4*x^2 + 1/2*x*y + 1/4*y^2"
        assert format_poly(Poly2.const(4)) == "4"

    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(300):
            p = rand_poly2(rng, 4, num_max=10 ** 6, den_max=10 ** 6)
            assert parse_poly(format_poly(p)) == p

    @given(st.dictionaries(
        keys=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        values=st.fractions(min_value=-100, max_value=100, max_denominator=97),
        max_size=8,
    ).map(Poly2))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_round_trip_property(self, p):
        assert parse_poly(format_poly(p)) == p
