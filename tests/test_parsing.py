"""Expression parser and canonical formatter."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bkfact import ExponentError, ParseError, Poly2, format_poly, parse_poly, parsing
from bkfact.parsing import MAX_DEGREE, MAX_NESTING, MAX_POWER_BITS
from helpers import rand_poly2, reference_parse_poly

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

    @pytest.mark.parametrize("decimals", [False, True])
    @pytest.mark.parametrize("text, position", [
        ("\u00b2", 0), ("\u00b3*x", 0), ("x + \u2460", 4), ("1\u00b2", 1), ("x^\u00b2", 2),
    ])
    def test_non_decimal_digits(self, text, position, decimals):
        # str.isdigit accepts these, Fraction and int do not.
        with pytest.raises(ParseError) as info:
            parse_poly(text, decimals=decimals)
        assert type(info.value) is ParseError and info.value.position == position
        assert str(info.value).startswith(f"unexpected character {text[position]!r}")

    def test_unicode_decimal_digits(self):
        assert parse_poly("\u0663/\u0664*x^\u0662") == 3 * X * X / 4
        assert parse_poly("\u0663.5", decimals=True) == Poly2.const(Fraction(7, 2))

    @pytest.mark.parametrize("decimals", [False, True])
    @pytest.mark.parametrize("text, position", [
        ("9" * 5000, 0), ("x + 1/" + "7" * 5000, 6), ("x^" + "0" * 5000, 2),
    ])
    def test_overlong_literal(self, text, position, decimals):
        with pytest.raises(ParseError) as info:
            parse_poly(text, decimals=decimals)
        assert info.value.position == position
        assert str(info.value) == f"number of 5000 digits is too long at position {position}"

    def test_overlong_decimal(self):
        with pytest.raises(ParseError) as info:
            parse_poly("1 + 0." + "5" * 5000, decimals=True)
        assert str(info.value) == "number of 5002 digits is too long at position 4"

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

    @pytest.mark.parametrize("text, position", [
        ("2^33", 2), ("0^33", 2), ("(x^0)^33", 6), ("x - (1 + 2)^33", 12),
        ("1/2^4000000000", 4),
    ])
    def test_constant_power_capped(self, text, position):
        start = time.perf_counter()
        with pytest.raises(ExponentError) as info:
            parse_poly(text)
        assert time.perf_counter() - start < 1
        exponent = re.match(r"\d+", text[position:]).group()
        assert str(info.value) == (f"exponent {exponent} exceeds {MAX_DEGREE} "
                                   f"at position {position}")

    def test_power_keeps_total_degree_text(self):
        with pytest.raises(ExponentError) as info:
            parse_poly(f"x^{MAX_DEGREE + 1}")
        assert str(info.value) == (f"power of total degree {MAX_DEGREE + 1} exceeds "
                                   f"{MAX_DEGREE} at position 2")
        assert parse_poly(f"2^{MAX_DEGREE}") == Poly2.const(2 ** MAX_DEGREE)
        assert parse_poly(f"0^{MAX_DEGREE} + 0^0") == Poly2.const(1)

    def test_zero_factor_has_no_degree(self):
        assert parse_poly(f"0*x^{MAX_DEGREE}*x^{MAX_DEGREE}") == Poly2.zero()

    def test_nested_constant_powers(self):
        assert parse_poly("2^32^32") == Poly2.const(2 ** 1024)
        # 2^874 has 875 bits and 16*875 is the bound itself; the value prints.
        assert 16 * 875 == MAX_POWER_BITS
        assert str(parse_poly("2^2^19^23^16")) == str(2 ** 13984)
        for text, position, bits in (("2^32^32^32", 8, 32 * 1025),
                                     ("(1/3)^32^32^32", 12, 32 * 1624),
                                     ("2^2^19^23^17", 10, 17 * 875)):
            with pytest.raises(ExponentError) as info:
                parse_poly(text)
            assert str(info.value) == (f"constant power of up to {bits} bits exceeds "
                                       f"{MAX_POWER_BITS} at position {position}")

    def test_nested_constant_powers_rejected_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ExponentError) as info:
            parse_poly("2^32^32^32^32^32")
        assert time.perf_counter() - start < 1
        assert info.value.position == 8



NINES = "9" * 3000  # 9,966 bits


def _max_bits(p: Poly2) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for _, c in p.terms()), default=0)


class TestNesting:
    def test_at_the_cap(self):
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_poly(nested) == X
        # Closed parentheses no longer count toward the depth.
        assert parse_poly(" + ".join([nested] * 3) + f"*{nested}") == 2 * X + X * X

    def test_over_the_cap(self):
        text = "1 + -" + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        position = 5 + MAX_NESTING
        assert type(info.value) is ParseError and info.value.position == position
        assert str(info.value) == (f"parentheses nested deeper than {MAX_NESTING} "
                                   f"at position {position}")

    def test_long_unary_minus_runs(self):
        assert parse_poly("-" * 5000 + "x") == X
        assert parse_poly("1 - " + "-" * 5001 + "(x - y)^2") == Poly2.const(1) + (X - Y) ** 2
        with pytest.raises(ParseError) as info:
            parse_poly("-" * 5000)
        assert info.value.position == 5000


class TestCoefficientBound:
    @pytest.mark.parametrize("text, message", [
        (f"{NINES}*{NINES}", "product of up to 19933 bits exceeds 14000 at position 3000"),
        (f"x + ({NINES}*x + 1)*({NINES} - y)",
         "product of up to 19934 bits exceeds 14000 at position 3012"),
        ("(x+2^32^30)^32", "power of up to 30752 bits exceeds 14000 at position 12"),
        (f"(1/{NINES}*x - y)^2", "power of up to 19932 bits exceeds 14000 at position 3011"),
        (f"1/{NINES} - x + 1/{NINES[1:]}8", "sum of 19932 bits exceeds 14000 at position 3007"),
        (f"{2 ** 13999}*x + {2 ** 13999}*x", "sum of 14001 bits exceeds 14000 at position 4218"),
    ], ids=["constants", "sums", "power", "rational power", "like terms", "doubled"])
    def test_rejected_at_the_operator(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert time.perf_counter() - start < 1
        assert str(info.value) == message
        assert type(info.value) is (ExponentError if "power" in message else ParseError)

    def test_under_the_bound(self):
        # (x + y + 1)^31 has coefficients below 3^31 < 2^50.
        p = parse_poly(f"(x + y + 1)^31*{2 ** 13000}")
        assert p.coeff(0, 0) == 2 ** 13000 and p.degree == 31

    def test_long_literal_times_monomial(self):
        literal = int("7" * 4250)  # 14,116 bits, over the bound itself
        for text, p in ((f"{literal}*x", Poly2.monomial(1, 0, literal)),
                        (f"x^2*{literal}*y", Poly2.monomial(2, 1, literal)),
                        (f"-{literal}*x*y^3 + 1/{literal}*(-y)", Poly2({(1, 3): -literal,
                                                                        (0, 1): Fraction(-1, literal)}))):
            assert parse_poly(text) == p
            assert parse_poly(format_poly(p)) == p
        with pytest.raises(ParseError):
            parse_poly(f"{literal}*2")
        with pytest.raises(ParseError):
            parse_poly(f"{literal}*x + x")

    def test_degree_32_round_trip(self):
        p = parse_poly("(x + 1/3*y - 2/7)^32*(1/5*x - 7/3)^0")
        assert p.degree == 32 and parse_poly(format_poly(p)) == p

    def test_bounds_hold(self):
        rng = random.Random(11)
        big = [2 ** 7001 - 1, 3 ** 4500, 5 ** 10, 1]  # the first two: lcm over the bound
        for _ in range(300):
            left, right = (Poly2({(rng.randint(0, 3), rng.randint(0, 3)):
                                  Fraction(rng.choice(big) * rng.randint(-9, 9) or 1,
                                           rng.choice(big) * rng.randint(1, 9))
                                  for _ in range(rng.randint(1, 4))}) for _ in range(2))
            assert _max_bits(left * right) <= parsing._product_bits(left, right)
            exponent = rng.randint(2, 3)
            assert _max_bits(left ** exponent) <= parsing._power_bits(left, exponent)
        for _ in range(100):  # unit-size coefficients: powers grow by their sums
            base, exponent = rand_poly2(rng, 3, 1, 1), rng.randint(2, 6)
            if not base.is_zero:
                assert _max_bits(base ** exponent) <= parsing._power_bits(base, exponent)
        # Three coprime denominators whose lcm is over the bound after two:
        # the x^2 coefficient of the product is over all three.
        a, b, c = 2 ** 7001 - 1, 3 ** 4500, 5 ** 3000
        left = Poly2({(0, 0): Fraction(1, a), (1, 0): Fraction(1, b), (2, 0): Fraction(1, c)})
        right = parse_poly("1 + x + x^2")
        assert (left * right).coeff(2, 0).denominator == a * b * c
        assert _max_bits(left * right) <= parsing._product_bits(left, right)


# Inputs of the oracle tests are strings over one alphabet: x y 0-9 + - * / ^
# ( ) . space tab NBSP \x1c (both str.isspace), the Arabic-Indic digit three
# (str.isdecimal) and superscript two (str.isdigit only); either characters
# or pieces, which parse more often.
ALPHABET = "xy0123456789+-*/^(). \t\xa0\x1c\u0663\u00b2"
PIECES = ["x", "y", "0", "1", "7", "12", "\u0663", "3/4", "2/0", "0.5", ".5", "1.", "\u00b2",
          "(x + y)", "(1 - x*y)", "(", ")", " + ", " - ", "-", "*", "/", "^", "^0", "^2",
          "^33", "^123456789", " ", "\t", "\xa0", "\x1c"]
OPERANDS = ["x", "y", "7", "12", "\u0663", "3/4", "0.5", "(x + y)", "(1 - x*y)^2", "-x^3",
            "(x - 2/3*y)^4", "0", "2^5"]
OPERATORS = [" + ", " - ", "*", "^2*", "^0 - ", " + -"]


def _bounded_power(base: Poly2, exponent: int, position: int) -> None:
    if base.degree == 0 and exponent > 1:
        constant = base.coeff(0, 0)
        bits = exponent * max(constant.numerator.bit_length(), constant.denominator.bit_length())
        if bits > MAX_POWER_BITS:
            raise ExponentError(f"constant power of up to {bits} bits exceeds {MAX_POWER_BITS}",
                                position)


def _bounded_reference(text, decimals):
    return reference_parse_poly(text, decimals, power_check=_bounded_power)


def _outcome(parse, text, decimals):
    try:
        return parse(text, decimals).terms()
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def assert_matches_reference(text, decimals):
    """parse_poly(text) equals the old parser's result or error, except on
    the two input classes whose handling changed:

    - a character str.isdigit accepts and str.isdecimal does not is now an
      unexpected character, as any other letter was: the old parser is run
      with "\u00b2" replaced by "z" and must give the same, "z" for "\u00b2";
    - an exponent over MAX_DEGREE is now rejected whatever its base.  The old
      parser computed such constant powers without bound, so once the new
      one rejects an exponent, it is replaced by a "0...01" of its length and
      both are compared on the result;
    - a power of a constant p/q with exponent e > 1 is rejected when
      e*max(bitlen p, bitlen q) exceeds MAX_POWER_BITS: the old parser is run
      with _bounded_power checking its own constant at each power, so the
      new error must come exactly where that constant exceeds the bound.

    Numbers over the int-conversion limit, the third changed class, are too
    long to arise here; TestParse.test_overlong_literal covers them.
    """
    got = _outcome(parse_poly, text, decimals)
    while isinstance(got, tuple) and got[0] is ExponentError and got[1].startswith("exponent "):
        position = got[2]
        digits = re.match(r"\d+", text[position:]).group()
        assert int(digits) > MAX_DEGREE
        text = text[:position] + "0" * (len(digits) - 1) + "1" + text[position + len(digits):]
        got = _outcome(parse_poly, text, decimals)
    expected = _outcome(_bounded_reference, text.replace("\u00b2", "z"), decimals)
    if isinstance(expected, tuple):
        expected = (expected[0], expected[1].replace("'z'", "'\u00b2'"), expected[2])
    assert got == expected, text


class TestAgainstReference:
    @given(st.one_of(st.text(alphabet=ALPHABET, max_size=24),
                     st.lists(st.sampled_from(PIECES), max_size=12).map("".join)),
           st.booleans())
    @settings(max_examples=1500, deadline=None, derandomize=True)
    def test_property(self, text, decimals):
        assert_matches_reference(text, decimals)

    @pytest.mark.parametrize("decimals", [False, True])
    def test_seeded(self, decimals):
        rng = random.Random(8 + decimals)
        for _ in range(6000):
            shape = rng.random()
            if shape < 0.2:
                text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 20)))
            elif shape < 0.5:
                text = "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))
            else:
                # Operands and operators in turn, sometimes with one stray piece.
                text = rng.choice(OPERANDS) + "".join(
                    rng.choice(OPERATORS) + rng.choice(OPERANDS) for _ in range(rng.randint(0, 4)))
                if rng.random() < 0.3:
                    cut = rng.randint(0, len(text))
                    text = text[:cut] + rng.choice(PIECES) + text[cut:]
            assert_matches_reference(text, decimals)

    @pytest.mark.parametrize("text", [
        "2^32^32", "2^32^32^32", "(1/3)^32^32^32", "x*(2^32)^32^32 + y", "2^32^32^32^32^32",
        "2^2^19^23^16 - x", "2^2^19^23^17", "(-3/2)^2^2^2^2^2^2^2^2^2^2^2^2^2*y",
        "12^2^2^2^2^2^2^2^2^2^2^2 + 12^2^2^2^2^2^2^2^2^2^2^2^2", "0^32^32^32", "(x^0)^32^32^32^2",
        "9" * 4250 + "^1",  # 14,118 bits, but a first power computes nothing
    ])
    def test_constant_power_bound(self, text):
        assert_matches_reference(text, False)

    def test_round_trip_texts(self):
        rng = random.Random(9)
        for _ in range(150):
            text = format_poly(rand_poly2(rng, 5, num_max=10 ** 4, den_max=10 ** 3))
            assert_matches_reference(text, False)
            assert_matches_reference(f"({text})*({text}) - x^2*({text})^2", False)


def _unit_monomial(p: Poly2) -> bool:
    terms = p.terms()
    return len(terms) == 1 and terms[0][1] in (1, -1)


def _capped_power(base: Poly2, exponent: int, position: int) -> None:
    if exponent > MAX_DEGREE:
        raise ExponentError(f"exponent {exponent} exceeds {MAX_DEGREE}", position)
    if not base.is_zero and exponent > 1 and not _unit_monomial(base):
        bits = parsing._power_bits(base, exponent)
        if bits > MAX_POWER_BITS:
            kind = "constant power" if base.degree == 0 else "power"
            raise ExponentError(f"{kind} of up to {bits} bits exceeds {MAX_POWER_BITS}",
                                position)


def _capped_product(left: Poly2, right: Poly2, position: int) -> None:
    if not (left.is_zero or right.is_zero or _unit_monomial(left) or _unit_monomial(right)):
        bits = parsing._product_bits(left, right)
        if bits > MAX_POWER_BITS:
            raise ParseError(f"product of up to {bits} bits exceeds {MAX_POWER_BITS}", position)


def _capped_reference(text, decimals):
    return reference_parse_poly(text, decimals, power_check=_capped_power,
                                product_check=_capped_product)


def _literal(rng: random.Random, decimals: bool) -> str:
    """A literal of 1 to 14,000 bits, most near 7,000 or 14,000, sometimes
    over a denominator or, with decimals, with a decimal point."""
    bits = rng.choice([rng.randint(1, 8), rng.randint(6990, 7010), rng.randint(13990, 14000)])
    text = str(rng.getrandbits(bits) | 1 << (bits - 1))
    shape = rng.random()
    if shape < 0.25:
        text += f"/{rng.getrandbits(rng.choice([3, 7000, 14000])) | 1}"
    elif decimals and shape < 0.4:
        text = f"{text[:-1]}.{text[-1]}"
    return text


FOLD_OPERANDS = ["x", "y", "1", "-1", "0", "0/7", "(2*x)", "(x - 2/3*y)", "(-y)", "(x - x)"]


class TestFoldAgainstReference:
    """parse_poly folds products of numbers, x, y and their powers into one
    monomial; the reference computes every operator on Poly2s and applies
    the caps to whole Poly2 operands.  Both must give the same value, or the
    same error type, message and position."""

    @pytest.mark.parametrize("decimals", [False, True])
    def test_monomial_products_and_powers(self, decimals):
        rng = random.Random(30 + decimals)
        for _ in range(1500):
            factors = []
            for _ in range(rng.randint(1, 4)):
                factor = (_literal(rng, decimals) if rng.random() < 0.45
                          else rng.choice(FOLD_OPERANDS))
                if rng.random() < 0.5:
                    factor += f"^{rng.randint(0, 40)}"
                factors.append(factor)
            text = "".join(rng.choice(["*", "*", "*-", "*(-1)*"]) + factor
                           for factor in factors)[1:]
            if rng.random() < 0.2:
                text = "-" + text
            got = _outcome(parse_poly, text, decimals)
            assert got == _outcome(_capped_reference, text, decimals), text


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
