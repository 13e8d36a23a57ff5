"""Parser for polynomial expressions in x and y.

Grammar (standard precedence: ^ binds tighter than unary minus, which binds
tighter than *, which binds tighter than binary + and -):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)*
    atom     := NUMBER ('/' NUMBER)? | 'x' | 'y' | '(' expr ')'
    exponent := NUMBER            -- nonnegative integer

There is no implicit multiplication and no division operator: a slash is
only valid inside a rational literal such as "1/2".  Exponents must be
nonnegative integers; "x^-1" or "x^1/2" raise ExponentError.  Whitespace is
ignored between tokens.  On polynomials of total degree at most MAX_DEGREE,
parse_poly is the exact inverse of bkfact.poly.format_poly.

Numbers are runs of decimal digits (str.isdecimal, so "\u0663" is 3 but
"\u00b2" is an unexpected character).  A number longer than the
interpreter's int-conversion limit (4300 digits by default) raises
ParseError at its position.

Parentheses nest at most MAX_NESTING deep; a "(" past that raises
ParseError at its position.  Unary minus is parsed in a loop, so any run
of "-" signs is accepted.

No power or product may exceed total degree MAX_DEGREE, and no exponent may
exceed MAX_DEGREE, whatever its base.  The degree of a power is
degree*exponent and that of a product the sum of the factors' degrees, so
both are checked before anything is expanded: "(x + y)^200" and "2^200" fail
at once with ExponentError, and a product over the cap with ParseError, each
at the position of the offending "^" exponent or "*".

Coefficient sizes are bounded too, powers and products before computing.
Written over the lcm D of its denominators, a polynomial is P/D with
integer P.  A power with e > 1 raises ExponentError at its exponent when
e*max(bitlen sum|P|, bitlen D) exceeds MAX_POWER_BITS (for a constant p/q,
e*max(bitlen p, bitlen q)).  A product raises ParseError at its "*" when
max(bitlen k + bitlen max|P| + bitlen max|Q|, bitlen D + bitlen E), with k
the smaller term count, exceeds it, unless a factor is +-x^i*y^j.  A sum of
like terms is cheap to compute, so it is checked after: a coefficient over
MAX_POWER_BITS raises ParseError at its "+" or "-".  So every coefficient
an operator creates prints under the 4300-digit limit.

A product of numbers, x, y and their powers stays one monomial (coeff, i,
j) while it is parsed: integer literals stay int, a "*" multiplies two
coefficients and adds exponents, and a "^" raises the coefficient and
scales the exponents.  Poly2 arithmetic runs only where a factor is a
parenthesized sum or the zero literal, a Poly2 of degree -1.  A sum adds
its terms' coefficients in one dict, and each sum or monomial becomes one
Poly2, built with Poly2's public operations only.  The caps above are
checked on the monomials as on the Poly2s they stand for, with the same
functions.  Tokens are kept as their text; a token's position is found
again only for an error message.

Decimal literals are rejected by default; passing decimals=True lexes
finite decimals like "0.25" and converts them exactly (this backs the CLI's
--decimal-as-rational flag).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import ExponentError, ParseError
from .poly import Poly2

MAX_DEGREE = 32
# Parentheses may nest this deep: at five parser frames per level, 100 levels
# take half of Python's default recursion limit and leave the rest to the caller.
MAX_NESTING = 100
# A power, product or sum may create coefficients of at most this many bits:
# at most 4,215 decimal digits, so they print under Python's default
# 4,300-digit int-string limit.
MAX_POWER_BITS = 14_000

_NUMBER = "number"
_VAR = "variable"
_END = "end of input"

# A token is its text, and the end of input is "".  One alternative per token
# class, tried in order; whitespace matches none and is skipped.  \d and \s are
# str.isdecimal and str.isspace.
_TOKEN = re.compile(r"\d+|[xy]|[-+*/^()]|\S")
_DECIMAL_TOKEN = re.compile(r"\d+(?:\.\d*)?|\.\d+|[xy]|[-+*/^()]|\S")
# A character no token may start with; "." is one unless a decimal number holds it.
_UNEXPECTED = re.compile(r"[^\d\sxy+\-*/^().]")
_OPERATORS = frozenset("+-*/^()")


def _kind(token: str) -> str | None:
    """"number", "variable", "end of input" or the operator itself; None for
    an unexpected character.  Only a number is longer than one character."""
    if token in _OPERATORS:
        return token
    if token in ("x", "y"):
        return _VAR
    if not token:
        return _END
    return _NUMBER if len(token) > 1 or token.isdecimal() else None


def _positions(text: str, decimals: bool) -> list[int]:
    """Where each token of _tokenize(text, decimals) starts."""
    pattern = _DECIMAL_TOKEN if decimals else _TOKEN
    return [match.start() for match in pattern.finditer(text)] + [len(text)]


def _tokenize(text: str, decimals: bool) -> list[str]:
    """The text of each token, then "" for the end of input.  With decimals,
    a number may hold one "." ("0.25", "1.", ".5").  Positions are found
    again only for an error message."""
    tokens = (_DECIMAL_TOKEN if decimals else _TOKEN).findall(text)
    if _UNEXPECTED.search(text) or "." in tokens:
        index = next(index for index, token in enumerate(tokens) if _kind(token) is None)
        raise ParseError(f"unexpected character {tokens[index]!r}",
                         _positions(text, decimals)[index],
                         ("number", "x", "y", "operator", "parenthesis"))
    tokens.append("")
    return tokens


def _coefficient_bits(p: Poly2) -> tuple[int, int, int]:
    """Bit lengths that bound max|P|, sum|P| and D, where p = P/D over the
    lcm D of its denominators and P is integer.

    D is computed while it has at most MAX_POWER_BITS bits (a single
    denominator is taken whole); past that, the rest of the lcm is bounded
    by the product of the remaining denominators, so an oversized input
    costs at most one big-number step.
    """
    coeffs = [coeff for _, coeff in p.terms()]
    common = 1
    for index, coeff in enumerate(coeffs):
        common = lcm(common, coeff.denominator)
        if index and common.bit_length() > MAX_POWER_BITS:
            den_bits = common.bit_length() + sum(c.denominator.bit_length()
                                                 for c in coeffs[index + 1:])
            num_bits = max(abs(c.numerator).bit_length() for c in coeffs) + den_bits
            return num_bits, num_bits + len(coeffs).bit_length(), den_bits
    numerators = [abs(c.numerator) * (common // c.denominator) for c in coeffs]
    return (max(numerators).bit_length(), sum(numerators).bit_length(),
            common.bit_length())


def _product_bits(left: Poly2, right: Poly2) -> int:
    """A bound on the bit length of every numerator and denominator of
    left*right, both nonzero, computed before multiplying.

    Over common denominators left = P/D and right = Q/E.  Each coefficient
    of P*Q sums at most k = min(#terms of left, #terms of right) products,
    so it is below 2^(bitlen k + bitlen max|P| + bitlen max|Q|), and its
    denominator divides D*E.
    """
    p_bits, _, d_bits = _coefficient_bits(left)
    q_bits, _, e_bits = _coefficient_bits(right)
    k = min(len(left.terms()), len(right.terms()))
    return max(k.bit_length() + p_bits + q_bits, d_bits + e_bits)


def _power_bits(base: Poly2, exponent: int) -> int:
    """A bound on the bit length of every numerator and denominator of
    base^exponent: over the common denominator base = P/D, each coefficient
    of P^e is at most (sum|P|)^e, over D^e.  For a constant p/q this is
    e*max(bitlen p, bitlen q)."""
    _, sum_bits, den_bits = _coefficient_bits(base)
    return exponent * max(sum_bits, den_bits)


# While a product of numbers, x, y and their powers is parsed, it is one
# monomial (coeff, i, j) with a nonzero int or Fraction coeff; every other
# value, the zero literal among them, is a Poly2.
_Value = tuple[int | Fraction, int, int] | Poly2
_VARIABLES = {"x": (1, 1, 0), "y": (1, 0, 1)}


def _poly(value: _Value) -> Poly2:
    if isinstance(value, tuple):
        coeff, i, j = value
        return Poly2({(i, j): coeff})
    return value


def _terms(value: _Value) -> list[tuple[tuple[int, int], int | Fraction]]:
    if isinstance(value, tuple):
        coeff, i, j = value
        return [((i, j), coeff)]
    return value.terms()


def _degree(value: _Value) -> int:
    return value[1] + value[2] if isinstance(value, tuple) else value.degree


def _sized(value: _Value) -> bool:
    """Whether a product or power with value can grow coefficients: value
    is neither zero nor +-x^i*y^j, for a product with +-x^i*y^j only moves
    and negates coefficients, and its powers are +-x^(e*i)*y^(e*j)."""
    terms = _terms(value)
    return len(terms) > 1 or (len(terms) == 1 and terms[0][1] not in (1, -1))


class _Parser:
    def __init__(self, text: str, decimals: bool):
        self.text = text
        self.decimals = decimals
        self.tokens = _tokenize(text, decimals)
        self.index = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self) -> str:
        return self.tokens[self.index]

    def advance(self) -> str:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def position(self, index: int) -> int:
        return _positions(self.text, self.decimals)[index]

    def expect(self, kind: str, expected: tuple[str, ...]) -> None:
        if _kind(self.peek()) != kind:
            raise self.unexpected(self.index, expected)
        self.index += 1

    def unexpected(self, index: int, expected: tuple[str, ...]) -> ParseError:
        token = self.tokens[index]
        return ParseError(f"unexpected {_kind(token)} {token!r}", self.position(index), expected)

    def number(self, index: int) -> int | Fraction:
        text = self.tokens[index]
        try:
            # Fraction parses decimal strings exactly ("0.25" -> 1/4).
            return Fraction(text) if "." in text else int(text)
        except ValueError:  # more digits than the int-conversion limit allows
            raise ParseError(f"number of {len(text)} digits is too long",
                             self.position(index)) from None

    def parse_expr(self) -> _Value:
        value = self.parse_term()
        if self.peek() not in ("+", "-"):
            return value
        total = dict(_terms(value))  # not Poly2's +, which would copy the sum per term
        while self.peek() in ("+", "-"):
            operator = self.index
            negate = self.advance() == "-"
            for key, coeff in _terms(self.parse_term()):
                if negate:
                    coeff = -coeff
                if key in total:
                    coeff += total[key]
                    bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
                    if bits > MAX_POWER_BITS:
                        raise ParseError(f"sum of {bits} bits exceeds {MAX_POWER_BITS}",
                                         self.position(operator))
                if coeff:
                    total[key] = coeff
                else:
                    del total[key]
        return Poly2(total)

    def parse_term(self) -> _Value:
        value = self.parse_factor()
        while self.peek() == "*":
            star = self.index
            self.advance()
            factor = self.parse_factor()
            degree = _degree(value) + _degree(factor)
            if degree > MAX_DEGREE:
                raise ParseError(f"product of total degree {degree} exceeds {MAX_DEGREE}",
                                 self.position(star))
            if _sized(value) and _sized(factor):
                bits = _product_bits(_poly(value), _poly(factor))
                if bits > MAX_POWER_BITS:
                    raise ParseError(f"product of up to {bits} bits exceeds {MAX_POWER_BITS}",
                                     self.position(star))
            if isinstance(value, tuple) and isinstance(factor, tuple):
                # A Fraction times 1 still costs two gcds; x and y carry an int 1.
                coeff = value[0] if factor[0] == 1 else value[0] * factor[0]
                value = (coeff, value[1] + factor[1], value[2] + factor[2])
            else:
                value = _poly(value) * _poly(factor)
        return value

    def parse_factor(self) -> _Value:
        negate = False
        while self.peek() == "-":
            self.advance()
            negate = not negate
        value = self.parse_power()
        if not negate:
            return value
        if isinstance(value, tuple):
            coeff, i, j = value
            return (-coeff, i, j)
        return -value

    def parse_power(self) -> _Value:
        value = self.parse_atom()
        while self.peek() == "^":
            self.advance()
            index = self.index
            exponent = self.parse_exponent()
            degree = _degree(value) * exponent
            if degree > MAX_DEGREE:
                raise ExponentError(f"power of total degree {degree} exceeds {MAX_DEGREE}",
                                    self.position(index))
            if exponent > MAX_DEGREE:
                raise ExponentError(f"exponent {exponent} exceeds {MAX_DEGREE}",
                                    self.position(index))
            if exponent > 1 and _sized(value):
                bits = _power_bits(_poly(value), exponent)
                if bits > MAX_POWER_BITS:
                    kind = "constant power" if _degree(value) == 0 else "power"
                    raise ExponentError(f"{kind} of up to {bits} bits exceeds {MAX_POWER_BITS}",
                                        self.position(index))
            if isinstance(value, tuple):
                coeff, i, j = value
                value = (coeff ** exponent, i * exponent, j * exponent)
            else:
                value = value ** exponent
        return value

    def parse_exponent(self) -> int:
        index = self.index
        token = self.peek()
        if token == "-":
            raise ExponentError("negative exponent", self.position(index),
                                ("nonnegative integer",))
        if _kind(token) != _NUMBER:
            raise self.unexpected(index, ("nonnegative integer",))
        self.advance()
        if "." in token:
            raise ExponentError("non-integer exponent", self.position(index),
                                ("nonnegative integer",))
        # A slash right after the exponent would make it fractional; there is
        # no division operator, so report it as an exponent problem.
        if self.peek() == "/" and _kind(self.tokens[self.index + 1]) == _NUMBER:
            raise ExponentError("non-integer exponent", self.position(self.index),
                                ("nonnegative integer",))
        return self.number(index)

    def parse_atom(self) -> _Value:
        index = self.index
        token = self.advance()
        if token in _VARIABLES:
            return _VARIABLES[token]
        if token == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 self.position(index))
            inner = self.parse_expr()
            self.expect(")", (")",))
            self.depth -= 1
            return inner
        if _kind(token) != _NUMBER:
            raise self.unexpected(index, ("number", "x", "y", "(", "-"))
        value = self.number(index)
        if self.peek() == "/":
            self.advance()
            self.expect(_NUMBER, ("number",))
            denominator = self.number(self.index - 1)
            if denominator == 0:
                raise ParseError("zero denominator", self.position(self.index - 1),
                                 ("nonzero number",))
            value = Fraction(value, denominator)
        return (value, 0, 0) if value else Poly2.zero()


def parse_poly(text: str, decimals: bool = False) -> Poly2:
    """Parse an expression into an exact Poly2.

    Raises ParseError (with position and the expected-token set) on
    malformed input, on a number longer than the int-conversion limit, on a
    product over MAX_DEGREE or MAX_POWER_BITS and on a sum over
    MAX_POWER_BITS; ExponentError on a negative or fractional exponent and
    on a power over MAX_DEGREE or MAX_POWER_BITS.  The result is built with
    Poly2's public operations only: one Poly2 per sum or monomial from its
    terms' coefficients, and negation, products and powers where a factor is
    a parenthesized sum or zero.
    """
    parser = _Parser(text, decimals)
    result = parser.parse_expr()
    if parser.peek():
        raise parser.unexpected(parser.index, ("+", "-", "*", "^", "end of input"))
    return _poly(result)
