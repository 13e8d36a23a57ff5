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
parse_poly is the exact inverse of bkfact.poly.format_poly.  It builds
values with Poly2's public operations only.

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

# One alternative per token class, tried in order; whitespace matches none and
# is skipped by finditer.  \d and \s are str.isdecimal and str.isspace.
_TOKEN = re.compile(r"(\d+)|([xy])|([-+*/^()])|(\S)")
_DECIMAL_TOKEN = re.compile(r"(\d+(?:\.\d*)?|\.\d+)|([xy])|([-+*/^()])|(\S)")
_KINDS = (None, _NUMBER, _VAR, None)
_Token = tuple[str, str, int]  # (kind, text, position)
_VARIABLES = {name: Poly2.var(name) for name in "xy"}  # immutable, so shared


def _tokenize(text: str, decimals: bool) -> list[_Token]:
    """(kind, text, position) per token, then an end-of-input token.

    kind is "number", "variable" or the operator character itself.  With
    decimals, a number may hold one "." ("0.25", "1.", ".5").
    """
    tokens = []
    for match in (_DECIMAL_TOKEN if decimals else _TOKEN).finditer(text):
        group, token = match.lastindex, match.group()
        if group == 4:
            raise ParseError(f"unexpected character {token!r}", match.start(),
                             ("number", "x", "y", "operator", "parenthesis"))
        tokens.append((_KINDS[group] or token, token, match.start()))
    tokens.append((_END, "", len(text)))
    return tokens


def _number(token: _Token) -> int | Fraction:
    _, text, position = token
    try:
        # Fraction parses decimal strings exactly ("0.25" -> 1/4).
        return Fraction(text) if "." in text else int(text)
    except ValueError:  # more digits than the int-conversion limit allows
        raise ParseError(f"number of {len(text)} digits is too long", position) from None


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


def _is_unit_monomial(p: Poly2) -> bool:
    # +-x^i*y^j: a product with it only moves and negates coefficients, and
    # its powers are +-x^(e*i)*y^(e*j).
    terms = p.terms()
    return len(terms) == 1 and terms[0][1] in (1, -1)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        token = self.peek()
        if token[0] != kind:
            raise _unexpected(token, expected)
        return self.advance()

    def parse_expr(self) -> Poly2:
        value = self.parse_term()
        if self.peek()[0] not in ("+", "-"):
            return value
        total = dict(value.terms())  # not Poly2's +, which would copy the sum per term
        while self.peek()[0] in ("+", "-"):
            operator = self.advance()
            negate = operator[0] == "-"
            for key, coeff in self.parse_term().terms():
                if negate:
                    coeff = -coeff
                if key in total:
                    coeff += total[key]
                    bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
                    if bits > MAX_POWER_BITS:
                        raise ParseError(f"sum of {bits} bits exceeds {MAX_POWER_BITS}",
                                         operator[2])
                if coeff:
                    total[key] = coeff
                else:
                    del total[key]
        return Poly2(total)

    def parse_term(self) -> Poly2:
        value = self.parse_factor()
        while self.peek()[0] == "*":
            star = self.advance()
            factor = self.parse_factor()
            degree = value.degree + factor.degree
            if degree > MAX_DEGREE:
                raise ParseError(f"product of total degree {degree} exceeds {MAX_DEGREE}",
                                 star[2])
            if not (value.is_zero or factor.is_zero or _is_unit_monomial(factor)
                    or _is_unit_monomial(value)):
                bits = _product_bits(value, factor)
                if bits > MAX_POWER_BITS:
                    raise ParseError(f"product of up to {bits} bits exceeds {MAX_POWER_BITS}",
                                     star[2])
            value = value * factor
        return value

    def parse_factor(self) -> Poly2:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        value = self.parse_power()
        return -value if negate else value

    def parse_power(self) -> Poly2:
        value = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            position = self.peek()[2]
            exponent = self.parse_exponent()
            degree = value.degree * exponent
            if degree > MAX_DEGREE:
                raise ExponentError(f"power of total degree {degree} exceeds {MAX_DEGREE}",
                                    position)
            if exponent > MAX_DEGREE:
                raise ExponentError(f"exponent {exponent} exceeds {MAX_DEGREE}", position)
            if not value.is_zero and exponent > 1 and not _is_unit_monomial(value):
                bits = _power_bits(value, exponent)
                if bits > MAX_POWER_BITS:
                    kind = "constant power" if value.degree == 0 else "power"
                    raise ExponentError(f"{kind} of up to {bits} bits exceeds {MAX_POWER_BITS}",
                                        position)
            value = value ** exponent
        return value

    def parse_exponent(self) -> int:
        token = self.peek()
        kind, text, position = token
        if kind == "-":
            raise ExponentError("negative exponent", position, ("nonnegative integer",))
        if kind != _NUMBER:
            raise _unexpected(token, ("nonnegative integer",))
        self.advance()
        if "." in text:
            raise ExponentError("non-integer exponent", position, ("nonnegative integer",))
        # A slash right after the exponent would make it fractional; there is
        # no division operator, so report it as an exponent problem.
        if self.peek()[0] == "/" and self.tokens[self.index + 1][0] == _NUMBER:
            raise ExponentError("non-integer exponent", self.peek()[2],
                                ("nonnegative integer",))
        return _number(token)

    def parse_atom(self) -> Poly2:
        token = self.advance()
        kind = token[0]
        if kind == _NUMBER:
            numerator, denominator = _number(token), 1
            if self.peek()[0] == "/":
                self.advance()
                denom_token = self.expect(_NUMBER, ("number",))
                denominator = _number(denom_token)
                if denominator == 0:
                    raise ParseError("zero denominator", denom_token[2], ("nonzero number",))
            return Poly2.const(Fraction(numerator, denominator))
        if kind == _VAR:
            return _VARIABLES[token[1]]
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", token[2])
            inner = self.parse_expr()
            self.expect(")", (")",))
            self.depth -= 1
            return inner
        raise _unexpected(token, ("number", "x", "y", "(", "-"))


def _unexpected(token: _Token, expected: tuple[str, ...]) -> ParseError:
    kind, text, position = token
    return ParseError(f"unexpected {kind} {text!r}", position, expected)


def parse_poly(text: str, decimals: bool = False) -> Poly2:
    """Parse an expression into an exact Poly2.

    Raises ParseError (with position and the expected-token set) on
    malformed input, on a number longer than the int-conversion limit, on a
    product over MAX_DEGREE or MAX_POWER_BITS and on a sum over
    MAX_POWER_BITS; ExponentError on a negative or fractional exponent and
    on a power over MAX_DEGREE or MAX_POWER_BITS.  The result is built with
    Poly2's public operations only: constants and variables, negation,
    products and powers, and one Poly2 per sum from its terms' coefficients.
    """
    parser = _Parser(_tokenize(text, decimals))
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing[0] != _END:
        raise _unexpected(trailing, ("+", "-", "*", "^", "end of input"))
    return result
