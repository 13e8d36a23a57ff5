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

No power or product may exceed total degree MAX_DEGREE.  The degree of a
power is degree*exponent and that of a product the sum of the factors'
degrees, so both are checked before anything is expanded: "(x + y)^200"
fails at once with ExponentError, and a product over the cap with
ParseError, each at the position of the offending "^" exponent or "*".

Decimal literals are rejected by default; passing decimals=True lexes
finite decimals like "0.25" and converts them exactly (this backs the CLI's
--decimal-as-rational flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExponentError, ParseError
from .poly import Poly2

MAX_DEGREE = 32

_NUMBER = "number"
_VAR = "variable"
_OP = "operator"
_END = "end of input"


@dataclass(frozen=True)
class _Token:
    kind: str   # _NUMBER, _VAR, one of "+-*/^()", or _END
    text: str
    pos: int


def _tokenize(text: str, decimals: bool) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (decimals and ch == "." and i + 1 < size and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < size and (text[i].isdigit() or (decimals and text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    seen_dot = True
                i += 1
            tokens.append(_Token(_NUMBER, text[start:i], start))
            continue
        if ch in ("x", "y"):
            tokens.append(_Token(_VAR, ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i,
                         ("number", "x", "y", "operator", "parenthesis"))
    tokens.append(_Token(_END, "", size))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"unexpected {token.kind} {token.text!r}", token.pos, expected)
        return self.advance()

    def parse_expr(self) -> Poly2:
        value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def parse_term(self) -> Poly2:
        value = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            factor = self.parse_factor()
            degree = value.degree + factor.degree
            if degree > MAX_DEGREE:
                raise ParseError(f"product of total degree {degree} exceeds {MAX_DEGREE}",
                                 star.pos)
            value = value * factor
        return value

    def parse_factor(self) -> Poly2:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Poly2:
        value = self.parse_atom()
        while self.peek().kind == "^":
            self.advance()
            position = self.peek().pos
            exponent = self.parse_exponent()
            if value.degree * exponent > MAX_DEGREE:
                raise ExponentError(
                    f"power of total degree {value.degree * exponent} exceeds {MAX_DEGREE}",
                    position)
            value = value ** exponent
        return value

    def parse_exponent(self) -> int:
        token = self.peek()
        if token.kind == "-":
            raise ExponentError("negative exponent", token.pos, ("nonnegative integer",))
        if token.kind != _NUMBER:
            raise ParseError(f"unexpected {token.kind} {token.text!r}", token.pos,
                             ("nonnegative integer",))
        self.advance()
        if "." in token.text:
            raise ExponentError("non-integer exponent", token.pos, ("nonnegative integer",))
        # A slash right after the exponent would make it fractional; there is
        # no division operator, so report it as an exponent problem.
        if self.peek().kind == "/" and self.tokens[self.index + 1].kind == _NUMBER:
            raise ExponentError("non-integer exponent", self.peek().pos,
                                ("nonnegative integer",))
        return int(token.text)

    def parse_atom(self) -> Poly2:
        token = self.peek()
        if token.kind == _NUMBER:
            self.advance()
            numerator = _number_value(token)
            if self.peek().kind == "/":
                self.advance()
                denom_token = self.expect(_NUMBER, ("number",))
                denominator = _number_value(denom_token)
                if denominator == 0:
                    raise ParseError("zero denominator", denom_token.pos, ("nonzero number",))
                return Poly2.const(numerator / denominator)
            return Poly2.const(numerator)
        if token.kind == _VAR:
            self.advance()
            return Poly2.var(token.text)
        if token.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", (")",))
            return inner
        raise ParseError(f"unexpected {token.kind} {token.text!r}", token.pos,
                         ("number", "x", "y", "(", "-"))


def _number_value(token: _Token) -> Fraction:
    # Fraction parses decimal strings exactly ("0.25" -> 1/4).
    return Fraction(token.text)


def parse_poly(text: str, decimals: bool = False) -> Poly2:
    """Parse an expression into an exact Poly2.

    Raises ParseError (with position and the expected-token set) on
    malformed input and ExponentError on negative or fractional exponents.
    """
    parser = _Parser(_tokenize(text, decimals))
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != _END:
        raise ParseError(f"unexpected {trailing.kind} {trailing.text!r}", trailing.pos,
                         ("+", "-", "*", "^", "end of input"))
    return result
