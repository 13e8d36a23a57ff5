"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from bkfact import (
    Box,
    CertifiedInside,
    CertRequest,
    Extrema,
    FirstOrderFactor,
    LPDO2,
    Poly2,
    Unknown,
    Violated,
    as_fraction,
    compose_first_order,
)
from bkfact.errors import ExponentError, ParseError
from bkfact.parsing import MAX_DEGREE
from bkfact.poly import Scalar, bernstein_on_rect

Point = tuple[Fraction, Fraction]


class Poly1:
    """Dense exact univariate polynomial (coefficient index = power)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        vals = [as_fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self._coeffs = tuple(vals)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def eval(self, t) -> Fraction:
        tv = as_fraction(t)
        total = Fraction(0)
        for coeff in reversed(self._coeffs):
            total = total * tv + coeff
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly1):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"Poly1({list(self._coeffs)!r})"


def restrict(p: Poly2, axis: str, value) -> Poly1:
    """Fix one variable of p to a constant, giving a polynomial in the other.

    restrict(p, "y", v) substitutes y = v and yields a Poly1 in x;
    restrict(p, "x", v) substitutes x = v and yields a Poly1 in y.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"unknown variable {axis!r}")
    val = as_fraction(value)
    coeffs: dict[int, Fraction] = {}
    for (i, j), coeff in p.terms():
        power, fixed = (i, val ** j) if axis == "y" else (j, val ** i)
        coeffs[power] = coeffs.get(power, Fraction(0)) + coeff * fixed
    return Poly1(coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=-1) + 1))


def rand_frac(rng: random.Random, num_max: int = 9, den_max: int = 9) -> Fraction:
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def rand_nonzero_frac(rng: random.Random, num_max: int = 9, den_max: int = 9) -> Fraction:
    while True:
        value = rand_frac(rng, num_max, den_max)
        if value != 0:
            return value


def rand_poly2(rng: random.Random, max_deg: int, num_max: int = 5, den_max: int = 4) -> Poly2:
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if rng.random() < 0.7:
                terms[(i, j)] = rand_frac(rng, num_max, den_max)
    return Poly2(terms)


def rand_point_in_box(rng: random.Random, box: Box, den: int = 64) -> tuple[Fraction, Fraction]:
    """Random exact rational point of the closed box."""
    x = box.m * Fraction(rng.randint(-den, den), den)
    y = box.n * Fraction(rng.randint(-den, den), den)
    return x, y


def difference_from_expansion(b1, b2, b3, s1, s2, s3) -> Poly2:
    """The difference a00 - R for affine data, written out monomial by
    monomial (independent oracle; hand expansion of
    b3*x + b2*y + b1 - (s3 - s2)/2 - (s3*x + s2*y + s1)^2 / 4):

        (-s3^2/4)*x^2 + (-s3*s2/2)*x*y + (-s2^2/4)*y^2
        + (b3 - s1*s3/2)*x + (b2 - s1*s2/2)*y
        + (b1 - (s3 - s2)/2 - s1^2/4).
    """
    b1, b2, b3, s1, s2, s3 = (Fraction(v) for v in (b1, b2, b3, s1, s2, s3))
    return Poly2({
        (2, 0): -s3 * s3 / 4,
        (1, 1): -s3 * s2 / 2,
        (0, 2): -s2 * s2 / 4,
        (1, 0): b3 - s1 * s3 / 2,
        (0, 1): b2 - s1 * s2 / 2,
        (0, 0): b1 - (s3 - s2) / 2 - s1 * s1 / 4,
    })


def exact_grid_extrema(d: Poly2, box: Box, grid_k: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of a total-degree <= 2 polynomial over the grid
    (m*i/K, n*j/K), |i|, |j| < K.

    Independent of quad_box_extrema: the polynomial is lifted to integer
    coefficients, and each row (fixed i) is an integer quadratic in j whose
    extreme over an integer interval sits at the endpoints or next to the
    real vertex.
    """
    assert d.degree <= 2
    deg = max(d.degree, 0)
    scaled = {}
    for (i, j), coeff in d.terms():
        scaled[(i, j)] = coeff * box.m ** i * box.n ** j * grid_k ** (deg - i - j)
    if not scaled:
        return Fraction(0), Fraction(0)
    denom = math.lcm(*(v.denominator for v in scaled.values()))
    lifted = {key: (v * denom).numerator for key, v in scaled.items()}
    scale = denom * grid_k ** deg
    lo = hi = None
    span_lo, span_hi = -(grid_k - 1), grid_k - 1

    def row_coeff(b: int, i: int) -> int:
        return sum(c * i ** a for (a, bb), c in lifted.items() if bb == b)

    for i in range(span_lo, span_hi + 1):
        c2 = row_coeff(2, i)
        c1 = row_coeff(1, i)
        c0 = row_coeff(0, i)
        candidates = {span_lo, span_hi}
        if c2 != 0:
            vertex = Fraction(-c1, 2 * c2)
            for j in (math.floor(vertex), math.floor(vertex) + 1):
                if span_lo <= j <= span_hi:
                    candidates.add(j)
        values = [(c2 * j + c1) * j + c0 for j in candidates]
        row_lo, row_hi = min(values), max(values)
        lo = row_lo if lo is None or row_lo < lo else lo
        hi = row_hi if hi is None or row_hi > hi else hi
    return Fraction(lo, scale), Fraction(hi, scale)


def _clip_line_to_box(p0: Point, direction: Point, box: Box
                      ) -> Optional[tuple[Point, bool]]:
    """Intersect the line p0 + t*direction with the box.

    Returns (representative point, meets_open_box) for a nonempty closed
    intersection, preferring a representative strictly inside the open box
    whenever one exists, else None.
    """
    tlo: Optional[Fraction] = None
    thi: Optional[Fraction] = None
    strict_const_ok = True
    for coord, step, bound in ((p0[0], direction[0], box.m), (p0[1], direction[1], box.n)):
        if step == 0:
            if abs(coord) > bound:
                return None
            if abs(coord) == bound:
                strict_const_ok = False
            continue
        t1 = (-bound - coord) / step
        t2 = (bound - coord) / step
        if t1 > t2:
            t1, t2 = t2, t1
        tlo = t1 if tlo is None or t1 > tlo else tlo
        thi = t2 if thi is None or t2 < thi else thi
    # direction is nonzero, so at least one axis bounded t.
    if tlo is None or thi is None or tlo > thi:
        return None
    t_mid = (tlo + thi) / 2
    point = (p0[0] + t_mid * direction[0], p0[1] + t_mid * direction[1])
    meets_open = strict_const_ok and tlo < thi
    return point, meets_open


def reference_critical_candidates(d: Poly2, box: Box) -> list[tuple[Point, Fraction, bool]]:
    """Stationary points inside the closed box of a quadratic whose
    gradient system is singular (4*a20*a02 = a11^2), found in the original
    coordinates (independent of quad_box_extrema's integer lift).

    A consistent system yields a critical line, on which the quadratic is
    constant, or the whole box when d is constant; an inconsistent one
    yields nothing.
    """
    a2 = d.coeff(2, 0)
    a11 = d.coeff(1, 1)
    b2 = d.coeff(0, 2)
    cx = d.coeff(1, 0)
    cy = d.coeff(0, 1)
    # Gradient: (2*a2*x + a11*y + cx, a11*x + 2*b2*y + cy).
    row1 = (2 * a2, a11)
    row2 = (a11, 2 * b2)
    if row1 == (0, 0) and row2 == (0, 0):
        # No quadratic part: a constant is attained everywhere.
        return [((Fraction(0), Fraction(0)), d.coeff(0, 0), True)] if cx == cy == 0 else []
    if row1 == (0, 0):
        # det = 0 with row1 = 0 forces a2 = a11 = 0, so row2 = (0, 2*b2) with
        # b2 != 0: the critical set is the horizontal line y = -cy/(2*b2),
        # provided the first gradient equation 0 = -cx is consistent.
        if cx != 0:
            return []
        line_point = (Fraction(0), -cy / (2 * b2))
        direction = (Fraction(1), Fraction(0))
    elif row2 == (0, 0):
        # Symmetric: a11 = b2 = 0 and a2 != 0; vertical line x = -cx/(2*a2).
        if cy != 0:
            return []
        line_point = (-cx / (2 * a2), Fraction(0))
        direction = (Fraction(0), Fraction(1))
    else:
        # Two parallel nonzero rows; det = 0 then forces a2 != 0.
        lam = a11 / (2 * a2)
        if cy != lam * cx:
            return []
        line_point = (-cx / (2 * a2), Fraction(0))
        direction = (-a11, 2 * a2)
    clipped = _clip_line_to_box(line_point, direction, box)
    if clipped is None:
        return []
    point, meets_open = clipped
    return [(point, d.eval(*point), meets_open)]


def reference_quad_extrema(d: Poly2, box: Box) -> tuple[Extrema, bool, bool]:
    """Exact extrema of a total-degree <= 2 polynomial on the closed box by
    the restriction route, wholly independent of quad_box_extrema's integer
    lift: corners and edge vertices come from restrict and eval in the
    original coordinates, and so do the isolated stationary point and, for a
    singular gradient system, reference_critical_candidates' line or
    constant.  Returns the Extrema and this route's own interior flags for
    the minimum and the maximum: whether some point of the open box attains
    them, kept per candidate rather than read off the points."""
    assert d.degree <= 2
    m, n = box.m, box.n
    candidates = [((cx, cy), d.eval(cx, cy), False) for cx in (-m, m) for cy in (-n, n)]
    for axis, bound, other in (("y", n, m), ("x", m, n)):
        for fixed in (-bound, bound):
            g = restrict(d, axis, fixed)
            if g.coeff(2) != 0:
                t = -g.coeff(1) / (2 * g.coeff(2))
                if -other < t < other:
                    point = (t, fixed) if axis == "y" else (fixed, t)
                    candidates.append((point, g.eval(t), False))
    # Stationary points in the original coordinates: an isolated one when the
    # gradient system is regular, else reference_critical_candidates'.
    a2, a11, b2 = d.coeff(2, 0), d.coeff(1, 1), d.coeff(0, 2)
    cx, cy = d.coeff(1, 0), d.coeff(0, 1)
    det = 4 * a2 * b2 - a11 * a11
    if det == 0:
        candidates += reference_critical_candidates(d, box)
    else:
        x0, y0 = (a11 * cy - 2 * b2 * cx) / det, (a11 * cx - 2 * a2 * cy) / det
        if abs(x0) <= box.m and abs(y0) <= box.n:
            candidates.append(((x0, y0), d.eval(x0, y0), box.contains_open(x0, y0)))
    by_point: dict = {}
    for point, value, interior in candidates:
        known = by_point.get(point)
        if known is None or (interior and not known[1]):
            by_point[point] = (value, interior)
    max_val = max(value for value, _ in by_point.values())
    min_val = min(value for value, _ in by_point.values())

    def attainers(target):
        points = sorted(pt for pt, (v, _) in by_point.items() if v == target)
        return tuple(points), any(by_point[pt][1] for pt in points)

    max_points, interior_max = attainers(max_val)
    min_points, interior_min = attainers(min_val)
    ext = Extrema(min_val=min_val, max_val=max_val, min_points=min_points, max_points=max_points)
    return ext, interior_min, interior_max


def reference_certificate(d: Poly2, box: Box, eps: Fraction, ext: Extrema,
                          interior_min: bool, interior_max: bool):
    """The degree <= 2 certificate from ext, interior_min, interior_max =
    reference_quad_extrema(d, box): the open-box strictness rule on the
    interior flags, an interior attainer as witness when there is one, else
    the boundary attainer pulled inward by halving until d.eval shows the
    violation."""
    hi_ok = ext.max_val < eps or (ext.max_val == eps and not interior_max)
    lo_ok = ext.min_val > -eps or (ext.min_val == -eps and not interior_min)
    if hi_ok and lo_ok:
        return CertifiedInside(margin=eps - max(ext.max_val, -ext.min_val))
    points, sign = (ext.max_points, 1) if not hi_ok else (ext.min_points, -1)
    for point in points:
        if box.contains_open(*point):
            return Violated(witness=point, value=d.eval(*point))
    t = Fraction(1, 2)
    while True:
        point = ((1 - t) * points[0][0], (1 - t) * points[0][1])
        if sign * d.eval(*point) >= eps:
            return Violated(witness=point, value=d.eval(*point))
        t /= 2


def reference_grid_witness(d: Poly2, box: Box, eps: Fraction, grid_k: int):
    """The first point of the interior grid (m*i/K, n*j/K), |i|, |j| < K, in
    row-major order (i outermost) with |d| >= eps, by d.eval at every point
    (independent of sample_falsify's integer lift); None if there is none."""
    for i in range(-(grid_k - 1), grid_k):
        for j in range(-(grid_k - 1), grid_k):
            x, y = Fraction(i, grid_k) * box.m, Fraction(j, grid_k) * box.n
            value = d.eval(x, y)
            if abs(value) >= eps:
                return Violated(witness=(x, y), value=value)
    return None


# Poly2.eval as it was, summed term by term in Fractions, kept as the oracle of
# its integer form.
def reference_eval(p: Poly2, x0: Scalar, y0: Scalar) -> Fraction:
    """Exact value of p at the point (x0, y0)."""
    xv = as_fraction(x0)
    yv = as_fraction(y0)
    xpow: dict[int, Fraction] = {0: Fraction(1)}
    ypow: dict[int, Fraction] = {0: Fraction(1)}
    total = Fraction(0)
    for (i, j), coeff in p.terms():
        if i not in xpow:
            xpow[i] = xv ** i
        if j not in ypow:
            ypow[j] = yv ** j
        total += coeff * xpow[i] * ypow[j]
    return total


# Poly2's product loop as it was, a Fraction schoolbook that tests every
# partial sum for zero, kept as the oracle of Poly2.__mul__.
def reference_mul(p: Poly2, q: Poly2) -> Poly2:
    """Exact product of p and q."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in p.terms():
        for (i2, j2), c2 in q.terms():
            key = (i1 + i2, j1 + j2)
            total = out.get(key, Fraction(0)) + c1 * c2
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return Poly2(out)


# The power-to-Bernstein conversion as it was (O(dx^2*dy^2) per rectangle),
# kept as the oracle of the coefficients of bkfact.poly.bernstein_on_rect.
def reference_bernstein_coefficients(p: Poly2, xlo: Scalar, xhi: Scalar, ylo: Scalar,
                                     yhi: Scalar) -> list[list[Fraction]]:
    """Tensor-product Bernstein coefficients b[r][s] of p on the closed
    rectangle [xlo, xhi] x [ylo, yhi], 0 <= r <= x-degree, 0 <= s <= y-degree.

    The rectangle is mapped affinely onto the unit square (x = xlo + wx*u,
    y = ylo + wy*v), so that p = sum of b[r][s]*B_r(u)*B_s(v) with the
    Bernstein basis polynomials B_k(t) = comb(d, k)*t^k*(1 - t)^(d - k).
    """
    if p.is_zero:
        return [[Fraction(0)]]
    x0 = as_fraction(xlo)
    y0 = as_fraction(ylo)
    wx = as_fraction(xhi) - x0
    wy = as_fraction(yhi) - y0
    if wx <= 0 or wy <= 0:
        raise ValueError("rectangle sides must have positive length")
    dx = max(p.x_degree, 0)
    dy = max(p.y_degree, 0)

    # Power coefficients of p(x0 + wx*u, y0 + wy*v) on the unit square.
    power = [[Fraction(0)] * (dy + 1) for _ in range(dx + 1)]
    for (i, j), c in p.terms():
        for k in range(i + 1):
            xpart = c * comb(i, k) * x0 ** (i - k) * wx ** k
            for l in range(j + 1):
                power[k][l] += xpart * comb(j, l) * y0 ** (j - l) * wy ** l

    coeffs = [[Fraction(0)] * (dy + 1) for _ in range(dx + 1)]
    for r in range(dx + 1):
        for s in range(dy + 1):
            b = Fraction(0)
            for k in range(r + 1):
                ratio_x = Fraction(comb(r, k), comb(dx, k))
                for l in range(s + 1):
                    b += ratio_x * Fraction(comb(s, l), comb(dy, l)) * power[k][l]
            coeffs[r][s] = b
    return coeffs


def reference_bernstein_certify(request: CertRequest):
    """Bernstein subdivision without the outer-boundary face rule: a leaf is
    certified only when its enclosure lies strictly inside (-eps, eps), so a
    supremum of exactly eps ends Unknown(gap = 0) even when it is approached
    only on the excluded boundary.  Same traversal order, center checks and
    depth budget as bernstein_certify."""
    d = request.d
    eps = request.eps
    box = request.box
    worst_inside = Fraction(0)
    overshoots: list[Fraction] = []
    stack: list[tuple[Fraction, Fraction, Fraction, Fraction, int]] = [
        (-box.m, box.m, -box.n, box.n, 0)]
    while stack:
        xlo, xhi, ylo, yhi, depth = stack.pop()
        enclosure = bernstein_on_rect(d, xlo, xhi, ylo, yhi)
        if -eps < enclosure.lo and enclosure.hi < eps:
            bound = max(enclosure.hi, -enclosure.lo)
            if bound > worst_inside:
                worst_inside = bound
            continue
        cx = (xlo + xhi) / 2
        cy = (ylo + yhi) / 2
        if box.contains_open(cx, cy):  # centers on the outer boundary are skipped
            value = d.eval(cx, cy)
            if abs(value) >= eps:
                return Violated(witness=(cx, cy), value=value)
        if depth < request.max_depth:
            if xhi - xlo >= yhi - ylo:
                stack.append((cx, xhi, ylo, yhi, depth + 1))
                stack.append((xlo, cx, ylo, yhi, depth + 1))
            else:
                stack.append((xlo, xhi, cy, yhi, depth + 1))
                stack.append((xlo, xhi, ylo, cy, depth + 1))
        else:
            overshoots.append(max(enclosure.hi - eps, -eps - enclosure.lo))
    if overshoots:
        return Unknown(gap=max(overshoots))
    return CertifiedInside(margin=eps - worst_inside)


# The factor search as it was, kept as the oracle of bkfact.lpdo.bk_factors.
def reference_reconstruct_factors(op: LPDO2) -> Optional[tuple[FirstOrderFactor, FirstOrderFactor]]:
    """Search for first-order factors of a canonical operator by composition.

    Tries the orderings (Dx+Dy+p)(Dx-Dy+q) and (Dx-Dy+p)(Dx+Dy+q); in each,
    p and q are forced linearly by a10 and a01, so the candidate is verified
    by recomposing and comparing against op exactly.  Returns the first
    verified pair or None.  Note that success here and the residual condition
    a00 = R are different predicates: an operator can satisfy one and not the
    other, because the a00 of a composition is L{q} + p*q, which does not
    coincide symbolically with L{S} + S^2.
    """
    if not op.symbol.is_canonical:
        raise ValueError("factor reconstruction is defined for the canonical symbol")
    half_sum = (op.a10 + op.a01) / 2
    half_diff = (op.a10 - op.a01) / 2
    for f, g in (
        (FirstOrderFactor(1, 1, half_diff), FirstOrderFactor(1, -1, half_sum)),
        (FirstOrderFactor(1, -1, half_sum), FirstOrderFactor(1, 1, half_diff)),
    ):
        if compose_first_order(f, g) == op:
            return (f, g)
    return None


# The expression parser as it was, kept as the oracle of bkfact.parsing.
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
    def __init__(self, tokens: list[_Token], power_check=None, product_check=None):
        self.tokens = tokens
        self.index = 0
        self.power_check = power_check
        self.product_check = product_check

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
            if self.product_check is not None:
                self.product_check(value, factor, star.pos)
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
            if self.power_check is not None:
                self.power_check(value, exponent, position)
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


def reference_parse_poly(text: str, decimals: bool = False, power_check=None,
                         product_check=None) -> Poly2:
    """bkfact.parsing.parse_poly before it tokenized with one regex,
    accumulated terms in dicts and folded monomial products: one _Token and
    one Poly2 per atom, and Poly2 arithmetic for every operator.

    Raises ParseError (with position and the expected-token set) on
    malformed input and ExponentError on negative or fractional exponents.
    power_check(base, exponent, position), if given, runs on the whole Poly2
    operands before each power is computed, after the degree check, and
    product_check(left, right, position) before each product; either may
    raise.
    """
    parser = _Parser(_tokenize(text, decimals), power_check, product_check)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != _END:
        raise ParseError(f"unexpected {trailing.kind} {trailing.text!r}", trailing.pos,
                         ("+", "-", "*", "^", "end of input"))
    return result
