"""Exact sparse bivariate polynomials over the rationals.

A polynomial in x and y is a finite map from exponent pairs (i, j) to nonzero
Fraction coefficients.  The zero polynomial is the empty map and reports total
degree -1 so that degree comparisons stay total.  All arithmetic is exact;
floats are rejected at construction so rounding can never leak into a decision
path.  Every value is immutable after construction, which makes the whole
module safe for unrestricted concurrent use.

Canonical term order for display and iteration is (total degree descending,
x-degree descending), so e.g. x^2 comes before x*y before y^2 before x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Mapping, Union

Scalar = Union[int, str, Fraction]
# A polynomial's terms: exponent pairs (i, j) to nonzero coefficients.
Terms = dict[tuple[int, int], Fraction]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int, exact string ("5", "-2/3"), or Fraction to Fraction.

    Floats are rejected: Fraction(0.1) would silently capture the binary
    rounding of the literal, which defeats exact boundary decisions.
    """
    if isinstance(value, float):
        raise TypeError("float coefficients are not supported; pass Fraction, int, or 'p/q' text")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _term_sort_key(item: tuple[tuple[int, int], Fraction]) -> tuple[int, int]:
    (i, j), _ = item
    return (-(i + j), -i)


def _monomial_product(many: Terms, single: Terms) -> Terms:
    # A one-term factor gives distinct, nonzero product terms.
    ((i2, j2), c2), = single.items()
    return {(i1 + i2, j1 + j2): c1 * c2 for (i1, j1), c1 in many.items()}


class Poly2:
    """Sparse exact polynomial in the two variables x and y."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        table: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), raw in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in monomial {(i, j)!r}")
                coeff = as_fraction(raw)
                if coeff != 0:
                    table[(int(i), int(j))] = coeff
        self._terms = table

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def _of(cls, terms: Terms) -> "Poly2":
        # Trusted constructor: terms already maps nonnegative exponent pairs
        # to nonzero Fractions, and the new polynomial takes ownership of it.
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def const(cls, value: Scalar) -> "Poly2":
        return cls({(0, 0): value})

    @classmethod
    def var(cls, name: str) -> "Poly2":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def monomial(cls, i: int, j: int, coeff: Scalar = 1) -> "Poly2":
        return cls({(i, j): coeff})

    @classmethod
    def affine(cls, cx: Scalar, cy: Scalar, c0: Scalar) -> "Poly2":
        """cx*x + cy*y + c0."""
        return cls({(1, 0): cx, (0, 1): cy, (0, 0): c0})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    @property
    def x_degree(self) -> int:
        if not self._terms:
            return -1
        return max(i for i, _ in self._terms)

    @property
    def y_degree(self) -> int:
        if not self._terms:
            return -1
        return max(j for _, j in self._terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in canonical order (total degree desc, x-degree desc)."""
        return sorted(self._terms.items(), key=_term_sort_key)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            total = out[key] + coeff if key in out else coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return Poly2._of(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly2":
        return Poly2._of({key: -coeff for key, coeff in self._terms.items()})

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, Poly2):
            many, single = (other, self) if len(self._terms) == 1 else (self, other)
            if len(single._terms) == 1:
                return Poly2._of(_monomial_product(many._terms, single._terms))
            out: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    total = out.get(key, Fraction(0)) + c1 * c2
                    if total:
                        out[key] = total
                    else:
                        out.pop(key, None)
            return Poly2._of(out)
        scale = as_fraction(other)
        if scale == 0:
            return Poly2.zero()
        return Poly2._of({key: coeff * scale for key, coeff in self._terms.items()})

    def __rmul__(self, other: Scalar) -> "Poly2":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "Poly2":
        scale = as_fraction(other)
        if scale == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (Fraction(1) / scale)

    def __pow__(self, n: int) -> "Poly2":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self._terms) == 1:
            ((i, j), coeff), = self._terms.items()
            return Poly2.monomial(i * n, j * n, coeff ** n)
        result = Poly2.const(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-looking container; identity hashing would mislead

    # -- calculus and evaluation --------------------------------------------

    def diff(self, var: str) -> "Poly2":
        """Exact partial derivative with respect to "x" or "y"."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), coeff in self._terms.items():
            if var == "x":
                if i > 0:
                    out[(i - 1, j)] = coeff * i
            else:
                if j > 0:
                    out[(i, j - 1)] = coeff * j
        return Poly2._of(out)

    def eval(self, x0: Scalar, y0: Scalar) -> Fraction:
        """Exact value at the point (x0, y0)."""
        xv = as_fraction(x0)
        yv = as_fraction(y0)
        xpow: dict[int, Fraction] = {0: Fraction(1)}
        ypow: dict[int, Fraction] = {0: Fraction(1)}
        total = Fraction(0)
        for (i, j), coeff in self._terms.items():
            if i not in xpow:
                xpow[i] = xv ** i
            if j not in ypow:
                ypow[j] = yv ** j
            total += coeff * xpow[i] * ypow[j]
        return total

    def lift(self, m: Scalar, n: Scalar) -> tuple[dict[tuple[int, int], int], int]:
        """Integer coefficients of p(m*u, n*v) over one common denominator.

        Returns (coeffs, L) with L*p(m*u, n*v) = sum of coeffs[(i, j)]*u^i*v^j,
        every coefficient an int and L the lcm of the scaled terms'
        denominators (1 for the zero polynomial).
        """
        mv, nv = as_fraction(m), as_fraction(n)
        nums, dens = {}, {}
        for (i, j), coeff in self._terms.items():
            nums[(i, j)] = coeff.numerator * mv.numerator ** i * nv.numerator ** j
            dens[(i, j)] = coeff.denominator * mv.denominator ** i * nv.denominator ** j
        scale = lcm(*dens.values())
        return {key: num * (scale // dens[key]) for key, num in nums.items()}, scale

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly2({format_poly(self)})"


def char_diff(p: Poly2, omega: Scalar) -> Poly2:
    """Directional derivative dp/dx - omega * dp/dy.

    This is the first-order operator attached to a characteristic root omega
    of the principal symbol: it differentiates along the characteristic
    direction with slope omega.
    """
    return p.diff("x") - p.diff("y") * as_fraction(omega)


@dataclass(frozen=True)
class Box:
    """Open rectangle (-m, m) x (-n, n) given by positive half-widths.

    Range enclosures and extrema are computed over the closure; the open
    interpretation only matters for strictness at the boundary, which the
    decision procedures in bkfact.certify handle explicitly.
    """

    m: Fraction
    n: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", as_fraction(self.m))
        object.__setattr__(self, "n", as_fraction(self.n))
        if self.m <= 0 or self.n <= 0:
            raise ValueError("box half-widths must be positive")

    def contains_open(self, x: Scalar, y: Scalar) -> bool:
        return abs(as_fraction(x)) < self.m and abs(as_fraction(y)) < self.n

    def contains_closed(self, x: Scalar, y: Scalar) -> bool:
        return abs(as_fraction(x)) <= self.m and abs(as_fraction(y)) <= self.n


@dataclass(frozen=True)
class RangeEnclosure:
    """Interval [lo, hi] guaranteed to contain the range of a polynomial."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("enclosure bounds out of order")


def _bernstein_coefficients(p: Poly2, xlo: Scalar, xhi: Scalar, ylo: Scalar,
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


def bernstein_on_rect(p: Poly2, xlo: Scalar, xhi: Scalar, ylo: Scalar, yhi: Scalar) -> RangeEnclosure:
    """Range enclosure of p on the closed rectangle [xlo, xhi] x [ylo, yhi].

    The rectangle is mapped affinely onto the unit square and p is rewritten
    in the tensor-product Bernstein basis; the minimum and maximum Bernstein
    coefficients enclose the range.  The enclosure is exact for affine
    polynomials and tightens under subdivision, but is generally not tight
    before it (x^2 on [-1, 1] encloses to [-1, 1]).
    """
    coeffs = [b for row in _bernstein_coefficients(p, xlo, xhi, ylo, yhi) for b in row]
    return RangeEnclosure(min(coeffs), max(coeffs))


def format_poly(p: Poly2) -> str:
    """Canonical text form, inverse of bkfact.parsing.parse_poly.

    Terms appear in canonical order with exact rational coefficients, e.g.
    "1/4*x^2 + 1/2*x*y + 1/4*y^2" or "2*x + 3*y + 5"; the zero polynomial
    formats as "0".
    """
    items = p.terms()
    if not items:
        return "0"
    pieces: list[str] = []
    for idx, ((i, j), coeff) in enumerate(items):
        parts = []
        if i == 1:
            parts.append("x")
        elif i > 1:
            parts.append(f"x^{i}")
        if j == 1:
            parts.append("y")
        elif j > 1:
            parts.append(f"y^{j}")
        magnitude = abs(coeff)
        if not parts:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(parts)
        else:
            body = "*".join([str(magnitude)] + parts)
        if idx == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
    return "".join(pieces)
