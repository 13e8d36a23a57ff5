"""Exact sparse bivariate polynomials over the rationals.

A polynomial in x and y is a finite map from exponent pairs (i, j) to nonzero
Fraction coefficients.  The zero polynomial is the empty map and reports total
degree -1 so that degree comparisons stay total.  All arithmetic is exact;
floats are rejected at construction so rounding can never leak into a decision
path.  Every value is immutable after construction, so the whole module is
safe for concurrent use.

Canonical term order for display and iteration is (total degree descending,
x-degree descending), so e.g. x^2 comes before x*y before y^2 before x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm
from operator import add, mul
from typing import Mapping, Union

Scalar = Union[int, str, Fraction]


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
    def _of(cls, terms: dict[tuple[int, int], Fraction]) -> "Poly2":
        # Trusted constructor: terms already maps nonnegative exponent pairs
        # to nonzero Fractions, and the new polynomial takes ownership of it.
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def const(cls, value: Scalar) -> "Poly2":
        coeff = as_fraction(value)
        return cls._of({(0, 0): coeff} if coeff else {})

    @classmethod
    def var(cls, name: str) -> "Poly2":
        if name not in ("x", "y"):
            raise ValueError(f"unknown variable {name!r}")
        return cls._of({(1, 0) if name == "x" else (0, 1): Fraction(1)})

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
        """Product with a Poly2 or a scalar.  Later products for a key are added to
        the first; only such sums cancel, so zeros are dropped once, at the end."""
        if isinstance(other, Poly2):
            out: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    if key in out:
                        out[key] += c1 * c2
                    else:
                        out[key] = c1 * c2
            return Poly2._of({key: coeff for key, coeff in out.items() if coeff})
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
        """Exact value at the point (x0, y0).

        Runs in integers: the lift at (x0, y0) has coefficients summing to
        L*p(x0, y0), so the one Fraction is built at the end.
        """
        coeffs, scale = self.lift(x0, y0)
        return Fraction(sum(coeffs.values()), scale)

    def lift(self, m: Scalar, n: Scalar) -> tuple[dict[tuple[int, int], int], int]:
        """Integer coefficients of p(m*u, n*v) over one common denominator.

        Returns (coeffs, L) with L*p(m*u, n*v) = sum of coeffs[(i, j)]*u^i*v^j,
        every coefficient an int and L > 0 (1 for the zero polynomial).  With
        p's coefficients over the lcm of their denominators, m = a/b and n = c/e,
        each numerator is scaled by a^i*b^(dx - i)*c^j*e^(dy - j) and L by
        b^dx*e^dy, so L need not be the least common denominator.  This is the
        one place that clears denominators; the Bernstein conversion reads (1, 1).
        """
        (a, b), (c, e) = as_fraction(m).as_integer_ratio(), as_fraction(n).as_integer_ratio()
        scale = lcm(*[coeff.denominator for coeff in self._terms.values()])
        dx, dy = max(self.x_degree, 0), max(self.y_degree, 0)
        xs = [a ** i * b ** (dx - i) for i in range(dx + 1)]
        ys = [c ** j * e ** (dy - j) for j in range(dy + 1)]
        coeffs = {(i, j): coeff.numerator * (scale // coeff.denominator) * xs[i] * ys[j]
                  for (i, j), coeff in self._terms.items()}
        return coeffs, scale * b ** dx * e ** dy

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
    """A polynomial's Bernstein coefficients on a rectangle, held as integer
    numerators over one positive denominator, b[r][s] = numerators[r][s] /
    denominator; their min and max [lo, hi] enclose its range there.  The
    caller keeps the rectangle.

    == compares this representation, not the values it stands for: a grid
    halved from its parent's and the direct conversion of the same rectangle
    hold equal b[r][s] over different denominators, so compare coefficients,
    lo or hi for equal values."""

    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def lo(self) -> Fraction:
        return Fraction(min(map(min, self.numerators)), self.denominator)

    @property
    def hi(self) -> Fraction:
        return Fraction(max(map(max, self.numerators)), self.denominator)

    @property
    def coefficients(self) -> tuple[tuple[Fraction, ...], ...]:
        """The b[r][s] as Fractions."""
        return tuple(tuple(Fraction(b, self.denominator) for b in row) for row in self.numerators)

    def halves(self, axis: str) -> tuple["RangeEnclosure", "RangeEnclosure"]:
        """The enclosures on the lower and upper half of the rectangle along
        axis, "x" or "y": de Casteljau at t = 1/2 on the rows along axis (a y
        split transposes in and, per half, out), so that both halves come
        from one triangle.  After j passes of pairwise sums a[i] = sum of
        C(j, k)*b[i + k], and a[0]/2^j and a[d - j]/2^j are the lower half's
        coefficient j and the upper half's d - j; shifting by d - j puts both
        over the denominator times 2^d.  O(dx^2*dy) (x) or O(dx*dy^2) (y)
        integer additions and shifts; no Fraction is built."""
        if axis not in ("x", "y"):
            raise ValueError(f"unknown axis {axis!r}")
        along_y = axis == "y"
        a = list(zip(*self.numerators) if along_y else self.numerators)
        d = len(a) - 1
        lower, upper = [()] * (d + 1), [()] * (d + 1)
        for j in range(d + 1):
            if j:
                # Lists: a tuple built from an iterator piles up on the free list.
                for i in range(d - j + 1):
                    a[i] = list(map(add, a[i], a[i + 1]))
            lower[j] = tuple([b << (d - j) for b in a[0]])
            upper[d - j] = tuple([b << (d - j) for b in a[d - j]])
        return tuple([RangeEnclosure(tuple(list(zip(*half)) if along_y else half),
                                     self.denominator << d) for half in (lower, upper)])


@cache
def _weights(d: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # M = lcm(C(d, 0..d)) and W[r][k] = M*C(r, k)/C(d, k), k <= r: power to Bernstein
    # on [0, 1], times M.  Parsed degrees are at most MAX_DEGREE, so few are built.
    scale = lcm(*(comb(d, k) for k in range(d + 1)))
    return scale, tuple(tuple(scale // comb(d, k) * comb(r, k) for k in range(r + 1))
                        for r in range(d + 1))


def _shift(lines: list[list[int]], lo: Fraction, w: Fraction) -> int:
    """Rewrite in place the integer coefficients a[k] of each polynomial a in
    z of degree at most d = len(a) - 1 as those of q^d*a((t + s*u)/q) in u,
    where lo = t/q and w = s/q; return q^d.

    Scaling a[k] by q^(d - k) gives q^d*a(z/q).  Its Taylor shift by t is
    repeated Horner (synthetic) division by z - t, O(e^2) for the highest
    nonzero index e; scaling a[k] by s^k follows.
    """
    q = lcm(lo.denominator, w.denominator)
    t = lo.numerator * (q // lo.denominator)
    s = w.numerator * (q // w.denominator)
    for a in lines:
        top = len(a) - 1
        power = 1
        for k in range(top - 1, -1, -1):
            power *= q
            a[k] *= power
        while top > 0 and not a[top]:
            top -= 1
        if t:
            for k in range(top):
                for i in range(top - 1, k - 1, -1):
                    a[i] += t * a[i + 1]
        power = 1
        for k in range(1, top + 1):
            power *= s
            a[k] *= power
    return q ** (len(lines[0]) - 1)


def bernstein_on_rect(p: Poly2, xlo: Scalar, xhi: Scalar, ylo: Scalar, yhi: Scalar
                      ) -> RangeEnclosure:
    """Range enclosure of p on the closed rectangle [xlo, xhi] x [ylo, yhi],
    with the tensor-product Bernstein coefficients b[r][s] it is read from,
    0 <= r <= x-degree, 0 <= s <= y-degree, as integer numerators over one
    positive denominator.

    The rectangle is mapped affinely onto the unit square (x = xlo + wx*u,
    y = ylo + wy*v), so that p = sum of b[r][s]*B_r(u)*B_s(v) with the
    Bernstein basis polynomials B_k(t) = comb(d, k)*t^k*(1 - t)^(d - k).
    These are nonnegative and sum to 1, so the minimum and maximum b[r][s]
    enclose the range.  The enclosure is exact for affine polynomials and
    tightens under subdivision, but is generally not tight before it (x^2
    on [-1, 1] encloses to [-1, 1]); RangeEnclosure.halves gives the two
    halves of a rectangle without another conversion.

    The grid is converted from p's power form.  The transform is separable
    (Titi & Garloff 2019) and runs in integers (Garloff 1986).  p.lift(1, 1),
    p's numerators over their lcm L, fills a dense (dx+1) x (dy+1) grid
    indexed [i][j].  One pass runs per axis, x first: it transposes the grid
    so that each line runs along the axis, shifts and scales each line a of
    degree d to q^d*a((t + s*u)/q), with lo = t/q and w = s/q the axis's low
    end and width, and weights it by M_d*C(r, k)/C(d, k).  The maps commute,
    and b[r][s] is the result over L*qx^dx*M_dx*qy^dy*M_dy.  Each pass costs
    O(d^2) per line, O(dx*dy*(dx + dy)) integer operations in all (direct:
    O(dx^2*dy^2)); no Fraction is built.
    """
    xlo, xhi, ylo, yhi = map(as_fraction, (xlo, xhi, ylo, yhi))
    if xhi <= xlo or yhi <= ylo:
        raise ValueError("rectangle sides must have positive length")
    nums, denominator = p.lift(1, 1)
    dx, dy = max(p.x_degree, 0), max(p.y_degree, 0)
    grid = [[0] * (dy + 1) for _ in range(dx + 1)]
    for (i, j), a in nums.items():
        grid[i][j] = a
    for lo, hi in ((xlo, xhi), (ylo, yhi)):
        lines = [list(line) for line in zip(*grid)]
        denominator *= _shift(lines, lo, hi - lo)
        scale, weights = _weights(len(lines[0]) - 1)
        # tuple() of a list: a tuple built from an iterator is resized, and piles up on the free list.
        grid = [tuple([sum(map(mul, row, line)) for row in weights]) for line in lines]
        denominator *= scale
    return RangeEnclosure(tuple(grid), denominator)


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
