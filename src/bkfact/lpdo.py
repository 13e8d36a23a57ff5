"""Second-order linear partial differential operators and their
factorization residuals.

An operator

    a20*Dxx + a11*Dxy + a02*Dyy + a10(x,y)*Dx + a01(x,y)*Dy + a00(x,y)

with constant rational principal symbol and polynomial lower-order
coefficients has a residual polynomial R, built from a10 and a01 along a
simple rational root omega of the characteristic polynomial

    P2(z) = a20*z^2 + a11*z + a02.

This module decides the residual condition a00 = R.  It is not the same
predicate as factoring into first-order operators: TestReconstruction::
test_residual_truth_and_composition_truth_diverge in tests/test_lpdo.py
pins a counterexample each way.  bk_factors constructs the first-order
factors along a root, and the residual that vanishes iff they compose to op.

With k = 2*a20*omega + a11 (nonzero for a simple root) the residual is

    R = L{N/k} + (N/k)*(M/k),
    N = omega*a10 + a01,
    M = a20*a01 + (a20*omega + a11)*a10,

where the derivative terms of the symbol constants vanish because the symbol
is constant.  The directional derivative L = Dx - w*Dy is taken along the
fixed direction of the largest characteristic root w, for every root: this
drift convention is what makes the residuals of the two roots coincide as
one symbolic expression in the combined coefficients s_i = c_i + omega*d_i
(so R(a10, a01, +1) = R(a10, -a01, -1) exactly), and it is the convention
the closed forms, the coefficient-matching system, and the box-certification
formulas are all written in.

For the canonical hyperbolic symbol (1, 0, -1) with roots omega = +/-1 the
residual collapses to R = L{S} + S^2 with S = (a10 + omega*a01)/2 and
L = Dx - Dy, which this module also implements as an independent code path.

Everything here is pure and immutable; no coordination is needed for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .errors import (
    DegreeTooHighError,
    NoRationalRootsError,
    NotSimpleRootError,
    ZeroLeadingError,
)
from .poly import Poly2, Scalar, as_fraction, char_diff


@dataclass(frozen=True)
class PrincipalSymbol:
    """Constant principal symbol (a20, a11, a02); a20 must be nonzero for
    characteristic roots to exist (checked there, not at construction, so
    that first-order compositions with a vanishing Dxx part stay
    representable)."""

    a20: Fraction
    a11: Fraction
    a02: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a20", as_fraction(self.a20))
        object.__setattr__(self, "a11", as_fraction(self.a11))
        object.__setattr__(self, "a02", as_fraction(self.a02))

    @property
    def is_canonical(self) -> bool:
        """True for the hyperbolic canonical symbol Dxx - Dyy."""
        return (self.a20, self.a11, self.a02) == (1, 0, -1)


CANONICAL_SYMBOL = PrincipalSymbol(Fraction(1), Fraction(0), Fraction(-1))


@dataclass(frozen=True)
class CharRoot:
    """A rational characteristic root; residual and bk_factors check it is simple."""

    omega: Fraction

    def __post_init__(self):
        object.__setattr__(self, "omega", as_fraction(self.omega))


@dataclass(frozen=True, eq=True)
class LPDO2:
    """Second-order operator: constant symbol plus polynomial a10, a01, a00."""

    symbol: PrincipalSymbol
    a10: Poly2
    a01: Poly2
    a00: Poly2

    @classmethod
    def canonical(cls, a10: Poly2 = Poly2.zero(), a01: Poly2 = Poly2.zero(),
                  a00: Poly2 = Poly2.zero()) -> "LPDO2":
        return cls(CANONICAL_SYMBOL, a10, a01, a00)


@dataclass(frozen=True)
class ResidualTrace:
    """Intermediates of a residual computation.

    s is the first-order coefficient N/k, ls its drift derivative (along
    the direction of the symbol's largest root), and s2 the product
    (N/k)*(M/k).  For a canonical symbol M = N, so s2 is literally s
    squared and r = ls + s2 matches the S-form identity.
    """

    s: Poly2
    ls: Poly2
    s2: Poly2
    r: Poly2


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def characteristic_roots(symbol: PrincipalSymbol) -> tuple[CharRoot, CharRoot]:
    """Both rational roots of the characteristic polynomial, ascending.

    Raises ZeroLeadingError when a20 = 0 and NoRationalRootsError when the
    discriminant is negative or not a rational square (which covers the
    elliptic case).  The roots are equal, and neither is simple, iff the
    discriminant is zero.
    """
    if symbol.a20 == 0:
        raise ZeroLeadingError("leading symbol coefficient a20 is zero")
    disc = symbol.a11 * symbol.a11 - 4 * symbol.a20 * symbol.a02
    root = _rational_sqrt(disc)
    if root is None:
        raise NoRationalRootsError(
            f"characteristic discriminant {disc} has no rational square root")
    first = (-symbol.a11 - root) / (2 * symbol.a20)
    second = (-symbol.a11 + root) / (2 * symbol.a20)
    if first > second:
        first, second = second, first
    return (CharRoot(first), CharRoot(second))


def _simple_root_k(symbol: PrincipalSymbol, root: CharRoot) -> Fraction:
    """k = 2*a20*omega + a11 for a simple root omega of a symbol with a20 != 0."""
    if symbol.a20 == 0:
        raise ZeroLeadingError("leading symbol coefficient a20 is zero")
    if (symbol.a20 * root.omega + symbol.a11) * root.omega + symbol.a02 != 0:
        raise ValueError(f"{root.omega} is not a root of the principal symbol")
    k = 2 * symbol.a20 * root.omega + symbol.a11
    if k == 0:
        raise NotSimpleRootError(f"root {root.omega} is not simple")
    return k


def residual(op: LPDO2, root: CharRoot) -> ResidualTrace:
    """Residual R of op along a simple characteristic root.

    A repeated root raises NotSimpleRootError.  The residual condition is
    that op.a00 equals the returned r.  The drift term is differentiated
    along the direction of the largest root of the symbol (see the module
    docstring), which for the canonical symbol is Dx - Dy for both roots.
    """
    k = _simple_root_k(op.symbol, root)
    # The other root by Vieta; the drift is along the larger of the two.
    drift = max(root.omega, -op.symbol.a11 / op.symbol.a20 - root.omega)
    n_poly = root.omega * op.a10 + op.a01
    m_poly = op.symbol.a20 * op.a01 + (op.symbol.a20 * root.omega + op.symbol.a11) * op.a10
    s = n_poly / k
    ls = char_diff(s, drift)
    s2 = s * (m_poly / k)
    return ResidualTrace(s=s, ls=ls, s2=s2, r=ls + s2)


def canonical_residual(a10: Poly2, a01: Poly2, omega: Scalar) -> ResidualTrace:
    """Residual for the canonical symbol via S = (a10 + omega*a01)/2 and
    R = L{S} + S^2 with L = Dx - Dy.

    Independent of residual(); the two must agree exactly on canonical
    operators, which the test suite checks.
    """
    w = as_fraction(omega)
    if w * w != 1:
        raise ValueError("canonical residual requires omega in {1, -1}")
    s = (a10 + w * a01) / 2
    ls = char_diff(s, 1)
    s2 = s * s
    return ResidualTrace(s=s, ls=ls, s2=s2, r=ls + s2)


# Coefficient slots of an (up to) quadratic polynomial
#   s6*x^2 + s5*x*y + s4*y^2 + s3*x + s2*y + s1.
_SLOTS = {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (0, 2), 5: (1, 1), 6: (2, 0)}


@dataclass(frozen=True)
class ReducedCoeffs:
    """Componentwise combination s_i = c_i + omega*d_i of the coefficients of
    a10 (the c's) and a01 (the d's) along the root omega = +/-1.  Degree-1
    inputs leave s4..s6 zero."""

    s1: Fraction
    s2: Fraction
    s3: Fraction
    s4: Fraction
    s5: Fraction
    s6: Fraction
    degree: int


def reduced_coeffs(a10: Poly2, a01: Poly2, sign: int) -> ReducedCoeffs:
    """Collapse the two first-order coefficients into one set of six values.

    sign is +1 or -1 and selects s_i = c_i + d_i or s_i = c_i - d_i.  Inputs
    of total degree above 2 raise DegreeTooHighError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a10.degree > 2 or a01.degree > 2:
        raise DegreeTooHighError("reduced coefficients need total degree <= 2")
    combined = a10 + sign * a01
    values = {idx: combined.coeff(*slot) for idx, slot in _SLOTS.items()}
    degree = 2 if max(a10.degree, a01.degree) == 2 else 1
    return ReducedCoeffs(values[1], values[2], values[3], values[4], values[5],
                         values[6], degree=degree)


def residual_closed_deg1(rc: ReducedCoeffs) -> Poly2:
    """(s3 - s2)/2 + (s3*x + s2*y + s1)^2 / 4, the affine-coefficient
    residual in closed form (s4..s6 are ignored)."""
    linear = Poly2.affine(rc.s3, rc.s2, rc.s1)
    return Poly2.const(Fraction(rc.s3 - rc.s2, 2)) + linear * linear / 4


def residual_closed_deg2(rc: ReducedCoeffs) -> Poly2:
    """Closed-form residual for quadratic coefficients:

        (2*(s6*x - s4*y) + s5*(y - x) + s3 - s2)/2
        + (s6*x^2 + s5*x*y + s4*y^2 + s3*x + s2*y + s1)^2 / 4.
    """
    quad = Poly2({(2, 0): rc.s6, (1, 1): rc.s5, (0, 2): rc.s4,
                  (1, 0): rc.s3, (0, 1): rc.s2, (0, 0): rc.s1})
    drift = Poly2.affine(2 * rc.s6 - rc.s5, rc.s5 - 2 * rc.s4, rc.s3 - rc.s2)
    return drift / 2 + quad * quad / 4


def affine_reduction(op: LPDO2,
                     root: CharRoot) -> tuple[Fraction, Fraction, Fraction, ReducedCoeffs]:
    """(b1, b2, b3, rc) with a00 = b3*x + b2*y + b1 and rc the reduced
    coefficients along root, for a canonical op with affine coefficients."""
    a00 = op.a00
    return (a00.coeff(0, 0), a00.coeff(0, 1), a00.coeff(1, 0),
            reduced_coeffs(op.a10, op.a01, int(root.omega)))


def exactness_system_deg1(op: LPDO2, root: CharRoot) -> tuple[tuple[Fraction, ...], bool]:
    """Residuals of the coefficient-matching system for affine coefficients.

    Matching the closed-form residual against a00 = b3*x + b2*y + b1 monomial
    by monomial gives six quantities that all vanish iff a00 = R along the
    root (the residual condition, see the module docstring):

        s3^2,  2*s3*s2,  s2^2,  s3*s1 - 2*b3,  s2*s1 - 2*b2,
        s1^2 + 2*(s3 - s2) - 4*b1.

    Returns the six values and the all-zero verdict.  The values (not just
    the verdict) are returned because their magnitudes are useful as
    approximate-factorization diagnostics.
    """
    if not op.symbol.is_canonical:
        raise ValueError("exactness system is defined for the canonical symbol")
    if op.a10.degree > 1 or op.a01.degree > 1 or op.a00.degree > 1:
        raise DegreeTooHighError("exactness system needs affine coefficients")
    b1, b2, b3, rc = affine_reduction(op, root)
    values = (
        rc.s3 * rc.s3,
        2 * rc.s3 * rc.s2,
        rc.s2 * rc.s2,
        rc.s3 * rc.s1 - 2 * b3,
        rc.s2 * rc.s1 - 2 * b2,
        rc.s1 * rc.s1 + 2 * (rc.s3 - rc.s2) - 4 * b1,
    )
    return values, all(v == 0 for v in values)


def family_deg1(c3: Scalar, c2: Scalar, c1: Scalar, d1: Scalar, omega: Scalar) -> LPDO2:
    """The full family of canonical operators with affine coefficients that
    satisfy a00 = R (which need not factor; see the module docstring) along
    the root omega = +/-1: a10 = c3*x + c2*y + c1, a01 = -omega*(c3*x +
    c2*y) + d1 and a00 = (c1 + omega*d1)^2 / 4, so that the reduced x and y
    coefficients vanish.
    """
    w = as_fraction(omega)
    c3v, c2v, c1v, d1v = (as_fraction(v) for v in (c3, c2, c1, d1))
    if w * w != 1:
        raise ValueError("family is defined for omega in {1, -1}")
    a10 = Poly2.affine(c3v, c2v, c1v)
    a01 = Poly2.affine(-w * c3v, -w * c2v, d1v)
    a00 = Poly2.const((c1v + w * d1v) ** 2 / 4)
    return LPDO2.canonical(a10, a01, a00)


@dataclass(frozen=True)
class FirstOrderFactor:
    """First-order operator px*Dx + py*Dy + p0 with constant direction."""

    px: Fraction
    py: Fraction
    p0: Poly2

    def __post_init__(self):
        object.__setattr__(self, "px", as_fraction(self.px))
        object.__setattr__(self, "py", as_fraction(self.py))
        if self.px == 0 and self.py == 0:
            raise ValueError("factor needs a nonzero derivative part")

    def apply(self, u: Poly2) -> Poly2:
        return self.px * u.diff("x") + self.py * u.diff("y") + self.p0 * u


def compose_first_order(f: FirstOrderFactor, g: FirstOrderFactor) -> LPDO2:
    """Exact operator composition, expanded so (f  g)u = f(g(u)).

    Writing g(u) = qx*u_x + qy*u_y + q0*u and applying f termwise with the
    Leibniz rule gives

        symbol (px*qx, px*qy + py*qx, py*qy),
        a10 = px*q0 + p0*qx,
        a01 = py*q0 + p0*qy,
        a00 = px*dq0/dx + py*dq0/dy + p0*q0.
    """
    symbol = PrincipalSymbol(f.px * g.px, f.px * g.py + f.py * g.px, f.py * g.py)
    a10 = f.px * g.p0 + f.p0 * g.px
    a01 = f.py * g.p0 + f.p0 * g.py
    a00 = f.px * g.p0.diff("x") + f.py * g.p0.diff("y") + f.p0 * g.p0
    return LPDO2(symbol, a10, a01, a00)


def apply_operator(op: LPDO2, u: Poly2) -> Poly2:
    """Apply the full second-order operator to a polynomial."""
    ux = u.diff("x")
    uy = u.diff("y")
    return (op.symbol.a20 * ux.diff("x") + op.symbol.a11 * ux.diff("y")
            + op.symbol.a02 * uy.diff("y")
            + op.a10 * ux + op.a01 * uy + op.a00 * u)


def bk_factors(op: LPDO2, root: CharRoot) -> tuple[FirstOrderFactor, FirstOrderFactor, Poly2]:
    """(left, right, residual), the Beals-Kartashova factors along a simple root.

    left = Dx - omega*Dy + p and right = a20*Dx + (a11 + a20*omega)*Dy + q
    compose to op's symbol, a10 and a01; the composition equals op iff the
    residual a00 - (Dx - omega*Dy){q} - p*q is zero."""
    k = _simple_root_k(op.symbol, root)
    a20, w = op.symbol.a20, root.omega
    p = (op.a01 + w * op.a10) / k
    q = op.a10 - a20 * p
    left = FirstOrderFactor(1, -w, p)
    right = FirstOrderFactor(a20, op.symbol.a11 + a20 * w, q)
    return left, right, op.a00 - char_diff(q, w) - p * q
