"""Decision procedures and sufficient conditions for bounding a polynomial
on an open box.

The central predicate is "for all (x, y) with |x| < m and |y| < n we have
|D(x, y)| < eps".  Because the region is open, strictness only bites at
points that actually attain an extremum inside: a supremum of exactly eps
that is approached only on the excluded boundary still satisfies the
predicate.  Every procedure here makes that distinction explicitly and
works in exact rational arithmetic, so equality cases are decided, never
approximated.

Three layers are provided:

* closed-form quantifier-free criteria for the instance |a*x^2 + b*x + c| < 4
  on (-1, 1), in the four printed variants (two for a < 0, one for a = 0
  with b != 0, one combined for a <= 0);
* exact decisions for total degree <= 2 on a box, via exact extrema with
  attainment tracking (certify_open_box); the univariate quadratic on
  (-m, m) at any eps is its y-free case;
* certified numerics for higher degree: Bernstein enclosures with recursive
  subdivision, plus a deterministic grid falsifier.

A certificate is CertifiedInside (with a margin), Violated (with an exact
interior witness), or Unknown (with the residual enclosure gap).  Violated
witnesses are always verified by exact evaluation before they are returned;
enclosures alone never produce a violation.

All functions are pure and all values immutable; subdivision visits
subrectangles in a fixed order, so results are deterministic and the module
is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from operator import mul
from typing import ClassVar, Optional, Union

from .errors import DegreeTooHighError, PreconditionViolatedError
from . import poly
from .poly import Box, Poly2, RangeEnclosure, Scalar, as_fraction

Point = tuple[Fraction, Fraction]
DEFAULT_DEPTH = 12  # Bernstein subdivision depth budget


@dataclass(frozen=True)
class UnivQuad:
    """Univariate quadratic a*x^2 + b*x + c (a may be zero)."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "c", as_fraction(self.c))


def _endpoint_conjuncts(q: UnivQuad) -> bool:
    # Limits at x -> -1 and x -> +1 must stay within [-4, 4]; non-strict
    # because the endpoints themselves are outside the open interval.
    a, b, c = q.a, q.b, q.c
    return (c - b + a + 4 >= 0 and c - b + a - 4 <= 0
            and c + b + a + 4 >= 0 and c + b + a - 4 <= 0)


def qf_neg_compact(q: UnivQuad) -> bool:
    """Compact criterion for a < 0: endpoint bounds, and either the vertex
    lies outside [-1, 1] (b - 2a <= 0 or b + 2a >= 0) or its value is
    strictly below 4 (4ac - b^2 - 16a > 0)."""
    if q.a >= 0:
        raise PreconditionViolatedError("criterion requires a < 0")
    a, b, c = q.a, q.b, q.c
    return _endpoint_conjuncts(q) and (
        b - 2 * a <= 0 or b + 2 * a >= 0 or 4 * a * c - b * b - 16 * a > 0)


def qf_neg_casewise(q: UnivQuad) -> bool:
    """Hand-derived three-case criterion for a < 0, split on the vertex
    position -b/(2a) relative to the interval."""
    if q.a >= 0:
        raise PreconditionViolatedError("criterion requires a < 0")
    a, b, c = q.a, q.b, q.c
    case_left = (2 * a - b >= 0 and a + b + c + 4 >= 0 and a - b + c - 4 <= 0)
    case_right = (2 * a + b >= 0 and a - b + c + 4 >= 0 and a + b + c - 4 <= 0)
    case_inside = (2 * a - b < 0 and 2 * a + b < 0
                   and 4 * a * c - b * b - 16 * a > 0
                   and a - b + c + 4 >= 0 and a + b + c + 4 >= 0)
    return case_left or case_right or case_inside


def qf_linear(q: UnivQuad) -> bool:
    """Criterion for a = 0, b != 0: the line is monotone, so the endpoint
    bounds |c - b| <= 4 and |c + b| <= 4 are necessary and sufficient."""
    if q.a != 0 or q.b == 0:
        raise PreconditionViolatedError("criterion requires a = 0 and b != 0")
    return _endpoint_conjuncts(q)


def qf_nonpos_combined(q: UnivQuad) -> bool:
    """Combined criterion for a <= 0, obtained by inserting the disjunct
    a = 0 into the compact a < 0 form.

    Known boundary artifact: at a = 0, b = 0, |c| = 4 this formula evaluates
    true while the predicate is false (a constant of magnitude exactly 4 is
    not strictly inside).  It is evaluated as printed; callers that need
    soundness on that degenerate set must exclude it, as
    univariate_sufficient() does.
    """
    if q.a > 0:
        raise PreconditionViolatedError("criterion requires a <= 0")
    a, b, c = q.a, q.b, q.c
    return _endpoint_conjuncts(q) and (
        b - 2 * a <= 0 or b + 2 * a >= 0
        or 4 * a * c - b * b - 16 * a > 0 or a == 0)


def quad_interval_decision(q: UnivQuad, m: Scalar, eps: Scalar) -> bool:
    """Exact truth of: for all x in (-m, m), |q(x)| < eps.

    This is the y-free case of certify_open_box, on the box (-m, m) x (-1, 1):
    an extremum of magnitude exactly eps is acceptable only when it is
    attained at the excluded endpoints alone.
    """
    d = Poly2({(2, 0): q.a, (1, 0): q.b, (0, 0): q.c})
    return certify_open_box(CertRequest(d, Box(m, 1), eps)).kind == "inside"


def quad_from_reduced(b1: Scalar, b3: Scalar, s1: Scalar, s3: Scalar) -> UnivQuad:
    """The univariate quadratic of the y-free box problem, after clearing the
    denominator 4:  a = -s3^2, b = 4*b3 - 2*s1*s3, c = 4*b1 - 2*s3 - s1^2.
    The leading coefficient is never positive."""
    b1v, b3v, s1v, s3v = (as_fraction(v) for v in (b1, b3, s1, s3))
    return UnivQuad(-s3v * s3v, 4 * b3v - 2 * s1v * s3v, 4 * b1v - 2 * s3v - s1v * s1v)


def univariate_sufficient(b1: Scalar, b3: Scalar, s1: Scalar, s3: Scalar) -> bool:
    """Exact decision of the y-free instance: |4*b3*x + 4*b1 - 2*s3 -
    (s3*x + s1)^2| < 4 for all x in (-1, 1).

    Uses the combined a <= 0 criterion, with the constant case decided
    directly so the criterion's boundary artifact at a = b = 0, |c| = 4
    cannot produce an unsound answer.
    """
    q = quad_from_reduced(b1, b3, s1, s3)
    if q.a == 0 and q.b == 0:
        return abs(q.c) < 4
    return qf_nonpos_combined(q)


def lifted_sufficient(b1: Scalar, b2: Scalar, b3: Scalar,
                      s1: Scalar, s2: Scalar, s3: Scalar) -> bool:
    """Sufficient condition for the full box predicate at eps = m = n = 1 on
    a00 = b3*x + b2*y + b1 and the residual of s3*x + s2*y + s1 (floats
    raise TypeError): both y-coefficients vanish and the y-free instance holds.

    When b2 = s2 = 0 the difference polynomial has no y terms, so the box
    quantifier collapses to the x interval and the lift is sound (and, with
    the exact constant case above, complete for b2 = s2 = 0 instances).
    """
    b1, b2, b3, s1, s2, s3 = (as_fraction(v) for v in (b1, b2, b3, s1, s2, s3))
    return b2 == 0 and s2 == 0 and univariate_sufficient(b1, b3, s1, s3)


def triangle_sufficient(d: Poly2, box: Box, eps: Scalar) -> bool:
    """Coefficient-wise sufficient condition: sum over monomials of
    |coeff| * m^i * n^j strictly below eps bounds sup |d| on the closed box,
    hence certifies the open-box predicate.

    Decided in integers on the lift L*d(m*u, n*v) = sum of c[i, j]*u^i*v^j,
    whose |c[i, j]| are L*|coeff|*m^i*n^j: sum |c| * q < p * L for eps = p/q.
    """
    ev = as_fraction(eps)
    if ev <= 0:
        raise ValueError("tolerance must be positive")
    lifted, scale = d.lift(box.m, box.n)
    return sum(map(abs, lifted.values())) * ev.denominator < ev.numerator * scale


# ---------------------------------------------------------------------------
# Exact extrema of a bivariate quadratic on a closed rectangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extrema:
    """Exact extrema over the closed box with their attaining points.

    The point tuples hold exact attaining points (all corner, edge-vertex
    and isolated critical attainers; one representative point when a whole
    critical segment attains, in the open box if the segment meets it), so
    a value is attained in the open box iff one of its points is there.
    """

    min_val: Fraction
    max_val: Fraction
    min_points: tuple[Point, ...]
    max_points: tuple[Point, ...]


def _chord_middle(p: int, q: int, r: int) -> Optional[Fraction]:
    """Middle of the w-range of the chord of the line p*w + q*z + r = 0
    through [-1, 1]^2, i.e. of |w| <= 1 with |p*w + r| <= |q|; None if the
    line misses the square."""
    lo, hi = Fraction(-1), Fraction(1)
    if p:
        ends = sorted((Fraction(-r - abs(q), p), Fraction(abs(q) - r, p)))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    elif abs(r) > abs(q):
        return None
    return (lo + hi) / 2 if lo <= hi else None


def quad_box_extrema(d: Poly2, box: Box) -> Extrema:
    """Exact minimum and maximum of a total-degree <= 2 polynomial on the
    closed box, with exact attainment bookkeeping.

    One integer lift does the work: with x = m*u, y = n*v and L from
    d.lift(m, n), L*d(m*u, n*v) = A*u^2 + B*u*v + C*v^2 + D*u + E*v + F on the
    unit square.  Candidates are the four corners, each edge vertex strictly
    inside its edge (|B*v + D| < 2|A| on v = +-1, |B*u + E| < 2|C| on
    u = +-1), and, for det = 4AC - B^2 != 0, the stationary point
    (nu, nv)/det = (B*E - 2C*D, B*D - 2A*E)/det if it lies in the closed
    square, of value (2F*det + D*nu + E*nv)/(2*det*L).  For det = 0 the
    gradient rows (2A, B, D) and (B, 2C, E) must have rank <= 1 for a
    critical point to exist: then d is constant (a candidate attained in the
    open box) or constant along the line p*u + q*v + r = 0 of the first
    nonzero row, whose chord through the square adds its midpoint, valued by
    d.eval.  Only candidates become Fractions.  An extremum over the closed
    box is always attained at a candidate.
    """
    if d.degree > 2:
        raise DegreeTooHighError("exact box extrema require total degree <= 2")
    m, n = box.m, box.n
    lifted, scale = d.lift(m, n)
    a, b, c, du, dv, f = (lifted.get(key, 0)
                          for key in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    candidates = [((x, y), Fraction(a + c + f + b * u * v + du * u + dv * v, scale))
                  for u, x in ((-1, -m), (1, m)) for v, y in ((-1, -n), (1, n))]
    for s in (-1, 1):
        # Edge v = s restricts to a*u^2 + qb*u + ..., edge u = s to c*v^2 + qb*v + ...
        for lead, qb, rest, horizontal in ((a, b * s + du, c + dv * s + f, True),
                                           (c, b * s + dv, a + du * s + f, False)):
            if abs(qb) < 2 * abs(lead):
                t = Fraction(-qb, 2 * lead)
                candidates.append(((t * m, s * n) if horizontal else (s * m, t * n),
                                   Fraction(4 * lead * rest - qb * qb, 4 * lead * scale)))
    det = 4 * a * c - b * b
    if det:
        nu, nv = b * dv - 2 * c * du, b * du - 2 * a * dv
        if abs(nu) <= abs(det) and abs(nv) <= abs(det):
            candidates.append(((Fraction(nu, det) * m, Fraction(nv, det) * n),
                               Fraction(2 * f * det + du * nu + dv * nv, 2 * det * scale)))
    elif a == b == c == 0:
        if du == dv == 0:  # a constant is attained everywhere; affine d has no critical point
            candidates.append(((Fraction(0), Fraction(0)), Fraction(f, scale)))
    elif 2 * a * dv == b * du and b * dv == 2 * c * du:
        p, q, r = (2 * a, b, du) if a else (b, 2 * c, dv)  # det = 0 and a = 0 force b = 0
        u, v = _chord_middle(p, q, r), _chord_middle(q, p, r)
        if u is not None and v is not None:
            # A chord meets the open square iff its midpoint does.
            point = (u * m, v * n)
            candidates.append((point, d.eval(*point)))
    max_val = max(value for _, value in candidates)
    min_val = min(value for _, value in candidates)
    return Extrema(min_val=min_val, max_val=max_val,
                   min_points=tuple(sorted({pt for pt, v in candidates if v == min_val})),
                   max_points=tuple(sorted({pt for pt, v in candidates if v == max_val})))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedInside:
    """|D| < eps throughout the open box; margin is a valid lower bound on
    eps minus the supremum of |D| over the open box (zero when the supremum
    equals eps on the excluded boundary)."""

    kind: ClassVar[str] = "inside"
    margin: Fraction

    def __post_init__(self):
        object.__setattr__(self, "margin", as_fraction(self.margin))
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


@dataclass(frozen=True)
class Violated:
    """An exact witness strictly inside the open box with |value| >= eps."""

    kind: ClassVar[str] = "violated"
    witness: Point
    value: Fraction


@dataclass(frozen=True)
class Unknown:
    """Subdivision exhausted its depth budget; gap is the worst remaining
    enclosure overshoot beyond (-eps, eps).

    D is a convex combination of its Bernstein coefficients, so a leaf whose
    coefficients show |D| = eps only on the outer box boundary is certified
    instead (see bernstein_certify).  A supremum of exactly eps approached
    only on the boundary still ends here when the coefficients cannot show
    it, e.g. when it is reached at no subrectangle corner."""

    kind: ClassVar[str] = "unknown"
    gap: Fraction


Certificate = Union[CertifiedInside, Violated, Unknown]


@dataclass(frozen=True)
class CertRequest:
    """A certification problem: difference polynomial, box, tolerance, and
    the subdivision depth budget used by the Bernstein path."""

    d: Poly2
    box: Box
    eps: Fraction
    max_depth: int = DEFAULT_DEPTH

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if self.eps <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_depth < 0:
            raise ValueError("depth budget must be nonnegative")


def _inward_witness(d: Poly2, boundary_point: Point, eps: Fraction, sign: int) -> Violated:
    """Shrink a boundary attainer toward the box center until the violation
    shows up strictly inside.

    Scaling toward the origin strictly reduces both coordinate magnitudes,
    and d is continuous with |d| > eps at the boundary point, so the loop
    terminates with an exactly verified interior witness.
    """
    bx, by = boundary_point
    s = Fraction(1, 2)  # the factor 1 - t for t = 1/2, 1/4, 1/8, ...
    while True:
        candidate = (s * bx, s * by)
        value = d.eval(*candidate)
        if sign * value >= eps:
            return Violated(witness=candidate, value=value)
        s = (1 + s) / 2


def certify_open_box(request: CertRequest) -> Certificate:
    """Decide |D| < eps on the open box.

    For total degree <= 2 the decision is exact and never Unknown: the
    closed-box extrema are compared against eps with the open-box
    strictness rule (an extremum equal to eps is tolerated only when none
    of its points lies in the open box), the maximum first.  Violations
    return an interior witness: the first attainer in the open box, else a
    point pulled inward from the first boundary attainer and verified by
    exact evaluation.  Higher degrees delegate to bernstein_certify.
    """
    d = request.d
    if d.degree > 2:
        return bernstein_certify(request)
    eps, box = request.eps, request.box
    ext = quad_box_extrema(d, box)
    for extreme, points, sign in ((ext.max_val, ext.max_points, +1),
                                  (-ext.min_val, ext.min_points, -1)):
        if extreme < eps:
            continue
        for point in points:
            if box.contains_open(*point):
                return Violated(witness=point, value=d.eval(*point))
        if extreme > eps:
            return _inward_witness(d, points[0], eps, sign)
    return CertifiedInside(margin=eps - max(ext.max_val, -ext.min_val))


def _touches_only_outer_boundary(grid: tuple[tuple[int, ...], ...], level: int,
                                 outer_x: tuple[bool, bool], outer_y: tuple[bool, bool]
                                 ) -> bool:
    """For Bernstein numerators all in [-level, level]: true iff some face's
    block equals +-level and every such face lies on the outer box boundary
    (outer_x: left and right sides on x = -m and x = m; outer_y likewise)."""
    reached = False
    for rows, on_x in ((grid[:1], outer_x[0]), (grid[-1:], outer_x[1]), (grid, False)):
        for cols, on_y in ((slice(1), outer_y[0]), (slice(-1, None), outer_y[1]),
                           (slice(None), False)):
            block = {b for row in rows for b in row[cols]}
            if len(block) == 1 and abs(block.pop()) == level:
                if not (on_x or on_y):
                    return False
                reached = True
    return reached


def bernstein_on_rect(d: Poly2, xlo: Fraction, xhi: Fraction, ylo: Fraction, yhi: Fraction,
                      *, node: Optional[RangeEnclosure] = None) -> RangeEnclosure:
    """d's enclosure on the node [xlo, xhi] x [ylo, yhi] of bernstein_certify:
    poly.bernstein_on_rect at the root, node (a half of its parent's) below.
    Called once per node with positional arguments, so that the tracer in
    bench/spans.py and the tests can wrap this name and see every node; it
    goes once the tracer counts nodes inside bernstein_certify."""
    return poly.bernstein_on_rect(d, xlo, xhi, ylo, yhi) if node is None else node


def bernstein_certify(request: CertRequest) -> Certificate:
    """Certify |D| < eps on the open box by Bernstein subdivision.

    Each subrectangle whose enclosure lies strictly inside (-eps, eps) is
    certified.  So is one whose Bernstein coefficients b[r][s] all lie in
    [-eps, eps] and show that D reaches +-eps only on the outer box
    boundary.  The basis functions are nonnegative and sum to 1, and at a
    point (u, v) of the unit square those of the block I(u) x J(v) are
    positive, where I(0) = {0}, I(1) = {dx} and I(u) = {0..dx} for
    0 < u < 1 (J likewise in v).  So D equals +-eps exactly on the faces
    (interior, open edges, corners) whose whole block equals +-eps.  If such
    faces exist and all lie on x = +-m or y = +-n, which the open box
    excludes, the supremum of |D| is eps and the certificate's margin is 0.

    Otherwise the subrectangle center (always strictly inside the original
    box) is checked for a violation, and the rectangle is bisected along its
    longer side (ties split x) until the depth budget runs out.  Remaining
    rectangles produce Unknown with the largest enclosure overshoot as the
    gap.  The traversal order is fixed, so results are deterministic.

    Only the root's enclosure is converted from D's power form.  Nodes are
    decided in integers on the enclosure's numerators over its denominator
    Q: for top = Q*max|b| and eps = p/q, max|b| < eps is top*q < p*Q, and at
    equality the face rule compares the numerators with top = eps*Q.  The
    center value is read off the grid, as S/(Q*2^(dx+dy)) with S = sum of
    C(dx, r)*C(dy, s)*numerators[r][s], and d.eval runs only to confirm a
    witness.  After kx splits along x and ky along y the sides are 2m/2^kx
    and 2n/2^ky, compared in integers; depth is kx + ky.  A split builds its
    one midpoint and pushes both halves(axis) of the enclosure, one de
    Casteljau triangle, with their rectangles, upper first; each node's
    enclosure then comes through the bernstein_on_rect hook.
    """
    d = request.d
    eps = request.eps
    box = request.box
    dx, dy = max(d.x_degree, 0), max(d.y_degree, 0)
    x_weights, y_weights = ([comb(k, r) for r in range(k + 1)] for k in (dx, dy))
    x_side, y_side = box.m.numerator * box.n.denominator, box.n.numerator * box.m.denominator
    worst_inside = (0, 1)  # the largest max|b| as (numerator, denominator)
    worst_leaf = (0, 1)  # a depth-capped leaf's max|b| is at least eps > 0
    stack: list[tuple[Fraction, Fraction, Fraction, Fraction, int, int,
                      Optional[RangeEnclosure]]] = [(-box.m, box.m, -box.n, box.n, 0, 0, None)]
    while stack:
        xlo, xhi, ylo, yhi, kx, ky, node = stack.pop()
        enclosure = bernstein_on_rect(d, xlo, xhi, ylo, yhi, node=node)
        grid, scale = enclosure.numerators, enclosure.denominator
        top = max(map(abs, chain.from_iterable(grid)))
        lhs, rhs = top * eps.denominator, eps.numerator * scale
        if lhs < rhs or (lhs == rhs and _touches_only_outer_boundary(
                grid, top, (xlo == -box.m, xhi == box.m), (ylo == -box.n, yhi == box.n))):
            if top * worst_inside[1] > worst_inside[0] * scale:
                worst_inside = (top, scale)
            continue
        center = sum(map(mul, x_weights, [sum(map(mul, y_weights, row)) for row in grid]))
        if abs(center) * eps.denominator >= eps.numerator * (scale << (dx + dy)):
            witness = ((xlo + xhi) / 2, (ylo + yhi) / 2)
            value = d.eval(*witness)
            if abs(value) >= eps:
                return Violated(witness=witness, value=value)
        if kx + ky < request.max_depth:
            if x_side << ky >= y_side << kx:
                kx, mid = kx + 1, (xlo + xhi) / 2
                lower, upper = enclosure.halves("x")
                stack += [(mid, xhi, ylo, yhi, kx, ky, upper), (xlo, mid, ylo, yhi, kx, ky, lower)]
            else:
                ky, mid = ky + 1, (ylo + yhi) / 2
                lower, upper = enclosure.halves("y")
                stack += [(xlo, xhi, mid, yhi, kx, ky, upper), (xlo, xhi, ylo, mid, kx, ky, lower)]
        elif top * worst_leaf[1] > worst_leaf[0] * scale:
            worst_leaf = (top, scale)
    if worst_leaf[0]:
        return Unknown(gap=Fraction(*worst_leaf) - eps)
    return CertifiedInside(margin=eps - Fraction(*worst_inside))


def sample_falsify(request: CertRequest, grid_k: int) -> Optional[Violated]:
    """Scan the interior grid (m*i/K, n*j/K), |i|,|j| < K, for |D| >= eps.

    Points are visited row-major (i ascending outermost, then j).  The scan
    is exact: d.lift(m/K, n/K) gives integers c and L with L*D(m*i/K, n*j/K)
    = sum of c*i^a*j^b, so each grid value is an integer polynomial at the
    integer point (i, j), compared against eps*L.  Row i holds, for each
    j^b, the sum of its terms' c*i^a; Horner evaluates the row at each j.
    The first hit is confirmed by d.eval and returned as a Violated
    certificate; None after a full sweep, or if d.eval were ever to disagree.
    """
    if grid_k < 2:
        raise ValueError("grid resolution must be at least 2")
    d = request.d
    m, n, eps = request.box.m, request.box.n, request.eps
    lifted, scale = d.lift(m / grid_k, n / grid_k)
    t_num, t_den = eps.numerator * scale, eps.denominator  # |value| >= eps*L
    span = range(-(grid_k - 1), grid_k)
    for i in span:
        row = [0] * (d.y_degree + 1)  # the coefficients in j at x = m*i/K
        for (a, b), c in lifted.items():
            row[b] += c * i ** a
        # A row without y dependence has one value: its first point decides it.
        for j in span if any(row[1:]) else span[:1]:
            value = 0
            for coeff in reversed(row):
                value = value * j + coeff
            if abs(value) * t_den >= t_num:
                witness = (Fraction(i, grid_k) * m, Fraction(j, grid_k) * n)
                exact = d.eval(*witness)
                return Violated(witness=witness, value=exact) if abs(exact) >= eps else None
    return None
