"""Seeded corpus generation for the three benchmark workloads.

Everything here is independent of the bkfact package: polynomials are plain
dicts {(i, j): Fraction} with zero coefficients dropped, and residuals are
computed from the formula documented in bkfact.lpdo,

    R = (Dx - w*Dy){N/k} + (N/k)*(M/k),   k = 2*a20*omega + a11,
    N = omega*a10 + a01,   M = a20*a01 + (a20*omega + a11)*a10,

with w the largest characteristic root.  The program under test only ever
sees the generated text.

Certification cases are built backwards from a chosen difference g: the
generator picks a10 and a01, computes R, and hands the program
a00 = R + g, so the program's difference a00 - R is g.  Each g is a
constant plus pieces whose exact range on the box is known (one piece per
variable, or a single monomial in x and y), which gives the exact supremum
of |g| over the open box and whether it is attained at an interior point.
That is the case's truth label: inside when sup < eps, or sup = eps reached
only on the excluded boundary; violated otherwise.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

Poly = dict  # {(i, j): Fraction}, no zero values

ONE: Poly = {(0, 0): F(1)}


def padd(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for key, c in p.items():
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def pscale(p: Poly, s) -> Poly:
    return {key: c * s for key, c in p.items()} if s else {}


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def ppow(p: Poly, e: int) -> Poly:
    out = ONE
    for _ in range(e):
        out = pmul(out, p)
    return out


def pdiff(p: Poly, axis: str) -> Poly:
    if axis == "x":
        return {(i - 1, j): c * i for (i, j), c in p.items() if i}
    return {(i, j - 1): c * j for (i, j), c in p.items() if j}


def peval(p: Poly, x: F, y: F) -> F:
    return sum((c * x ** i * y ** j for (i, j), c in p.items()), F(0))


def pdegree(p: Poly) -> int:
    return max((i + j for i, j in p), default=-1)


def affine(cx, cy, c0) -> Poly:
    return padd({(1, 0): F(cx)}, {(0, 1): F(cy)}, {(0, 0): F(c0)})


def _monomial_text(i: int, j: int) -> list[str]:
    parts = []
    for var, e in (("x", i), ("y", j)):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return parts


def ptext(p: Poly, rng: Optional[random.Random] = None) -> str:
    """Polynomial text; with an rng the term order is shuffled, so that the
    program's parser sees non-canonical input."""
    if not p:
        return "0"
    items = sorted(p.items(), key=lambda item: (-sum(item[0]), -item[0][0]))
    if rng is not None:
        rng.shuffle(items)
    out = []
    for idx, ((i, j), c) in enumerate(items):
        parts = _monomial_text(i, j)
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not parts else []) + parts)
        if idx == 0:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


# ---------------------------------------------------------------------------
# Symbols and the reference residual
# ---------------------------------------------------------------------------

CANONICAL = (F(1), F(0), F(-1))


@dataclass(frozen=True)
class Symbol:
    a20: F
    a11: F
    a02: F
    roots: tuple[F, F]  # ascending, distinct

    @property
    def canonical(self) -> bool:
        return (self.a20, self.a11, self.a02) == CANONICAL

    def flags(self) -> list[str]:
        if self.canonical:
            return []
        return [f"--a20={self.a20}", f"--a11={self.a11}", f"--a02={self.a02}"]


def canonical_symbol() -> Symbol:
    return Symbol(*CANONICAL, roots=(F(-1), F(1)))


def random_symbol(rng: random.Random) -> Symbol:
    """A non-canonical symbol p*(z - r1)*(z - r2) with distinct rational roots."""
    while True:
        r1, r2 = rand_q(rng, 3, (1, 2, 3)), rand_q(rng, 3, (1, 2, 3))
        if r1 != r2:
            break
    p = rand_q(rng, 4, (1, 2, 3), nonzero=True)
    sym = Symbol(p, -p * (r1 + r2), p * r1 * r2, roots=tuple(sorted((r1, r2))))
    return canonical_symbol() if sym.canonical else sym


def ref_residual(sym: Symbol, a10: Poly, a01: Poly, omega: F) -> Poly:
    k = 2 * sym.a20 * omega + sym.a11
    w = sym.roots[1]
    s = pscale(padd(pscale(a10, omega), a01), 1 / k)
    m_over_k = pscale(padd(pscale(a01, sym.a20), pscale(a10, sym.a20 * omega + sym.a11)), 1 / k)
    drift = padd(pdiff(s, "x"), pscale(pdiff(s, "y"), -w))
    return padd(drift, pmul(s, m_over_k))


def rand_q(rng: random.Random, num: int, dens=(1, 2, 3, 4, 5, 7), nonzero=False) -> F:
    while True:
        value = F(rng.randint(-num, num), rng.choice(dens))
        if value or not nonzero:
            return value


# ---------------------------------------------------------------------------
# Differences with a known supremum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """g with its exact range [lo, hi] over the closed box, and whether each
    end is attained at a point of the open box."""

    g: Poly
    lo: F
    hi: F
    lo_in: bool
    hi_in: bool

    def scaled(self, t: F) -> "Shape":
        assert t > 0
        return Shape(pscale(self.g, t), self.lo * t, self.hi * t, self.lo_in, self.hi_in)

    @property
    def sup(self) -> F:
        return max(self.hi, -self.lo)

    @property
    def sup_interior(self) -> bool:
        return (self.hi_in and self.hi == self.sup) or (self.lo_in and -self.lo == self.sup)


def const_shape(c0: F) -> Shape:
    return Shape({(0, 0): c0} if c0 else {}, c0, c0, True, True)


def piece(axis: str, a: F, p: F, k: int, h: F) -> Shape:
    """a*(t - p)^k for t = x or y ranging over (-h, h), with |p| < h."""
    if a == 0:
        return const_shape(F(0))
    base = affine(1, 0, -p) if axis == "x" else affine(0, 1, -p)
    poly = pscale(ppow(base, k), a)
    if k % 2:
        ends = sorted((a * (-h - p) ** k, a * (h - p) ** k))
        return Shape(poly, ends[0], ends[1], False, False)
    top = a * max(h + p, h - p) ** k
    if a > 0:
        return Shape(poly, F(0), top, True, False)
    return Shape(poly, top, F(0), False, True)


def cross(c: F, i: int, j: int, m: F, n: F) -> Shape:
    """c*x^i*y^j with i, j >= 1."""
    top = abs(c) * m ** i * n ** j
    poly = {(i, j): c}
    if i % 2 or j % 2:
        return Shape(poly, -top, top, False, False)
    if c > 0:
        return Shape(poly, F(0), top, True, False)
    return Shape(poly, -top, F(0), False, True)


def combine(*shapes: Shape) -> Shape:
    """Sum of shapes in separate variables (the caller guarantees that)."""
    return Shape(padd(*(s.g for s in shapes)),
                 sum((s.lo for s in shapes), F(0)), sum((s.hi for s in shapes), F(0)),
                 all(s.lo_in for s in shapes), all(s.hi_in for s in shapes))


@dataclass(frozen=True)
class Truth:
    sup: F            # exact sup |d| over the open box
    interior: bool    # sup attained at an interior point
    eps: F

    @property
    def inside(self) -> bool:
        return self.sup < self.eps or (self.sup == self.eps and not self.interior)


# ---------------------------------------------------------------------------
# Certification cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertCase:
    cid: int
    klass: str
    sym: Symbol
    a10: Poly
    a01: Poly
    a00: Poly
    texts: tuple[str, str, str]  # a10, a01, a00 as given to the program
    root: str                    # "all" or one root
    omegas: tuple[F, ...]        # requested roots, ascending
    eps: F
    m: F
    n: F
    depth: int
    grid: int
    residual: Poly               # R, identical for every requested root
    g: Poly                      # the difference a00 - R
    truth: Truth

    def flags(self) -> list[str]:
        # --flag=value throughout: argparse would take a separate "-4/3" for a flag.
        return (self.sym.flags()
                + [f"--a10={self.texts[0]}", f"--a01={self.texts[1]}", f"--a00={self.texts[2]}",
                   f"--root={self.root}", f"--eps={self.eps}", f"--m={self.m}", f"--n={self.n}",
                   f"--depth={self.depth}", f"--grid={self.grid}"])

    def batch_line(self) -> str:
        return " ".join(shlex.quote(tok) for tok in self.flags())


def _operator(rng: random.Random, a10_degree: int, affine_a01: bool, two_roots: bool):
    """Symbol, a10, a01 and the requested roots.  Two roots ('all') only
    where both share one residual (canonical symbol, a01 = 0), so the truth
    label of g holds for every requested root; otherwise one root of a
    canonical or random non-canonical symbol."""
    a10 = {}
    for i in range(a10_degree + 1):
        for j in range(a10_degree + 1 - i):
            if rng.random() < 0.7:
                a10 = padd(a10, {(i, j): rand_q(rng, 3)})
    if two_roots:
        sym = canonical_symbol()
        return sym, a10, {}, "all", sym.roots
    sym = canonical_symbol() if rng.random() < 0.5 else random_symbol(rng)
    a01 = affine(rand_q(rng, 2), rand_q(rng, 2), rand_q(rng, 2)) if affine_a01 else {}
    omega = rng.choice(sym.roots)
    return sym, a10, a01, str(omega), (omega,)


def _cert_case(rng, cid, klass, shape: Shape, target: F, eps, box, depth, grid,
               operator: tuple) -> CertCase:
    shape = shape.scaled(target / shape.sup)
    sym, a10, a01, root, omegas = _operator(rng, *operator)
    residual = ref_residual(sym, a10, a01, omegas[0])
    a00 = padd(residual, shape.g)
    texts = (ptext(a10, rng), ptext(a01, rng), ptext(a00, rng))
    return CertCase(cid, klass, sym, a10, a01, a00, texts, root, omegas, eps, box[0], box[1],
                    depth, grid, residual, shape.g, Truth(shape.sup, shape.sup_interior, eps))


def _cycle(options, slot: int):
    """Structural parameters cycle with the slot, so every seed gets the same
    mix of them; the seed varies coefficients, shifts and operators."""
    return options[slot % len(options)]


def _slots(plan: list[str], count: int):
    seen: dict = {}
    for cid in range(count):
        klass = plan[cid % len(plan)]
        seen[klass] = seen.get(klass, -1) + 1
        yield cid, klass, seen[klass]


_BOXES = ((F(1), F(1)), (F(1), F(1, 2)), (F(1, 2), F(1)), (F(2), F(3, 4)), (F(3, 4), F(2)))
_EPSILONS = (F(1), F(1, 2), F(3, 2), F(2), F(5, 3))


def _inner(rng, h: F) -> F:
    """A point strictly inside (-h, h)."""
    return h * F(rng.randint(-3, 3), 4)


def _lowdeg_shape(rng, kind: str, m, n) -> Shape:
    c0 = rand_q(rng, 3)
    if kind == "affine":
        return combine(const_shape(c0), piece("x", rand_q(rng, 3, nonzero=True), F(0), 1, m),
                       piece("y", rand_q(rng, 3), F(0), 1, n))
    if kind == "cross":
        return combine(const_shape(c0), cross(rand_q(rng, 3, nonzero=True), 1, 1, m, n))
    px = piece("x", rand_q(rng, 3, nonzero=True), _inner(rng, m), 2, m)
    py = piece("y", rand_q(rng, 3, nonzero=True), _inner(rng, n), 2 if kind == "sep2" else 1, n)
    return combine(const_shape(c0), px, py)


_LOWDEG_PLAN = ["inside", "violated", "theorem1", "tight-boundary", "inside", "theorem1",
                "tight-interior", "violated", "inside", "theorem1", "tight-boundary", "inside",
                "violated", "theorem1", "tight-interior", "inside", "violated", "theorem1",
                "tight-boundary", "inside"]


def lowdeg_cases(seed: int, count: int) -> list[CertCase]:
    """Affine and quadratic differences for batch certify.

    Classes (fixed shares): margin-inside, violated, boundary-tight
    (sup = eps on the boundary only: inside with margin 0), interior-tight
    (sup = eps at an interior point: violated), and theorem1 lines
    (canonical, eps = m = n = 1, affine coefficients, one root).
    """
    rng = random.Random(f"lowdeg-{seed}")
    cases = []
    for cid, klass, slot in _slots(_LOWDEG_PLAN, count):
        if klass == "theorem1":
            cases.append(_theorem1_case(rng, cid))
            continue
        # Only two quadratic pieces can peak at an interior point.
        kind = ("sep2" if klass == "tight-interior"
                else _cycle(("affine", "sep1", "sep2", "cross"), slot))
        eps, box = _cycle(_EPSILONS, slot), _cycle(_BOXES, slot // 2)
        operator = (_cycle((1, 1, 2), slot), _cycle((False, True), slot // 3),
                    _cycle((True, False), slot // 6))
        while True:
            shape = _lowdeg_shape(rng, kind, *box)
            if shape.sup == 0:
                continue
            if klass == "tight-boundary":
                target = eps
                if shape.sup_interior:
                    continue
            elif klass == "tight-interior":
                target = eps
                if not shape.sup_interior:
                    continue
            elif klass == "inside":
                target = eps * F(rng.randint(20, 95), 100)
            else:
                target = eps * F(rng.randint(101, 200), 100)
            break
        cases.append(_cert_case(rng, cid, klass, shape, target, eps, box, 12, 0, operator))
    return cases


def _theorem1_case(rng, cid) -> CertCase:
    # a10 = c3*x + c2*y + c1, a01 = c3*x + c2*y + d1 along omega = -1 gives a
    # constant S, so R is constant and a00 = R + g stays affine.
    c3, c2, c1, d1 = (rand_q(rng, 3) for _ in range(4))
    sym = canonical_symbol()
    a10, a01 = affine(c3, c2, c1), affine(c3, c2, d1)
    omega = F(-1)
    residual = ref_residual(sym, a10, a01, omega)
    shape = combine(const_shape(rand_q(rng, 3)),
                    piece("x", rand_q(rng, 3, nonzero=True), F(0), 1, F(1)),
                    piece("y", rand_q(rng, 2), F(0), 1, F(1)) if rng.random() < 0.5
                    else const_shape(F(0)))
    eps = F(1)
    shape = shape.scaled(eps * F(rng.randint(30, 130), 100) / shape.sup)
    a00 = padd(residual, shape.g)
    texts = (ptext(a10, rng), ptext(a01, rng), ptext(a00, rng))
    return CertCase(cid, "theorem1", sym, a10, a01, a00, texts, "-1", (omega,), eps, F(1),
                    F(1), 12, 0, residual, shape.g, Truth(shape.sup, shape.sup_interior, eps))


_HIGHDEG_PLAN = ["inside", "near-tangent", "tight-boundary", "near-tangent", "early-violation",
                 "near-tangent", "inside", "near-tangent", "grid-hit", "near-tangent",
                 "inside", "near-tangent", "tight-boundary", "near-tangent", "early-violation",
                 "near-tangent", "inside", "near-tangent", "grid-miss", "near-tangent"]


def highdeg_cases(seed: int, count: int) -> list[CertCase]:
    """Degree 3-6 differences that take the Bernstein path.

    Classes: inside with a clear margin (one or a few enclosures),
    near-tangent interior peaks (sup = eps*(1 - delta), many enclosures),
    early interior violations, boundary-tight (sup = eps on the boundary only:
    inside, but Unknown(gap=0) at this commit, a known defect kept visible),
    and grid cases (Unknown from Bernstein, then the grid falsifier: a late
    boundary violation it finds, a boundary-tight case it cannot falsify).
    Half the cases are near-tangent, so the median problem is one of them.
    """
    rng = random.Random(f"highdeg-{seed}")
    cases = []
    for cid, klass, slot in _slots(_HIGHDEG_PLAN, count):
        eps, box = _cycle(_EPSILONS[:4], slot), _cycle(_BOXES[:3], slot // 2)
        m, n = box
        depth, grid = 12, 0
        # The Bernstein cost depends on g alone, and g is fixed by the slot
        # up to a mirror image (which leaves a full subdivision tree the
        # same size); the seed picks the mirror signs and the operator.
        sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
        operator = (_cycle((0, 1, 2), slot), False, False)
        if klass == "inside":
            shape = combine(const_shape(_cycle((F(0), F(1, 2), F(-1, 3)), slot)),
                            piece("x", sx * _cycle((F(1), F(-2, 3), F(3, 2)), slot),
                                  sx * m * _cycle((F(0), F(1, 4), F(1, 2)), slot // 3),
                                  _cycle((3, 4, 5, 6), slot), m),
                            piece("y", sy * _cycle((F(1, 2), F(-1), F(2, 3)), slot // 2),
                                  sy * n * _cycle((F(1, 4), F(0)), slot), _cycle((1, 2, 3), slot), n))
            target = eps * _cycle((F(1, 2), F(3, 4), F(9, 10)), slot // 4)
        elif klass in ("near-tangent", "early-violation"):
            # Negative even pieces under a dominant constant: the peak is the
            # interior point (p, q).
            kx, ky = _cycle(((2, 4), (4, 4), (2, 6), (4, 6)), slot)
            px = piece("x", -_cycle((F(1), F(1, 2), F(2)), slot),
                       sx * m * _cycle((F(0), F(1, 4), F(1, 2), F(3, 4)), slot // 2), kx, m)
            py = piece("y", -_cycle((F(1), F(1, 3), F(3, 2), F(1, 2)), slot // 3),
                       sy * n * _cycle((F(1, 4), F(0), F(1, 2)), slot), ky, n)
            c0 = -(px.lo + py.lo) * _cycle((F(3, 5), F(3, 4), F(9, 10)), slot // 5)
            shape = combine(const_shape(c0), px, py)
            if klass == "near-tangent":
                target = eps * (1 - 1 / F(_cycle((100, 200, 400, 700, 1000), slot // 4)))
            else:
                target = eps * _cycle((F(11, 10), F(3, 2), F(2)), slot)
        elif klass == "tight-boundary":
            # a*x^k + b*y^l with even k, l: sup a*m^k + b*n^l at the corners.
            k, b = _cycle(((4, 1), (6, 0), (4, 2), (6, 1)), slot)
            shape = combine(piece("x", F(_cycle((1, 2, 3), slot)), F(0), k, m),
                            piece("y", F(b), F(0), 4, n))
            target, depth = eps, 8
        else:
            shape = piece("x", F(_cycle((1, 2, 3), slot)), F(0), 6, m)
            if klass == "grid-hit":
                # The violation sits within 1% of x = +/-m, beyond the centers
                # the depth budget reaches but on the K = 256 grid.
                target, grid = eps * F(_cycle((103, 104, 105, 106), slot), 100), 256
            else:
                target, grid = eps, 16
            depth = 8
        cases.append(_cert_case(rng, cid, klass, shape, target, eps, box, depth, grid, operator))
    return cases


# ---------------------------------------------------------------------------
# Residual-expansion cases
# ---------------------------------------------------------------------------

Factor = tuple[F, F, F, int]  # (cx, cy, c0, e): (cx*x + cy*y + c0)^e


@dataclass(frozen=True)
class ResidualCase:
    cid: int
    sym: Symbol
    a10: tuple[F, tuple[Factor, ...]]  # scale * product of powered affine forms
    a01: tuple[F, tuple[Factor, ...]]
    texts: tuple[str, str]
    root: str
    omegas: tuple[F, ...]

    def argv(self) -> list[str]:
        return (["residual", "--format", "json"] + self.sym.flags()
                + [f"--a10={self.texts[0]}", f"--a01={self.texts[1]}", f"--root={self.root}"])


def _product_text(scale: F, factors) -> str:
    if scale == 0:
        return "0"
    parts = [] if scale == 1 else [str(scale) if scale > 0 else f"({scale})"]
    for cx, cy, c0, e in factors:
        parts.append(f"({ptext(affine(cx, cy, c0))})" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) if parts else "1"


_DENOMINATORS = ((1, 2, 3), (2, 3, 5), (3, 5, 7), (5, 7, 2), (7, 2, 3))
_SYMBOLS = (Symbol(F(2), F(-1), F(-1), (F(-1, 2), F(1))),
            Symbol(F(3), F(2), F(-1), (F(-1), F(1, 3))),
            Symbol(F(-1, 2), F(1, 2), F(1), (F(-1), F(2))))


def _product(rng, degree: int, pieces: int, slot: int):
    """scale * a product of `pieces` powered affine forms of total degree.

    Every coefficient is nonzero and its denominator fixed by the slot, so
    the cost of expanding depends on the slot, not on the seed."""
    exponents = [degree] if pieces == 1 else [degree // 2 + degree % 2, degree // 2]
    factors = []
    for i, e in enumerate(exponents):
        dens = _cycle(_DENOMINATORS, slot + i)
        cx, cy, c0 = (F(rng.choice((-1, 1)) * rng.randint(1, 4), d) for d in dens)
        factors.append((cx, cy, c0, e))
    return F(rng.choice((-1, 1)) * rng.randint(1, 3), _cycle((1, 2, 3), slot)), tuple(factors)


def residual_cases(seed: int, count: int) -> list[ResidualCase]:
    """a10 (and half the time a01) as powers or products of affine forms.

    Degree 6-16, one or two factors, one or both roots, the symbol and the
    coefficient denominators cycle with coprime periods, so the per-problem
    costs are the same for every seed and spread smoothly instead of in
    clusters; the seed picks numerators, signs and roots.
    """
    rng = random.Random(f"expand-{seed}")
    cases = []
    for cid in range(count):
        degree = 6 + cid % 11
        form = _cycle(("all", "one", "non-canonical"), cid)
        sym = _cycle(_SYMBOLS, cid // 3) if form == "non-canonical" else canonical_symbol()
        a10 = _product(rng, degree, _cycle((1, 2), cid), cid)
        a01 = (_product(rng, degree // 2, 1, cid + 2) if _cycle((True, False), cid // 2)
               else (F(0), ()))
        if form == "all":
            root, omegas = "all", sym.roots
        else:
            omega = rng.choice(sym.roots)
            root, omegas = str(omega), (omega,)
        cases.append(ResidualCase(cid, sym, a10, a01, (_product_text(*a10), _product_text(*a01)),
                                  root, omegas))
    return cases


def dual_product(scale: F, factors, x: F, y: F) -> tuple[F, F, F]:
    """Value and gradient of scale * prod (cx*x + cy*y + c0)^e at (x, y)."""
    v, vx, vy = scale, F(0), F(0)
    for cx, cy, c0, e in factors:
        w = cx * x + cy * y + c0
        for _ in range(e):
            v, vx, vy = v * w, vx * w + v * cx, vy * w + v * cy
    return v, vx, vy


def residual_at(case: ResidualCase, omega: F, x: F, y: F) -> F:
    """The reference residual at one point, from values and gradients of
    a10 and a01 (no polynomial expansion)."""
    sym = case.sym
    p, px, py = dual_product(*case.a10, x, y)
    q, qx, qy = dual_product(*case.a01, x, y)
    k = 2 * sym.a20 * omega + sym.a11
    w = sym.roots[1]
    n0, nx, ny = omega * p + q, omega * px + qx, omega * py + qy
    m0 = sym.a20 * q + (sym.a20 * omega + sym.a11) * p
    return (nx - w * ny) / k + n0 * m0 / (k * k)

