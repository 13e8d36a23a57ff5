"""Metamorphic relations of certify_open_box: related problems must get
related certificates, which needs no oracle and so reaches any degree
(Chen et al., Metamorphic testing, ACM Comput. Surv. 51(1), 2018).

Each relation follows from how the certificate is reached.  Mirroring an
axis mirrors every subrectangle and its Bernstein grid; scaling d and eps
together scales every comparison; swapping x and y swaps every split as long
as no split is a tie, which m/n not a power of two guarantees.  A node
certified at eps is certified at any larger eps, a violating centre stays
violating at any eps up to its |value|, and one more level of depth only
refines the leaves left undecided.
"""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bkfact import Box, CertifiedInside, CertRequest, Poly2, Unknown, Violated, certify_open_box

HALF_WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(3, 2))
ASPECTS = (Fraction(3), Fraction(3, 5))  # n/m, never a power of two
EPS_SHARES = (Fraction(1, 2), Fraction(1), Fraction(9, 8), Fraction(3, 2), Fraction(2),
              Fraction(3))
SCALES = (Fraction(1, 3), Fraction(2), Fraction(7, 5))


@st.composite
def problems(draw):
    """A difference of total degree 3 to 6 (the Bernstein path) with about
    two thirds of its monomials present, a box with n/m not a power of
    two, a depth budget of 2 to 7, and eps a multiple of the largest |d| on
    a 9 x 9 grid of the closed box, so that every verdict kind turns up,
    boundary-tight cases (a multiple of 1) among them."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    degree = rng.randint(3, 6)
    terms = {(i, k - i): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for k in range(degree + 1) for i in range(k + 1) if rng.random() < 0.65}
    top = rng.randint(0, degree)  # one term of full degree
    terms[(top, degree - top)] = rng.choice((-2, -1, 1, 2))
    d = Poly2(terms)
    m = rng.choice(HALF_WIDTHS)
    box = Box(m, m * rng.choice(ASPECTS))
    sampled = max(abs(d.eval(box.m * Fraction(i, 4), box.n * Fraction(j, 4)))
                  for i in range(-4, 5) for j in range(-4, 5))
    return CertRequest(d, box, sampled * rng.choice(EPS_SHARES), rng.randint(2, 7))


def substitute(d: Poly2, sx: int = 1, sy: int = 1, swap: bool = False) -> Poly2:
    """d(sx*x, sy*y) for signs sx, sy, then with x and y exchanged if swap."""
    return Poly2({((j, i) if swap else (i, j)): c * sx ** i * sy ** j for (i, j), c in d.terms()})


def invariant(cert) -> tuple:
    """What a symmetry keeps: the kind, and the margin or the gap.  A mirror
    or a swap changes the traversal order, so it may find another witness."""
    if isinstance(cert, CertifiedInside):
        return cert.kind, cert.margin
    if isinstance(cert, Unknown):
        return cert.kind, cert.gap
    return (cert.kind,)


RELATIONS = settings(max_examples=120, deadline=None, derandomize=True)


@RELATIONS
@given(problems())
def test_mirror(problem):
    expected = invariant(certify_open_box(problem))
    for sx, sy in ((-1, 1), (1, -1)):
        mirrored = replace(problem, d=substitute(problem.d, sx, sy))
        assert invariant(certify_open_box(mirrored)) == expected, (sx, sy)


@RELATIONS
@given(problems(), st.sampled_from(SCALES))
def test_scale(problem, s):
    cert = certify_open_box(problem)
    scaled = certify_open_box(replace(problem, d=problem.d * s, eps=problem.eps * s))
    if isinstance(cert, CertifiedInside):
        assert scaled == CertifiedInside(margin=cert.margin * s)
    elif isinstance(cert, Unknown):
        assert scaled == Unknown(gap=cert.gap * s)
    else:
        assert scaled == Violated(witness=cert.witness, value=cert.value * s)


@RELATIONS
@given(problems())
def test_swap(problem):
    box = problem.box
    swapped = replace(problem, d=substitute(problem.d, swap=True), box=Box(box.n, box.m))
    assert invariant(certify_open_box(swapped)) == invariant(certify_open_box(problem))


@RELATIONS
@given(problems())
def test_monotone_in_eps(problem):
    # The smaller tolerances give more violated certificates to relate.
    for eps in (problem.eps, problem.eps / 2, problem.eps / 4):
        cert = certify_open_box(replace(problem, eps=eps))
        if isinstance(cert, CertifiedInside):
            assert certify_open_box(replace(problem, eps=eps * 3 / 2)).kind == "inside"
        elif isinstance(cert, Violated):
            for other in (abs(cert.value), (eps + abs(cert.value)) / 2, eps / 2):
                assert certify_open_box(replace(problem, eps=other)).kind == "violated", other


@RELATIONS
@given(problems())
def test_monotone_in_depth(problem):
    cert = certify_open_box(problem)
    deeper = certify_open_box(replace(problem, max_depth=problem.max_depth + 1))
    if isinstance(cert, CertifiedInside):
        # Every node at the old budget was decided, so the traversal is the same.
        assert deeper == cert
    elif isinstance(cert, Violated):
        assert deeper.kind == "violated"


@RELATIONS
@given(problems())
def test_inside_holds_at_sampled_points(problem):
    cert = certify_open_box(problem)
    if not isinstance(cert, CertifiedInside):
        return
    k = 6
    m, n = problem.box.m, problem.box.n
    bound = problem.eps - cert.margin
    for i in range(1 - k, k):
        for j in range(1 - k, k):
            assert abs(problem.d.eval(m * Fraction(i, k), n * Fraction(j, k))) <= bound, (i, j)
