"""Operators, characteristic roots, residual identities, factor composition."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bkfact import (
    CANONICAL_SYMBOL,
    BkfactError,
    CharRoot,
    DegreeTooHighError,
    FirstOrderFactor,
    LPDO2,
    NoRationalRootsError,
    NotSimpleRootError,
    Poly2,
    PrincipalSymbol,
    ZeroLeadingError,
    apply_operator,
    bk_factors,
    canonical_residual,
    characteristic_roots,
    compose_first_order,
    exactness_system_deg1,
    family_deg1,
    reduced_coeffs,
    residual,
    residual_closed_deg1,
    residual_closed_deg2,
)
from helpers import rand_frac, rand_poly2, reference_reconstruct_factors

X = Poly2.var("x")
Y = Poly2.var("y")

ROOT_MINUS, ROOT_PLUS = characteristic_roots(CANONICAL_SYMBOL)


class TestCharacteristicRoots:
    def test_canonical(self):
        assert (ROOT_MINUS.omega, ROOT_PLUS.omega) == (-1, 1)
        assert ROOT_MINUS.simple and ROOT_PLUS.simple

    def test_elliptic(self):
        with pytest.raises(NoRationalRootsError):
            characteristic_roots(PrincipalSymbol(1, 0, 1))

    def test_split_integer_roots(self):
        r1, r2 = characteristic_roots(PrincipalSymbol(1, -3, 2))
        assert (r1.omega, r2.omega) == (1, 2)
        assert r1.simple and r2.simple

    def test_zero_leading(self):
        with pytest.raises(ZeroLeadingError):
            characteristic_roots(PrincipalSymbol(0, 1, 1))

    def test_irrational(self):
        with pytest.raises(NoRationalRootsError):
            characteristic_roots(PrincipalSymbol(1, 0, -2))

    def test_double_root_not_simple(self):
        r1, r2 = characteristic_roots(PrincipalSymbol(1, 2, 1))
        assert r1.omega == r2.omega == -1
        assert not r1.simple
        op = LPDO2(PrincipalSymbol(1, 2, 1), X, Y, Poly2.zero())
        with pytest.raises(NotSimpleRootError):
            residual(op, r1)

    def test_wrong_root_rejected(self):
        op = LPDO2.canonical()
        with pytest.raises(ValueError):
            residual(op, CharRoot(Fraction(2), True))


class TestResidual:
    def test_zero_coefficients(self):
        op = LPDO2.canonical()
        assert residual(op, ROOT_MINUS).r.is_zero
        assert residual(op, ROOT_PLUS).r.is_zero

    def test_constant_difference(self):
        # a10 - a01 = 4, so along omega = -1: S = 2, L{S} = 0, R = S^2 = 4.
        op = LPDO2.canonical(a10=Poly2.affine(2, 3, 5), a01=Poly2.affine(2, 3, 1))
        trace = residual(op, ROOT_MINUS)
        assert trace.s == Poly2.const(2)
        assert trace.ls.is_zero
        assert trace.r == Poly2.const(4)

    def test_cross_pair(self):
        # a10 = x, a01 = y along omega = 1: S = (x+y)/2, L{S} = 0.
        op = LPDO2.canonical(a10=X, a01=Y)
        trace = residual(op, ROOT_PLUS)
        assert trace.r == (X + Y) * (X + Y) / 4

    def test_trace_identity(self):
        rng = random.Random(5)
        for _ in range(30):
            op = LPDO2.canonical(rand_poly2(rng, 2), rand_poly2(rng, 2), rand_poly2(rng, 2))
            for root in (ROOT_MINUS, ROOT_PLUS):
                trace = residual(op, root)
                assert trace.r == trace.ls + trace.s2
                assert trace.s2 == trace.s * trace.s  # canonical symbol: product is a square

    def test_general_path_equals_s_path(self):
        rng = random.Random(6)
        for _ in range(100):
            a10 = rand_poly2(rng, 2)
            a01 = rand_poly2(rng, 2)
            op = LPDO2.canonical(a10, a01)
            for root in (ROOT_MINUS, ROOT_PLUS):
                assert residual(op, root).r == canonical_residual(a10, a01, root.omega).r

    def test_sign_mirror_symmetry(self):
        # Flipping the sign of a01 swaps the roles of the two roots.
        rng = random.Random(7)
        for _ in range(100):
            a10 = rand_poly2(rng, 2)
            a01 = rand_poly2(rng, 2)
            plus = residual(LPDO2.canonical(a10, a01), ROOT_PLUS).r
            minus = residual(LPDO2.canonical(a10, -a01), ROOT_MINUS).r
            assert plus == minus

    def test_drift_is_the_larger_root(self):
        # residual takes the other root by Vieta; the drift must still be
        # the larger root that characteristic_roots reports.
        rng = random.Random(11)
        for _ in range(200):
            lead = rand_frac(rng)
            if lead == 0:
                continue
            w1, w2 = rand_frac(rng), rand_frac(rng)
            if w1 == w2:
                continue
            symbol = PrincipalSymbol(lead, -lead * (w1 + w2), lead * w1 * w2)
            drift = characteristic_roots(symbol)[1].omega
            a10 = rand_poly2(rng, 1)
            op = LPDO2(symbol, a10, Poly2.zero(), Poly2.zero())
            for root in characteristic_roots(symbol):
                k = 2 * lead * root.omega + symbol.a11
                # a01 = 0: N = omega*a10, M = (a20*omega + a11)*a10.
                s = root.omega * a10 / k
                m_poly = (lead * root.omega + symbol.a11) * a10
                expected = s.diff("x") - drift * s.diff("y") + s * m_poly / k
                assert residual(op, root).r == expected

    def test_zero_leading_root_rejected(self):
        # 0*z^2 + z - 1 vanishes at 1 with k = 1, but has no second root.
        op = LPDO2(PrincipalSymbol(0, 1, -1), X, Y, Poly2.zero())
        with pytest.raises(ZeroLeadingError):
            residual(op, CharRoot(1, True))

    def test_noncanonical_symbol(self):
        # Symbol z^2 - 3z + 2 has roots 1 and 2; exactness is still decided
        # by a00 = R with the general formula.
        symbol = PrincipalSymbol(1, -3, 2)
        r1, r2 = characteristic_roots(symbol)
        op = LPDO2(symbol, X, Y, Poly2.zero())
        trace = residual(op, r1)
        # For root 1: k = 2*1*1 - 3 = -1, N = x + y, M = y + (1 - 3)*x, and
        # the drift runs along the larger root 2, so L = Dx - 2*Dy:
        # R = L{-(x+y)} + (x+y)*(y-2x) = (-1 + 2) + (x+y)*(y-2x).
        assert trace.r == Poly2.const(1) + (X + Y) * (Y - 2 * X)


class TestClosedForms:
    def test_reduced_coeffs_plus(self):
        rc = reduced_coeffs(X, Y, 1)
        assert (rc.s3, rc.s2, rc.s1) == (1, 1, 0)
        assert rc.degree == 1

    def test_reduced_coeffs_cancellation(self):
        rng = random.Random(8)
        p = rand_poly2(rng, 2)
        rc = reduced_coeffs(p, p, -1)
        assert all(v == 0 for v in (rc.s1, rc.s2, rc.s3, rc.s4, rc.s5, rc.s6))

    def test_reduced_coeffs_minus(self):
        rc = reduced_coeffs(Poly2.affine(2, 3, 5), Poly2.affine(2, 3, 1), -1)
        assert (rc.s3, rc.s2, rc.s1) == (0, 0, 4)

    def test_reduced_coeffs_degree_gate(self):
        with pytest.raises(DegreeTooHighError):
            reduced_coeffs(X * X * Y, Y, 1)

    def test_closed_deg1_examples(self):
        zero = reduced_coeffs(Poly2.zero(), Poly2.zero(), 1)
        assert residual_closed_deg1(zero).is_zero
        rc = reduced_coeffs(Poly2.affine(2, 3, 5), Poly2.affine(2, 3, 1), -1)
        assert residual_closed_deg1(rc) == Poly2.const(4)
        rc = reduced_coeffs(X, Y, 1)
        assert residual_closed_deg1(rc) == (X + Y) * (X + Y) / 4

    def test_closed_deg2_single_square_term(self):
        # s6 = 1, rest 0: drift term is x and the square contributes x^4/4.
        rc = reduced_coeffs(X * X, Poly2.zero(), 1)
        assert residual_closed_deg2(rc) == X + Poly2.monomial(4, 0, Fraction(1, 4))

    def test_closed_deg1_matches_residual(self):
        rng = random.Random(9)
        for _ in range(100):
            a10 = Poly2.affine(rand_frac(rng), rand_frac(rng), rand_frac(rng))
            a01 = Poly2.affine(rand_frac(rng), rand_frac(rng), rand_frac(rng))
            op = LPDO2.canonical(a10, a01)
            for root in (ROOT_MINUS, ROOT_PLUS):
                rc = reduced_coeffs(a10, a01, int(root.omega))
                assert residual(op, root).r == residual_closed_deg1(rc)

    def test_closed_deg2_matches_residual(self):
        rng = random.Random(10)
        for _ in range(100):
            a10 = rand_poly2(rng, 2)
            a01 = rand_poly2(rng, 2)
            op = LPDO2.canonical(a10, a01)
            for root in (ROOT_MINUS, ROOT_PLUS):
                rc = reduced_coeffs(a10, a01, int(root.omega))
                assert residual(op, root).r == residual_closed_deg2(rc)


class TestExactnessSystem:
    def test_zero_operator(self):
        values, ok = exactness_system_deg1(LPDO2.canonical(), ROOT_MINUS)
        assert ok and all(v == 0 for v in values)

    def test_family_instance(self):
        op = family_deg1(2, 3, 5, 1, -1)
        values, ok = exactness_system_deg1(op, ROOT_MINUS)
        assert ok and all(v == 0 for v in values)

    def test_linear_a00_blocks(self):
        op = LPDO2.canonical(a00=X)
        values, ok = exactness_system_deg1(op, ROOT_PLUS)
        assert not ok
        assert values[3] == -2  # s3*s1 - 2*b3 with all s zero and b3 = 1

    def test_degree_gate(self):
        with pytest.raises(DegreeTooHighError):
            exactness_system_deg1(LPDO2.canonical(a00=X * X), ROOT_PLUS)


class TestFamily:
    def test_zero_family(self):
        op = family_deg1(0, 0, 0, 0, -1)
        assert op.a10.is_zero and op.a01.is_zero and op.a00.is_zero

    def test_constant_gap(self):
        op = family_deg1(2, 3, 5, 1, -1)
        assert op.a00 == Poly2.const(4)  # (5 - 1)^2 / 4

    def test_plus_root_mirror(self):
        op = family_deg1(1, 0, 2, -2, 1)
        assert op.a10 == Poly2.affine(1, 0, 2)
        assert op.a01 == Poly2.affine(-1, 0, -2)
        assert op.a00.is_zero

    def test_family_satisfies_residual_condition(self):
        rng = random.Random(11)
        for _ in range(100):
            args = [rand_frac(rng) for _ in range(4)]
            for omega, root in ((-1, ROOT_MINUS), (1, ROOT_PLUS)):
                op = family_deg1(*args, omega)
                assert residual(op, root).r == op.a00
                _, ok = exactness_system_deg1(op, root)
                assert ok


class TestExactness:
    def test_wave_operator(self):
        op = LPDO2.canonical()
        assert residual(op, ROOT_MINUS).r == op.a00
        assert residual(op, ROOT_PLUS).r == op.a00

    def test_constant_obstruction(self):
        op = LPDO2.canonical(a00=Poly2.const(1))
        assert residual(op, ROOT_MINUS).r != op.a00

    def test_degree_check_examples(self):
        # a00 = R needs deg(a00) <= deg(R), with degree -1 for zero.
        assert residual(LPDO2.canonical(), ROOT_PLUS).r.degree == -1
        r = residual(LPDO2.canonical(a10=X), ROOT_PLUS).r
        assert r == Poly2.const(Fraction(1, 2)) + X * X / 4 and r.degree == 2

    def test_degree_bound(self):
        # deg(R) <= 2n for coefficients of total degree n.
        rng = random.Random(12)
        for n in (1, 2, 3):
            for _ in range(50):
                op = LPDO2.canonical(rand_poly2(rng, n), rand_poly2(rng, n), rand_poly2(rng, n))
                for root in (ROOT_MINUS, ROOT_PLUS):
                    assert residual(op, root).r.degree <= 2 * n


# Direction vectors of first-order factors: nonzero, often with a zero
# component, so that the symbol's vanishing cases are all near at hand.
_COMPONENT = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
_DIRECTION = st.tuples(_COMPONENT, _COMPONENT).filter(lambda d: d != (0, 0))


class TestComposition:
    def test_wave_split(self):
        op = compose_first_order(FirstOrderFactor(1, 1, Poly2.zero()),
                                 FirstOrderFactor(1, -1, Poly2.zero()))
        assert op == LPDO2.canonical()

    def test_constant_zero_order_parts(self):
        p, q = Poly2.const(3), Poly2.const(-2)
        op = compose_first_order(FirstOrderFactor(1, 1, p), FirstOrderFactor(1, -1, q))
        assert op.a10 == p + q
        assert op.a01 == q - p
        assert op.a00 == p * q

    def test_polynomial_zero_order_part(self):
        # f(g(u)) with f = Dx + Dy, g = Dx - Dy + x: differentiating x*u
        # contributes u + x*u_x under Dx and x*u_y under Dy, so
        # a10 = a01 = x and a00 = 1.  The mirrored pairing flips a01.
        op = compose_first_order(FirstOrderFactor(1, 1, Poly2.zero()),
                                 FirstOrderFactor(1, -1, X))
        assert (op.a10, op.a01, op.a00) == (X, X, Poly2.const(1))
        mirrored = compose_first_order(FirstOrderFactor(1, -1, Poly2.zero()),
                                       FirstOrderFactor(1, 1, X))
        assert (mirrored.a10, mirrored.a01, mirrored.a00) == (X, -X, Poly2.const(1))

    def test_composition_action(self):
        # (f o g) applied to u equals f(g(u)) for polynomial test functions.
        rng = random.Random(13)
        directions = [Fraction(v) for v in (-2, -1, 1, 2)]
        for _ in range(100):
            f = FirstOrderFactor(rng.choice(directions), rng.choice(directions), rand_poly2(rng, 2))
            g = FirstOrderFactor(rng.choice(directions), rng.choice(directions), rand_poly2(rng, 2))
            u = rand_poly2(rng, 3)
            assert apply_operator(compose_first_order(f, g), u) == f.apply(g.apply(u))

    def test_factor_needs_direction(self):
        with pytest.raises(ValueError):
            FirstOrderFactor(0, 0, X)

    @given(_DIRECTION, _DIRECTION)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_symbol_never_vanishes(self, f_dir, g_dir):
        # px*qx = py*qy = px*qy + py*qx = 0 forces one direction to be (0, 0),
        # which FirstOrderFactor rejects: a composition is always second order.
        op = compose_first_order(FirstOrderFactor(*f_dir, X), FirstOrderFactor(*g_dir, Y))
        assert (op.symbol.a20, op.symbol.a11, op.symbol.a02) != (0, 0, 0)


# Rational values and polynomials of total degree <= 2 for constructed
# operators.
_VALUE = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_NONZERO = _VALUE.filter(lambda v: v != 0)
_QUADRATIC = st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
                             _VALUE).map(Poly2)


class TestReconstruction:
    def test_wave(self):
        # Dxx - Dyy = (Dx + Dy) o (Dx - Dy) along omega = -1, mirrored along +1.
        for root, sign in ((ROOT_MINUS, 1), (ROOT_PLUS, -1)):
            left, right, res = bk_factors(LPDO2.canonical(), root)
            assert (left.px, left.py, right.px, right.py) == (1, sign, 1, -sign)
            assert left.p0.is_zero and right.p0.is_zero and res.is_zero

    def test_constant_factors(self):
        op = LPDO2.canonical(a10=Poly2.const(3), a01=Poly2.const(1), a00=Poly2.const(2))
        left, right, res = bk_factors(op, ROOT_MINUS)
        assert left.p0 == Poly2.const(1)
        assert right.p0 == Poly2.const(2)
        assert res.is_zero
        assert compose_first_order(left, right) == op

    def test_absent(self):
        op = LPDO2.canonical(a00=Poly2.const(1))
        for root in (ROOT_MINUS, ROOT_PLUS):
            assert bk_factors(op, root)[2] == Poly2.const(1)

    def test_round_trip_on_compositions(self):
        rng = random.Random(14)
        for _ in range(100):
            f = FirstOrderFactor(1, rng.choice((1, -1)), rand_poly2(rng, 1))
            g = FirstOrderFactor(1, -f.py, rand_poly2(rng, 1))
            op = compose_first_order(f, g)
            left, right, res = bk_factors(op, ROOT_MINUS if f.py == 1 else ROOT_PLUS)
            assert (left, right) == (f, g)
            assert res.is_zero

    def test_round_trip_when_found(self):
        rng = random.Random(15)
        for _ in range(200):
            op = LPDO2.canonical(rand_poly2(rng, 1), rand_poly2(rng, 1), rand_poly2(rng, 1))
            for root in (ROOT_MINUS, ROOT_PLUS):
                left, right, res = bk_factors(op, root)
                assert (compose_first_order(left, right) == op) == res.is_zero

    @given(_VALUE, _VALUE, _NONZERO, _NONZERO, _QUADRATIC, _QUADRATIC)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_construction_on_rational_root_symbols(self, w1, w2, a, b, p, q):
        # a*(Dx - w1*Dy) + p composed with b*(Dx - w2*Dy) + q has the symbol
        # roots w1 and w2.  Along either root the constructed factors match op
        # except in a00, where they miss it by the residual; along w1 they
        # recover op.
        assume(w1 != w2)
        op = compose_first_order(FirstOrderFactor(a, -a * w1, p), FirstOrderFactor(b, -b * w2, q))
        for root in characteristic_roots(op.symbol):
            left, right, res = bk_factors(op, root)
            composed = compose_first_order(left, right)
            assert (composed.symbol, composed.a10, composed.a01) == (op.symbol, op.a10, op.a01)
            assert composed.a00 + res == op.a00
            assert (composed == op) == res.is_zero
            assert root.omega != w1 or res.is_zero

    def test_first_zero_residual_root_matches_search(self):
        # Compositions, constant operators (which factor along both roots or
        # neither) and random affine operators: the first ascending root with a
        # zero residual yields the factors the two-ordering search finds.
        rng = random.Random(16)
        for trial in range(300):
            factors = None  # unknown for a random operator
            if trial % 3 == 0:
                f = FirstOrderFactor(1, rng.choice((1, -1)), rand_poly2(rng, 2))
                op = compose_first_order(f, FirstOrderFactor(1, -f.py, rand_poly2(rng, 2)))
                factors = True
            elif trial % 3 == 1:
                c, d, shift = rand_frac(rng), rand_frac(rng), rng.choice((0, 1))
                op = LPDO2.canonical(Poly2.const(c), Poly2.const(d),
                                     Poly2.const((c * c - d * d) / 4 + shift))
                factors = shift == 0
            else:
                op = LPDO2.canonical(rand_poly2(rng, 1), rand_poly2(rng, 1), rand_poly2(rng, 1))
            constructed = [bk_factors(op, root) for root in (ROOT_MINUS, ROOT_PLUS)]
            first = next(((left, right) for left, right, res in constructed if res.is_zero), None)
            assert first == reference_reconstruct_factors(op)
            assert factors is None or factors == (first is not None)

    @pytest.mark.parametrize("symbol, root", [
        (CANONICAL_SYMBOL, CharRoot(2, True)),  # not a root
        (PrincipalSymbol(1, 2, 1), CharRoot(-1, False)),  # repeated root
        (CANONICAL_SYMBOL, CharRoot(1, False)),  # a simple root flagged repeated
        (PrincipalSymbol(0, 1, -1), CharRoot(1, True)),  # no Dxx part
    ])
    def test_root_errors_match_residual(self, symbol, root):
        op = LPDO2(symbol, X, Y, Poly2.zero())
        with pytest.raises((ValueError, BkfactError)) as expected:
            residual(op, root)
        with pytest.raises((ValueError, BkfactError)) as got:
            bk_factors(op, root)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))

    def test_residual_truth_and_composition_truth_diverge(self):
        # The residual condition a00 = R and factoring do not coincide, and
        # the suite records (rather than reconciles) that divergence:
        # 1) a generic member of the affine family satisfies a00 = R yet has a
        #    nonzero BK residual, so no factorization, along either root;
        op = family_deg1(2, 3, 5, 1, -1)
        assert residual(op, ROOT_MINUS).r == op.a00
        assert not any(bk_factors(op, root)[2].is_zero for root in (ROOT_MINUS, ROOT_PLUS))
        # 2) an honest composition need not satisfy a00 = R for either root:
        # (Dx - Dy) o (Dx + Dy + x) has a00 = 1 but R(-1) = 1 + x^2 and R(+1) = 0,
        # while its BK residual along omega = 1 is zero.
        composed = compose_first_order(FirstOrderFactor(1, -1, Poly2.zero()),
                                       FirstOrderFactor(1, 1, X))
        assert bk_factors(composed, ROOT_PLUS)[2].is_zero
        assert residual(composed, ROOT_MINUS).r != composed.a00
        assert residual(composed, ROOT_PLUS).r != composed.a00
