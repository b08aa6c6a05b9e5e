"""Differential tests: the integer kernels against the slow oracles they replaced.

Each fast path of the exact layer (integer products, moment-vector integrals,
recurrence-built families, the Stirling triangle, per-row Gram assembly) is
compared with an independent slow computation from ``reference_data`` on
seeded random inputs, and the composite-rule boundedness constant with the
adaptive-Simpson one it replaced.
"""

import math
import random
from fractions import Fraction

import pytest

from jsob.algebra import (
    ONE_MINUS_X2,
    Polynomial,
    ScaledPolynomial,
    Surd,
    clear_poles,
    integrate_weighted,
    jacobi_moments,
    weighted_moments,
)
from jsob.jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    jacobi_family,
)
from jsob.numeric import ChelInstance, chel_K, chel_preset
from jsob.operators import (
    Classical,
    GramMatrix,
    LeftDefinite,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
    apply_ell,
    gram_matrix,
    inner_product,
    operator_matrix,
)
from jsob.stirling import jacobi_stirling
from reference_data import (
    beta_moments,
    bilinear_by_products,
    chebyshev_moments,
    chel_K_by_adaptive_simpson,
    integral_by_antiderivative,
    jacobi_by_binomial_sum,
    jacobi_stirling_by_sum,
    moment_by_antiderivative,
    moments_by_binomial_expansion,
    schoolbook_product,
)

PARAMETERS = [Fraction(v) for v in (-1, "-1/2", 0, "1/2", 1, 2)]

# 201 coefficients of up to several hundred bits each.
MEMBER_200 = jacobi_family(200, JacobiParams(1, 1), Normalization.REFERENCE).poly.coeffs


def random_poly(rng: random.Random, degree: int, bits: int = 8) -> Polynomial:
    """Mixed-sign coefficients with numerators and denominators up to ``bits`` bits."""
    top = 2**bits
    return Polynomial(
        Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(degree + 1)
    )


class TestProduct:
    def test_random_against_schoolbook(self):
        rng = random.Random(101)
        for _ in range(300):
            bits = rng.choice((1, 4, 16, 64, 200))
            a = random_poly(rng, rng.randint(-1, 30), bits)
            b = random_poly(rng, rng.randint(-1, 30), rng.choice((1, 4, 16, 64, 200)))
            assert a * b == schoolbook_product(a, b)
        # The shapes the program forms: a factor of 1-3 coefficients (a
        # recurrence step or 1 - x^2) against 60-200 integers of several
        # hundred bits over one denominator, in both operand orders.
        for _ in range(40):
            short = random_poly(rng, rng.randint(0, 2), rng.choice((1, 16, 64)))
            top = 2 ** rng.choice((200, 400))
            long = Polynomial.from_int_form(
                [rng.randint(-top, top) for _ in range(rng.randint(60, 200))],
                rng.randint(1, top),
            )
            assert short * long == schoolbook_product(short, long)
            assert long * short == schoolbook_product(long, short)

    @pytest.mark.parametrize(
        "a,b",
        [
            ((), (1, 2, 3)),
            ((5,), (1, -2, 3)),
            ((Fraction(-3, 7),), (Fraction(1, 2),)),
            ((-1, -1, -1), (-1, -1)),
            ((0, 0, 1), (0, 1)),
            ((Fraction(1, 2**300), -(2**300)), (2**300, Fraction(-1, 3**200), 7)),
            ((Fraction(-5, 3),), MEMBER_200),
            ((3, -7), MEMBER_200),
            ((1, 0, -1), MEMBER_200),
            ((Fraction(2, 5), Fraction(-1, 7), 9), MEMBER_200[:60]),
        ],
    )
    def test_edge_operands(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        assert p * q == schoolbook_product(p, q)
        assert q * p == schoolbook_product(q, p)

    def test_cancellation_keeps_least_common_denominator(self):
        p = Polynomial((Fraction(1, 6), Fraction(1, 4)))
        q = Polynomial((6, -4))
        product = p * q
        assert product == schoolbook_product(p, q)
        ints, den = product.int_form
        assert den == 6 and list(ints) == [6, 5, -6]


class TestIntegrals:
    def test_weighted_against_antiderivative(self):
        rng = random.Random(202)
        for _ in range(200):
            p = random_poly(rng, rng.randint(-1, 40), rng.choice((2, 30)))
            m = rng.randint(0, 6)
            assert integrate_weighted(p, m) == integral_by_antiderivative(p, m)

    def test_long_polynomial(self):
        # A short and a long integrand against the same weight: each call
        # builds a table as long as its own polynomial.
        short, long = Polynomial((0, 0, 1)), Polynomial([1] * 150)
        assert integrate_weighted(short, 9) == integral_by_antiderivative(short, 9)
        assert integrate_weighted(long, 9) == integral_by_antiderivative(long, 9)

    def test_zero_polynomial_pairings(self):
        zero = Polynomial.zero()
        assert weighted_moments(zero, jacobi_moments(5, 5, 0), 0)[0] == []
        assert inner_product(zero, zero, SobolevPhi()) == Surd.zero()
        assert inner_product(zero, Polynomial.one(), SobolevPhi()) == Surd.zero()
        p = Polynomial((1, 2, 3))
        assert integrate_weighted(p, 5) == integral_by_antiderivative(p, 5)

    def test_jacobi_weight_against_products(self):
        rng = random.Random(303)
        for _ in range(100):
            a, b = rng.randint(-1, 3), rng.randint(-1, 3)
            p = random_poly(rng, rng.randint(0, 12))
            if a == -1:
                p = p * Polynomial((1, -1))
            if b == -1:
                p = p * Polynomial((1, 1))
            q, a2, b2 = clear_poles(p, a, b)
            (value,), den = weighted_moments(q, jacobi_moments(a2, b2, q.degree + 1), 1)
            spec = Classical(JacobiParams(a, b))
            assert Fraction(value, den) == bilinear_by_products(p, Polynomial.one(), spec)


def _moment_values(table):
    ints, den = table
    return [Fraction(c, den) for c in ints]


def _in_units_of_first(values):
    return [v / values[0] for v in values]


class TestJacobiMoments:
    @pytest.mark.parametrize("m", range(17))
    def test_symmetric_against_beta_integrals(self, m):
        for count in (1, 2, 17, 130):
            expected = beta_moments(m, count)
            ints, den = jacobi_moments(m, m, count)
            assert _moment_values((ints, den)) == expected
            # One denominator, the least common one of the reduced moments.
            assert den == math.lcm(*(v.denominator for v in expected))

    @pytest.mark.parametrize("a,b", [(0, 2), (2, 0), (3, 1)])
    def test_integer_weights_against_antiderivative(self, a, b):
        expected = [moment_by_antiderivative(a, b, i) for i in range(25)]
        assert _moment_values(jacobi_moments(a, b, 25)) == expected

    @pytest.mark.parametrize(
        "a,b",
        [(Fraction(1, 2), Fraction(-1, 4)), (Fraction(-1, 2), Fraction(1, 2)),
         (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-2, 3), Fraction(7, 5)), (1, 2)],
    )
    def test_rational_weights_against_binomial_expansion(self, a, b):
        values = _moment_values(jacobi_moments(a, b, 40))
        assert _in_units_of_first(values) == moments_by_binomial_expansion(a, b, 40)

    def test_chebyshev_weights(self):
        # At a = b = -1/2, a + b + 1 = 0; the recurrence never divides by it.
        for half, second_kind in ((Fraction(-1, 2), False), (Fraction(1, 2), True)):
            ints, den = jacobi_moments(half, half, 60)
            assert ints[0] == den  # units of h_0 off the integers
            assert _moment_values((ints, den)) == chebyshev_moments(60, second_kind)

    def test_no_moments_and_one_moment(self):
        assert jacobi_moments(5, 5, 0) == ((), 1)
        assert jacobi_moments(Fraction(1, 2), Fraction(-1, 3), 0) == ((), 1)
        assert jacobi_moments(1, 1, 1) == ((4,), 3)
        assert jacobi_moments(3, 1, 1) == ((8,), 5)
        assert jacobi_moments(Fraction(1, 2), Fraction(-1, 3), 1) == ((1,), 1)

    def test_rejects_exponents_at_or_below_minus_one(self):
        for a, b in ((-1, 0), (0, -1), (Fraction(-3, 2), 1)):
            with pytest.raises(ValueError):
                jacobi_moments(a, b, 3)


class TestFamilies:
    @pytest.mark.parametrize("alpha", PARAMETERS)
    @pytest.mark.parametrize("beta", PARAMETERS)
    def test_recurrence_against_binomial_sum(self, alpha, beta):
        params = JacobiParams(alpha, beta)
        for n in range(0, 19, 3):
            member = jacobi_family(n, params, Normalization.REFERENCE).poly
            assert member == jacobi_by_binomial_sum(n, alpha, beta)

    @pytest.mark.parametrize("alpha", PARAMETERS)
    @pytest.mark.parametrize("beta", PARAMETERS)
    def test_seeds_against_binomial_sum(self, alpha, beta):
        # The closed-form P_0, P_1, P_2, alpha + beta = -1 and -2 included.
        params = JacobiParams(alpha, beta)
        for n in range(3):
            member = jacobi_family(n, params, Normalization.REFERENCE).poly
            assert member == jacobi_by_binomial_sum(n, alpha, beta)

    @pytest.mark.parametrize(
        "alpha,beta", [(-1, -1), (Fraction(-1, 2), Fraction(-1, 2)), (-1, 0), (1, 1)]
    )
    def test_long_recurrence(self, alpha, beta):
        # alpha + beta = -1 and -2 included, where the closed-form degrees 0..2 seed it.
        member = jacobi_family(30, JacobiParams(alpha, beta), Normalization.REFERENCE).poly
        assert member == jacobi_by_binomial_sum(30, alpha, beta)

    def test_sobolev_member_is_renormalized_reference(self):
        for n in range(2, 25):
            fam = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
            assert fam.scale_sq == Fraction(4 * n - 2, (n - 1) ** 2)
            assert fam.poly == jacobi_by_binomial_sum(n, -1, -1)


class TestStirling:
    def test_triangle_against_alternating_sum(self):
        for n in range(41):
            for j in range(n + 3):
                assert jacobi_stirling(n, j) == jacobi_stirling_by_sum(n, j)


def _random_vanishing(rng: random.Random, degree: int) -> Polynomial:
    return ONE_MINUS_X2 * random_poly(rng, degree, 6)


class TestGramAssembly:
    @pytest.mark.parametrize(
        "spec,tag,max_degree",
        [
            (SobolevPhi(), Normalization.PHI, 9),
            (Classical(JacobiParams(1, 1)), Normalization.L2, 8),
            (Classical(JacobiParams(0, 2)), Normalization.L2, 7),
            (Classical(JacobiParams(-1, -1)), Normalization.L2, 8),
            (LeftDefinite(2, 1), Normalization.L2, 7),
            (LeftDefinite(3, Fraction(7, 3)), Normalization.L2, 6),
            (LeftDefinite(1, 0), Normalization.L2, 7),
            # Orders 7..16 are at or above the width 7 of every member.
            (LeftDefinite(16, Fraction(7, 3)), Normalization.L2, 6),
            (SobolevPhi(), Normalization.L2, 6),
            (Classical(JacobiParams(2, 1)), Normalization.REFERENCE, 5),
        ],
    )
    def test_family_matrix_against_pairwise_products(self, spec, tag, max_degree):
        gm = gram_matrix(max_degree, spec, tag)
        params = spec.params if isinstance(spec, Classical) else NONCLASSICAL
        fam = [jacobi_family(d, params, tag) for d in gm.degrees]
        entries = [
            [Surd(bilinear_by_products(fi.poly, fj.poly, spec), fi.scale_sq * fj.scale_sq)
             for fj in fam]
            for fi in fam
        ]
        for i, row in enumerate(entries):
            for j, expected in enumerate(row):
                assert gm.entry(i, j) == expected
        # The predicates against their per-entry definitions.
        diagonal = tuple(entries[i][i] for i in range(len(fam)))
        is_diagonal = all(
            v == Surd.zero() for i, row in enumerate(entries) for j, v in enumerate(row) if i != j
        )
        assert gm.size == len(fam)
        assert gm.is_diagonal() == is_diagonal
        assert gm.is_identity() == (
            is_diagonal and all(d == Surd.from_rational(1) for d in diagonal)
        )

    def test_hand_built_matrix_with_off_diagonal_value(self):
        # No reachable call produces an off-diagonal value; the entry still
        # carries the product of the two scales under its root.
        v = Fraction(5, 7)
        gm = GramMatrix((0, 1), ((Fraction(1, 2), v), (v, Fraction(1, 3))), (Fraction(2), Fraction(3)))
        assert gm.size == 2
        assert gm.entry(0, 1) == Surd(v, 6) == gm.entry(1, 0)
        assert not gm.entry(0, 1).is_rational
        assert gm.entry(0, 0) == Surd.from_rational(1) == gm.entry(1, 1)
        assert not gm.is_diagonal()
        assert not gm.is_identity()

    @pytest.mark.parametrize("operator,power", [("T", None), ("A", None), ("Bn", 1), ("Bn", 2)])
    def test_operator_matrix_against_pairwise_products(self, operator, power):
        spec = SpectrumSpec(OperatorTag(operator), Fraction(3, 2), power)
        om = operator_matrix(7, spec)
        # The family and the pairing each operator is realized in.
        if operator == "T":
            tag, ip = Normalization.PHI, SobolevPhi()
        else:
            tag = Normalization.L2
            ip = LeftDefinite(power, spec.k) if power else Classical(NONCLASSICAL)
        fam = [jacobi_family(d, NONCLASSICAL, tag) for d in om.degrees]
        for i, fi in enumerate(fam):
            image = apply_ell(fi, spec.k)
            for j, fj in enumerate(fam):
                value = bilinear_by_products(image.poly, fj.poly, ip)
                assert om.entry(i, j) == Surd(value, fi.scale_sq * fj.scale_sq)

    @pytest.mark.parametrize(
        "spec",
        [SobolevPhi(), Classical(JacobiParams(-1, -1)), Classical(JacobiParams(-1, 1)),
         Classical(JacobiParams(2, 0)), LeftDefinite(2, 3), LeftDefinite(3, 0),
         Classical(JacobiParams(1, -1)), LeftDefinite(4, Fraction(1, 2)),
         LeftDefinite(16, Fraction(7, 3))],
    )
    def test_random_pairs_against_products(self, spec):
        rng = random.Random(404)
        for _ in range(25):
            f = _random_vanishing(rng, rng.randint(-1, 9))
            g = _random_vanishing(rng, rng.randint(-1, 9))
            fs = ScaledPolynomial(Fraction(rng.randint(1, 9), rng.randint(1, 9)), f)
            expected = Surd(bilinear_by_products(f, g, spec), fs.scale_sq)
            assert inner_product(fs, g, spec) == expected


# Cells of width 8e-3 at grid 1000, where composite Simpson would put K^2 off
# by about 4e-11 relative: the differential test then also pins the rule's order.
SMOOTH_CHEL = ChelInstance(
    name="smooth",
    phi=lambda t: math.exp(2.0 * (t - 8.0)) * (1.0 + t * t),
    psi=lambda t: (2.0 + math.cos(t)) ** 2 * (1.0 + t * t),
    a=0.0,
    b=8.0,
)


class TestChelQuadrature:
    @pytest.mark.parametrize(
        "instance",
        [chel_preset("dirichlet"), chel_preset("w1v1"), chel_preset("unit"), SMOOTH_CHEL],
        ids=lambda inst: inst.name,
    )
    @pytest.mark.parametrize("grid", [1000, 4000])
    def test_against_adaptive_simpson(self, instance, grid):
        kmax, argmax = chel_K(instance, grid)
        k_ref, arg_ref = chel_K_by_adaptive_simpson(instance, grid)
        assert abs(kmax * kmax - k_ref * k_ref) <= 1e-12 * k_ref * k_ref
        assert abs(argmax - arg_ref) <= 1e-6
