import random
from fractions import Fraction

import pytest

from jsob import algebra, checks, operators
from jsob.algebra import (
    ONE_MINUS_X2,
    Polynomial,
    ScaledPolynomial,
    Surd,
    integrate_weighted,
)
from jsob.checks import (
    derivative_orthogonality_value,
    verify_dirichlet_identity,
    verify_lagrange_identity,
)
from jsob.jacobi import JacobiParams, NONCLASSICAL, Normalization, jacobi_family
from jsob.operators import (
    Classical,
    LeftDefinite,
    NotInWeightedSpace,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
    apply_ell,
    apply_ell_power,
    decompose_w,
    gram_matrix,
    inner_product,
    operator_matrix,
    spectrum,
)
from reference_data import bilinear_by_products


def rand_poly(rng, degree):
    return Polynomial(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
    )


class TestApplyEll:
    def test_basic_second_derivative(self):
        p = Polynomial((-1, 0, 1))
        assert apply_ell(p, 0) == 2 * p

    def test_eigen_relation_nonclassical(self):
        for k in (Fraction(0), Fraction(1), Fraction(7, 3)):
            for n in range(11):
                fam = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
                lam = Fraction(n * (n - 1)) + k
                assert apply_ell(fam, k).poly == lam * fam.poly

    def test_scale_passthrough(self):
        fam = jacobi_family(5, NONCLASSICAL, Normalization.PHI)
        assert apply_ell(fam, 1).scale_sq == fam.scale_sq


class TestApplyEllPower:
    def test_first_power_collapse(self):
        p = Polynomial((0, 0, 0, 1))
        assert apply_ell_power(p, 1, Fraction(3, 2)) == apply_ell(p, Fraction(3, 2))

    def test_eigen_relation(self):
        for m in range(9):
            for n in range(1, 5):
                for k in (Fraction(0), Fraction(1)):
                    fam = jacobi_family(m, NONCLASSICAL, Normalization.PHI)
                    lam = (Fraction(m * (m - 1)) + k) ** n
                    assert apply_ell_power(fam, n, k).poly == lam * fam.poly

    def test_matches_iterated_application(self):
        rng = random.Random(42)
        for _ in range(50):
            p = rand_poly(rng, rng.randint(0, 6))
            n = rng.randint(1, 4)
            k = Fraction(rng.randint(0, 9), rng.randint(1, 4))
            iterated = p
            for _ in range(n):
                iterated = apply_ell(iterated, k)
            assert apply_ell_power(p, n, k) == iterated

    def test_unwraps_its_argument_as_apply_ell_does(self):
        # A bare polynomial maps to a bare one, a scaled member keeps its scale,
        # and k is coerced as apply_ell coerces it.
        fam = jacobi_family(5, NONCLASSICAL, Normalization.PHI)
        image = apply_ell_power(fam, 2, "7/3")
        assert type(image) is ScaledPolynomial and image.scale_sq == fam.scale_sq
        bare = apply_ell_power(fam.poly, 2, Fraction(7, 3))
        assert type(bare) is Polynomial and bare == image.poly
        assert bare == apply_ell(apply_ell(fam.poly, "7/3"), "7/3")


class TestInnerProduct:
    def test_sobolev_constant(self):
        p0 = jacobi_family(0, NONCLASSICAL, Normalization.PHI)
        assert inner_product(p0, p0, SobolevPhi()) == Surd.from_rational(1)

    def test_sobolev_linear(self):
        p1 = jacobi_family(1, NONCLASSICAL, Normalization.PHI)
        # 1/2 * 1/3 + 1/2 * 1/3 + integral of 1/3 over [-1, 1] = 1
        assert inner_product(p1, p1, SobolevPhi()) == Surd.from_rational(1)

    def test_left_definite_orthogonality(self):
        k = Fraction(1)
        fams = {m: jacobi_family(m, NONCLASSICAL, Normalization.L2) for m in range(2, 9)}
        for n in range(1, 4):
            spec = LeftDefinite(n, k)
            for m, fm in fams.items():
                for l, fl in fams.items():
                    expected = (
                        Surd.from_rational((Fraction(m * (m - 1)) + k) ** n)
                        if m == l
                        else Surd.zero()
                    )
                    assert inner_product(fm, fl, spec) == expected

    def test_left_definite_needs_vanishing_when_k_positive(self):
        with pytest.raises(NotInWeightedSpace):
            inner_product(
                ScaledPolynomial.of(Polynomial.one()),
                ScaledPolynomial.of(Polynomial.one()),
                LeftDefinite(1, 1),
            )

    def test_left_definite_k_zero_drops_singular_term(self):
        one = ScaledPolynomial.of(Polynomial.one())
        assert inner_product(one, one, LeftDefinite(1, 0)) == Surd.zero()

    def test_classical_singular_needs_both_arguments_vanishing(self):
        good = ScaledPolynomial.of(ONE_MINUS_X2)
        bad = ScaledPolynomial.of(Polynomial((1, 0, 1)))
        with pytest.raises(NotInWeightedSpace):
            inner_product(good, bad, Classical(NONCLASSICAL))

    def test_classical_polynomial_weight(self):
        f = Polynomial((1, 1))
        g = Polynomial((0, 1))
        # weight (1 - x)(1 + x) = (1 - x^2)
        expected = integrate_weighted(f * g, 1)
        assert inner_product(
            ScaledPolynomial.of(f), ScaledPolynomial.of(g), Classical(JacobiParams(1, 1))
        ) == Surd.from_rational(expected)

    def test_surd_closure(self):
        f = jacobi_family(2, NONCLASSICAL, Normalization.PHI)
        g = ScaledPolynomial(Fraction(2), ONE_MINUS_X2)
        value = inner_product(f, g, SobolevPhi())
        # The scales multiply to sqrt(6 * 2) = 2 sqrt(3); the bilinear value is -2/3.
        assert value == Surd(Fraction(-4, 3), 3)


class TestDerivativeOrthogonalityValue:
    def test_orthonormal_diagonal(self):
        assert derivative_orthogonality_value(1, 1, 0, JacobiParams(1, 1)) == 1

    def test_weighted_derivative_norm(self):
        assert derivative_orthogonality_value(2, 2, 1, JacobiParams(0, 0)) == 6

    def test_off_diagonal_zero(self):
        assert derivative_orthogonality_value(3, 5, 2, JacobiParams(0, 0)) == 0

    def test_sweep(self):
        for params in (JacobiParams(0, 0), JacobiParams(1, 1), JacobiParams(1, 2)):
            for n in range(7):
                for r in range(n + 1):
                    for j in range(n + 1):
                        value = derivative_orthogonality_value(n, r, j, params)
                        if n != r:
                            assert value == 0

    def test_nonclassical_shifted(self):
        # j >= 1 shifts the weight into the classical range
        for n in range(2, 7):
            for j in range(1, n + 1):
                derivative_orthogonality_value(n, n, j, NONCLASSICAL)


class TestDecomposeW:
    def test_even_square(self):
        f1, f2 = decompose_w(Polynomial((0, 0, 1)))
        assert f1 == Polynomial((-1, 0, 1)) and f2 == Polynomial.one()

    def test_odd_cube(self):
        f1, f2 = decompose_w(Polynomial((0, 0, 0, 1)))
        assert f1 == Polynomial((0, -1, 0, 1)) and f2 == Polynomial.x()

    def test_affine_fixed(self):
        f = Polynomial((3, -2))
        f1, f2 = decompose_w(f)
        assert f1.is_zero and f2 == f

    def test_random_properties(self):
        rng = random.Random(6)
        for _ in range(50):
            f = rand_poly(rng, rng.randint(0, 10))
            f1, f2 = decompose_w(f)
            assert f1 + f2 == f
            assert f1(Fraction(1)) == 0 and f1(Fraction(-1)) == 0
            assert f2.degree <= 1


class TestGramMatrix:
    def test_sobolev_identity(self):
        assert gram_matrix(12, SobolevPhi(), Normalization.PHI).is_identity()

    def test_left_definite_diagonal(self):
        gm = gram_matrix(8, LeftDefinite(2, 1), Normalization.L2)
        assert gm.degrees == tuple(range(2, 9))
        assert gm.is_diagonal()
        for i, m in enumerate(gm.degrees):
            assert gm.entry(i, i) == Surd.from_rational(Fraction((m * (m - 1) + 1) ** 2))

    def test_classical_identity(self):
        assert gram_matrix(
            6, Classical(JacobiParams(1, 1)), Normalization.L2
        ).is_identity()

    def test_weighted_nonclassical_identity(self):
        assert gram_matrix(8, Classical(NONCLASSICAL), Normalization.L2).is_identity()

    def test_degenerate_family_rejected(self):
        # the reference family at (-1, -1) contains the zero function at degree 1
        with pytest.raises(ValueError):
            gram_matrix(3, SobolevPhi(), Normalization.REFERENCE)

    @pytest.mark.parametrize(
        "spec, weights",
        [(LeftDefinite(3, Fraction(7, 3)), [(0, 0), (1, 1), (2, 2)]),
         (Classical(NONCLASSICAL), [(0, 0)])],
        ids=["left-definite-3", "classical-nonclassical"],
    )
    def test_one_moment_table_per_cleared_weight(self, monkeypatch, spec, weights):
        # The terms' weights with their -1 exponents cleared: the order-3 form's
        # j = 0 and j = 1 terms share (0, 0).
        calls = []
        moments = algebra.jacobi_moments
        monkeypatch.setattr(operators, "jacobi_moments",
                            lambda a, b, count: calls.append((a, b)) or moments(a, b, count))
        assert gram_matrix(8, spec, Normalization.L2).is_diagonal()
        assert sorted(calls) == weights


class TestOperatorMatrix:
    def test_sobolev_operator_diagonal(self):
        om = operator_matrix(6, SpectrumSpec(OperatorTag.T, 0))
        assert om.is_diagonal()
        assert [om.entry(i, i).to_fraction() for i in range(om.size)] == [0, 0, 2, 6, 12, 20, 30]

    def test_weighted_operator_diagonal(self):
        om = operator_matrix(5, SpectrumSpec(OperatorTag.A, 1))
        assert om.is_diagonal()
        assert [om.entry(i, i).to_fraction() for i in range(om.size)] == [3, 7, 13, 21]

    def test_left_definite_operator_diagonal(self):
        k = Fraction(1)
        om = operator_matrix(6, SpectrumSpec(OperatorTag.BN, k, power=2))
        assert om.is_diagonal()
        # pairing with the order-2 form promotes the eigenvalue to the third power
        for i, m in enumerate(om.degrees):
            assert om.entry(i, i) == Surd.from_rational((Fraction(m * (m - 1)) + k) ** 3)


class TestIntegrandIdentities:
    def test_lagrange_hand_case(self):
        assert verify_lagrange_identity(Polynomial((0, 0, 1)), Polynomial((0, 0, 0, 1)), 5)

    def test_lagrange_equal_arguments(self):
        p = Polynomial((1, 2, 3))
        assert verify_lagrange_identity(p, p, Fraction(1, 2))

    def test_dirichlet_hand_cases(self):
        assert verify_dirichlet_identity(ONE_MINUS_X2, ONE_MINUS_X2, 3)
        assert verify_dirichlet_identity(Polynomial.one(), Polynomial((4, 5, 6)), 0)
        assert verify_dirichlet_identity(
            Polynomial((0, -1, 0, 1)), Polynomial((-1, 0, 1)), 2
        )

    def test_random_pairs(self):
        rng = random.Random(77)
        for _ in range(100):
            f = rand_poly(rng, rng.randint(0, 8))
            g = rand_poly(rng, rng.randint(0, 8))
            k = Fraction(rng.randint(0, 30), rng.randint(1, 7))
            assert verify_lagrange_identity(f, g, k)
            assert verify_dirichlet_identity(f, g, k)


class TestSpectrum:
    def test_weighted_operator(self):
        assert spectrum(SpectrumSpec(OperatorTag.A, 0), 4) == [2, 6, 12, 20]

    def test_sobolev_operator_repeats_shift(self):
        assert spectrum(SpectrumSpec(OperatorTag.T, 1), 5) == [1, 1, 3, 7, 13]

    def test_left_definite_matches_weighted(self):
        assert spectrum(SpectrumSpec(OperatorTag.BN, 2, power=3), 3) == [4, 8, 14]

    @pytest.mark.parametrize("k", [3, "7/3"])
    def test_values_are_fractions_of_the_closed_form(self, k):
        for spec, first in ((SpectrumSpec(OperatorTag.A, k), 2),
                            (SpectrumSpec(OperatorTag.BN, k, power=2), 2),
                            (SpectrumSpec(OperatorTag.T, k), 0)):
            values = spectrum(spec, 40)
            assert all(type(v) is Fraction for v in values)
            assert values == [Fraction(m * (m - 1)) + Fraction(k) for m in range(first, first + 40)]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            spectrum(SpectrumSpec(OperatorTag.A, 0), 0)


class TestLowerBoundAndBridges:
    def test_operator_bounded_below(self):
        rng = random.Random(15)
        for k in (Fraction(0), Fraction(1), Fraction(7, 3)):
            for _ in range(15):
                f = ONE_MINUS_X2 * rand_poly(rng, rng.randint(0, 8))
                if f.is_zero:
                    continue
                fs = ScaledPolynomial.of(f)
                quad = inner_product(apply_ell(fs, k), fs, Classical(NONCLASSICAL))
                norm = inner_product(fs, fs, Classical(NONCLASSICAL))
                gap = quad.to_fraction() - k * norm.to_fraction()
                assert gap == integrate_weighted(f.derivative() * f.derivative(), 0)
                assert gap >= 0

    def test_first_left_definite_bridge(self):
        rng = random.Random(16)
        for _ in range(15):
            f = ONE_MINUS_X2 * rand_poly(rng, rng.randint(0, 6))
            g = ONE_MINUS_X2 * rand_poly(rng, rng.randint(0, 6))
            k = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            direct = integrate_weighted(
                f.derivative() * g.derivative(), 0
            ) + k * integrate_weighted(f * g, -1)
            assert inner_product(
                ScaledPolynomial.of(f), ScaledPolynomial.of(g), LeftDefinite(1, k)
            ) == Surd(direct, Fraction(1))

    def test_sobolev_restricts_to_dirichlet_integral(self):
        rng = random.Random(17)
        for _ in range(15):
            f = ONE_MINUS_X2 * rand_poly(rng, rng.randint(0, 6))
            g = ONE_MINUS_X2 * rand_poly(rng, rng.randint(0, 6))
            fs, gs = ScaledPolynomial.of(f), ScaledPolynomial.of(g)
            assert inner_product(fs, gs, SobolevPhi()) == inner_product(
                fs, gs, LeftDefinite(1, 0)
            )

    def test_left_definite_norm_inequality(self):
        k = Fraction(1)
        for n in range(1, 4):
            for m in range(2, 7):
                fam = jacobi_family(m, NONCLASSICAL, Normalization.L2)
                ld = inner_product(fam, fam, LeftDefinite(n, k)).to_fraction()
                base = inner_product(fam, fam, Classical(NONCLASSICAL)).to_fraction()
                assert ld >= k**n * base

    def test_orthogonal_decomposition_against_low_modes(self):
        rng = random.Random(18)
        low = [
            jacobi_family(0, NONCLASSICAL, Normalization.PHI),
            jacobi_family(1, NONCLASSICAL, Normalization.PHI),
        ]
        for _ in range(25):
            f = rand_poly(rng, rng.randint(0, 10))
            f1, _ = decompose_w(f)
            for q in low:
                assert inner_product(ScaledPolynomial.of(f1), q, SobolevPhi()) == Surd.zero()


class TestVerifyCatchesPlantedFaults:
    # Each fault changes one name that the eigen.* and identities.* checks call
    # through jsob.checks; exactly the checks that call it must then fail.

    @staticmethod
    def failing():
        return {record["name"] for suite in ("eigen", "identities")
                for record in checks.run(suite) if not record["passed"]}

    def test_apply_ell_with_the_wrong_shift(self, monkeypatch):
        # Three below the true shift, under the bottom 2 of A's spectrum at k = 0,
        # so that the lower bound itself goes negative too.
        apply_ell = checks.apply_ell
        monkeypatch.setattr(checks, "apply_ell", lambda f, k: apply_ell(f, k - 3))
        assert self.failing() == {"eigen.differential-expression", "identities.lagrange-dirichlet",
                                  "identities.lower-bound"}

    def test_decomposition_that_moves_a_constant(self, monkeypatch):
        # f1 + f2 is still f, but f1 no longer vanishes at the endpoints and is no
        # longer phi-orthogonal to the polynomials of degree at most one.
        decompose = checks.decompose_w
        one = Polynomial([1])

        def faulty(f):
            f1, f2 = decompose(f)
            return f1 + one, f2 - one

        monkeypatch.setattr(checks, "decompose_w", faulty)
        assert self.failing() == {"identities.sobolev-decomposition"}

    def test_doubled_derivative_coefficient(self, monkeypatch):
        coefficient = checks.derivative_coefficient_squared
        monkeypatch.setattr(checks, "derivative_coefficient_squared",
                            lambda n, j, params: 2 * coefficient(n, j, params))
        assert self.failing() == {"identities.derivative-identity"}

    def test_weighted_integral_off_by_a_thousandth(self, monkeypatch):
        integrate = checks.integrate_weighted
        monkeypatch.setattr(checks, "integrate_weighted",
                            lambda p, m: integrate(p, m) + Fraction(1, 1000))
        assert self.failing() == {"identities.lower-bound", "identities.first-left-definite-bridge"}

    def test_phi_paired_as_the_first_left_definite_form_at_shift_one(self, monkeypatch):
        # On the bubbles phi is the first left-definite form at shift 0; at shift 1
        # it differs, and a degree-0 argument leaves the weighted space.
        pair = checks.inner_product
        monkeypatch.setattr(checks, "inner_product", lambda f, g, ip: pair(
            f, g, LeftDefinite(1, 1) if ip == SobolevPhi() else ip))
        assert self.failing() == {"identities.sobolev-decomposition",
                                  "identities.first-left-definite-bridge"}


class TestSwappedWeightExponents:
    # Every moment table of (1 - x)^a (1 + x)^b replaced by that of
    # (1 - x)^b (1 + x)^a, where the pairings and the checks read it.  Only an
    # asymmetric weight can show it.

    @pytest.fixture
    def swapped(self, monkeypatch):
        moments = algebra.jacobi_moments
        fault = lambda a, b, count: moments(b, a, count)
        monkeypatch.setattr(operators, "jacobi_moments", fault)
        monkeypatch.setattr(checks, "jacobi_moments", fault)

    @staticmethod
    def gram_matches_products(params):
        spec = Classical(params)
        polys = [jacobi_family(d, params, Normalization.L2).poly for d in range(7)]
        values = gram_matrix(6, spec, Normalization.L2).values
        return values == tuple(
            tuple(bilinear_by_products(f, g, spec) for g in polys) for f in polys
        )

    def test_verify_checks_that_see_it(self, swapped):
        # (2, 1), (1/2, -1/4) and (-1/2, 1/2) are asymmetric in the moment check,
        # and the derivative-weighted check pairs at (1 + j, 2 + j).
        failing = {record["name"] for record in checks.run("all") if not record["passed"]}
        assert failing == {"orthogonality.jacobi-moments", "orthogonality.derivative-weighted"}

    def test_asymmetric_classical_gram_against_products(self, swapped):
        assert not self.gram_matches_products(JacobiParams(0, 2))
        assert self.gram_matches_products(JacobiParams(1, 1))

    def test_gram_against_products_without_the_fault(self):
        assert self.gram_matches_products(JacobiParams(0, 2))
        assert self.gram_matches_products(JacobiParams(1, 1))
