from fractions import Fraction

import pytest

from jsob.algebra import (
    ONE_MINUS_X2,
    Polynomial,
    ScaledPolynomial,
    integrate_weighted,
    symmetric_weight_form,
)
from jsob.checks import (
    NotProportional,
    PoleInGammaRatio,
    check_derivative_identity,
    derivative_coefficient_squared,
    factorization_check,
    proportional_scale_squared,
)
from jsob.jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    UndefinedNormalization,
    jacobi_family,
)
from reference_data import jacobi_by_binomial_sum, jacobi_by_recurrence


def reference(n, params):
    return jacobi_family(n, params, Normalization.REFERENCE).poly


class TestClassicalJacobi:
    def test_degree_zero_is_one(self):
        assert reference(0, JacobiParams(Fraction(1, 2), 2)) == Polynomial.one()

    @pytest.mark.parametrize(
        "alpha,beta", [(0, 0), (1, 1), (1, 2), (Fraction(1, 2), Fraction(-1, 4))]
    )
    def test_degree_one(self, alpha, beta):
        a, b = Fraction(alpha), Fraction(beta)
        # a + 1 + (a + b + 2)(x - 1)/2, expanded
        expected = Polynomial(((a - b) / 2, (a + b + 2) / 2))
        assert reference(1, JacobiParams(a, b)) == expected

    def test_degree_one_nonclassical_vanishes(self):
        assert reference(1, NONCLASSICAL).is_zero

    def test_value_at_one(self):
        # P_n(1) = binom(n + alpha, n)
        assert reference(3, JacobiParams(1, 1))(Fraction(1)) == 4
        assert reference(2, JacobiParams(2, 0))(Fraction(1)) == 6

    @pytest.mark.parametrize(
        "alpha,beta", [(0, 0), (1, 1), (1, 2), (Fraction(1, 2), Fraction(-1, 4))]
    )
    def test_against_recurrence_oracle(self, alpha, beta):
        params = JacobiParams(Fraction(alpha), Fraction(beta))
        for n in range(9):
            assert reference(n, params) == jacobi_by_recurrence(n, alpha, beta)

    def test_rejects_parameters_below_minus_one(self):
        with pytest.raises(ValueError):
            JacobiParams(-2, 0)


class TestNonclassicalJacobi:
    def test_degree_zero_phi(self):
        assert jacobi_family(0, NONCLASSICAL, Normalization.PHI) == ScaledPolynomial(
            1, Polynomial.one()
        )

    def test_degree_one_phi(self):
        fam = jacobi_family(1, NONCLASSICAL, Normalization.PHI)
        assert fam.scale_sq == Fraction(1, 3) and fam.poly == Polynomial.x()

    def test_degree_two_phi(self):
        fam = jacobi_family(2, NONCLASSICAL, Normalization.PHI)
        assert fam.scale_sq == 6
        assert fam.poly == Polynomial((Fraction(-1, 4), 0, Fraction(1, 4)))

    def test_boundary_roots(self):
        for n in range(2, 21):
            poly = jacobi_family(n, NONCLASSICAL, Normalization.PHI).poly
            assert poly(Fraction(1)) == 0 and poly(Fraction(-1)) == 0

    def test_parity(self):
        for n in range(21):
            poly = jacobi_family(n, NONCLASSICAL, Normalization.PHI).poly
            reflected = Polynomial([(-1) ** i * c for i, c in enumerate(poly.coeffs)])
            assert reflected == (-1) ** n * poly

    def test_degree(self):
        for n in range(21):
            assert jacobi_family(n, NONCLASSICAL, Normalization.PHI).poly.degree == n

    def test_l2_undefined_for_low_degrees(self):
        for n in (0, 1):
            with pytest.raises(UndefinedNormalization):
                jacobi_family(n, NONCLASSICAL, Normalization.L2)

    def test_normalization_bridge(self):
        # oracle: exact integration of the squared polynomial part
        for n in range(2, 13):
            fam = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
            norm_sq = fam.scale_sq * integrate_weighted(fam.poly * fam.poly, -1)
            assert norm_sq == Fraction(1, n * (n - 1))

    def test_l2_is_unit_norm(self):
        for n in range(2, 10):
            fam = jacobi_family(n, NONCLASSICAL, Normalization.L2)
            assert fam.scale_sq * integrate_weighted(fam.poly * fam.poly, -1) == 1

    def test_l2_vs_phi_squared_ratio(self):
        for n in range(2, 10):
            l2 = jacobi_family(n, NONCLASSICAL, Normalization.L2)
            phi = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
            scaled = ScaledPolynomial(n * (n - 1) * phi.scale_sq, phi.poly)
            assert l2.same_function(scaled)

    def test_reference_wraps_classical(self):
        fam = jacobi_family(4, NONCLASSICAL, Normalization.REFERENCE)
        assert fam.scale_sq == 1
        assert fam.poly == jacobi_by_binomial_sum(4, -1, -1)


class TestJacobiFamily:
    def test_phi_only_for_nonclassical(self):
        with pytest.raises(UndefinedNormalization):
            jacobi_family(3, JacobiParams(1, 1), Normalization.PHI)

    def test_l2_requires_integer_nonnegative(self):
        with pytest.raises(UndefinedNormalization):
            jacobi_family(3, JacobiParams(Fraction(1, 2), 0), Normalization.L2)
        with pytest.raises(UndefinedNormalization):
            jacobi_family(3, JacobiParams(-1, 0), Normalization.L2)

    def test_classical_l2_unit_norm(self):
        # The closed-form scale against the exact integral of the square.
        for (a, b, low) in ((0, 0, 0), (1, 1, 0), (2, 1, 0), (0, 2, 0), (3, 1, 0), (-1, -1, 2)):
            for n in range(low, 61):
                fam = jacobi_family(n, JacobiParams(a, b), Normalization.L2)
                norm_sq = integrate_weighted(*symmetric_weight_form(fam.poly * fam.poly, a, b))
                assert fam.scale_sq * norm_sq == 1, (a, b, n)


class TestDerivativeCoefficient:
    def test_nonclassical_n2_j1(self):
        assert derivative_coefficient_squared(2, 1, NONCLASSICAL) == 2

    def test_j_zero_is_one(self):
        for n in range(6):
            assert derivative_coefficient_squared(n, 0, JacobiParams(2, 1)) == 1

    def test_j_above_n_is_zero(self):
        assert derivative_coefficient_squared(3, 5, JacobiParams(0, 0)) == 0

    def test_pole_at_degree_one_nonclassical(self):
        with pytest.raises(PoleInGammaRatio):
            derivative_coefficient_squared(1, 1, NONCLASSICAL)

    def test_vanishing_rule_beats_pole_for_j_above_n(self):
        # a(n, j) = 0 for j > n holds unconditionally, even at the nonclassical pair
        assert derivative_coefficient_squared(0, 1, NONCLASSICAL) == 0

    def test_shift_product_value(self):
        # a = b = 0, n = 4, j = 2: 4!/2! = 12 times the factors 5 and 6 -> 360
        assert derivative_coefficient_squared(4, 2, JacobiParams(0, 0)) == 360


class TestDerivativeIdentity:
    def test_nonclassical_first_derivative(self):
        assert check_derivative_identity(2, 1, NONCLASSICAL)

    def test_j_zero_trivial(self):
        assert check_derivative_identity(4, 0, JacobiParams(1, 1))

    def test_second_derivative_legendre(self):
        assert check_derivative_identity(5, 2, JacobiParams(0, 0))

    def test_order_above_degree_both_sides_vanish(self):
        assert check_derivative_identity(3, 5, JacobiParams(1, 1))

    def test_sweep_where_defined(self):
        seen = 0
        for a in (-1, 0, 1, 2):
            for b in (-1, 0, 1, 2):
                params = JacobiParams(a, b)
                for n in range(9):
                    for j in range(n + 1):
                        try:
                            assert check_derivative_identity(n, j, params)
                            seen += 1
                        except (UndefinedNormalization, PoleInGammaRatio):
                            continue
        assert seen == 447  # 9 classical pairs x 45 + nonclassical degrees 2..8


class TestFactorizationCheck:
    def test_degree_two_constant(self):
        assert factorization_check(2) == Fraction(6, 16)

    def test_degree_three_nonzero(self):
        assert factorization_check(3) > 0

    def test_range(self):
        for n in range(2, 12):
            assert factorization_check(n) > 0

    def test_negative_control(self):
        # perturbing the factor by +x destroys proportionality
        tilde = jacobi_family(2, NONCLASSICAL, Normalization.PHI)
        perturbed = ONE_MINUS_X2 * (Polynomial.one() + Polynomial.x())
        with pytest.raises(NotProportional):
            proportional_scale_squared(tilde, perturbed)
