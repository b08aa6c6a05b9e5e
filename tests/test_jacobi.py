from fractions import Fraction

import pytest

from jsob.algebra import (
    Polynomial,
    ScaledPolynomial,
    integrate_weighted,
)
from jsob import checks, jacobi
from jsob.checks import (
    PoleInGammaRatio,
    check_derivative_identity,
    derivative_coefficient_squared,
    factorization_check,
    jacobi_moments_check,
)
from jsob.jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    UndefinedNormalization,
    jacobi_family,
)
from jsob.operators import Classical, inner_product
from reference_data import (
    derivative_coefficient_squared_by_loop,
    jacobi_by_binomial_sum,
    jacobi_by_recurrence,
)


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
            assert l2.poly == phi.poly
            assert l2.scale_sq == n * (n - 1) * phi.scale_sq

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
                norm_sq = inner_product(fam.poly, fam.poly, Classical(JacobiParams(a, b)))
                assert fam.scale_sq * norm_sq.to_fraction() == 1, (a, b, n)


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

    @pytest.mark.parametrize(
        "params",
        [NONCLASSICAL, JacobiParams(0, 0), JacobiParams(1, 2),
         JacobiParams(Fraction(1, 2), Fraction(-1, 3))],
        ids=lambda params: f"{params.alpha},{params.beta}",
    )
    def test_matches_the_factor_product(self, params):
        for n in range(9):
            for j in range(n + 3):
                if params == NONCLASSICAL and n == j == 1:
                    with pytest.raises(PoleInGammaRatio):
                        derivative_coefficient_squared(n, j, params)
                    continue
                value = derivative_coefficient_squared(n, j, params)
                assert type(value) is Fraction, (n, j)
                assert value == derivative_coefficient_squared_by_loop(n, j, params), (n, j)
                assert (value == 0) is (j > n), (n, j)


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

    @pytest.mark.parametrize("n, j, params", [
        (2, 1, NONCLASSICAL), (5, 2, JacobiParams(0, 0)), (3, 2, JacobiParams(1, 2)),
    ], ids=["nonclassical-2-1", "legendre-5-2", "jacobi-1-2-3-2"])
    @pytest.mark.parametrize("fault", [
        lambda m: ScaledPolynomial(m.scale_sq, -m.poly),
        lambda m: ScaledPolynomial(4 * m.scale_sq, m.poly),
        lambda m: ScaledPolynomial(m.scale_sq, m.poly + Polynomial.x()),
    ], ids=["negated", "scale-times-4", "plus-x"])
    def test_planted_fault_in_the_base_member(self, monkeypatch, fault, n, j, params):
        # The base member is P_(n-j) at the shifted parameters; the scale fault
        # keeps p = c q with c > 0, so only the comparison of scales sees it.
        family, shifted = checks.jacobi_family, JacobiParams(params.alpha + j, params.beta + j)

        def faulty(m, at, norm):
            member = family(m, at, norm)
            return fault(member) if (m, at) == (n - j, shifted) else member

        monkeypatch.setattr(checks, "jacobi_family", faulty)
        assert not check_derivative_identity(n, j, params)
        monkeypatch.undo()
        assert check_derivative_identity(n, j, params)


def endpoint_factorization_record():
    return next(record for record in checks.run("identities")
                if record["name"] == "identities.endpoint-factorization")


def patch_member(monkeypatch, wanted, shift):
    """checks.jacobi_family returns the members for which ``wanted(n, params)``
    holds with ``shift`` added."""
    family = checks.jacobi_family

    def patched(n, params, norm):
        member = family(n, params, norm)
        if not wanted(n, params):
            return member
        return ScaledPolynomial(member.scale_sq, member.poly + shift)

    monkeypatch.setattr(checks, "jacobi_family", patched)


class TestFactorizationCheck:
    def test_range(self):
        for n in range(2, 12):
            assert factorization_check(n) is True

    def test_negative_control(self, monkeypatch):
        # With x added to every P^(1,1) no member is a multiple of (1 - x^2)
        # P_(n-2)^(1,1), except at n = 3, where 2x + x is still a multiple of x.
        patch_member(monkeypatch, lambda n, params: params == JacobiParams(1, 1), Polynomial.x())
        assert [n for n in range(2, 12) if not factorization_check(n)] == [2, *range(4, 12)]
        record = endpoint_factorization_record()
        assert not record["passed"]
        assert record["detail"].endswith("at n = [2, 4, 5, 6, 7, 8]")

    def test_member_that_does_not_vanish_at_one(self, monkeypatch):
        patch_member(monkeypatch, lambda n, params: (n, params) == (2, NONCLASSICAL),
                     Polynomial.one())
        assert factorization_check(2) is False
        record = endpoint_factorization_record()
        assert not record["passed"]
        assert record["detail"] == "not a multiple of (1 - x^2) P_(n-2)^(1,1) at n = [2]"

    @pytest.mark.parametrize(
        "target, fault, detail",
        [
            ("_recurrence_step",
             lambda step: lambda n, params, p1, p2: step(n, params, p1, p2) + (
                 p2 * Fraction(1, 1000) if params == NONCLASSICAL else Polynomial.zero()),
             "not a multiple of (1 - x^2) P_(n-2)^(1,1) at n = [4, 5, 6, 7, 8]"),
            ("_seeds",
             lambda seeds: lambda params: seeds(params)[:2] + (
                 seeds(params)[2] + (Polynomial.x() if params == JacobiParams(1, 1)
                                     else Polynomial.zero()),),
             "not a multiple of (1 - x^2) P_(n-2)^(1,1) at n = [4, 5, 6, 7, 8]"),
            ("_seeds",
             lambda seeds: lambda params: seeds(params)[:2] + (
                 seeds(params)[2] + (Polynomial.one() if params == NONCLASSICAL
                                     else Polynomial.zero()),),
             "not a multiple of (1 - x^2) P_(n-2)^(1,1) at n = [2, 3, 4, 5, 6, 7, 8]"),
        ],
        ids=["recurrence-adds-p-n-minus-2", "p2-seed-at-1-1-adds-x", "p2-seed-at-minus-1-adds-1"],
    )
    def test_planted_fault_is_named(self, monkeypatch, fresh_families, target, fault, detail):
        monkeypatch.setattr(jacobi, target, fault(getattr(jacobi, target)))
        record = endpoint_factorization_record()
        assert (record["passed"], record["detail"]) == (False, detail)
        monkeypatch.undo()
        fresh_families()
        assert endpoint_factorization_record() == {
            "name": "identities.endpoint-factorization", "passed": True, "detail": ""}


@pytest.fixture
def fresh_families():
    """Empties the family caches before and after the test, so that a patched
    seed or recurrence step reaches the checks and leaves no member behind."""
    def clear():
        jacobi._FAMILIES.clear()
        jacobi.jacobi_family.cache_clear()

    clear()
    yield clear
    clear()


def moments_check_passes():
    return next(record["passed"] for record in checks.run("orthogonality")
                if record["name"] == "orthogonality.jacobi-moments")


class TestJacobiMomentsCheck:
    @pytest.mark.parametrize(
        "params",
        [JacobiParams(a, b) for a, b in (
            (0, 0), (1, 1), (2, 1), (3, 3), (Fraction(1, 2), Fraction(-1, 4)),
            (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-1, 2), Fraction(1, 2)),
        )],
        ids=lambda params: f"{params.alpha},{params.beta}",
    )
    def test_holds_exactly_to_degree_20(self, params):
        assert jacobi_moments_check(params, 20)

    def test_rejects_parameters_at_minus_one(self):
        for params in (NONCLASSICAL, JacobiParams(-1, 0), JacobiParams(0, -1)):
            with pytest.raises(ValueError):
                jacobi_moments_check(params, 3)

    def test_fails_on_a_broken_p2_seed(self, monkeypatch, fresh_families):
        seeds = jacobi._seeds

        def broken(params):
            p0, p1, p2 = seeds(params)
            return p0, p1, p2 + Polynomial.one() * Fraction(1, 1000)

        monkeypatch.setattr(jacobi, "_seeds", broken)
        assert not moments_check_passes()
        monkeypatch.undo()
        fresh_families()
        assert moments_check_passes()

    def test_fails_on_a_broken_recurrence_coefficient(self, monkeypatch, fresh_families):
        # Scales the coefficient of P_{n-2} in the three-term recurrence.
        step = jacobi._recurrence_step
        monkeypatch.setattr(jacobi, "_recurrence_step",
                            lambda n, params, p1, p2: step(n, params, p1, p2 * Fraction(1001, 1000)))
        assert not moments_check_passes()
        monkeypatch.undo()
        fresh_families()
        assert moments_check_passes()
