import random
from fractions import Fraction

import pytest

from jsob import checks, stirling
from jsob.checks import verify_defining_identity
from jsob.stirling import (
    CompositeCoefficients,
    build_table,
    composite_coefficients,
    jacobi_stirling,
)
from reference_data import (
    JACOBI_STIRLING_TABLE,
    composite_coefficients_by_binomial_sum,
    defining_identity_sum_by_loop,
)


class TestJacobiStirling:
    @pytest.mark.parametrize("n,j,value", [(7, 5, 1092), (8, 5, 25664), (4, 3, 8), (5, 2, 8)])
    def test_table_values(self, n, j, value):
        assert jacobi_stirling(n, j) == value

    def test_full_table(self):
        for n in range(9):
            for j in range(9):
                assert jacobi_stirling(n, j) == JACOBI_STIRLING_TABLE[j][n]

    def test_triangularity(self):
        for n in range(13):
            for j in range(n + 1, 13):
                assert jacobi_stirling(n, j) == 0

    def test_diagonal(self):
        for n in range(13):
            assert jacobi_stirling(n, n) == 1

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            jacobi_stirling(-1, 0)


class TestLegendreStirling:
    # The Legendre-Stirling numbers are the Jacobi-Stirling triangle shifted by
    # one in both indices: PS(n, j) = {n + 1, j + 1}.
    def test_shift_relation(self):
        assert jacobi_stirling(6 + 1, 4 + 1) == 1092
        assert jacobi_stirling(3 + 1, 2 + 1) == 8

    def test_diagonal(self):
        for n in range(10):
            assert jacobi_stirling(n + 1, n + 1) == 1


class TestCompositeCoefficients:
    def test_fifth_power_k_zero(self):
        assert list(composite_coefficients(5, 0).c) == [0, 0, 8, 52, 20, 1]

    def test_constant_term_is_k_power(self):
        assert composite_coefficients(3, 2).c[0] == 8

    def test_hand_expansion_n2_k1(self):
        assert list(composite_coefficients(2, 1).c) == [1, 2, 1]

    def test_k_zero_column_is_triangle(self):
        # Against the frozen table: the library's k = 0 row is jacobi_stirling itself.
        for n in range(1, 9):
            assert list(composite_coefficients(n, 0).c) == [
                JACOBI_STIRLING_TABLE[j][n] for j in range(n + 1)
            ]

    def test_leading_coefficient_one_and_nonnegative(self):
        for n in range(1, 7):
            for k in (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(5, 2)):
                c = composite_coefficients(n, k).c
                assert c[n] == 1
                assert all(v >= 0 for v in c)

    @pytest.mark.parametrize("k", [0, Fraction(1, 2), 1, 2, Fraction(7, 3), Fraction(10**6, 7)])
    def test_recurrence_matches_binomial_sum(self, k):
        # n up to 16, the cap of --ld-n.
        for n in range(1, 17):
            coeffs = composite_coefficients(n, k)
            assert coeffs == composite_coefficients_by_binomial_sum(n, k)
            assert all(type(c) is Fraction for c in coeffs.c)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            composite_coefficients(2, -1)


class TestDefiningIdentity:
    def test_hand_case(self):
        # n=2, m=2, k=1: 1*1 + 2*2 + 1*4 = 9 = (2*1 + 1)^2
        assert verify_defining_identity(2, 2, 1)

    def test_linear_case_all_m(self):
        for m in range(2, 13):
            assert verify_defining_identity(1, m, Fraction(9, 4))

    def test_rational_k(self):
        assert verify_defining_identity(4, 7, Fraction(5, 3))

    def test_sweep(self):
        for n in range(1, 7):
            for m in range(2, 13):
                for k in (Fraction(0), Fraction(1), Fraction(7, 3)):
                    assert verify_defining_identity(n, m, k)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            verify_defining_identity(2, 1, 0)

    def test_factorial_ratios_match_the_factor_product(self, monkeypatch):
        # Arbitrary coefficients, c_0 chosen so that the oracle's sum is the right
        # side: the identity holds for them exactly when every ratio, 0 for j > m
        # included, is the oracle's, and fails once c_0 moves.
        rng = random.Random(38)
        for n in range(1, 9):
            for m in range(2, 13):
                for k in (Fraction(0), Fraction(1), Fraction(7, 3)):
                    c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
                    c[0] += (m * (m - 1) + k) ** n - defining_identity_sum_by_loop(c, m)
                    for moved in (0, 1):
                        coeffs = CompositeCoefficients(n, k, (c[0] + moved, *c[1:]))
                        monkeypatch.setattr(checks, "composite_coefficients", lambda n, k: coeffs)
                        assert verify_defining_identity(n, m, k) is (moved == 0), (n, m, k)


class TestBuildTable:
    def test_matches_reference(self):
        table = build_table(8)
        for n in range(9):
            for j in range(9):
                assert table.entry(n, j) == JACOBI_STIRLING_TABLE[j][n]

    def test_trivial_table(self):
        table = build_table(0)
        assert table.rows == ((1,),)

    def test_specific_entry(self):
        assert build_table(5).entry(5, 2) == 8


class TestVerifyCatchesPlantedFaults:
    # Each fault changes the diagonal weight j (j - 1) + k of the one triangle
    # recurrence; exactly the checks that read the triangle at that weight fail.

    @staticmethod
    def failing(monkeypatch, weight):
        def triangle(max_n, k):
            rows = [(1,)]
            for _ in range(max_n):
                prev = rows[-1] + (0,)
                rows.append(tuple(prev[j - 1] + weight(j, k) * prev[j] for j in range(len(prev))))
            return rows

        monkeypatch.setattr(stirling, "_triangle", triangle)
        return {record["name"] for record in checks.run("all") if not record["passed"]}

    def test_weight_j_times_j_plus_one(self, monkeypatch):
        # The k = 0 triangle is wrong from {2, 1} on, so every check that reads
        # it fails, the zero-shift column included.
        assert self.failing(monkeypatch, lambda j, k: j * (j + 1) + k) == {
            "stirling.table-9x9", "stirling.fifth-power-coefficients",
            "stirling.zero-shift-column", "stirling.defining-identity",
            "orthogonality.left-definite-gram", "eigen.composite-powers"}

    def test_doubled_shift(self, monkeypatch):
        # The k = 0 triangle is right; only the checks at a shift k > 0 see it.
        assert self.failing(monkeypatch, lambda j, k: j * (j - 1) + 2 * k) == {
            "stirling.defining-identity", "orthogonality.left-definite-gram",
            "eigen.composite-powers", "identities.first-left-definite-bridge"}
