from fractions import Fraction

import pytest

from jsob.stirling import (
    build_table,
    composite_coefficients,
    jacobi_stirling,
    verify_defining_identity,
)
from reference_data import JACOBI_STIRLING_TABLE


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
        for n in range(1, 9):
            assert list(composite_coefficients(n, 0).c) == [
                jacobi_stirling(n, j) for j in range(n + 1)
            ]

    def test_leading_coefficient_one_and_nonnegative(self):
        for n in range(1, 7):
            for k in (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(5, 2)):
                c = composite_coefficients(n, k).c
                assert c[n] == 1
                assert all(v >= 0 for v in c)

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
