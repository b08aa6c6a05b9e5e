"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` or ``-rA`` to see
the per-criterion lines).  Every tolerance and time budget is pinned here.
"""

import math
import random
import time
from fractions import Fraction

from jsob.algebra import (
    Polynomial,
    ScaledPolynomial,
    Surd,
    integrate_weighted,
)
from jsob.checks import (
    PoleInGammaRatio,
    check_derivative_identity,
    derivative_orthogonality_value,
    verify_defining_identity,
)
from jsob.jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    UndefinedNormalization,
    jacobi_family,
)
from jsob.numeric import chel_K, chel_preset, galerkin_spectrum
from jsob.operators import (
    LeftDefinite,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
    apply_ell,
    decompose_w,
    gram_matrix,
    inner_product,
    operator_matrix,
    spectrum,
)
from jsob.stirling import build_table, composite_coefficients
from reference_data import JACOBI_STIRLING_TABLE


class Budget:
    """Context manager asserting a wall-clock budget and printing the verdict."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


def rand_poly(rng, degree):
    return Polynomial(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
    )


def test_criterion_01_jacobi_stirling_table():
    with Budget("criterion 1: Jacobi-Stirling table (81 exact entries)", 1.0):
        table = build_table(8)
        for n in range(9):
            for j in range(9):
                assert table.entry(n, j) == JACOBI_STIRLING_TABLE[j][n]
        assert table.entry(7, 5) == 1092
        assert table.entry(8, 5) == 25664
        assert table.entry(5, 3) == 52


def test_criterion_02_fifth_composite_power_coefficients():
    with Budget("criterion 2: fifth-power coefficients [0, 0, 8, 52, 20, 1]", 1.0):
        assert list(composite_coefficients(5, 0).c) == [0, 0, 8, 52, 20, 1]


def test_criterion_03_defining_identity():
    with Budget("criterion 3: defining identity (n<=6, m<=12, three shifts)", 5.0):
        for n in range(1, 7):
            for m in range(2, 13):
                for k in (Fraction(0), Fraction(1), Fraction(7, 3)):
                    assert verify_defining_identity(n, m, k)


def test_criterion_04_sobolev_orthonormality():
    with Budget("criterion 4: Sobolev Gram matrix is the 16x16 identity", 10.0):
        gm = gram_matrix(15, SobolevPhi(), Normalization.PHI)
        assert gm.size == 16
        assert gm.is_identity()


def test_criterion_05_eigenvalue_equations():
    with Budget("criterion 5: eigenvalue relations and diagonal operator matrix", 10.0):
        for k in (Fraction(0), Fraction(1)):
            for n in range(21):
                fam = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
                lam = Fraction(n * (n - 1)) + k
                assert apply_ell(fam, k).poly == lam * fam.poly
            om = operator_matrix(10, SpectrumSpec(OperatorTag.T, k))
            assert om.is_diagonal()
            expected = spectrum(SpectrumSpec(OperatorTag.T, k), 11)
            assert [om.entry(i, i).to_fraction() for i in range(om.size)] == expected


def test_criterion_06_left_definite_orthogonality():
    with Budget("criterion 6: left-definite orthogonality (m, l <= 10, n <= 3)", 30.0):
        k = Fraction(1)
        fams = {m: jacobi_family(m, NONCLASSICAL, Normalization.L2) for m in range(2, 11)}
        for n in range(1, 4):
            spec = LeftDefinite(n, k)
            for m, fm in fams.items():
                for l, fl in fams.items():
                    value = inner_product(fm, fl, spec)
                    if m == l:
                        assert value == Surd.from_rational(
                            (Fraction(m * (m - 1)) + k) ** n
                        )
                    else:
                        assert value == Surd.zero()


def test_criterion_07_derivative_identity_and_orthogonality():
    with Budget("criterion 7: derivative identity + weighted orthogonality", 30.0):
        verified_identity = 0
        verified_pairing = 0
        for a in (-1, 0, 1, 2):
            for b in (-1, 0, 1, 2):
                params = JacobiParams(a, b)
                for n in range(9):
                    for j in range(n + 1):
                        try:
                            assert check_derivative_identity(n, j, params)
                            verified_identity += 1
                        except (UndefinedNormalization, PoleInGammaRatio):
                            continue
                for n in range(9):
                    for r in range(n + 1):
                        for j in range(n + 1):
                            try:
                                value = derivative_orthogonality_value(n, r, j, params)
                            except (UndefinedNormalization, PoleInGammaRatio, ValueError):
                                continue
                            if n != r:
                                assert value == 0
                            verified_pairing += 1
        # 9 nonnegative parameter pairs cover all (n, j); the nonclassical pair
        # contributes degrees 2..8 (j = 0 included, shifted pairings need j >= 1)
        assert verified_identity == 447
        assert verified_pairing > 2000


def test_criterion_08_integrand_identities():
    from jsob.checks import verify_dirichlet_identity, verify_lagrange_identity

    with Budget("criterion 8: Green/Dirichlet integrand identities (100 random)", 5.0):
        rng = random.Random(2024)
        for _ in range(100):
            f = rand_poly(rng, rng.randint(0, 8))
            g = rand_poly(rng, rng.randint(0, 8))
            k = Fraction(rng.randint(0, 50), rng.randint(1, 9))
            assert verify_lagrange_identity(f, g, k)
            assert verify_dirichlet_identity(f, g, k)


def test_criterion_09_sobolev_decomposition():
    with Budget("criterion 9: direct-sum decomposition (50 random)", 5.0):
        rng = random.Random(99)
        low_modes = [
            jacobi_family(0, NONCLASSICAL, Normalization.PHI),
            jacobi_family(1, NONCLASSICAL, Normalization.PHI),
        ]
        for _ in range(50):
            f = rand_poly(rng, rng.randint(0, 10))
            f1, f2 = decompose_w(f)
            assert f1 + f2 == f
            assert f1(Fraction(1)) == 0 and f1(Fraction(-1)) == 0
            for q in low_modes:
                assert (
                    inner_product(ScaledPolynomial.of(f1), q, SobolevPhi())
                    == Surd.zero()
                )


def test_criterion_10_galerkin_spectrum():
    with Budget("criterion 10: Galerkin recovery of the weighted spectrum", 30.0):
        for k, expected in ((0.0, [2, 6, 12, 20]), (1.0, [3, 7, 13, 21])):
            ev30 = galerkin_spectrum(30, k)
            for i, target in enumerate(expected):
                assert abs(ev30[i] - target) < 1e-6
            ev35 = galerkin_spectrum(35, k)
            for i in range(len(ev30)):
                assert ev30[i] >= ev35[i] - 1e-9
            assert all(v >= k - 1e-9 for v in ev30)


def test_criterion_11_chel_constants():
    with Budget("criterion 11: boundedness constants for the two presets", 5.0):
        kmax, _ = chel_K(chel_preset("dirichlet"), 4000)
        # independent golden-section maximization of the closed form
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        fn = lambda x: 0.5 * (1 - x) * math.log((1 + x) / (1 - x))
        lo, hi = 1e-9, 1 - 1e-9
        x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        f1, f2 = fn(x1), fn(x2)
        while hi - lo > 1e-13:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + inv_phi * (hi - lo)
                f2 = fn(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - inv_phi * (hi - lo)
                f1 = fn(x1)
        closed = fn(0.5 * (lo + hi))
        assert abs(kmax * kmax - closed) < 1e-6

        kmax, _ = chel_K(chel_preset("w1v1"), 4000)
        assert abs(kmax * kmax - math.exp(-1)) < 1e-9


def test_criterion_12_normalization_bridge():
    with Budget("criterion 12: weighted squared norms equal 1/(n(n-1))", 5.0):
        for n in range(2, 13):
            fam = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
            assert fam.scale_sq * integrate_weighted(fam.poly * fam.poly, -1) == (
                Fraction(1, n * (n - 1))
            )
