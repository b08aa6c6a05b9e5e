import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from jsob import numeric
from jsob.algebra import ONE_MINUS_X2, Polynomial, integrate_weighted
from jsob.checks import knorm_crosscheck
from jsob.numeric import (
    ChelInstance,
    MassNotPositiveDefinite,
    NonFiniteIntegral,
    QuadratureRule,
    chel_K,
    chel_preset,
    galerkin_spectrum,
    galerkin_system,
    gauss_jacobi,
    solve_galerkin,
)
from reference_data import (
    chel_K_by_adaptive_simpson,
    galerkin_system_dense,
    gauss_jacobi_by_eigh,
    solve_galerkin_dense,
)


def golden_max(fn, lo, hi):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
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
    return fn(0.5 * (lo + hi))


def legendre_rule(order):
    nodes, weights = leggauss(order)
    return QuadratureRule(order, tuple(nodes.tolist()), tuple(weights.tolist()))


GJ_PARAMETERS = [
    (0.0, 0.0), (1.0, 1.0), (0.5, -0.25), (2.0, 1.0), (-0.5, -0.5), (0.5, 0.5), (2.0, 2.0),
]


class TestGaussJacobi:
    def test_moment_zero(self):
        # integral of (1-x)^0.5 (1+x)^(-0.25) equals mu0 reproduced by the rule
        rule = gauss_jacobi(8, 0.5, -0.25)
        mu0 = (
            2.0 ** (0.25 + 1)
            * math.gamma(1.5)
            * math.gamma(0.75)
            / math.gamma(2.25)
        )
        assert rule.integrate(lambda x: 1.0) == pytest.approx(mu0, rel=1e-13)

    def test_reduces_to_legendre(self):
        gj = gauss_jacobi(6, 0.0, 0.0)
        gl = legendre_rule(6)
        for a, b in zip(gj.nodes, gl.nodes):
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("alpha, beta", GJ_PARAMETERS)
    def test_matches_eigh_oracle(self, alpha, beta):
        for order in range(1, 41):
            rule, reference = gauss_jacobi(order, alpha, beta), gauss_jacobi_by_eigh(order, alpha, beta)
            assert len(rule.nodes) == len(rule.weights) == order
            for x, w, x_ref, w_ref in zip(rule.nodes, rule.weights, reference.nodes, reference.weights):
                assert abs(x - x_ref) <= 1e-14
                assert abs(w - w_ref) <= 1e-11 * w_ref

    @pytest.mark.parametrize("alpha, beta", GJ_PARAMETERS)
    def test_exact_moments(self, alpha, beta):
        # x = 2t - 1 turns the moments into Beta integrals:
        # int x^k w / mu0 = sum_i C(k, i) 2^i (-1)^(k-i) prod_{l<i} (b+1+l)/(a+b+2+l),
        # exact in Fraction.  An odd power is measured against the even moment
        # below it, which bounds int |x|^k w.
        a, b = Fraction(alpha), Fraction(beta)
        beta_ratios = [Fraction(1)]  # B(b+1+i, a+1) / B(b+1, a+1)
        for i in range(79):
            beta_ratios.append(beta_ratios[-1] * (b + 1 + i) / (a + b + 2 + i))
        ratios = [sum(comb(k, i) * 2**i * (-1) ** (k - i) * beta_ratios[i] for i in range(k + 1))
                  for k in range(80)]
        mu0 = gauss_jacobi(1, alpha, beta).weights[0]  # the order-1 weight is mu0 itself
        for order in range(1, 41):
            rule = gauss_jacobi(order, alpha, beta)
            for k in range(2 * order):
                got = rule.integrate(lambda x: x**k)
                assert abs(got - mu0 * float(ratios[k])) <= 1e-13 * mu0 * float(ratios[k - k % 2])

    def test_rejects_bad_input(self):
        for args in ((0, 0.0, 0.0), (3, -1.0, 0.0), (3, 0.0, -1.5)):
            with pytest.raises(ValueError):
                gauss_jacobi(*args)


class TestKnormCrosscheck:
    def test_classical_integer_parameters(self):
        assert knorm_crosscheck(3, 1.0, 1.0) < 1e-10

    def test_constant_legendre(self):
        assert knorm_crosscheck(0, 0.0, 0.0) < 1e-12

    def test_non_integer_parameters(self):
        assert knorm_crosscheck(4, 0.5, -0.25) < 1e-8

    def test_sweep_small_degrees(self):
        for n in range(11):
            for (a, b) in ((0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (0.5, -0.25)):
                assert knorm_crosscheck(n, a, b) < 1e-8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            knorm_crosscheck(2, -1.0, 0.0)


class TestQuadratureConsistency:
    def test_exact_vs_quadrature(self):
        rng = random.Random(31)
        rule = legendre_rule(40)
        for _ in range(30):
            p = Polynomial(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(13)]
            )
            for m in (0, 1, 2):
                exact = float(integrate_weighted(p, m))
                approx = rule.integrate(lambda x, m=m: float(p(x)) * (1 - x * x) ** m)
                assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))

    def test_singular_weight_on_vanishing_functions(self):
        rng = random.Random(37)
        rule = legendre_rule(40)
        for _ in range(20):
            p = ONE_MINUS_X2 * Polynomial(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(11)]
            )
            exact = float(integrate_weighted(p, -1))
            approx = rule.integrate(lambda x: float(p(x)) / (1 - x * x))
            assert abs(approx - exact) <= 1e-8 * max(1.0, abs(exact))


class TestChel:
    def test_unit_preset(self):
        kmax, argmax = chel_K(chel_preset("unit"), 1000)
        assert kmax == pytest.approx(0.5, abs=1e-12)
        assert argmax == pytest.approx(0.5, abs=1e-4)

    def test_dirichlet_against_closed_form(self):
        kmax, _ = chel_K(chel_preset("dirichlet"), 4000)
        closed = golden_max(
            lambda x: 0.5 * (1 - x) * math.log((1 + x) / (1 - x)), 1e-9, 1 - 1e-9
        )
        assert abs(kmax * kmax - closed) < 1e-6

    def test_w1v1_maximum_is_inverse_e(self):
        kmax, argmax = chel_K(chel_preset("w1v1"), 4000)
        assert abs(kmax * kmax - math.exp(-1)) < 1e-9
        # the bound -(1+x) log(1+x) peaks at 1 + x = 1/e
        assert argmax == pytest.approx(math.exp(-1) - 1, abs=1e-5)

    def test_grid_stability(self):
        k1, _ = chel_K(chel_preset("dirichlet"), 10000)
        k2, _ = chel_K(chel_preset("dirichlet"), 20000)
        assert abs(k1 - k2) < 1e-6

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            chel_K(chel_preset("unit"), 500)

    def test_divergent_tail_detected(self):
        diverging = ChelInstance(
            name="divergent",
            phi=lambda t: 1.0,
            psi=lambda t: 1.0 / (1.0 - t),
            weight=lambda t: 1.0,
            a=0.0,
            b=1.0,
        )
        with pytest.raises(NonFiniteIntegral):
            chel_K(diverging, 1000)

    @pytest.mark.parametrize(
        "chel", [chel_K, chel_K_by_adaptive_simpson], ids=["lobatto", "adaptive-simpson"]
    )
    def test_integrable_endpoint_singularity_raises(self, chel):
        # psi^2 = (1 - t)^(-1/2) is integrable, but it is evaluated at t = 1,
        # which is a grid point, by both the composite rule and the old path.
        singular = ChelInstance(
            name="singular",
            phi=lambda t: 1.0,
            psi=lambda t: (1.0 - t) ** -0.25,
            weight=lambda t: 1.0,
            a=0.0,
            b=1.0,
        )
        with pytest.raises(NonFiniteIntegral):
            chel(singular, 1000)

    @pytest.mark.parametrize(
        "psi",
        [
            lambda t: 1.0 / math.sqrt(1.0 + 1e-9 - t),  # finite; Simpson and Lobatto disagree
            lambda t: 1e8,  # a cell integral above 1e12
        ],
        ids=["unresolved", "huge"],
    )
    def test_unresolved_cell_raises(self, psi):
        instance = ChelInstance(
            name="near-pole", phi=lambda t: 1.0, psi=psi, weight=lambda t: 1.0, a=0.0, b=1.0
        )
        with pytest.raises(NonFiniteIntegral):
            chel_K(instance, 1000)

    def test_presets_at_largest_grid(self):
        # The cell disagreement next to the log singularities does not shrink
        # with the cell, so the check must also stay quiet at grid 100000.
        kmax, _ = chel_K(chel_preset("dirichlet"), 100000)
        closed = golden_max(
            lambda x: 0.5 * (1 - x) * math.log((1 + x) / (1 - x)), 1e-9, 1 - 1e-9
        )
        assert abs(kmax * kmax - closed) < 1e-6
        kmax, _ = chel_K(chel_preset("w1v1"), 100000)
        assert abs(kmax * kmax - math.exp(-1)) < 1e-9
        kmax, argmax = chel_K(chel_preset("unit"), 100000)
        assert abs(kmax - 0.5) < 1e-9 and abs(argmax - 0.5) < 1e-4

    def test_cost_is_linear_in_grid(self):
        # 4 new nodes per cell x 2 integrands x 2 callables per evaluation,
        # plus a golden-section refinement whose cost does not grow with the
        # grid.  The dirichlet shape is where adaptive recursion grew faster.
        calls = 0

        def counted(fn):
            def wrapper(t):
                nonlocal calls
                calls += 1
                return fn(t)

            return wrapper

        preset = chel_preset("dirichlet")
        instance = ChelInstance(
            name="counted",
            phi=counted(preset.phi),
            psi=counted(preset.psi),
            weight=counted(preset.weight),
            a=preset.a,
            b=preset.b,
        )
        counts = {}
        for grid in (2000, 20000):
            calls = 0
            chel_K(instance, grid)
            counts[grid] = calls
            assert calls <= 17 * grid
        assert 9.5 <= counts[20000] / counts[2000] <= 10.5

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            chel_preset("nope")


class TestGalerkin:
    def test_spectrum_recovery_k0(self):
        ev = galerkin_spectrum(30, 0.0)
        for i, expected in enumerate([2, 6, 12, 20]):
            assert abs(ev[i] - expected) < 1e-6

    def test_spectrum_recovery_k1(self):
        ev = galerkin_spectrum(30, 1.0)
        for i, expected in enumerate([3, 7, 13, 21]):
            assert abs(ev[i] - expected) < 1e-6

    def test_monotone_in_size(self):
        for k in (0.0, 1.0):
            small = galerkin_spectrum(20, k)
            large = galerkin_spectrum(25, k)
            for i in range(len(small)):
                assert small[i] >= large[i] - 1e-9

    def test_bounded_below_by_k(self):
        for k in (0.0, 1.0, 2.5):
            assert all(v >= k - 1e-9 for v in galerkin_spectrum(15, k))

    def test_minimal_size(self):
        ev = galerkin_spectrum(2, 0.0)
        assert all(v >= 2 - 1e-9 for v in ev)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            galerkin_spectrum(1, 0.0)

    @pytest.mark.parametrize("size", [2, 3, 64, 200])
    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
    def test_every_eigenvalue_on_exact_spectrum(self, size, k):
        ev = galerkin_spectrum(size, k)
        assert len(ev) == size
        for m, value in enumerate(ev, start=2):
            exact = float(m * (m - 1) + k)
            assert abs(value - exact) <= 1e-10 * exact

    def test_system_matrices_symmetric(self):
        # A block stores one off-diagonal, so S and M are symmetric by
        # construction; the even block holds indices 0, 2, ..., the odd 1, 3, ...
        for size in (7, 8):
            even, odd = galerkin_system(size, Fraction(1))
            for block, start in ((even, 0), (odd, 1)):
                n = len(range(start, size, 2))
                assert [len(field) for field in block] == [n, n - 1, n, n - 1]

    def test_basis_is_not_the_eigenbasis(self):
        # On the eigenbasis both matrices would be diagonal and the eigensolve
        # would only read them back.
        for _, stiff_off, _, mass_off in galerkin_system(8, Fraction(1)):
            assert max(abs(v) for v in stiff_off) > 1e-2
            assert max(abs(v) for v in mass_off) > 1e-2

    def test_mass_positive_definite_required(self):
        # One block (stiff_diag, stiff_off, mass_diag, mass_off); the first mass
        # is [[1, 1], [1, 1]], whose second pivot is 0.
        stiff = ((1.0, 1.0), (0.0,))
        for mass in (((1.0, 1.0), (1.0,)), ((-1.0, 1.0), (0.0,)), ((1.0, math.nan), (0.0,))):
            with pytest.raises(MassNotPositiveDefinite):
                solve_galerkin((*stiff, *mass))

    def test_nonfinite_bracket_raises(self):
        # Eigenvalues near 1e308: twice the largest Rayleigh quotient overflows.
        with pytest.raises(NonFiniteIntegral):
            galerkin_spectrum(10, Fraction(10) ** 308)
        with pytest.raises(NonFiniteIntegral):
            galerkin_spectrum(10, -Fraction(10) ** 308)

    def test_refinement_stops_short_of_the_cap(self, monkeypatch):
        # galerkin_spectrum(10, -2) has the eigenvalue 0 (m = 2), whose Newton
        # steps never fall below a bound relative to the iterate, and the
        # eigenvalue 54, whose last iterate met a pivot that rounded to zero.
        # Without an absolute stop and an exit on an infinite slope they took
        # 100 and 54 of the call's 216 pivot scans.
        scans, per_refinement = [], []
        scan, refine = numeric._scan, numeric._refine

        def counting_scan(rows, sigma):
            scans.append(sigma)
            return scan(rows, sigma)

        def counting_refine(*args):
            before = len(scans)
            value = refine(*args)
            per_refinement.append(len(scans) - before)
            return value

        monkeypatch.setattr(numeric, "_scan", counting_scan)
        monkeypatch.setattr(numeric, "_refine", counting_refine)
        ev = galerkin_spectrum(10, -2)
        assert len(scans) < 216 and max(per_refinement) < 100
        for m, value in enumerate(ev, start=2):
            assert abs(value - (m * (m - 1) - 2)) <= 1e-13 * max(1, m * (m - 1) - 2)
        # Odd-order rules with alpha = beta have the node 0.
        per_refinement.clear()
        for order in (1, 5, 11, 41):
            rule = gauss_jacobi(order, 0.5, 0.5)
            assert abs(rule.nodes[order // 2]) <= 1e-15
        assert max(per_refinement) < 100

    def test_eigenvalue_on_a_split_point_takes_few_scans(self, monkeypatch):
        # solve_galerkin splits the symmetric bracket of an odd-order rule with
        # alpha = beta at 0 first, so the middle node's bracket starts at the
        # node itself and every Newton step from above lands at or below it.
        # That refinement bisected down to its stop floor: 52 pivot scans for
        # the node 0 of the order-3 Legendre rule, against 5 and 6 for the others.
        scans, per_index = [], {}
        scan, refine = numeric._scan, numeric._refine

        def counting_scan(rows, sigma):
            scans.append(sigma)
            return scan(rows, sigma)

        def counting_refine(rows, lo, hi, index):
            before = len(scans)
            value = refine(rows, lo, hi, index)
            per_index[index] = len(scans) - before
            return value

        monkeypatch.setattr(numeric, "_scan", counting_scan)
        monkeypatch.setattr(numeric, "_refine", counting_refine)
        rule = gauss_jacobi(3, 0.0, 0.0)
        assert rule.nodes[1] == 0.0
        assert per_index[1] <= 10 and per_index[0] <= 10 and per_index[2] <= 10
        # 1897 scans before the change; the split-point test must not add any.
        scans.clear()
        galerkin_spectrum(200, Fraction(7, 3))
        assert len(scans) <= 1897

    @pytest.mark.parametrize("size", [2, 3, 12, 64, 200])
    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
    def test_band_matches_dense_oracle(self, size, k):
        # The oracle's quadrature rounds at the scale of the largest entry (its
        # off-band entries reach 3.5e-13 at size 200), so both comparisons are
        # relative to that entry.
        blocks = galerkin_system(size, k)
        for dense, diag, off in zip(galerkin_system_dense(size, k), (0, 2), (1, 3)):
            tol = 1e-13 * float(np.abs(dense).max())
            for parity, block in enumerate(blocks):
                for r, value in enumerate(block[diag]):
                    i = parity + 2 * r
                    assert abs(value - dense[i, i]) <= tol
                for r, value in enumerate(block[off]):
                    i = parity + 2 * r
                    assert abs(value - dense[i, i + 2]) <= tol
            band = [abs(dense[i, j]) for i in range(size) for j in range(size)
                    if abs(i - j) not in (0, 2)]
            assert max(band, default=0.0) <= tol

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 12, 63, 64, 199, 200])
    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
    def test_eigenvalues_match_dense_oracle(self, size, k):
        ev = galerkin_spectrum(size, k)
        reference = solve_galerkin_dense(*galerkin_system_dense(size, k))
        assert len(ev) == len(reference) == size
        for value, expected in zip(ev, reference):
            assert abs(value - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 12, 63, 64, 199, 200])
    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
    def test_eigenvalues_near_rounding_of_exact_spectrum(self, size, k):
        for m, value in enumerate(galerkin_spectrum(size, k), start=2):
            exact = float(m * (m - 1) + k)
            assert abs(value - exact) <= 1e-13 * exact
