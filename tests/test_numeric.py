import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from jsob import checks, numeric
from jsob.algebra import ONE_MINUS_X2, Polynomial, integrate_weighted
from jsob.jacobi import NONCLASSICAL
from jsob.numeric import (
    ChelInstance,
    MassNotPositiveDefinite,
    NonFiniteIntegral,
    chel_K,
    chel_preset,
    galerkin_eigenvalues,
    galerkin_system,
    solve_galerkin,
)
from jsob.operators import (
    Classical,
    LeftDefinite,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
    _pairing_values,
)
from reference_data import (
    chel_K_by_adaptive_simpson,
    chel_K_by_lists,
    galerkin_spectrum,
    galerkin_system_dense,
    jacobi_matrix_pencil,
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
    """The order-point Gauss-Legendre (nodes, weights) pair."""
    nodes, weights = leggauss(order)
    return nodes.tolist(), weights.tolist()


def integrate(rule, fn):
    nodes, weights = rule
    return math.fsum(w * fn(x) for x, w in zip(nodes, weights))


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
                approx = integrate(rule, lambda x, m=m: float(p(x)) * (1 - x * x) ** m)
                assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))

    def test_singular_weight_on_vanishing_functions(self):
        rng = random.Random(37)
        rule = legendre_rule(40)
        for _ in range(20):
            p = ONE_MINUS_X2 * Polynomial(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(11)]
            )
            exact = float(integrate_weighted(p, -1))
            approx = integrate(rule, lambda x: float(p(x)) / (1 - x * x))
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
            name="divergent", phi=lambda t: 1.0, psi=lambda t: 1.0 / (1.0 - t) ** 2, a=0.0, b=1.0
        )
        with pytest.raises(NonFiniteIntegral):
            chel_K(diverging, 1000)

    @pytest.mark.parametrize(
        "chel", [chel_K, chel_K_by_adaptive_simpson], ids=["lobatto", "adaptive-simpson"]
    )
    def test_integrable_endpoint_singularity_raises(self, chel):
        # psi = (1 - t)^(-1/2) is integrable, but it is evaluated at t = 1,
        # which is a grid point, by both the composite rule and the old path.
        singular = ChelInstance(
            name="singular", phi=lambda t: 1.0, psi=lambda t: (1.0 - t) ** -0.5, a=0.0, b=1.0
        )
        with pytest.raises(NonFiniteIntegral):
            chel(singular, 1000)

    @pytest.mark.parametrize(
        "psi",
        [
            lambda t: 1.0 / (1.0 + 1e-9 - t),  # finite; Simpson and Lobatto disagree
            lambda t: 1e16,  # a cell integral above 1e12
        ],
        ids=["unresolved", "huge"],
    )
    def test_unresolved_cell_raises(self, psi):
        instance = ChelInstance(name="near-pole", phi=lambda t: 1.0, psi=psi, a=0.0, b=1.0)
        with pytest.raises(NonFiniteIntegral):
            chel_K(instance, 1000)

    def test_presets_at_largest_grid(self):
        # The cell disagreement next to the log singularities does not shrink
        # with the cell, so the check must also stay quiet at grid 100000; and
        # with compensated running sums, rounding does not grow with the grid.
        closed = {
            "dirichlet": golden_max(
                lambda x: 0.5 * (1 - x) * math.log((1 + x) / (1 - x)), 1e-9, 1 - 1e-9
            ),
            "w1v1": math.exp(-1),
            "unit": 0.25,
        }
        for grid in (1000, 10000, 100000):
            for name, k_squared in closed.items():
                kmax, argmax = chel_K(chel_preset(name), grid)
                assert abs(kmax * kmax - k_squared) <= 1e-15 * k_squared, (name, grid)
            assert abs(argmax - 0.5) < 1e-4  # unit

    def test_argmax_at_closed_form_maximizer(self):
        # The root of d/dx K^2: dirichlet's maximizer solves
        # log((1+x)/(1-x)) = 2/(1+x), found here by bisection on its sign.
        lo, hi = 0.0, 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            above = math.log1p(mid) - math.log1p(-mid) > 2 / (1 + mid)
            lo, hi = (lo, mid) if above else (mid, hi)
        closed = {"dirichlet": hi, "w1v1": math.exp(-1) - 1, "unit": 0.5}
        for grid in (1000, 10000, 100000):
            for name, x_star in closed.items():
                preset = chel_preset(name)
                _, argmax = chel_K(preset, grid)
                assert abs(argmax - x_star) <= 1e-15 * (preset.b - preset.a), (name, grid)

    def test_cost_is_linear_in_grid(self):
        # 4 new nodes per cell x 2 integrands, one call per evaluation,
        # plus a sign bisection of the best cell whose cost does not grow
        # with the grid.  The dirichlet shape is where adaptive recursion
        # grew faster.
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
            a=preset.a,
            b=preset.b,
        )
        counts = {}
        for grid in (2000, 20000):
            calls = 0
            chel_K(instance, grid)
            counts[grid] = calls
            assert calls <= 9 * grid
        assert 9.5 <= counts[20000] / counts[2000] <= 10.5

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            chel_preset("nope")

    @pytest.mark.parametrize(
        "name, grid",
        [(name, grid) for name in ("dirichlet", "w1v1", "unit")
         for grid in (1000, 4000, 26000, 100000)] + [("smooth", 4000)]
        + [(name, grid) for name in ("signed", "gap", "small") for grid in (1000, 4000)],
    )
    def test_matches_list_oracle_bit_for_bit(self, name, grid):
        # Same nodes, operation order and integrand calls as the list-based
        # tabulation with one _cell_integral call per cell.  ``signed`` has
        # negative cells on its back pass (cos < 0 past pi/2), where Neumaier's
        # carry takes its |total| < |cell| branch; the last cell of ``gap``,
        # about 69.3, is off Simpson by about 0.13, between 1e-2 and
        # 1e-2 * |cell|, so the disagreement check needs its max(1, |cell|);
        # at grid 1000 ``small`` is the converse, a last cell of about 0.09
        # off by about 0.0065.
        custom = {
            "smooth": (math.exp, math.cos, 0.0, 1.5),
            "signed": (math.exp, math.cos, 0.0, 3.0),
            "gap": (lambda t: 1.0, lambda t: 100.0 / (1.001 - t), 0.0, 1.0),
            "small": (lambda t: 1.0, lambda t: 0.05 / (1.0002 - t), 0.0, 1.0),
        }
        if name in custom:
            instance = ChelInstance(name, *custom[name])
        else:
            instance = chel_preset(name)
        results, counts = [], []
        for chel in (chel_K, chel_K_by_lists):
            calls = [0]

            def counted(fn):
                def wrapper(t):
                    calls[0] += 1
                    return fn(t)

                return wrapper

            counted_instance = ChelInstance(
                name, counted(instance.phi), counted(instance.psi), instance.a, instance.b
            )
            results.append(chel(counted_instance, grid))
            counts.append(calls[0])
        assert results[0] == results[1]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize(
        "psi",
        [
            lambda t: 1.0 / (1.0 - t) ** 2,  # divergent tail
            lambda t: (1.0 - t) ** -0.5,  # integrable, but evaluated at t = 1
            lambda t: 1.0 / (1.0 + 1e-9 - t),  # Simpson and Lobatto disagree
            lambda t: 1e16,  # a cell integral above 1e12
            # raises only near 0.5005, the middle node of the cell [0.5, 0.501]
            lambda t: math.sqrt(abs(t - 0.5005) - 1e-6),
            lambda t: math.nan,
            lambda t: math.inf,
        ],
        ids=["divergent", "singular-endpoint", "unresolved", "huge", "inner-node", "nan", "inf"],
    )
    def test_both_kernels_raise(self, psi):
        instance = ChelInstance(name="bad", phi=lambda t: 1.0, psi=psi, a=0.0, b=1.0)
        messages = []
        for chel in (chel_K, chel_K_by_lists):
            with pytest.raises(NonFiniteIntegral) as exc:
                chel(instance, 1000)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_refinement_maps_integrand_errors(self):
        # The tabulation makes 8 * grid - 6 integrand calls, so an integrand
        # that raises only on call 8000 at grid 1000 raises in the refinement,
        # at psi's first call of the first probe, whose x is inside the best cell.
        preset, grid = chel_preset("dirichlet"), 1000
        argmax = chel_K(preset, grid)[1]
        messages = []
        for chel in (chel_K, chel_K_by_lists):
            calls = [0]

            def failing_late(fn):
                def wrapper(t):
                    calls[0] += 1
                    if calls[0] == 8000:
                        raise ZeroDivisionError("late")
                    return fn(t)

                return wrapper

            instance = ChelInstance(
                "late", failing_late(preset.phi), failing_late(preset.psi), preset.a, preset.b
            )
            with pytest.raises(NonFiniteIntegral, match="integrand not finite at x = ") as exc:
                chel(instance, grid)
            assert calls[0] == 8000 > 8 * grid - 6
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        node = float(messages[0].rsplit(" ", 1)[1])
        assert abs(node - argmax) < 2 / grid

    def test_memory_per_grid_point(self):
        # The grid and both running integrals are arrays of doubles: 24 bytes
        # a point, against 114 for lists of Python floats.
        preset, grid = chel_preset("dirichlet"), 32000
        chel_K(preset, 1000)  # imports done before tracing
        tracemalloc.start()
        try:
            chel_K(preset, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * grid

    def test_cell_loop_calls(self):
        # A cost guard without timing: per cell the loop calls the integrand
        # four times, at the cell's far end and its three inner nodes; its only
        # builtin call is totals.append, because abs, max and math.isfinite
        # there would cost a third of the tabulation.
        cells = 100
        fn = lambda t: 1.0 / (2.0 - t)  # noqa: E731
        points = [i / cells for i in range(cells + 1)]
        loop = numeric._running_integrals.__code__
        events = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is fn.__code__:
                events["call"] += 1
            elif event == "c_call" and frame.f_code is loop:
                events["c_call"] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            numeric._running_integrals(fn, points)
        finally:
            sys.setprofile(previous)
        assert events["call"] == 4 * cells + 1
        assert events["c_call"] <= cells + 10


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
        # A, B1, B3, B16 and T (whose mass is one step at shift 0) share the
        # spectrum on the bubble span.
        for name, chain in (("A", ()), ("B1", (k,)), ("B3", (k,) * 3), ("B16", (k,) * 16),
                            ("T", (0,))):
            ev = galerkin_spectrum(size, k, chain)
            assert len(ev) == size, name
            for m, value in enumerate(ev, start=2):
                exact = float(m * (m - 1) + k)
                assert abs(value - exact) <= 1e-10 * exact, (name, m)

    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1), Fraction(7, 3)])
    def test_bands_are_the_rounded_exact_grams(self, k):
        # Each band step must give the exact Gram matrix of the next left-definite
        # form on the bubbles (1 - x^2) P_i, rounded once.  Bn's spectrum equals A's
        # on the bubble span, so this, not an eigenvalue check, catches a Bn pencil
        # that is A's.
        x, legendre = Polynomial.x(), [Polynomial.one(), Polynomial.x()]
        for i in range(1, 11):
            legendre.append(Fraction(2 * i + 1, i + 1) * x * legendre[i]
                            - Fraction(i, i + 1) * legendre[i - 1])
        bubbles = [ONE_MINUS_X2 * p for p in legendre]
        gram = lambda spec: _pairing_values(bubbles, bubbles, spec)
        grams = [gram(Classical(NONCLASSICAL)), *(gram(LeftDefinite(n, k)) for n in range(1, 18))]
        phi = gram(SobolevPhi())
        # T's stiffness: (ell f, g)_phi = k phi(f, g) + the second form at shift 0.
        t_stiff = [[k * u + v for u, v in zip(*rows)] for rows in zip(phi, gram(LeftDefinite(2, 0)))]
        cases = [((k,) * n, grams[n + 1], grams[n]) for n in range(17)] + [((0,), t_stiff, phi)]
        for chain, stiff, mass in cases:
            for exact in (stiff, mass):
                assert all(exact[i][j] == 0 for i in range(12) for j in range(12)
                           if abs(i - j) not in (0, 2))
            for size in (2, 3, 7, 12):
                for parity, block in enumerate(galerkin_system(size, k, chain)):
                    rows = range(parity, size, 2)
                    for exact, diag, off in ((stiff, 0, 1), (mass, 2, 3)):
                        assert block[diag] == tuple(float(exact[i][i]) for i in rows)
                        assert block[off] == tuple(float(exact[i][i + 2]) for i in rows[:-1])

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
                solve_galerkin([(*stiff, *mass)])

    def test_nonfinite_bracket_raises(self):
        # Eigenvalues near 1e308: twice the largest Rayleigh quotient overflows.
        with pytest.raises(NonFiniteIntegral):
            galerkin_spectrum(10, Fraction(10) ** 308)
        with pytest.raises(NonFiniteIntegral):
            galerkin_spectrum(10, -Fraction(10) ** 308)

    def test_bracket_radius_doubles_until_it_holds_the_spectrum(self, monkeypatch):
        # Eigenvalues -9 and 11 of [[1, 10], [10, 1]] under the identity mass; the
        # first radius, twice the largest |s / m|, is 2.0, and three doublings
        # reach 16, the first that brackets both.
        block = ((1.0, 1.0), (10.0,), (1.0, 1.0), (0.0,))
        sigmas, count = [], numeric._count
        monkeypatch.setattr(numeric, "_count",
                            lambda rows, sigma: sigmas.append(sigma) or count(rows, sigma))
        values = solve_galerkin([block])
        assert sigmas[:5] == [-2.0, -4.0, -8.0, -16.0, 16.0]
        assert values == [-9.0, 11.0]
        np.testing.assert_allclose(values, np.linalg.eigvalsh([[1.0, 10.0], [10.0, 1.0]]),
                                   rtol=1e-15)

    def test_eigenvalue_zero_is_found(self):
        # galerkin_spectrum(10, -2) has the eigenvalue 0 (m = 2), where a bound
        # relative to the eigenvalue cannot stop a search.
        for m, value in enumerate(galerkin_spectrum(10, -2), start=2):
            assert abs(value - (m * (m - 1) - 2)) <= 1e-13 * max(1, m * (m - 1) - 2)

    @staticmethod
    def counted_spectrum(monkeypatch, size, k) -> int:
        calls, count = [0], numeric._count

        def counting(rows, sigma):
            calls[0] += 1
            return count(rows, sigma)

        monkeypatch.setattr(numeric, "_count", counting)
        galerkin_spectrum(size, k)
        return calls[0]

    def test_eigenvalue_zero_ends_its_bisection_at_once(self, monkeypatch):
        # The bracket [-r, 0] would otherwise halve through every binade down
        # to the smallest subnormal, about 1000 more pivot counts.
        assert self.counted_spectrum(monkeypatch, 10, -2) <= 600

    @pytest.mark.parametrize("size, k, calls", [(10, 1, 555), (200, Fraction(7, 3), 11201)])
    def test_positive_spectra_keep_their_count_calls(self, monkeypatch, size, k, calls):
        assert self.counted_spectrum(monkeypatch, size, k) == calls

    def test_step_at_zero_found_in_few_calls(self):
        calls = []

        def step(x):
            calls.append(x)
            return x < 0.0

        assert numeric.sign_change(step, -1.0, 1.0) == 0.0
        assert len(calls) <= 3

    @pytest.mark.parametrize("order", [1, 3, 5, 11, 41])
    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_symmetric_rule_has_the_middle_node_zero(self, order, a):
        # The Jacobi matrix of odd order with alpha = beta has the eigenvalue 0
        # (the middle Gauss-Jacobi node), where its first pivot is exactly zero.
        assert solve_galerkin([jacobi_matrix_pencil(order, a, a)])[order // 2] == 0.0

    def test_count_budget_per_eigenvalue(self, monkeypatch):
        # Each eigenvalue is one bisection between the previous eigenvalue and
        # the bracket, down to adjacent floats: 56 pivot counts on average at
        # size 200, with the counts that find the bracket left out.
        counts, bisections = [0], []
        count, bisect = numeric._count, numeric.sign_change

        def counting(rows, sigma):
            counts[0] += 1
            return count(rows, sigma)

        def bisecting(fn, lo, hi):
            before = counts[0]
            value = bisect(fn, lo, hi)
            bisections.append(counts[0] - before)
            return value

        monkeypatch.setattr(numeric, "_count", counting)
        monkeypatch.setattr(numeric, "sign_change", bisecting)
        assert len(galerkin_spectrum(200, Fraction(7, 3))) == len(bisections) == 200
        assert sum(bisections) <= 64 * 200

    def test_zero_pivot_counts_as_an_eigenvalue_at_sigma(self, monkeypatch):
        # The order-3 Jacobi matrix for alpha = beta = 1/2 has the eigenvalue
        # sqrt(1/2), and its second pivot is exactly zero at sigma = 0.5: taken as
        # just below zero, it leaves the third pivot positive, so 0.5 sits between
        # two eigenvalues.  Taken as just above zero, it would count a third at 0.5.
        seen, count = [], numeric._count

        def recording(rows, sigma):
            seen.append(rows)
            return count(rows, sigma)

        monkeypatch.setattr(numeric, "_count", recording)
        nodes = solve_galerkin([jacobi_matrix_pencil(3, 0.5, 0.5)])
        assert abs(nodes[2] - math.sqrt(0.5)) <= 1e-15
        rows = seen[0]
        assert count(rows, 0.5) == count(rows, math.nextafter(0.5, 1.0)) == 2

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
        # A against the oracle's own assembly; A, T and B16 (the most badly scaled
        # pencil) against the dense eigensolve of the very bands solve_galerkin
        # reads, which tells solver error from assembly error.
        ev = galerkin_spectrum(size, k)
        reference = solve_galerkin_dense(*galerkin_system_dense(size, k))
        assert len(ev) == len(reference) == size
        for value, expected in zip(ev, reference):
            assert abs(value - expected) <= 1e-10 * abs(expected)
        for chain in ((), (0,), (k,) * 16):
            dense = [np.zeros((size, size)) for _ in range(2)]
            for parity, block in enumerate(galerkin_system(size, k, chain)):
                for matrix, diag, off in zip(dense, block[::2], block[1::2]):
                    for r, value in enumerate(diag):
                        matrix[parity + 2 * r, parity + 2 * r] = value
                    for r, value in enumerate(off):
                        i = parity + 2 * r
                        matrix[i, i + 2] = matrix[i + 2, i] = value
            ev = galerkin_spectrum(size, k, chain)
            reference = solve_galerkin_dense(*dense)
            assert len(ev) == len(reference) == size
            for value, expected in zip(ev, reference):
                assert abs(value - expected) <= 1e-10 * abs(expected), chain

    @pytest.mark.parametrize("size", [12, 64, 200])
    @pytest.mark.parametrize("spec", [
        SpectrumSpec(OperatorTag.A, Fraction(7, 3)),
        SpectrumSpec(OperatorTag.T, Fraction(7, 3)),
        SpectrumSpec(OperatorTag.BN, Fraction(7, 3), 16),
    ], ids=["A", "T", "B16"])
    def test_first_count_values_are_the_full_solves(self, spec, size):
        # Eigenvalue j's bracket starts at eigenvalue j - 1 and at the pencil's
        # radius, so stopping after `count` of them changes no bit; T's two
        # leading values k count toward `count`.
        full = galerkin_eigenvalues(spec, size)
        for count in (1, 2, 3, size):
            assert galerkin_eigenvalues(spec, size, count) == full[:count]

    @pytest.mark.parametrize("count", [1, 4, 8])
    @pytest.mark.parametrize("spec", [
        SpectrumSpec(OperatorTag.A, Fraction(7, 3)),
        SpectrumSpec(OperatorTag.T, Fraction(7, 3)),
        SpectrumSpec(OperatorTag.BN, Fraction(7, 3), 16),
    ], ids=["A", "T", "B16"])
    def test_merge_bisects_only_what_it_returns(self, monkeypatch, spec, count):
        # Each parity pencil is asked for its next eigenvalue only when the merge
        # needs it, so the two cost one bisection each up front and one per value
        # returned after the first; solving `count` of each made 2 * count.
        calls, bisect = [0], numeric.sign_change

        def bisecting(fn, lo, hi):
            calls[0] += 1
            return bisect(fn, lo, hi)

        monkeypatch.setattr(numeric, "sign_change", bisecting)
        assert len(galerkin_eigenvalues(spec, 200, count)) == count
        assert calls[0] <= count + 1
        # Every block is checked before any eigenvalue is solved, at count 0 too.
        good, singular = self.diagonal(1.0, 2.0), ((1.0, 1.0), (0.0,), (1.0, 1.0), (1.0,))
        with pytest.raises(MassNotPositiveDefinite):
            solve_galerkin([good, singular], 0)
        with pytest.raises(NonFiniteIntegral):
            solve_galerkin([good, self.diagonal(1e308, 1.0)], 0)

    @staticmethod
    def diagonal(*values):
        """The pencil diag(values) against the identity, as one block."""
        zeros = (0.0,) * (len(values) - 1)
        return values, zeros, (1.0,) * len(values), zeros

    def test_repeated_eigenvalue_comes_out_equal(self):
        # Eigenvalue j's search starts above eigenvalue j - 1, so without the
        # recorded count a repeated value came out as the next float up.
        assert solve_galerkin([self.diagonal(2.0, 2.0, 2.0)]) == [2.0] * 3
        assert solve_galerkin([self.diagonal(2.0, 2.0, 2.0)], 2) == [2.0] * 2
        assert solve_galerkin([self.diagonal(0.0, 0.0)]) == [0.0, 0.0]
        assert solve_galerkin([self.diagonal(3.0, 2.0, 3.0, 2.0)]) == [2.0, 2.0, 3.0, 3.0]

    def test_t_pencils_lead_with_the_rows_of_1_and_x(self, monkeypatch):
        # 1 and x / sqrt(3) are phi-orthonormal, phi-orthogonal to every bubble
        # and eigenfunctions at k: each of T's halves is solved with their row.
        k, blocks, solve = Fraction(7, 3), [], numeric.solve_galerkin
        monkeypatch.setattr(numeric, "solve_galerkin",
                            lambda pencil, count: blocks.extend(pencil) or solve(pencil, count))
        values = galerkin_eigenvalues(SpectrumSpec(OperatorTag.T, k), 12)
        assert values[:2] == [float(k)] * 2
        assert len(blocks) == 2
        for block, bubbles in zip(blocks, galerkin_system(12, k, (0,))):
            assert tuple(part[0] for part in block) == (float(k), 0.0, 1.0, 0.0)
            assert tuple(part[1:] for part in block) == bubbles

    def test_t_leading_pair_is_k_to_the_bit(self):
        # x at mass 3 rather than 1 rounded its value one float below k at 82 of
        # these 660 shifts.
        for k in (Fraction(n, d) for n in range(60) for d in range(1, 12)):
            spec = SpectrumSpec(OperatorTag.T, k)
            for count in (1, 2, None):
                assert galerkin_eigenvalues(spec, 2, count)[:2] == [float(k)] * min(count or 2, 2), k

    def test_t_values_ascend_where_k_hides_its_gap_to_the_bubbles(self):
        # At k = 3e17, k + 2 and k + 6 round to within the solve's error of k, and the
        # bubbles' values come out below float(k): they lead, and the list ascends.
        k = Fraction(3 * 10**17)
        values = galerkin_eigenvalues(SpectrumSpec(OperatorTag.T, k), 64, 4)
        assert values == sorted(values) and values[0] < float(k) == values[-1]
        assert all(abs(v - float(k)) <= 1e-13 * float(k) for v in values)

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="count"):
            solve_galerkin([self.diagonal(1.0, 2.0)], -1)
        with pytest.raises(ValueError, match="count"):
            galerkin_spectrum(6, 1, count=-2)
        with pytest.raises(ValueError, match="count"):
            galerkin_eigenvalues(SpectrumSpec(OperatorTag.T, 1), 6, -1)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 12, 63, 64, 199, 200])
    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
    def test_eigenvalues_near_rounding_of_exact_spectrum(self, size, k):
        for m, value in enumerate(galerkin_spectrum(size, k), start=2):
            exact = float(m * (m - 1) + k)
            assert abs(value - exact) <= 1e-13 * exact


class TestVerifyCatchesPlantedFaults:
    # Each fault is a relative change of 2^-40 in one float-layer constant.  It
    # raises the relative error of the matching galerkin.* checks from below
    # 8.3e-16 to at least 3.2e-13, and their 5e-14 bound must see it.
    SPECTRUM = {"galerkin.spectrum-recovery", "galerkin.t-sobolev", "galerkin.bn-left-definite"}
    CHEL = {"galerkin.chel-dirichlet", "galerkin.chel-w1v1", "galerkin.chel-unit"}

    @staticmethod
    def failing():
        return {record["name"] for record in checks.run("galerkin") if not record["passed"]}

    def test_band_step_diagonal_fault(self, monkeypatch):
        step = numeric._ell_step

        def faulty(diag, off, k):
            diag, off = step(diag, off, k)
            diag[3] *= 1 + Fraction(1, 2**40)
            return diag, off

        monkeypatch.setattr(numeric, "_ell_step", faulty)
        assert self.failing() == self.SPECTRUM

    def test_lobatto_midpoint_weight_fault(self, monkeypatch):
        monkeypatch.setattr(numeric, "_W_MID", numeric._W_MID * (1 + 2**-40))
        assert self.failing() == self.CHEL

    def test_t_leading_rows_are_checked(self, monkeypatch):
        # Without the values k at T's indices 0 and 1 every T value is compared
        # with the exact eigenvalue two indices below its own.
        values = checks.galerkin_eigenvalues

        def dropping(spec, size):
            return values(spec, size)[2 if spec.operator is OperatorTag.T else 0:]

        monkeypatch.setattr(checks, "galerkin_eigenvalues", dropping)
        assert self.failing() == {"galerkin.t-sobolev"}

    def test_dirichlet_argmax_is_checked(self, monkeypatch):
        # K^2 is flat at its peak, so only the argmax comparison sees the shift.
        chel = checks.chel_K

        def shifted(instance, grid_size):
            kmax, arg = chel(instance, grid_size)
            return kmax, arg + 1e-14 if instance.name == "dirichlet" else arg

        monkeypatch.setattr(checks, "chel_K", shifted)
        assert self.failing() == {"galerkin.chel-dirichlet"}

