"""The verification checks that ``jsob verify`` runs, in one ordered registry,
and the helpers that only they use.

A check's suite is its name up to the dot.  ``run(suite)`` calls each check of
the suite in registry order with a random.Random seeded with the check's name,
so a check that fails or raises never shifts the draws of a later one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import (
    ONE_MINUS_X2,
    Polynomial,
    RationalLike,
    Surd,
    as_fraction,
    clear_poles,
    integrate_weighted,
    jacobi_moments,
)
from .jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    UndefinedNormalization,
    jacobi_family,
)
from .numeric import chel_K, chel_preset, galerkin_eigenvalues
from .operators import (
    Classical,
    LeftDefinite,
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
from .stirling import build_table, composite_coefficients, jacobi_stirling


class PoleInGammaRatio(ArithmeticError):
    """The Gamma-ratio shift product is anchored at a nonpositive integer."""


class MismatchWithClosedForm(ArithmeticError):
    """An exactly integrated value disagrees with its closed form."""


def verify_defining_identity(n: int, m: int, k: RationalLike) -> bool:
    """Exact check of sum_j c_j(n,k) m!(m+j-2)!/((m-j)!(m-2)!) = (m(m-1)+k)^n.

    The factorial ratio is perm(m, j) * perm(m+j-2, j), and perm(m, j) = 0 for
    j > m realizes the convention 1/(m-j)! = 0.
    """
    if m < 2:
        raise ValueError("the identity needs m >= 2 for (m-2)!")
    coeffs = composite_coefficients(n, k)
    lhs = sum(cj * math.perm(m, j) * math.perm(m + j - 2, j) for j, cj in enumerate(coeffs.c))
    return lhs == (Fraction(m * (m - 1)) + coeffs.k) ** n


def derivative_coefficient_squared(n: int, j: int, params: JacobiParams) -> Fraction:
    """Squared coefficient linking the j-th derivative of the orthonormal P_n
    to the orthonormal P_{n-j} at shifted parameters:

        a(n, j)^2 = n!/(n-j)! * prod_{i=1..j} (alpha + beta + n + i),

    the rational value of the Gamma ratio Gamma(alpha+beta+n+1+j)/Gamma(alpha+beta+n+1).
    Returns 0 for j > n unconditionally.  Otherwise, when the ratio is anchored
    at a nonpositive integer no finite value is assigned and PoleInGammaRatio
    is raised; for alpha = beta = -1 the anchor n - 1 is nonpositive exactly
    when n <= 1, which with 1 <= j <= n means the single case n = j = 1.
    """
    if n < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    if j > n:
        return Fraction(0)
    if j == 0:
        return Fraction(1)
    anchor = params.alpha + params.beta + n + 1
    if anchor.denominator == 1 and anchor <= 0:
        raise PoleInGammaRatio(
            f"Gamma ratio anchored at nonpositive integer {anchor} "
            f"(n = {n}, alpha = {params.alpha}, beta = {params.beta})"
        )
    return math.perm(n, j) * math.prod(anchor + i for i in range(j))


def check_derivative_identity(n: int, j: int, params: JacobiParams) -> bool:
    """Exact check of d^j/dx^j P_n = a(n, j) P_{n-j} at shifted parameters,
    both sides in the L2-orthonormal normalization.

    For j > n both sides vanish.  Otherwise sqrt(s) p = sqrt(t) q holds exactly
    when p = c q for a rational c > 0 with s c^2 = t, c the ratio of leading
    coefficients.  Propagates UndefinedNormalization (family does not exist)
    and PoleInGammaRatio (coefficient undefined).
    """
    left = jacobi_family(n, params, Normalization.L2).derivative(j)
    a_sq = derivative_coefficient_squared(n, j, params)
    if a_sq == 0:
        return left.is_zero
    base = jacobi_family(n - j, JacobiParams(params.alpha + j, params.beta + j), Normalization.L2)
    c = left.poly.leading / base.poly.leading
    return c > 0 and left.poly == c * base.poly and left.scale_sq * c * c == a_sq * base.scale_sq


def derivative_orthogonality_value(
    n: int, r: int, j: int, params: JacobiParams
) -> Fraction:
    """Pair the j-th derivatives of orthonormal P_n and P_r against the
    j-shifted weight and check the closed form a(n, j)^2 * delta_{n,r}.

    Both the exact integral and the closed form are computed; disagreement
    raises MismatchWithClosedForm, otherwise the common value is returned.
    """
    shifted = JacobiParams(params.alpha + j, params.beta + j)
    if not shifted.is_nonnegative_integer_pair:
        raise ValueError(
            "exact mode needs integer parameters with alpha + j, beta + j >= 0"
        )
    pn = jacobi_family(n, params, Normalization.L2).derivative(j)
    pr = jacobi_family(r, params, Normalization.L2).derivative(j)
    lhs = inner_product(pn, pr, Classical(shifted))
    rhs = derivative_coefficient_squared(n, j, params) if n == r else Fraction(0)
    if not lhs.is_rational or lhs.to_fraction() != rhs:
        raise MismatchWithClosedForm(
            f"integral {lhs} differs from closed form {rhs} at "
            f"(n={n}, r={r}, j={j}, alpha={params.alpha}, beta={params.beta})"
        )
    return rhs


def factorization_check(n: int) -> bool:
    """The degree-n Sobolev member, n >= 2, vanishes at +-1 and, divided by 1 - x^2
    with ``clear_poles``, is a multiple of P_{n-2}^{(1,1)}."""
    if n < 2:
        raise ValueError("factorization applies to degrees >= 2")
    member = jacobi_family(n, NONCLASSICAL, Normalization.PHI).poly
    if member(1) or member(-1):
        return False
    q, _, _ = clear_poles(member, -1, -1)
    base = jacobi_family(n - 2, JacobiParams(1, 1), Normalization.REFERENCE).poly
    return q * base.leading == base * q.leading


def verify_lagrange_identity(
    f: Polynomial, g: Polynomial, k: RationalLike
) -> bool:
    """Polynomial form of Green's formula, cleared of the singular weight:

        ell[f] g - f ell[g] = (1 - x^2) (f g' - f' g)'.

    The k-terms cancel on the left; the identity holds for all polynomials.
    """
    kf = as_fraction(k)
    lhs = apply_ell(f, kf) * g - f * apply_ell(g, kf)
    wronskian = f * g.derivative() - f.derivative() * g
    return (lhs - ONE_MINUS_X2 * wronskian.derivative()).is_zero


def verify_dirichlet_identity(
    f: Polynomial, g: Polynomial, k: RationalLike
) -> bool:
    """Weight-cleared integrand identity behind the Dirichlet formula:

        ell[f] g = (1 - x^2) (f' g' - (f' g)') + k f g.
    """
    kf = as_fraction(k)
    lhs = apply_ell(f, kf) * g
    rhs = (
        ONE_MINUS_X2
        * (f.derivative() * g.derivative() - (f.derivative() * g).derivative())
        + kf * (f * g)
    )
    return (lhs - rhs).is_zero


def jacobi_moments_check(params: JacobiParams, max_degree: int) -> bool:
    """Exact check of the reference members P_n, n <= max_degree, against the
    normalized moments mu_m = int x^m w / int w of w = (1-x)^a (1+x)^b, a, b > -1.

    The moments are ``jacobi_moments(a, b, 2 max_degree + 1)`` over their entry 0,
    from the weight's own recurrence, not the family's.  With c_i the coefficients
    of P_n, sum_i c_i mu_{i+j} must vanish for j < n, and c_n sum_i c_i mu_{i+n} =
    h_n / h_0 must equal (DLMF 18.3.1) (a+1)_n (b+1)_n / ((2n+a+b+1) n! (a+b+2)_{n-1})
    for n >= 1, which stays finite when a + b + 1 = 0.
    """
    a, b = params.alpha, params.beta
    moments, _ = jacobi_moments(a, b, 2 * max_degree + 1)  # mu_m = moments[m] / moments[0]
    rising = Fraction(1)  # (a+1)_n (b+1)_n / (n! (a+b+2)_{n-1})
    for n in range(max_degree + 1):
        if n:
            rising *= (a + n) * (b + n) / (n * (a + b + n if n > 1 else 1))
        poly = jacobi_family(n, params, Normalization.REFERENCE).poly
        ints, den = poly.int_form  # c_i = ints[i] / den
        pairs = [sum(c * m for c, m in zip(ints, moments[j:])) for j in range(n + 1)]
        norm = poly.coeff(n) * Fraction(pairs[n], den * moments[0])
        if any(pairs[:n]) or norm != (rising / (2 * n + a + b + 1) if n else 1):
            return False
    return True


# The 9x9 Jacobi-Stirling triangle, columns n = 0..8, rows j = 0..8.
_STIRLING_REFERENCE = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 2, 4, 8, 16, 32, 64),
    (0, 0, 0, 1, 8, 52, 320, 1936, 11648),
    (0, 0, 0, 0, 1, 20, 292, 3824, 47824),
    (0, 0, 0, 0, 0, 1, 40, 1092, 25664),
    (0, 0, 0, 0, 0, 0, 1, 70, 3192),
    (0, 0, 0, 0, 0, 0, 0, 1, 112),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
)


def _random_poly(rng: random.Random, degree: int) -> Polynomial:
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)])


def _is_shifted_spectrum(matrix, power: int) -> bool:
    """True when the matrix is diagonal with (d(d-1) + 1)^power at degree d."""
    return matrix.is_diagonal() and all(
        matrix.entry(i, i) == Surd.from_rational(Fraction((d * (d - 1) + 1) ** power))
        for i, d in enumerate(matrix.degrees)
    )


def _stirling_table(rng: random.Random) -> bool:
    table = build_table(8)
    return all(
        table.entry(n, j) == _STIRLING_REFERENCE[j][n] for n in range(9) for j in range(9)
    )


def _fifth_power_coefficients(rng: random.Random) -> tuple[bool, str]:
    l5 = composite_coefficients(5, 0).c
    return list(l5) == [0, 0, 8, 52, 20, 1], str(list(map(str, l5)))


def _differential_expression(rng: random.Random) -> bool:
    ok = True
    for k in (Fraction(0), Fraction(1)):
        for n in range(13):
            fam = jacobi_family(n, NONCLASSICAL, Normalization.PHI)
            lam = k + n * (n - 1)
            if apply_ell(fam, k).poly != lam * fam.poly:
                ok = False
    return ok


def _lagrange_dirichlet(rng: random.Random) -> bool:
    ok = True
    for _ in range(100):
        f = _random_poly(rng, rng.randint(0, 8))
        g = _random_poly(rng, rng.randint(0, 8))
        k = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        if not verify_lagrange_identity(f, g, k) or not verify_dirichlet_identity(f, g, k):
            ok = False
    return ok


def _sobolev_decomposition(rng: random.Random) -> bool:
    ok = True
    for _ in range(50):
        f = _random_poly(rng, rng.randint(0, 10))
        f1, f2 = decompose_w(f)
        if f1 + f2 != f or f1(Fraction(1)) != 0 or f1(Fraction(-1)) != 0 or f2.degree > 1:
            ok = False
        for d in (0, 1):
            low = jacobi_family(d, NONCLASSICAL, Normalization.PHI)
            if inner_product(f1, low, SobolevPhi()) != Surd.zero():
                ok = False
    return ok


def _derivative_identity(rng: random.Random) -> tuple[bool, str]:
    ok = True
    seen = 0
    for params in (JacobiParams(a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2)):
        for n in range(7):
            for j in range(n + 1):
                try:
                    if not check_derivative_identity(n, j, params):
                        ok = False
                    seen += 1
                except (UndefinedNormalization, PoleInGammaRatio):
                    continue
    return ok and seen > 0, f"{seen} cases"


def _endpoint_factorization(rng: random.Random) -> tuple[bool, str]:
    failing = [n for n in range(2, 9) if not factorization_check(n)]
    return not failing, f"not a multiple of (1 - x^2) P_(n-2)^(1,1) at n = {failing}" if failing else ""


def _lower_bound(rng: random.Random) -> bool:
    ok = True
    for k in (Fraction(0), Fraction(1), Fraction(7, 3)):
        for _ in range(10):
            f = ONE_MINUS_X2 * _random_poly(rng, rng.randint(0, 8))
            if f.is_zero:
                continue
            lower = inner_product(apply_ell(f, k), f, Classical(NONCLASSICAL)).to_fraction()
            norm = inner_product(f, f, Classical(NONCLASSICAL)).to_fraction()
            if lower - k * norm != integrate_weighted(f.derivative() * f.derivative(), 0):
                ok = False
            if lower - k * norm < 0:
                ok = False
    return ok


def _first_left_definite_bridge(rng: random.Random) -> bool:
    ok = True
    for _ in range(10):
        f = ONE_MINUS_X2 * _random_poly(rng, rng.randint(0, 6))
        g = ONE_MINUS_X2 * _random_poly(rng, rng.randint(0, 6))
        k = Fraction(rng.randint(0, 5))
        direct = integrate_weighted(f.derivative() * g.derivative(), 0) + k * integrate_weighted(f * g, -1)
        if inner_product(f, g, LeftDefinite(1, k)) != Surd(direct, Fraction(1)):
            ok = False
        if inner_product(f, g, SobolevPhi()) != inner_product(f, g, LeftDefinite(1, 0)):
            ok = False
    return ok


# Relative error bound of the galerkin.* checks.  On a correct build the worst
# relative error is 8.2e-16 for the Galerkin eigenvalues at size 20 and 2.0e-16
# for chel's K^2; scaling one _ell_step diagonal entry or the Lobatto midpoint
# weight by 1 + 2^-40 raises them to 9.5e-13 and 3.2e-13 or more.
_RTOL = 5e-14


def _galerkin_spectra(*makers):
    """A check that, for k = 0 and 7/3 and each spec = make(k), every value of
    galerkin_eigenvalues(spec, 20) is within _RTOL * max(1, exact) of the exact one,
    at least k - 1e-9 and within 1e-9 of the size-25 value, as both trial spaces
    span its eigenfunction; the detail names the worst absolute error."""
    def check(rng: random.Random) -> tuple[bool, str]:
        ok, detail = True, []
        for k in (Fraction(0), Fraction(7, 3)):
            worst = 0.0
            for spec in (make(k) for make in makers):
                values, finer = galerkin_eigenvalues(spec, 20), galerkin_eigenvalues(spec, 25)
                for v, fine, x in zip(values, finer, spectrum(spec, len(values))):
                    worst = max(worst, err := abs(v - x))
                    ok &= err <= _RTOL * max(1, x) and v >= k - 1e-9 and abs(v - fine) <= 1e-9
            detail.append(f"k={k}: err {worst:.2e}")
        return ok, "; ".join(detail)
    return check


def _chel_dirichlet(rng: random.Random) -> tuple[bool, str]:
    kmax, arg = chel_K(chel_preset("dirichlet"), 4000)
    # K^2 = (1 - x) log((1 + x)/(1 - x)) / 2 peaks where log((1 + x)/(1 - x)) = 2/(1 + x),
    # a root that Newton's method from 0.5 reaches in 4 steps and then keeps.
    x = 0.5
    for _ in range(6):
        x += (2 / (1 + x) - math.log((1 + x) / (1 - x))) / (2 / (1 + x) ** 2 + 2 / (1 - x * x))
    closed = 0.5 * (1 - x) * math.log((1 + x) / (1 - x))
    ok = abs(kmax * kmax - closed) <= _RTOL * closed and abs(arg - x) <= 1e-15
    return ok, f"K^2 = {kmax * kmax:.9f} vs closed form {closed:.9f}"


def _chel_w1v1(rng: random.Random) -> tuple[bool, str]:
    kmax, arg = chel_K(chel_preset("w1v1"), 4000)
    ok = abs(kmax * kmax - math.exp(-1)) <= _RTOL * math.exp(-1) and abs(arg - (math.exp(-1) - 1)) <= 1e-15
    return ok, f"K^2 = {kmax * kmax:.12f} vs 1/e"


def _chel_unit(rng: random.Random) -> tuple[bool, str]:
    kmax, arg = chel_K(chel_preset("unit"), 1000)
    return abs(kmax - 0.5) <= _RTOL * 0.5 and abs(arg - 0.5) <= 1e-15, f"K = {kmax:.12f} at {arg:.6f}"


# Every verification check, in report order.  A check takes a random.Random
# seeded with its own name, which only the identities.* checks draw from, and
# returns ok or (ok, detail).
_CHECKS = (
    ("stirling.table-9x9", _stirling_table),
    ("stirling.fifth-power-coefficients", _fifth_power_coefficients),
    ("stirling.defining-identity", lambda rng: all(
        verify_defining_identity(n, m, k)
        for n in range(1, 7)
        for m in range(2, 13)
        for k in (Fraction(0), Fraction(1), Fraction(7, 3))
    )),
    ("stirling.triangularity-and-diagonal", lambda rng: all(
        jacobi_stirling(n, j) == 0 for n in range(13) for j in range(n + 1, 13)
    ) and all(jacobi_stirling(n, n) == 1 for n in range(13))),
    ("stirling.zero-shift-column", lambda rng: all(
        list(composite_coefficients(n, 0).c) == [_STIRLING_REFERENCE[j][n] for j in range(n + 1)]
        for n in range(1, 9)
    )),
    ("orthogonality.sobolev-gram-identity",
     lambda rng: gram_matrix(10, SobolevPhi(), Normalization.PHI).is_identity()),
    ("orthogonality.classical-gram-identity",
     lambda rng: gram_matrix(6, Classical(JacobiParams(1, 1)), Normalization.L2).is_identity()),
    ("orthogonality.left-definite-gram",
     lambda rng: _is_shifted_spectrum(gram_matrix(8, LeftDefinite(2, 1), Normalization.L2), 2)),
    ("orthogonality.normalization-bridge", lambda rng: all(
        jacobi_family(n, NONCLASSICAL, Normalization.PHI).scale_sq
        * integrate_weighted(jacobi_family(n, NONCLASSICAL, Normalization.PHI).poly ** 2, -1)
        == Fraction(1, n * (n - 1))
        for n in range(2, 13)
    )),
    # Each value is a(n, j)^2 on the diagonal and 0 next to it; a value that
    # differs from that closed form raises MismatchWithClosedForm.
    ("orthogonality.derivative-weighted", lambda rng: all(
        derivative_orthogonality_value(n, r, j, params) >= 0
        for params in (JacobiParams(0, 0), JacobiParams(1, 1), JacobiParams(1, 2))
        for n in range(7)
        for j in range(n + 1)
        for r in (n, n - 1)
        if r >= 0
    )),
    ("orthogonality.jacobi-moments", lambda rng: all(
        jacobi_moments_check(JacobiParams(a, b), 12)
        for a, b in ((0, 0), (1, 1), (2, 1), (Fraction(1, 2), Fraction(-1, 4)),
                     (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1, 2)))
    )),
    ("eigen.differential-expression", _differential_expression),
    ("eigen.sobolev-operator-matrix",
     lambda rng: _is_shifted_spectrum(operator_matrix(8, SpectrumSpec(OperatorTag.T, 1)), 1)),
    ("eigen.weighted-operator-matrix",
     lambda rng: _is_shifted_spectrum(operator_matrix(8, SpectrumSpec(OperatorTag.A, 1)), 1)),
    ("eigen.spectra", lambda rng: (
        spectrum(SpectrumSpec(OperatorTag.A, 0), 4) == [2, 6, 12, 20]
        and spectrum(SpectrumSpec(OperatorTag.T, 1), 5) == [1, 1, 3, 7, 13]
        and spectrum(SpectrumSpec(OperatorTag.BN, 2, power=3), 3) == [4, 8, 14]
    )),
    ("eigen.composite-powers", lambda rng: all(
        apply_ell_power(jacobi_family(m, NONCLASSICAL, Normalization.PHI), p, 1).poly
        == (Fraction(m * (m - 1) + 1) ** p) * jacobi_family(m, NONCLASSICAL, Normalization.PHI).poly
        for m in range(7)
        for p in range(1, 4)
    )),
    ("identities.lagrange-dirichlet", _lagrange_dirichlet),
    ("identities.sobolev-decomposition", _sobolev_decomposition),
    ("identities.derivative-identity", _derivative_identity),
    ("identities.endpoint-factorization", _endpoint_factorization),
    ("identities.lower-bound", _lower_bound),
    ("identities.first-left-definite-bridge", _first_left_definite_bridge),
    ("galerkin.spectrum-recovery", _galerkin_spectra(lambda k: SpectrumSpec(OperatorTag.A, k))),
    ("galerkin.t-sobolev", _galerkin_spectra(lambda k: SpectrumSpec(OperatorTag.T, k))),
    ("galerkin.bn-left-definite", _galerkin_spectra(lambda k: SpectrumSpec(OperatorTag.BN, k, 1),
                                                    lambda k: SpectrumSpec(OperatorTag.BN, k, 16))),
    ("galerkin.chel-dirichlet", _chel_dirichlet),
    ("galerkin.chel-w1v1", _chel_w1v1),
    ("galerkin.chel-unit", _chel_unit),
)

SUITES = tuple(sorted({name.partition(".")[0] for name, _ in _CHECKS}))


def run(suite: str) -> list[dict]:
    """One {"name", "passed", "detail"} record per check of ``suite`` ("all" for
    every check), in registry order.  A check that raises an ArithmeticError or
    a ValueError fails, with the exception's type and message as its detail."""
    results = []
    for name, check in _CHECKS:
        if suite != "all" and not name.startswith(suite + "."):
            continue
        try:
            result = check(random.Random(name))
        except (ArithmeticError, ValueError) as exc:
            result = (False, f"{type(exc).__name__}: {exc}")
        ok, detail = result if isinstance(result, tuple) else (result, "")
        results.append({"name": name, "passed": bool(ok), "detail": detail})
    return results
