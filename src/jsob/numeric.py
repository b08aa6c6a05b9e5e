"""Floating-point layer: quadrature, normalization cross-checks, boundedness
constants, and a Galerkin reproduction of the weighted-space spectrum.

Everything exact lives elsewhere; this module is where doubles are allowed.
Gauss-Jacobi rules (needed for non-integer parameters, where the weight has
algebraic endpoint singularities that defeat plain Gauss-Legendre) come from
the Golub-Welsch tridiagonal eigenproblem.  The Galerkin discretization uses
the nested, well-conditioned basis (1 - x^2) P_i (Legendre P_i), is assembled
in floats with a Gauss-Legendre rule that is exact for its polynomial
integrands, and is reduced to a symmetric eigenproblem by a float Cholesky
factorization of the mass matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import as_fraction
from .jacobi import JacobiParams, classical_jacobi

__all__ = [
    "NonFiniteIntegral",
    "MassNotPositiveDefinite",
    "QuadratureRule",
    "ChelInstance",
    "GalerkinSystem",
    "gauss_jacobi",
    "knorm_crosscheck",
    "chel_preset",
    "chel_K",
    "golden_section_max",
    "galerkin_system",
    "galerkin_spectrum",
    "solve_galerkin",
]


class NonFiniteIntegral(ArithmeticError):
    """A tail integral is numerically divergent or non-finite."""


class MassNotPositiveDefinite(ArithmeticError):
    """The mass matrix factorization met a nonpositive pivot."""


@dataclass(frozen=True)
class QuadratureRule:
    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def integrate(self, fn: Callable[[float], float]) -> float:
        return math.fsum(w * fn(x) for x, w in zip(self.nodes, self.weights))


def gauss_jacobi(order: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta, alpha, beta > -1.

    Golub-Welsch: eigenvalues of the symmetric tridiagonal recurrence matrix
    are the nodes; the weights come from the first eigenvector components and
    the zeroth moment 2^(alpha+beta+1) B(alpha+1, beta+1).
    """
    import numpy as np  # imported here so that the exact commands start without numpy

    if order < 1:
        raise ValueError("order must be positive")
    if alpha <= -1 or beta <= -1:
        raise ValueError("parameters must exceed -1")
    ab = alpha + beta
    diag = np.zeros(order)
    diag[0] = (beta - alpha) / (ab + 2.0)
    j = np.arange(1, order, dtype=float)
    if order > 1:
        diag[1:] = (beta * beta - alpha * alpha) / ((2 * j + ab) * (2 * j + ab + 2))
    off = np.zeros(order - 1)
    if order > 1:
        # j = 1 separately: the general formula has a removable (ab + 1) factor.
        off[0] = math.sqrt(4.0 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3)))
        if order > 2:
            jj = j[1:]
            s = 2 * jj + ab
            num = 4 * jj * (jj + alpha) * (jj + beta) * (jj + ab)
            off[1:] = np.sqrt(num / (s * s * (s * s - 1)))
    matrix = np.diag(diag)
    if order > 1:
        matrix += np.diag(off, 1) + np.diag(off, -1)
    values, vectors = np.linalg.eigh(matrix)
    mu0 = (
        2.0 ** (ab + 1)
        * math.gamma(alpha + 1)
        * math.gamma(beta + 1)
        / math.gamma(ab + 2)
    )
    weights = mu0 * vectors[0, :] ** 2
    return QuadratureRule(
        order=order, nodes=tuple(float(v) for v in values), weights=tuple(weights)
    )


def _orthonormal_scale_squared(n: int, alpha: float, beta: float) -> float:
    """Squared normalization constant of the reference Jacobi polynomial,
    from the Gamma closed form (float Gamma, < 1e-12 relative error)."""
    if n == 0:
        # (alpha+beta+1) Gamma(alpha+beta+1) folded into Gamma(alpha+beta+2),
        # which stays finite when alpha + beta + 1 = 0.
        return math.gamma(alpha + beta + 2) / (
            2.0 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1)
        )
    return (
        math.factorial(n)
        * (1 + alpha + beta + 2 * n)
        * math.gamma(alpha + beta + n + 1)
        / (
            2.0 ** (alpha + beta + 1)
            * math.gamma(alpha + n + 1)
            * math.gamma(beta + n + 1)
        )
    )


def knorm_crosscheck(n: int, alpha: float, beta: float) -> float:
    """|quadrature norm of the Gamma-normalized reference polynomial - 1|.

    The reference polynomial is expanded exactly at the rational images of the
    float parameters, the normalization constant comes from the float Gamma
    closed form, and the squared norm is evaluated by a Gauss-Jacobi rule
    matched to the weight.  Small output certifies that the two normalization
    routes agree.
    """
    if not (alpha > -1 and beta > -1):
        raise ValueError("parameters must exceed -1")
    params = JacobiParams(Fraction(alpha), Fraction(beta))
    poly = classical_jacobi(n, params)
    scale_sq = _orthonormal_scale_squared(n, alpha, beta)
    rule = gauss_jacobi(n + 5, alpha, beta)
    norm_sq = rule.integrate(lambda x: float(poly(x)) ** 2)
    return abs(scale_sq * norm_sq - 1.0)


@dataclass(frozen=True)
class ChelInstance:
    """A boundedness-constant instance: functions phi, psi and a weight on (a, b).

    The constant is K = sup over x of
    sqrt(int_a^x phi^2 w) * sqrt(int_x^b psi^2 w); K finite is equivalent to
    boundedness of the associated pair of integral operators.
    """

    name: str
    phi: Callable[[float], float]
    psi: Callable[[float], float]
    weight: Callable[[float], float]
    a: float
    b: float


def chel_preset(name: str) -> ChelInstance:
    """The named instances exercised by the endpoint analysis.

    * ``dirichlet``: on (0, 1), the product int_0^x dt/(1-t^2) * (1 - x), the
      bounded function (1-x)/2 * log((1+x)/(1-x)) controlling square
      integrability of first derivatives near the endpoint.
    * ``w1v1``: on (-1, 0), the bound (1+x) * int_x^0 dt/(1+t) = -(1+x) log(1+x)
      used to identify the Sobolev subspace vanishing at the endpoints with the
      first left-definite space; its maximum is 1/e.
    * ``unit``: phi = psi = w = 1 on (0, 1); K(x)^2 = x (1 - x), K = 1/2.
    """
    if name == "dirichlet":
        return ChelInstance(
            name="dirichlet",
            phi=lambda t: (1.0 - t * t) ** -0.5,
            psi=lambda t: 1.0,
            weight=lambda t: 1.0,
            a=0.0,
            b=1.0,
        )
    if name == "w1v1":
        return ChelInstance(
            name="w1v1",
            phi=lambda t: 1.0,
            psi=lambda t: (1.0 + t) ** -0.5,
            weight=lambda t: 1.0,
            a=-1.0,
            b=0.0,
        )
    if name == "unit":
        return ChelInstance(
            name="unit",
            phi=lambda t: 1.0,
            psi=lambda t: 1.0,
            weight=lambda t: 1.0,
            a=0.0,
            b=1.0,
        )
    raise ValueError(f"unknown preset {name!r}")


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Adaptive Simpson on [a, b]; raises NonFiniteIntegral on divergence."""

    def safe(x: float) -> float:
        try:
            v = fn(x)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise NonFiniteIntegral(f"integrand not finite at x = {x}") from exc
        if not math.isfinite(v):
            raise NonFiniteIntegral(f"integrand not finite at x = {x}")
        return v

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = safe(xl), safe(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * eps or (x2 - x0) < 1e-14:
            return left + right + err / 15.0
        if depth > 48:
            if abs(err) > max(1e-8, 1e-8 * abs(whole)):
                raise NonFiniteIntegral(
                    f"integral on [{x0}, {x2}] did not converge (residual {err:.3e})"
                )
            return left + right + err / 15.0
        half = eps / 2.0
        return recurse(x0, xm, f0, fl, f1, left, half, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, half, depth + 1
        )

    fa, fb = safe(a), safe(b)
    fm = safe(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    if not math.isfinite(whole) or abs(whole) > 1e12:
        raise NonFiniteIntegral("integral estimate is not finite")
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def golden_section_max(
    fn: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Maximizer of a unimodal fn on [lo, hi] by golden-section search.

    The bracket shrinks until it is narrower than tol (at most 200 steps);
    its midpoint is returned.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(200):
        if hi - lo < tol:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)


def chel_K(instance: ChelInstance, grid_size: int) -> tuple[float, float]:
    """(K, argmax): the boundedness constant and where K(x) attains it.

    K(x)^2 = int_a^x phi^2 w * int_x^b psi^2 w is tabulated on a uniform grid
    by cumulative adaptive quadrature of the per-cell integrals, then the best
    cell is refined by golden-section search.  Divergent tails surface as
    NonFiniteIntegral (the operators are unbounded exactly when K is infinite).
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    a, b = instance.a, instance.b
    phi2 = lambda t: instance.phi(t) ** 2 * instance.weight(t)
    psi2 = lambda t: instance.psi(t) ** 2 * instance.weight(t)
    xs = [a + (b - a) * i / grid_size for i in range(grid_size + 1)]
    cell_tol = 1e-14

    # Left integrals of phi^2 w at interior grid points, accumulated from a.
    front = [0.0] * (grid_size + 1)
    for i in range(1, grid_size):
        front[i] = front[i - 1] + _adaptive_simpson(phi2, xs[i - 1], xs[i], cell_tol)
    # Right integrals of psi^2 w, accumulated from b.
    back = [0.0] * (grid_size + 1)
    for i in range(grid_size - 1, 0, -1):
        back[i] = back[i + 1] + _adaptive_simpson(psi2, xs[i], xs[i + 1], cell_tol)

    best = max(range(1, grid_size), key=lambda i: front[i] * back[i])
    lo, hi = xs[best - 1], xs[best + 1]
    front_anchor, back_anchor = front[best - 1], back[best + 1]

    def k_squared(x: float) -> float:
        left = front_anchor + _adaptive_simpson(phi2, xs[best - 1], x, cell_tol)
        right = back_anchor + _adaptive_simpson(psi2, x, xs[best + 1], cell_tol)
        return left * right

    x_star = golden_section_max(k_squared, lo, hi, 1e-12 * max(1.0, abs(b - a)))
    return math.sqrt(k_squared(x_star)), x_star


@dataclass(frozen=True)
class GalerkinSystem:
    """Stiffness and mass matrices of the weak form on (1 - x^2) P_i."""

    size: int
    stiffness: tuple[tuple[float, ...], ...]
    mass: tuple[tuple[float, ...], ...]


def galerkin_system(size: int, k) -> GalerkinSystem:
    """Assemble the weak form of the weighted-space operator in floats.

    Trial functions b_i = (1 - x^2) P_i (Legendre P_i) vanish at the endpoints;
    stiffness = int b_i' b_j' + k int b_i b_j / (1 - x^2) and
    mass = int b_i b_j / (1 - x^2).  The integrands are polynomials of degree
    at most 2 * size, so the (size + 2)-point Gauss-Legendre rule is exact for
    them; b_i' = i P_{i-1} - (i + 2) x P_i needs no differentiation.
    """
    import numpy as np  # imported here so that the exact commands start without numpy
    from numpy.polynomial.legendre import leggauss, legvander

    if not 2 <= size <= 200:
        raise ValueError("size must be between 2 and 200")
    kf = float(as_fraction(k))
    x, w = leggauss(size + 2)
    p = legvander(x, size - 1)
    i = np.arange(size)
    p_prev = np.hstack([np.zeros((len(x), 1)), p[:, :-1]])
    dp = i * p_prev - (i + 2) * x[:, None] * p
    mass = (p * (w * (1.0 - x * x))[:, None]).T @ p
    stiff = (dp * w[:, None]).T @ dp + kf * mass
    # Averaging with the transpose makes both matrices exactly symmetric.
    return GalerkinSystem(
        size=size,
        stiffness=tuple(map(tuple, (0.5 * (stiff + stiff.T)).tolist())),
        mass=tuple(map(tuple, (0.5 * (mass + mass.T)).tolist())),
    )


def solve_galerkin(system: GalerkinSystem) -> list[float]:
    """Ascending eigenvalues of stiffness v = lambda mass v.

    The mass matrix is factored by Cholesky, mass = L L^T, and the symmetric
    matrix L^-1 S L^-T (two solves with L) goes to the dense symmetric
    eigensolver.  A mass matrix that is not numerically positive definite
    raises MassNotPositiveDefinite.
    """
    import numpy as np  # imported here, as in galerkin_system

    mass = np.array(system.mass, dtype=float)
    stiff = np.array(system.stiffness, dtype=float)
    try:
        lower = np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        raise MassNotPositiveDefinite(f"Cholesky of the mass matrix failed: {exc}") from exc
    pivots = np.diag(lower)
    if not np.all(pivots > 0):
        raise MassNotPositiveDefinite(f"mass pivot {float(pivots.min())} is not positive")
    half = np.linalg.solve(lower, stiff)
    congruent = np.linalg.solve(lower, half.T)
    return [float(v) for v in np.linalg.eigvalsh(0.5 * (congruent + congruent.T))]


def galerkin_spectrum(size: int, k: float) -> list[float]:
    """Ascending Galerkin eigenvalues approximating the weighted-space spectrum.

    The trial space of size s spans the exact eigenfunctions of degrees
    2..s+1, so the discrete values equal m(m-1) + k, m = 2, ..., s+1, up to
    floating-point rounding in assembly, factorization and eigensolve.
    """
    return solve_galerkin(galerkin_system(size, k))
