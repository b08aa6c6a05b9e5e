"""Floating-point layer: quadrature, boundedness constants, and a Galerkin
reproduction of the weighted-space spectrum.

Everything exact lives elsewhere; apart from the float checks of jsob.checks,
this module is where doubles are allowed, in pure Python.  The Galerkin
discretization on the basis (1 - x^2) P_i (Legendre P_i) splits into two
tridiagonal pencils with closed-form entries, solved by Sturm counts and
Newton.  Gauss-Jacobi rules (needed for non-integer parameters, where the
weight has algebraic endpoint singularities that defeat plain Gauss-Legendre)
come from the Golub-Welsch tridiagonal eigenproblem, which the same solver
handles with the identity as mass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import as_fraction

__all__ = [
    "NonFiniteIntegral",
    "MassNotPositiveDefinite",
    "QuadratureRule",
    "ChelInstance",
    "gauss_jacobi",
    "chel_preset",
    "chel_K",
    "golden_section_max",
    "galerkin_system",
    "galerkin_spectrum",
    "solve_galerkin",
]


class NonFiniteIntegral(ArithmeticError):
    """A tail or stiffness integral is numerically divergent or non-finite."""


class MassNotPositiveDefinite(ArithmeticError):
    """The mass matrix factorization met a nonpositive pivot."""


class QuadratureRule(NamedTuple):
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def integrate(self, fn: Callable[[float], float]) -> float:
        return math.fsum(w * fn(x) for x, w in zip(self.nodes, self.weights))


def gauss_jacobi(order: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta, alpha, beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    recurrence matrix, found by solve_galerkin with the identity as mass; each
    weight is the Christoffel number mu0 / sum_j p_j(x)^2, with p_j the
    orthonormal recurrence polynomials and mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1).
    """
    if order < 1:
        raise ValueError("order must be positive")
    if alpha <= -1 or beta <= -1:
        raise ValueError("parameters must exceed -1")
    ab = alpha + beta
    diag = [(beta - alpha) / (ab + 2.0)]
    diag += [(beta * beta - alpha * alpha) / ((2 * j + ab) * (2 * j + ab + 2)) for j in range(1, order)]
    # j = 1 separately: the general formula has a removable (ab + 1) factor.
    off = [math.sqrt(4.0 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3)))][: order - 1]
    for j in range(2, order):
        s = 2 * j + ab
        off.append(math.sqrt(4 * j * (j + alpha) * (j + beta) * (j + ab) / (s * s * (s * s - 1))))
    nodes = solve_galerkin((diag, off, [1.0] * order, [0.0] * (order - 1)))
    mu0 = 2.0 ** (ab + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(ab + 2)
    weights = []
    for x in nodes:
        p_prev, p, total = 0.0, 1.0, 1.0
        for a, b_prev, b in zip(diag, (0.0, *off), off):
            p_prev, p = p, ((x - a) * p - b_prev * p_prev) / b
            total += p * p
        weights.append(mu0 / total)
    return QuadratureRule(nodes=tuple(nodes), weights=tuple(weights))


# A dataclass, unlike the other records, because perfbench/tracer.py copies it
# with dataclasses.replace.  It is built on first use by the module __getattr__
# (PEP 562), so that commands other than chel do not import dataclasses (and
# with it inspect) at start-up.  It becomes a plain class at module level when
# ROADMAP item 5 deletes perfbench/tracer.py.
def __getattr__(name: str) -> type:
    if name != "ChelInstance":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ChelInstance:
        """A boundedness-constant instance: two nonnegative integrands phi and psi on (a, b).

        The constant is K = sup over x of sqrt(int_a^x phi) * sqrt(int_x^b psi),
        where phi and psi are the products f^2 w and g^2 w of a pair of functions
        with a weight; K finite is equivalent to boundedness of the associated pair
        of integral operators.
        """

        __qualname__ = "ChelInstance"  # not __getattr__.<locals>.ChelInstance
        name: str
        phi: Callable[[float], float]
        psi: Callable[[float], float]
        a: float
        b: float

    globals()["ChelInstance"] = ChelInstance
    return ChelInstance


_PRESETS = {  # name -> (phi, psi, a, b)
    "dirichlet": (lambda t: 1.0 / (1.0 - t * t), lambda t: 1.0, 0.0, 1.0),
    "w1v1": (lambda t: 1.0, lambda t: 1.0 / (1.0 + t), -1.0, 0.0),
    "unit": (lambda t: 1.0, lambda t: 1.0, 0.0, 1.0),
}


def chel_preset(name: str) -> ChelInstance:
    """The named instances exercised by the endpoint analysis.

    * ``dirichlet``: on (0, 1), the product int_0^x dt/(1-t^2) * (1 - x), the
      bounded function (1-x)/2 * log((1+x)/(1-x)) controlling square
      integrability of first derivatives near the endpoint.
    * ``w1v1``: on (-1, 0), the bound (1+x) * int_x^0 dt/(1+t) = -(1+x) log(1+x)
      used to identify the Sobolev subspace vanishing at the endpoints with the
      first left-definite space; its maximum is 1/e.
    * ``unit``: phi = psi = 1 on (0, 1); K(x)^2 = x (1 - x), K = 1/2.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    from .numeric import ChelInstance  # built by __getattr__ on first use
    return ChelInstance(name, *_PRESETS[name])


# Closed 5-point Gauss-Lobatto rule on a cell of width h, exact for degree 7
# (Davis and Rabinowitz, Methods of Numerical Integration, 1984, section 2.7):
# nodes at both ends, the midpoint and (1 -+ sqrt(3/7)) h / 2.  The Simpson rule
# on the ends and midpoint checks it; next to the presets' log singularities
# the two differ by at most 1.3e-3, at every grid size.
_LOBATTO_INNER = 0.5 * (1.0 - math.sqrt(3.0 / 7.0))
_W_END, _W_SIDE, _W_MID = 1.0 / 20.0, 49.0 / 180.0, 16.0 / 45.0  # Lobatto weights
_CELL_LIMIT, _CELL_DISAGREEMENT = 1e12, 1e-2


def _value(fn: Callable[[float], float], x: float) -> float:
    try:
        return fn(x)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise NonFiniteIntegral(f"integrand not finite at x = {x}") from exc


def _cell_integral(fn, x0: float, x1: float, f0: float, f1: float) -> float:
    """Lobatto integral of fn between x0 and x1 (either order), given f0 = fn(x0)
    and f1 = fn(x1).  NonFiniteIntegral if it is not finite (as when fn is not
    finite at any node: every weight is positive), exceeds _CELL_LIMIT, or is off
    the Simpson value by more than _CELL_DISAGREEMENT * max(1, |integral|)."""
    d = x1 - x0
    f_mid = _value(fn, x0 + 0.5 * d)
    f_sides = _value(fn, x0 + _LOBATTO_INNER * d) + _value(fn, x1 - _LOBATTO_INNER * d)
    lobatto = abs(d) * (_W_END * (f0 + f1) + _W_SIDE * f_sides + _W_MID * f_mid)
    if not math.isfinite(lobatto) or abs(lobatto) > _CELL_LIMIT:
        raise NonFiniteIntegral(f"integral on [{x0}, {x1}] is not finite")
    simpson = abs(d) / 6.0 * (f0 + 4.0 * f_mid + f1)
    if abs(lobatto - simpson) > _CELL_DISAGREEMENT * max(1.0, abs(lobatto)):
        raise NonFiniteIntegral(f"integral on [{x0}, {x1}] is not resolved")
    return lobatto


def _running_integrals(fn: Callable[[float], float], xs: list[float]) -> list[float]:
    """Integrals of fn from xs[0] to each point of xs, one cell rule per step,
    summed with Neumaier's compensation (A. Neumaier, ZAMM 54, 1974): carry
    collects the rounding error of each addition."""
    totals, total, carry = [0.0], 0.0, 0.0
    f0 = _value(fn, xs[0])
    for x0, x1 in zip(xs, xs[1:]):
        f1 = _value(fn, x1)
        cell = _cell_integral(fn, x0, x1, f0, f1)
        new = total + cell
        carry += (total - new) + cell if abs(total) >= abs(cell) else (cell - new) + total
        total = new
        totals.append(total + carry)
        f0 = f1
    return totals


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

    K(x)^2 = int_a^x phi * int_x^b psi is tabulated on a uniform grid
    by running sums of one closed Gauss-Lobatto rule per cell, at a fixed cost
    per cell; the best cell is refined by golden-section search with the same
    rule.  Divergent or unresolved tails surface as NonFiniteIntegral (the
    operators are unbounded exactly when K is infinite).
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    a, b, phi, psi = instance.a, instance.b, instance.phi, instance.psi
    xs = [a + (b - a) * i / grid_size for i in range(grid_size + 1)]

    # front[i] = int_a^x_i phi, back[i] = int_x_i^b psi; back[0] is unused.
    front = _running_integrals(phi, xs[:grid_size])
    back = [0.0, *reversed(_running_integrals(psi, xs[:0:-1]))]

    best = max(range(1, grid_size), key=lambda i: front[i] * back[i])
    lo, hi = xs[best - 1], xs[best + 1]
    front_anchor, back_anchor = front[best - 1], back[best + 1]
    phi_lo, psi_hi = _value(phi, lo), _value(psi, hi)

    def k_squared(x: float) -> float:
        left = front_anchor + _cell_integral(phi, lo, x, phi_lo, _value(phi, x))
        right = back_anchor + _cell_integral(psi, x, hi, _value(psi, x), psi_hi)
        return left * right

    x_star = golden_section_max(k_squared, lo, hi, 1e-12 * max(1.0, abs(b - a)))
    return math.sqrt(k_squared(x_star)), x_star


def galerkin_system(size: int, k):
    """(even, odd): the weak form of the weighted-space operator as two tridiagonal
    pencils, each (stiff_diag, stiff_off, mass_diag, mass_off), tuples of floats.

    Trial functions b_i = (1 - x^2) P_i (Legendre P_i) vanish at the endpoints;
    S_ij = int b_i' b_j' + k int b_i b_j / (1 - x^2) and M_ij = int b_i b_j / (1 - x^2)
    couple only i and i +- 2 (J. Shen, SIAM J. Sci. Comput. 15, 1994).  With
    h_n = int P_n^2, x P_i = a_i P_{i+1} + b_i P_{i-1} and
    b_i' = (i-1) b_i P_{i-1} - (i+2) a_i P_{i+1}, each entry is a closed form,
    computed exactly and rounded once; one beyond float range raises NonFiniteIntegral.
    """
    if not 2 <= size <= 200:
        raise ValueError("size must be between 2 and 200")
    k, h = as_fraction(k), lambda n: Fraction(2, 2 * n + 1)
    a, b = (lambda i: Fraction(i + 1, 2 * i + 1)), (lambda i: Fraction(i, 2 * i + 1))
    up = [a(i) ** 2 * h(i + 1) for i in range(size)]
    down = [b(i) ** 2 * h(i - 1) for i in range(size)]  # b_0 = 0 meets h_{-1} = -2
    m_diag = [h(i) - up[i] - down[i] for i in range(size)]
    m_off = [-a(i) * b(i + 2) * h(i + 1) for i in range(size - 2)]
    s_diag = [(i - 1) ** 2 * down[i] + (i + 2) ** 2 * up[i] + k * m_diag[i] for i in range(size)]
    s_off = [((i + 1) * (i + 2) + k) * m_off[i] for i in range(size - 2)]
    try:
        rounded = [tuple(map(float, part)) for part in (s_diag, s_off, m_diag, m_off)]
    except OverflowError as exc:
        raise NonFiniteIntegral("the Galerkin stiffness entries do not fit a finite float") from exc
    return tuple(tuple(part[p::2] for part in rounded) for p in (0, 1))


def _scan(rows, sigma: float) -> tuple[int, float]:
    """(eigenvalues below sigma, d/dsigma log|det(S - sigma M)|) from one pass of
    the LDL^T pivot recurrence of S - sigma M and of its derivative.  The slope is
    infinite when the last pivot, and with it the determinant, is exactly zero, and
    may be NaN when an earlier pivot is: the next pivot's derivative overflows and
    the sum meets inf - inf (the order-3 Legendre rows at sigma = 0 give (1, nan))."""
    count, slope, d, dd = 0, 0.0, 1.0, 0.0
    for s, m, s_prev, m_prev in rows:
        off = s_prev - sigma * m_prev
        # off * (off / d): off * off overflows for shifts near 1e300.  A zero pivot
        # counts as positive and, before the last row, is taken as 1e-300.
        t = off / (d or 1e-300)
        d, dd = s - sigma * m - off * t, t * (2.0 * m_prev + t * dd) - m
        count += d < 0.0
        slope += dd / (d or 1e-300)
    return count, slope if d else math.inf


def _refine(rows, lo: float, hi: float, index: int) -> float:
    """Eigenvalue `index`, the only one in [lo, hi): Newton on det(S - sigma M), with
    bisection when a step leaves the bracket, which every count narrows, or fails to halve.
    An infinite slope (a zero determinant, or a pivot that rounded to zero) accepts
    sigma; the step stops below 4e-16 of sigma or, for an eigenvalue at or near 0,
    of the starting bracket.  When Newton twice lands at or below an unmoved lo, one
    scan just above lo decides whether the eigenvalue is lo itself, where the caller split."""
    sigma, last = 0.5 * lo + 0.5 * hi, hi - lo
    floor = 4e-16 * max(abs(lo), abs(hi))
    start, undershoots = lo, 0
    for _ in range(100):
        count, slope = _scan(rows, sigma)
        if math.isinf(slope):
            return sigma
        lo, hi = (sigma, hi) if count <= index else (lo, sigma)
        step = -1.0 / slope if slope and math.isfinite(slope) else math.nan
        new = sigma + step
        if abs(step) <= max(4e-16 * abs(sigma), floor):
            return new
        if not (lo < new < hi and abs(step) <= 0.5 * abs(last)):
            undershoots += new <= lo == start
            if undershoots == 2 and _scan(rows, math.nextafter(lo, hi))[0] > index:
                return lo
            new = 0.5 * lo + 0.5 * hi
            if not lo < new < hi:  # no float left between lo and hi
                return new
        sigma, last = new, new - sigma
    return sigma


def solve_galerkin(block) -> list[float]:
    """Ascending eigenvalues of one tridiagonal pencil S v = lambda M v.

    The negative pivots of the LDL^T factorization of S - sigma M count the
    eigenvalues below sigma (G. Peters and J. H. Wilkinson, Comput. J. 12, 1969);
    bisection on these counts, shared by all eigenvalues, isolates each one for
    _refine.  A mass pivot that is not positive (or is NaN) raises
    MassNotPositiveDefinite, a spectrum with no finite bracket NonFiniteIntegral.
    """
    s_diag, s_off, m_diag, m_off = block
    d = 1.0
    for m, m_prev in zip(m_diag, (0.0, *m_off)):
        if not (d := m - m_prev * (m_prev / d)) > 0.0:
            raise MassNotPositiveDefinite(f"mass pivot {d} is not positive")
    rows, n = tuple(zip(s_diag, m_diag, (0.0, *s_off), (0.0, *m_off))), len(s_diag)
    # Doubled until it brackets the spectrum or, within 1030 doublings, overflows.
    radius = 2.0 * max(1.0, *(abs(s / m) for s, m, _, _ in rows))
    while math.isfinite(radius) and (_scan(rows, -radius)[0] or _scan(rows, radius)[0] < n):
        radius *= 2.0
    if not math.isfinite(radius):
        raise NonFiniteIntegral("the Galerkin eigenvalues have no finite bracket")
    values, pending = [0.0] * n, [(-radius, 0, radius, n, 0)]
    while pending:  # (lo, hi] holds eigenvalues c_lo .. c_hi - 1 after `depth` halvings
        lo, c_lo, hi, c_hi, depth = pending.pop()
        mid = 0.5 * lo + 0.5 * hi
        if c_hi - c_lo == 1:
            values[c_lo] = _refine(rows, lo, hi, c_lo)
        elif depth == 200 or not lo < mid < hi:  # a cluster at float resolution
            values[c_lo:c_hi] = [mid] * (c_hi - c_lo)
        elif c_hi > c_lo:
            c_mid = min(max(_scan(rows, mid)[0], c_lo), c_hi)
            pending += [(lo, c_lo, mid, c_mid, depth + 1), (mid, c_mid, hi, c_hi, depth + 1)]
    return values


def galerkin_spectrum(size: int, k) -> list[float]:
    """Ascending Galerkin eigenvalues approximating the weighted-space spectrum: the
    trial space of size s spans the exact eigenfunctions of degrees 2..s+1, so they
    equal m(m-1) + k, m = 2, ..., s+1, up to rounding in assembly and eigensolve."""
    return sorted(v for block in galerkin_system(size, k) for v in solve_galerkin(block))
