"""Frozen reference values and independent oracles shared by the test modules.

The triangle below is the standard Jacobi-Stirling table (rows j = 0..8,
columns n = 0..8).  The oracles here deliberately avoid the code paths they
check: products are schoolbook Fraction convolutions, not the integer kernel;
the classical family is rebuilt from its three-term recurrence and from the
explicit binomial sum; Jacobi-Stirling numbers come from their alternating
sum, and the composite-power coefficients from their binomial double sum over
those; weighted integrals and bilinear forms are recomputed from a term-by-term
antiderivative of the product polynomial; the boundedness constant comes from
per-cell adaptive Simpson quadrature and golden-section search, and from
chel_K's former tabulation on lists of floats with one cell-rule call per
cell; the Galerkin pencil is assembled as dense matrices by Gauss-Legendre
quadrature and solved by Cholesky and a dense symmetric eigensolver (numpy).
The Jacobi matrix of a classical weight, a small tridiagonal pencil with
exact zero pivots, exercises the Galerkin solver's zero handling.
"""

import math
from fractions import Fraction
from math import factorial

from jsob.algebra import Polynomial, as_fraction
from jsob.numeric import (
    _CELL_DISAGREEMENT,
    _CELL_LIMIT,
    _LOBATTO_INNER,
    _W_END,
    _W_MID,
    _W_SIDE,
    MassNotPositiveDefinite,
    NonFiniteIntegral,
    _value,
    sign_change,
)
from jsob.stirling import CompositeCoefficients

# rows j = 0..8, columns n = 0..8
JACOBI_STIRLING_TABLE = (
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


def jacobi_by_recurrence(n: int, alpha, beta) -> Polynomial:
    """Reference-normalized Jacobi polynomial from the three-term recurrence.

    2n(n+a+b)(2n+a+b-2) P_n = (2n+a+b-1)[(2n+a+b)(2n+a+b-2) x + a^2-b^2] P_{n-1}
                              - 2(n+a-1)(n+b-1)(2n+a+b) P_{n-2},

    valid for a, b > -1 where all leading factors are nonzero.
    """
    a, b = Fraction(alpha), Fraction(beta)
    p_prev = Polynomial.one()
    if n == 0:
        return p_prev
    p = Polynomial(((a - b) / 2, (a + b + 2) / 2))
    for m in range(2, n + 1):
        c0 = 2 * m * (m + a + b) * (2 * m + a + b - 2)
        c1 = (2 * m + a + b - 1) * (2 * m + a + b) * (2 * m + a + b - 2)
        c2 = (2 * m + a + b - 1) * (a * a - b * b)
        c3 = 2 * (m + a - 1) * (m + b - 1) * (2 * m + a + b)
        nxt = (c1 * (Polynomial.x() * p) + c2 * p - c3 * p_prev) * (Fraction(1) / c0)
        p_prev, p = p, nxt
    return p


def schoolbook_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """The O(n^2) Fraction convolution."""
    if a.is_zero or b.is_zero:
        return Polynomial()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def _power(p: Polynomial, n: int) -> Polynomial:
    out = Polynomial((1,))
    for _ in range(n):
        out = schoolbook_product(out, p)
    return out


def _scaled(c: Fraction, p: Polynomial) -> Polynomial:
    return Polynomial([c * x for x in p.coeffs])


def _sum(a: Polynomial, b: Polynomial) -> Polynomial:
    if len(a.coeffs) < len(b.coeffs):
        a, b = b, a
    out = list(a.coeffs)
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return Polynomial(out)


def _binomial(top: Fraction, j: int) -> Fraction:
    num = Fraction(1)
    for i in range(j):
        num *= top - i
    return num / factorial(j)


def jacobi_by_binomial_sum(n: int, alpha, beta) -> Polynomial:
    """sum_v binom(n+a, v) binom(n+b, n-v) ((x-1)/2)^(n-v) ((x+1)/2)^v, any a, b >= -1."""
    a, b = Fraction(alpha), Fraction(beta)
    u = Polynomial((Fraction(-1, 2), Fraction(1, 2)))
    v = Polynomial((Fraction(1, 2), Fraction(1, 2)))
    total = Polynomial()
    for k in range(n + 1):
        c = _binomial(n + a, k) * _binomial(n + b, n - k)
        total = _sum(total, _scaled(c, schoolbook_product(_power(u, n - k), _power(v, k))))
    return total


def jacobi_stirling_by_sum(n: int, j: int) -> int:
    """{n, j} from the alternating sum

    sum_{r=2}^{j} (-1)^(r+j) (2r-1) (r-2)! [r(r-1)]^n / (r! (j-r)! (j+r-1)!)

    for 2 <= j <= n, with {n, j} = delta_{n,j} for j <= 1 and 0 for j > n.
    """
    if j <= 1:
        return 1 if n == j else 0
    if j > n:
        return 0
    total = Fraction(0)
    for r in range(2, j + 1):
        term = Fraction(
            (2 * r - 1) * factorial(r - 2) * (r * (r - 1)) ** n,
            factorial(r) * factorial(j - r) * factorial(j + r - 1),
        )
        total += -term if (r + j) % 2 else term
    assert total.denominator == 1 and total >= 0, (n, j, total)
    return total.numerator


def composite_coefficients_by_binomial_sum(n: int, k) -> CompositeCoefficients:
    """c_0 = k^n for k > 0 (and 0 for k = 0); c_j = sum_r binom(n, r) {n-r, j} k^r,
    with {n-r, j} from the alternating sum above.

    All coefficients are nonnegative and c_n = 1.
    """
    k = as_fraction(k)
    if n < 1:
        raise ValueError("the composite power index must be >= 1")
    if k < 0:
        raise ValueError("the spectral shift k must be nonnegative")
    coeffs = [k**n if k > 0 else Fraction(0)]
    for j in range(1, n + 1):
        cj = Fraction(0)
        kpow = Fraction(1)
        for r in range(0, n - j + 1):
            cj += math.comb(n, r) * jacobi_stirling_by_sum(n - r, j) * kpow
            kpow *= k
        coeffs.append(cj)
    assert coeffs[n] == 1 and all(c >= 0 for c in coeffs)
    return CompositeCoefficients(n=n, k=k, c=tuple(coeffs))


def _integral(q: Polynomial) -> Fraction:
    """Integral of q over [-1, 1] from the antiderivative."""
    anti = Polynomial([Fraction(0)] + [c / (i + 1) for i, c in enumerate(q.coeffs)])
    return anti(Fraction(1)) - anti(Fraction(-1))


def integral_by_antiderivative(p: Polynomial, m: int) -> Fraction:
    """Integral of p(x) (1 - x^2)^m over [-1, 1] via the symbolic antiderivative."""
    return _integral(schoolbook_product(p, _power(Polynomial((1, 0, -1)), m)))


def _weighted_by_products(p: Polynomial, q: Polynomial, a: int, b: int) -> Fraction:
    """Integral of p q (1 - x)^a (1 + x)^b for a, b >= -1; a -1 factor divides p q."""
    prod = schoolbook_product(p, q)
    for exponent, root, factor in ((a, 1, (1, -1)), (b, -1, (1, 1))):
        if exponent == -1:
            assert prod(Fraction(root)) == 0
            # synthetic division by (x - root), then the sign of (1 - x) or (1 + x)
            quotient, carry = [], Fraction(0)
            for c in reversed(prod.coeffs):
                carry = carry * root + c
                quotient.append(carry)
            quotient = Polynomial(list(reversed(quotient[:-1])))
            prod = _scaled(Fraction(-1 if root == 1 else 1), quotient)
        else:
            prod = schoolbook_product(prod, _power(Polynomial(factor), exponent))
    return _integral(prod)


def bilinear_by_products(p: Polynomial, q: Polynomial, spec) -> Fraction:
    """The pairing of p and q by forming each product polynomial, one pair at a time."""
    kind = type(spec).__name__
    if kind == "Classical":
        return _weighted_by_products(p, q, int(spec.params.alpha), int(spec.params.beta))
    if kind == "SobolevPhi":
        boundary = (p(Fraction(-1)) * q(Fraction(-1)) + p(Fraction(1)) * q(Fraction(1))) / 2
        return boundary + _weighted_by_products(p.derivative(), q.derivative(), 0, 0)
    from jsob.stirling import composite_coefficients

    total = Fraction(0)
    for j, cj in enumerate(composite_coefficients(spec.n, spec.k).c):
        if cj:
            m = j - 1
            total += cj * _weighted_by_products(p.derivative(j), q.derivative(j), m, m)
    return total


def _adaptive_simpson(fn, a: float, b: float, tol: float) -> float:
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


def golden_section_max(fn, lo: float, hi: float, tol: float) -> float:
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


def chel_K_by_adaptive_simpson(instance, grid_size: int) -> tuple[float, float]:
    """(K, argmax) with every cell integral from adaptive Simpson to 1e-14.

    Its cost grows faster than linearly in grid_size near an endpoint
    singularity, so it serves only as an oracle at small grids.
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    a, b, phi, psi = instance.a, instance.b, instance.phi, instance.psi
    xs = [a + (b - a) * i / grid_size for i in range(grid_size + 1)]
    cell_tol = 1e-14

    front = [0.0] * (grid_size + 1)
    for i in range(1, grid_size):
        front[i] = front[i - 1] + _adaptive_simpson(phi, xs[i - 1], xs[i], cell_tol)
    back = [0.0] * (grid_size + 1)
    for i in range(grid_size - 1, 0, -1):
        back[i] = back[i + 1] + _adaptive_simpson(psi, xs[i], xs[i + 1], cell_tol)

    best = max(range(1, grid_size), key=lambda i: front[i] * back[i])
    lo, hi = xs[best - 1], xs[best + 1]
    front_anchor, back_anchor = front[best - 1], back[best + 1]

    def k_squared(x: float) -> float:
        left = front_anchor + _adaptive_simpson(phi, xs[best - 1], x, cell_tol)
        right = back_anchor + _adaptive_simpson(psi, x, xs[best + 1], cell_tol)
        return left * right

    x_star = golden_section_max(k_squared, lo, hi, 1e-12 * max(1.0, abs(b - a)))
    return math.sqrt(k_squared(x_star)), x_star


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


def _running_integrals(fn, xs: list[float]) -> list[float]:
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


def chel_K_by_lists(instance, grid_size: int) -> tuple[float, float]:
    """(K, argmax) as chel_K computed it on lists of Python floats, with one
    call of _cell_integral per cell: the same nodes, operations and integrand
    calls, so it must agree with chel_K bit for bit."""
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

    def slope_and_k_squared(x: float) -> tuple[float, float]:
        f, g = _value(phi, x), _value(psi, x)
        left = front_anchor + _cell_integral(phi, lo, x, phi_lo, f)
        right = back_anchor + _cell_integral(psi, x, hi, g, psi_hi)
        return f * right - g * left, left * right

    x_star = sign_change(lambda x: slope_and_k_squared(x)[0], lo, hi)
    return math.sqrt(slope_and_k_squared(x_star)[1]), x_star


def galerkin_system_dense(size: int, k):
    """(stiffness, mass): the weak form of the weighted-space operator, as float arrays.

    Trial functions b_i = (1 - x^2) P_i (Legendre P_i) vanish at the endpoints;
    stiffness = int b_i' b_j' + k int b_i b_j / (1 - x^2) and
    mass = int b_i b_j / (1 - x^2).  The integrands are polynomials of degree
    at most 2 * size, so the (size + 2)-point Gauss-Legendre rule is exact for
    them; b_i' = i P_{i-1} - (i + 2) x P_i needs no differentiation.  A shift
    k or a stiffness entry beyond float range raises NonFiniteIntegral.
    """
    import numpy as np
    from numpy.polynomial.legendre import leggauss, legvander

    if not 2 <= size <= 200:
        raise ValueError("size must be between 2 and 200")
    try:
        kf = float(as_fraction(k))
    except OverflowError as exc:
        raise NonFiniteIntegral("the shift k does not fit a finite float") from exc
    x, w = leggauss(size + 2)
    p = legvander(x, size - 1)
    i = np.arange(size)
    p_prev = np.hstack([np.zeros((len(x), 1)), p[:, :-1]])
    dp = i * p_prev - (i + 2) * x[:, None] * p
    mass = (p * (w * (1.0 - x * x))[:, None]).T @ p
    with np.errstate(over="ignore"):
        stiff = (dp * w[:, None]).T @ dp + kf * mass
        # Averaging with the transpose makes both matrices exactly symmetric.
        stiff = 0.5 * (stiff + stiff.T)
    if not np.isfinite(stiff).all():
        raise NonFiniteIntegral("the Galerkin stiffness integrals are not finite")
    return stiff, 0.5 * (mass + mass.T)


def solve_galerkin_dense(stiffness, mass) -> list[float]:
    """Ascending eigenvalues of stiffness v = lambda mass v (symmetric float matrices).

    The mass matrix is factored by Cholesky, mass = L L^T, and the symmetric
    matrix L^-1 S L^-T (two solves with L) goes to the dense symmetric
    eigensolver.  A mass matrix that is not numerically positive definite
    raises MassNotPositiveDefinite.
    """
    import numpy as np

    try:
        lower = np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        raise MassNotPositiveDefinite(f"Cholesky of the mass matrix failed: {exc}") from exc
    pivots = np.diag(lower)
    if not np.all(pivots > 0):
        raise MassNotPositiveDefinite(f"mass pivot {float(pivots.min())} is not positive")
    half = np.linalg.solve(lower, stiffness)
    congruent = np.linalg.solve(lower, half.T)
    return [float(v) for v in np.linalg.eigvalsh(0.5 * (congruent + congruent.T))]


def jacobi_matrix_pencil(order: int, alpha: float, beta: float):
    """The order-n Jacobi matrix of the weight (1-x)^alpha (1+x)^beta, alpha, beta > -1,
    as a tridiagonal pencil (diag, off, mass_diag, mass_off) with the identity as
    mass.  Its eigenvalues are the nodes of the order-n Gauss-Jacobi rule."""
    ab = alpha + beta
    diag = [(beta - alpha) / (ab + 2.0)]
    diag += [(beta * beta - alpha * alpha) / ((2 * j + ab) * (2 * j + ab + 2)) for j in range(1, order)]
    # j = 1 separately: the general formula has a removable (ab + 1) factor.
    off = [math.sqrt(4.0 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3)))][: order - 1]
    for j in range(2, order):
        s = 2 * j + ab
        off.append(math.sqrt(4 * j * (j + alpha) * (j + beta) * (j + ab) / (s * s * (s * s - 1))))
    return diag, off, [1.0] * order, [0.0] * (order - 1)
