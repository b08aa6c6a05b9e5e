"""Floating-point layer: boundedness constants and a Galerkin reproduction of
the weighted-space spectrum.

Everything exact lives elsewhere; apart from the float checks of jsob.checks,
this module is where doubles are allowed, in pure Python (chel's tables are
array('d'), imported on first use).  The Galerkin
discretization on the basis (1 - x^2) P_i (Legendre P_i) builds each pencil by
left-definite band steps from the closed-form weighted-L2 Gram matrix and
solves its two tridiagonal halves by sign bisection on Sturm counts, merged lazily.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from itertools import islice

from .algebra import as_fraction
from .operators import OperatorTag, SpectrumSpec

__all__ = [
    "NonFiniteIntegral",
    "MassNotPositiveDefinite",
    "chel_preset",
    "chel_K",
    "sign_change",
    "galerkin_system",
    "galerkin_eigenvalues",
    "solve_galerkin",
]


class NonFiniteIntegral(ArithmeticError):
    """A tail or stiffness integral is numerically divergent or non-finite."""


class MassNotPositiveDefinite(ArithmeticError):
    """The mass matrix factorization met a nonpositive pivot."""


# A dataclass, unlike the other records, because perfbench/tracer.py copies it
# with dataclasses.replace.  It is built on first use by the module __getattr__
# (PEP 562), so that commands other than chel do not import dataclasses (and
# with it inspect) at start-up; typing.get_type_hints would not find it before
# that, so no annotation names it, and __all__ leaves it out, since a star
# import would build it.  It becomes a plain class at module level
# when ROADMAP item 5 deletes perfbench/tracer.py.
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


def chel_preset(name: str):
    """The ChelInstance of a named case of the endpoint analysis.

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


def _running_integrals(fn: Callable[[float], float], points):
    """Integrals of fn from the first of points to each of them: one Lobatto rule
    per cell, summed with Neumaier's compensation (A. Neumaier, ZAMM 54, 1974;
    carry collects each addition's rounding error).  NonFiniteIntegral names the
    node x at which fn raises, or a cell whose integral is not finite (every
    weight is positive), exceeds _CELL_LIMIT, or is off the Simpson value by more
    than _CELL_DISAGREEMENT * max(1, |integral|).  Apart from fn and append, the
    loop makes no call: each absolute value is a sign test."""
    from array import array
    points = iter(points)
    totals, total, carry = array("d", [0.0]), 0.0, 0.0
    append, inner, limit, tol = totals.append, _LOBATTO_INNER, _CELL_LIMIT, _CELL_DISAGREEMENT
    try:
        x0 = x = next(points)
        f0 = fn(x)
        for x in points:
            x1, f1, d = x, fn(x), x - x0
            h = d if d >= 0.0 else -d
            f_mid = fn(x := x0 + 0.5 * d)
            f_sides = fn(x := x0 + inner * d) + fn(x := x1 - inner * d)
            cell = h * (_W_END * (f0 + f1) + _W_SIDE * f_sides + _W_MID * f_mid)
            if not -limit <= cell <= limit:  # NaN fails both comparisons
                raise NonFiniteIntegral(f"integral on [{x0}, {x1}] is not finite")
            size = cell if cell >= 0.0 else -cell
            off = cell - h / 6.0 * (f0 + 4.0 * f_mid + f1)
            off = off if off >= 0.0 else -off
            if off > tol and off > tol * size:
                raise NonFiniteIntegral(f"integral on [{x0}, {x1}] is not resolved")
            new = total + cell
            if (total if total >= 0.0 else -total) >= size:
                carry += (total - new) + cell
            else:
                carry += (cell - new) + total
            total = new
            append(total + carry)
            x0, f0 = x1, f1
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise NonFiniteIntegral(f"integrand not finite at x = {x}") from exc
    return totals


def sign_change(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Where fn turns from positive to nonpositive on [lo, hi], by bisection on its
    sign until no float lies between the bracket's ends; the upper end is returned.
    The ends themselves are never evaluated.  For a step function it is the first
    float at which fn is nonpositive.  A bracket across 0 is first split there, and
    one that then ends at 0 tries the float just below 0 (-5e-324) once, rather than
    halve through every binade down to it."""
    if lo < 0.0 < hi:
        lo, hi = (0.0, hi) if fn(0.0) > 0.0 else (lo, 0.0)
    if lo < -5e-324 < hi == 0.0:
        if fn(-5e-324) > 0.0:
            return hi
        hi = -5e-324
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        lo, hi = (mid, hi) if fn(mid) > 0.0 else (lo, mid)
    return hi


def chel_K(instance, grid_size: int) -> tuple[float, float]:
    """(K, argmax) of a ChelInstance: the boundedness constant and where K(x) attains it.

    K(x)^2 = F(x) G(x), F = int_a^x phi and G = int_x^b psi, is tabulated on a
    uniform grid by running sums of one closed Gauss-Lobatto rule per cell, four
    integrand calls a cell, into arrays of doubles (24 bytes a grid point).  K^2
    is flat to rounding at its maximum, so the best cell is refined on the sign
    of the derivative phi G - psi F, which crosses zero linearly, with the same
    running sums on its two halves, to the last bit.  Divergent or unresolved
    tails surface as NonFiniteIntegral (the operators are unbounded exactly when
    K is infinite).
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    from array import array
    a, b, phi, psi = instance.a, instance.b, instance.phi, instance.psi
    xs = array("d", (a + (b - a) * i / grid_size for i in range(grid_size + 1)))

    # front[i] = int_a^x_i phi and back[j] = int_x_(grid_size-j)^b psi, i, j < grid_size.
    front = _running_integrals(phi, islice(xs, grid_size))
    back = _running_integrals(psi, islice(reversed(xs), grid_size))

    best = max(range(1, grid_size), key=lambda i: front[i] * back[grid_size - i])
    lo, hi = xs[best - 1], xs[best + 1]
    front_anchor, back_anchor = front[best - 1], back[grid_size - best - 1]

    def slope_and_k_squared(x: float) -> tuple[float, float]:
        left = front_anchor + _running_integrals(phi, (lo, x))[1]
        right = back_anchor + _running_integrals(psi, (x, hi))[1]
        # Neither call raises: the two integrals above have evaluated phi and psi at x.
        return phi(x) * right - psi(x) * left, left * right

    x_star = sign_change(lambda x: slope_and_k_squared(x)[0], lo, hi)
    return math.sqrt(slope_and_k_squared(x_star)[1]), x_star


def _ell_step(diag: list, off: list, k: Fraction) -> tuple[list, list]:
    """The band (diagonal, entries (i + 2, i)) of q L^T G, q the denominator of k, from
    that of G: ell b_i = lam_i b_i + 2 sum (2j+1) b_j over j < i, j = i mod 2, with
    lam_i = k + (i+1)(i+2), so the columns of L are these coefficients."""
    p, q = k.numerator, k.denominator
    lam = [p + q * (i + 1) * (i + 2) for i in range(len(diag))]
    below = [0, 0, *(q * (4 * i - 6) * off[i - 2] for i in range(2, len(diag)))]
    return ([lam[i] * d + below[i] for i, d in enumerate(diag)],
            [below[i] + q * (4 * i + 2) * diag[i] + lam[i + 2] * o for i, o in enumerate(off)])


def galerkin_system(size: int, k, chain=()):
    """(even, odd): an operator's Galerkin pencil as two tridiagonal pencils, each
    (stiff_diag, stiff_off, mass_diag, mass_off), tuples of floats.

    Trial functions b_i = (1 - x^2) P_i (Legendre P_i) vanish at the endpoints
    (J. Shen, SIAM J. Sci. Comput. 15, 1994).  G_0, the Gram matrix of
    int f g / (1 - x^2), is 4(i^2+i-1)/((2i-1)(2i+1)(2i+3)) at j = i and
    -2(i+1)(i+2)/((2i+1)(2i+3)(2i+5)) at j = i + 2.  As (f, g)_n = (ell f, g)_{n-1}
    (L. L. Littlejohn and R. Wellman, J. Differential Equations 181, 2002), every G_n
    is zero off |i - j| in {0, 2}, and one _ell_step per shift of ``chain`` gives the
    mass B, one more at k the stiffness L^T B; galerkin_eigenvalues maps A to (), Bn to
    (k,) * n and T to (0,) (B the phi Gram of the bubbles).  Entries, integers over one
    denominator, are rounded once; one beyond float range raises NonFiniteIntegral.
    """
    if not 2 <= size <= 200:
        raise ValueError("size must be between 2 and 200")
    den, k = math.lcm(*range(1, 2 * size + 4, 2)), as_fraction(k)  # den clears G_0
    odd = lambda i: (2 * i - 1) * (2 * i + 1) * (2 * i + 3)
    mass = ([4 * (i * i + i - 1) * den // odd(i) for i in range(size)],
            [-2 * (i + 1) * (i + 2) * den // odd(i + 1) for i in range(size - 2)])
    for shift in map(as_fraction, chain):
        mass, den = _ell_step(*mass, shift), den * shift.denominator
    bands = ((den * k.denominator, _ell_step(*mass, k)), (den, mass))
    try:
        rounded = [tuple(float(v / d) for v in part) for d, band in bands for part in band]
    except OverflowError as exc:
        raise NonFiniteIntegral("the Galerkin stiffness entries do not fit a finite float") from exc
    return tuple(tuple(part[p::2] for part in rounded) for p in (0, 1))


def _count(rows, sigma: float) -> int:
    """Eigenvalues at or below sigma: the LDL^T pivots of S - sigma M that are not
    positive.  A zero pivot counts and is taken as -1e-300 for the next row, its
    value just above sigma, as the pivots fall with sigma."""
    count, d = 0, 1.0
    for s, m, s_prev, m_prev in rows:
        off = s_prev - sigma * m_prev
        # off * (off / d): off * off overflows for shifts near 1e300.
        d = s - sigma * m - off * (off / (d or -1e-300))
        if d <= 0.0:
            count += 1
    return count


def solve_galerkin(blocks, count=None) -> list[float]:
    """Ascending eigenvalues of the pencil S v = lambda M v with these tridiagonal
    blocks, only the first ``count`` if given (eigenvalue j depends on none after it).

    The nonpositive pivots of the LDL^T factorization of S - sigma M count a block's
    eigenvalues at or below sigma (W. Barth, R. S. Martin and J. H. Wilkinson,
    Numer. Math. 9, 1967; G. Peters and J. H. Wilkinson, Comput. J. 12, 1969).
    heapq.merge solves a block's next eigenvalue only when it is due, ties in block
    order: two blocks cost at most count + 1 bisections.  Before any is solved, a
    negative ``count`` raises ValueError, a mass pivot that is not positive (or is
    NaN) MassNotPositiveDefinite, a block with no finite bracket NonFiniteIntegral.
    """
    import heapq
    if count is not None and count < 0:
        raise ValueError("count must be nonnegative")
    pencils = []
    for s_diag, s_off, m_diag, m_off in blocks:
        d = 1.0
        for m, m_prev in zip(m_diag, (0.0, *m_off)):
            if not (d := m - m_prev * (m_prev / d)) > 0.0:
                raise MassNotPositiveDefinite(f"mass pivot {d} is not positive")
        rows, n = tuple(zip(s_diag, m_diag, (0.0, *s_off), (0.0, *m_off))), len(s_diag)
        # Doubled until it brackets the spectrum or, within 1030 doublings, overflows.
        radius = 2.0 * max(1.0, *(abs(s / m) for s, m, _, _ in rows))
        while math.isfinite(radius) and (_count(rows, -radius) or _count(rows, radius) < n):
            radius *= 2.0
        if not math.isfinite(radius):
            raise NonFiniteIntegral("the Galerkin eigenvalues have no finite bracket")
        pencils.append(_ascending(rows, n, radius))
    return list(islice(heapq.merge(*pencils), count))


def _ascending(rows, n: int, radius: float):
    """A block's eigenvalues, ascending, each solved when asked for.  Eigenvalue j is
    eigenvalue j - 1 if the count recorded there (n at the radius) exceeds j, so a
    repeated one comes out as equal floats, else the upper end of sign_change's bracket
    on "count <= j" from there to the radius (the float count need not be monotone)."""
    value, counts = -radius, {radius: n}  # the count at every shift evaluated
    for j in range(n):
        if counts.get(value, 0) <= j:
            value = sign_change(
                lambda sigma: counts.setdefault(sigma, _count(rows, sigma)) <= j, value, radius)
        yield value


def galerkin_eigenvalues(spec: SpectrumSpec, size: int, count=None) -> list[float]:
    """spec's eigenvalues from index spec.first_index by its Galerkin pencil of the given
    size, the first ``count`` if given.  T's even and odd pencils lead with a row for 1
    and for x / sqrt(3), phi-orthonormal eigenfunctions of ell at k phi-orthogonal to
    the bubbles: stiffness k and mass 1, uncoupled."""
    k, tag = spec.k, spec.operator
    chain = {OperatorTag.A: (), OperatorTag.BN: (k,) * (spec.power or 0), OperatorTag.T: (0,)}[tag]
    blocks = galerkin_system(size, k, chain)
    if tag is OperatorTag.T:
        blocks = [tuple((v, *part) for v, part in zip((float(k), 0.0, 1.0, 0.0), b)) for b in blocks]
    return solve_galerkin(blocks, count)
