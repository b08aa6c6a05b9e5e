"""Jacobi-Stirling numbers and composite-power coefficients.

The Jacobi-Stirling numbers {n, j} form an upper-triangular table with unit
diagonal, {n, j} = delta_{n,j} for j in {0, 1} and {n, j} = 0 for j > n.  Row
n is built from row n - 1 by the triangular recurrence

    {n, j} = {n-1, j-1} + j (j - 1) {n-1, j},

in integers; rows are kept once built.  The Legendre-Stirling numbers are the
same triangle shifted by one in both indices, {n + 1, j + 1}.

The coefficients c_j(n, k) combine the triangle with powers of the spectral
shift k >= 0 and are the coefficients of the n-th composite power of the
differential expression.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .algebra import RationalLike, as_fraction

__all__ = [
    "CompositeCoefficients",
    "StirlingTable",
    "jacobi_stirling",
    "composite_coefficients",
    "build_table",
]


# Row n holds {n, j} for j = 0..n.  jacobi_stirling replaces the tuple with a
# longer one, so a reader always sees a complete prefix of the triangle.
_TRIANGLE: tuple[tuple[int, ...], ...] = ((1,),)


def jacobi_stirling(n: int, j: int) -> int:
    """Jacobi-Stirling number {n, j} as an arbitrary-precision integer."""
    if n < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    if j > n:
        return 0
    global _TRIANGLE
    rows = _TRIANGLE
    if len(rows) <= n:
        grown = list(rows)
        while len(grown) <= n:
            prev = grown[-1] + (0,)
            grown.append((0, *(prev[i - 1] + i * (i - 1) * prev[i] for i in range(1, len(prev)))))
        rows = _TRIANGLE = tuple(grown)
    return rows[n][j]


class CompositeCoefficients(NamedTuple):
    """Coefficients c_j(n, k), j = 0..n, of the n-th composite power."""

    n: int
    k: Fraction
    c: tuple[Fraction, ...]


def composite_coefficients(n: int, k: RationalLike) -> CompositeCoefficients:
    """c_0 = k^n for k > 0 (and 0 for k = 0); c_j = sum_r binom(n, r) {n-r, j} k^r.

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
            cj += comb(n, r) * jacobi_stirling(n - r, j) * kpow
            kpow *= k
        coeffs.append(cj)
    assert coeffs[n] == 1 and all(c >= 0 for c in coeffs)
    return CompositeCoefficients(n=n, k=k, c=tuple(coeffs))


class StirlingTable(NamedTuple):
    """The triangle {n, j} for 0 <= n, j <= max_n, as its rows 0..max_n."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, j: int) -> int:
        return self.rows[n][j] if j <= n else 0


def build_table(max_n: int) -> StirlingTable:
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    jacobi_stirling(max_n, 0)  # grows the triangle to row max_n
    return StirlingTable(_TRIANGLE[:max_n + 1])
