"""Jacobi-Stirling numbers and composite-power coefficients.

Both are rows of one triangle, rebuilt on each call (no row is kept):

    T(0, 0) = 1,  T(n, j) = T(n-1, j-1) + (j (j - 1) + k) T(n-1, j).

At k = 0 its rows are the Jacobi-Stirling numbers {n, j}, in integers: upper
triangular with unit diagonal and {n, j} = delta_{n,j} for j in {0, 1}.  The
Legendre-Stirling numbers are the same triangle shifted by one in both
indices, {n + 1, j + 1}.  At a spectral shift k >= 0, row n holds the
coefficients c_j(n, k) of the n-th composite power of the differential
expression: since l_k = l_0 + k, c_j(n, k) = sum_r binom(n, r) k^r {n-r, j},
and Pascal's rule on binom(n, r) splits that sum into the two terms above.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Frozen, RationalLike, as_fraction

__all__ = [
    "CompositeCoefficients",
    "StirlingTable",
    "jacobi_stirling",
    "composite_coefficients",
    "build_table",
]


def _triangle(max_n: int, k: int | Fraction) -> list[tuple]:
    """Rows 0..max_n of the triangle T at shift k."""
    rows = [(1,)]
    for _ in range(max_n):
        prev = rows[-1] + (0,)  # prev[-1] stands for T(n-1, -1) = 0
        rows.append(tuple(prev[j - 1] + (j * (j - 1) + k) * prev[j] for j in range(len(prev))))
    return rows


def jacobi_stirling(n: int, j: int) -> int:
    """Jacobi-Stirling number {n, j} as an arbitrary-precision integer."""
    if n < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    return _triangle(n, 0)[n][j] if j <= n else 0


class CompositeCoefficients(Frozen):
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
    coeffs = _triangle(n, k)[n]
    assert coeffs[n] == 1 and all(c >= 0 for c in coeffs)
    return CompositeCoefficients(n, k, coeffs)


class StirlingTable(Frozen):
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
    return StirlingTable(tuple(_triangle(max_n, 0)))
