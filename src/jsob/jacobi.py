"""Jacobi polynomial families, classical and nonclassical.

``jacobi_family(n, params, norm)`` is the one constructor of a member.  Every
degree comes from the three-term recurrence seeded with closed-form P_0, P_1
and P_2, and both scales are closed forms.  Three normalizations:

* ``Normalization.REFERENCE`` -- the textbook family, any parameters >= -1,
  P_n(1) = binom(n + alpha, n).  For alpha = beta = -1 this family has
  P_1 identically zero and degrees >= 2 vanishing at both endpoints.
* ``Normalization.L2`` -- orthonormal in the weighted space with weight
  (1 - x)^alpha (1 + x)^beta: the reference member over the square root of
  its squared norm h_n (DLMF Table 18.3.1).  Exact mode covers integer
  alpha, beta >= 0 (polynomial weight, rational squared norms) and the
  nonclassical family for degree >= 2, where the same h_n holds.  The
  degree 0 and 1 members of the nonclassical family are not in that space.
* ``Normalization.PHI`` -- the Sobolev-orthonormal convention for the
  nonclassical family only: degree 0 is 1, degree 1 is x / sqrt(3), and for
  n >= 2 the renormalization sqrt(4n - 2) / (n - 1) is applied to the
  reference member.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import (
    Frozen,
    Polynomial,
    RationalLike,
    ScaledPolynomial,
    as_fraction,
)

__all__ = [
    "JacobiParams",
    "NONCLASSICAL",
    "Normalization",
    "UndefinedNormalization",
    "jacobi_family",
]


class UndefinedNormalization(ValueError):
    """The requested normalization does not exist for these parameters/degree."""


class JacobiParams(Frozen):
    """Parameter pair (alpha, beta) with alpha, beta >= -1."""

    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha: RationalLike, beta: RationalLike):
        a, b = as_fraction(alpha), as_fraction(beta)
        if a < -1 or b < -1:
            raise ValueError("parameters below -1 are out of scope")
        super().__init__(a, b)

    @property
    def is_nonclassical(self) -> bool:
        return self.alpha == -1 and self.beta == -1

    @property
    def is_nonnegative_integer_pair(self) -> bool:
        return (
            self.alpha.denominator == 1
            and self.beta.denominator == 1
            and self.alpha >= 0
            and self.beta >= 0
        )


NONCLASSICAL = JacobiParams(-1, -1)


class Normalization(Enum):
    REFERENCE = "reference"
    L2 = "l2"
    PHI = "phi"


def _seeds(params: JacobiParams) -> tuple[Polynomial, Polynomial, Polynomial]:
    """P_0, P_1 and P_2 in closed form, which seed the recurrence.

    In u = x - 1 the coefficient of (u/2)^v in P_n is
    binom(n+a, n-v) (n+a+b+1)_v / v!, so P_n(1) = binom(n+a, n):
    P_1 = (a+1) + (a+b+2) u/2 and
    P_2 = (a+1)(a+2)/2 + (a+2)(a+b+3) u/2 + (a+b+3)(a+b+4) u^2/8.
    """
    a, b = params.alpha, params.beta
    d0, d1 = a + 1, (a + b + 2) / 2  # P_1 = d0 + d1 u
    c0, c1, c2 = (a + 1) * (a + 2) / 2, (a + 2) * (a + b + 3) / 2, (a + b + 3) * (a + b + 4) / 8
    return (
        Polynomial.one(),
        Polynomial((d0 - d1, d1)),
        Polynomial((c0 - c1 + c2, c1 - 2 * c2, c2)),
    )


def _recurrence_step(
    n: int, params: JacobiParams, p1: Polynomial, p2: Polynomial
) -> Polynomial:
    """P_n from P_{n-1} = p1 and P_{n-2} = p2 by the three-term recurrence (DLMF 18.9.2):

    2n(n+a+b)(2n+a+b-2) P_n = (2n+a+b-1)[(2n+a+b)(2n+a+b-2) x + a^2-b^2] P_{n-1}
                              - 2(n+a-1)(n+b-1)(2n+a+b) P_{n-2},

    whose leading factor is nonzero for n >= 3 when a, b >= -1.
    """
    a, b = params.alpha, params.beta
    s = 2 * n + a + b
    step = Polynomial(((s - 1) * (a * a - b * b), (s - 1) * s * (s - 2)))
    back = 2 * (n + a - 1) * (n + b - 1) * s
    return (step * p1 - back * p2) * (1 / (2 * n * (n + a + b) * (s - 2)))


# params -> (P_0, P_1, ...).  Each update stores a new, longer tuple, so a
# reader always sees a complete prefix of the family.
_FAMILIES: dict[JacobiParams, tuple[Polynomial, ...]] = {}


def _reference(n: int, params: JacobiParams) -> Polynomial:
    """Degree-n member in the reference normalization, expanded.

    Degrees 0..2 are the closed-form seeds, higher degrees follow by the
    three-term recurrence; every degree built is kept for later calls.
    """
    family = _FAMILIES.get(params) or _seeds(params)
    if len(family) <= n:
        grown = list(family)
        for m in range(len(grown), n + 1):
            grown.append(_recurrence_step(m, params, grown[m - 1], grown[m - 2]))
        family = tuple(grown)
    _FAMILIES[params] = family
    return family[n]


# perfbench/tracer.py reads __wrapped__.cache_info(); _FAMILIES is the store that matters.
@lru_cache(maxsize=None)
def jacobi_family(n: int, params: JacobiParams, norm: Normalization) -> ScaledPolynomial:
    """Degree-n member of the Jacobi family at ``params`` in the requested
    normalization; the one constructor of every member.

    REFERENCE: the closed-form seeds and the three-term recurrence (at
    (-1, -1) degree 1 is the zero function).  PHI, for the nonclassical pair
    only: degree 0 -> 1, degree 1 -> x/sqrt(3), degree n >= 2 -> the reference
    member scaled by sqrt(4n - 2)/(n - 1).  L2: the reference member over
    sqrt(h_n), h_n = 2^(a+b+1) (n+a)! (n+b)! / ((2n+a+b+1) n! (n+a+b)!) its
    squared norm, for integer alpha, beta >= 0 (a polynomial weight with
    rational norms) or the nonclassical pair, there for n >= 2 only.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if norm is Normalization.PHI:
        if not params.is_nonclassical:
            raise UndefinedNormalization(
                "the Sobolev normalization exists only for alpha = beta = -1"
            )
        if n == 0:
            return ScaledPolynomial(1, Polynomial.one())
        if n == 1:
            return ScaledPolynomial(Fraction(1, 3), Polynomial.x())
        return ScaledPolynomial(Fraction(4 * n - 2, (n - 1) ** 2), _reference(n, params))
    if norm is Normalization.L2:
        if params.is_nonclassical and n < 2:
            raise UndefinedNormalization(
                f"degree-{n} member of the (-1,-1) family is not in the weighted L2 space"
            )
        if not params.is_nonclassical and not params.is_nonnegative_integer_pair:
            raise UndefinedNormalization(
                f"exact L2 normalization needs integer alpha, beta >= 0, got "
                f"({params.alpha}, {params.beta})"
            )
        a, b = int(params.alpha), int(params.beta)
        # h_n, the squared norm of the reference member (DLMF Table 18.3.1).
        h = Fraction(2) ** (a + b + 1) * Fraction(
            factorial(n + a) * factorial(n + b),
            (2 * n + a + b + 1) * factorial(n) * factorial(n + a + b),
        )
        return ScaledPolynomial(1 / h, _reference(n, params))
    return ScaledPolynomial.of(_reference(n, params))
