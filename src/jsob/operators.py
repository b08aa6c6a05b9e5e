"""The Jacobi differential expression, its powers, inner products, and spectra.

For alpha = beta = -1 the expression is ell[y] = -(1 - x^2) y'' + k y with a
fixed shift k >= 0.  Its n-th composite power is evaluated through the
Lagrangian symmetric form

    ell^n[y] = (1 - x^2) * sum_{j=0}^{n} (-1)^j c_j(n, k) ((1 - x^2)^(j-1) y^(j))^(j),

whose j = 0 term collapses to c_0 y; this is the form that reproduces the
n-fold composition of ell and generates the left-definite inner products
(f, g)_n = sum_j c_j(n,k) * integral of f^(j) g^(j) (1 - x^2)^(j-1).

Three inner products are exposed:

* ``Classical(params)``  -- integral against (1 - x)^alpha (1 + x)^beta; for a
  -1 exponent both arguments must vanish at the corresponding endpoint.
* ``SobolevPhi()``       -- f(-1)g(-1)/2 + f(1)g(1)/2 + integral of f'g'.
* ``LeftDefinite(n, k)`` -- the n-th left-definite form above.

Inner products of ScaledPolynomials close in the Surd type: a rational
bilinear value times sqrt of the product of the two squared scales.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .algebra import (
    ONE_MINUS_X2,
    Frozen,
    Polynomial,
    RationalLike,
    ScaledPolynomial,
    Surd,
    as_fraction,
    divide_by_weight,
    symmetric_weight_form,
    weighted_moments,
)
from .jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    UndefinedNormalization,
    jacobi_family,
)
from .stirling import composite_coefficients

__all__ = [
    "NotInWeightedSpace",
    "Classical",
    "SobolevPhi",
    "LeftDefinite",
    "InnerProductSpec",
    "OperatorTag",
    "SpectrumSpec",
    "GramMatrix",
    "apply_ell",
    "apply_ell_power",
    "inner_product",
    "decompose_w",
    "gram_matrix",
    "operator_matrix",
    "spectrum",
]


class NotInWeightedSpace(ArithmeticError):
    """An argument fails the endpoint-vanishing condition a singular weight requires."""


class Classical(Frozen):
    """Weighted-L2 pairing against (1 - x)^alpha (1 + x)^beta (integer exponents)."""

    params: JacobiParams
    _fields = ("params",)

    def __init__(self, params: JacobiParams):
        object.__setattr__(self, "params", params)


class SobolevPhi(Frozen):
    """Boundary terms at +-1 (weight 1/2 each) plus the Dirichlet integral of f'g'."""


class LeftDefinite(Frozen):
    """The n-th left-definite pairing with shift k >= 0."""

    n: int
    k: Fraction
    _fields = ("n", "k")

    def __init__(self, n: int, k: RationalLike):
        if n < 1:
            raise ValueError("left-definite order must be >= 1")
        kf = as_fraction(k)
        if kf < 0:
            raise ValueError("the shift k must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", kf)


InnerProductSpec = Classical | SobolevPhi | LeftDefinite


class OperatorTag(Enum):
    A = "A"    # weighted-L2 self-adjoint realization, eigenvalues from degree 2
    BN = "Bn"  # n-th left-definite realization, same spectrum as A
    T = "T"    # Sobolev-space realization, eigenvalues from degree 0


class SpectrumSpec(Frozen):
    """Which operator's spectrum, at which shift k (Bn also carries its order)."""

    operator: OperatorTag
    k: Fraction
    power: int | None
    _fields = ("operator", "k", "power")

    def __init__(self, operator: OperatorTag, k: RationalLike, power: int | None = None):
        kf = as_fraction(k)
        if kf < 0:
            raise ValueError("the shift k must be nonnegative")
        if operator is OperatorTag.BN:
            if power is None or power < 1:
                raise ValueError("Bn needs a left-definite order power >= 1")
        elif power is not None:
            raise ValueError("only Bn carries a left-definite order")
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "k", kf)
        object.__setattr__(self, "power", power)


_ZERO = Surd.zero()  # immutable, so every zero cell can share it


class GramMatrix(NamedTuple):
    """Matrix of pairwise inner products of a family, kept as the rational
    bilinear values plus one squared scale per member: entry (i, j) is
    values[i][j] * sqrt(scales[i] * scales[j])."""

    degrees: tuple[int, ...]
    values: tuple[tuple[Fraction, ...], ...]
    scales: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.degrees)

    def entry(self, i: int, j: int) -> Surd:
        if self.values[i][j] == 0:  # every off-diagonal cell of an orthogonal family
            return _ZERO
        return Surd(self.values[i][j], self.scales[i] * self.scales[j])

    def diagonal(self) -> tuple[Surd, ...]:
        return tuple(self.entry(i, i) for i in range(self.size))

    def is_diagonal(self) -> bool:
        return all(
            v == 0 for i, row in enumerate(self.values) for j, v in enumerate(row) if i != j
        )

    def is_identity(self) -> bool:
        # sqrt(s * s) = s, so a diagonal entry is the rational values[i][i] * scales[i].
        return self.is_diagonal() and all(
            row[i] * s == 1 for i, (row, s) in enumerate(zip(self.values, self.scales))
        )


def _as_scaled(f: Polynomial | ScaledPolynomial) -> ScaledPolynomial:
    return f if isinstance(f, ScaledPolynomial) else ScaledPolynomial.of(f)


def apply_ell(f: Polynomial | ScaledPolynomial, k: RationalLike):
    """k y - (1-x^2) y'', exact; the scale factor passes through unchanged."""
    p = f if isinstance(f, Polynomial) else f.poly
    image = as_fraction(k) * p - ONE_MINUS_X2 * p.derivative(2)
    return image if p is f else ScaledPolynomial(f.scale_sq, image)


def apply_ell_power(
    f: Polynomial | ScaledPolynomial, n: int, k: RationalLike
):
    """The n-th composite power of the nonclassical expression, via c_j(n, k).

    Evaluates (1-x^2) * sum_j (-1)^j c_j ((1-x^2)^(j-1) y^(j))^(j) exactly;
    equal to n-fold application of ``apply_ell``.
    """
    kf = as_fraction(k)
    scaled = _as_scaled(f)
    coeffs = composite_coefficients(n, kf).c
    total = Polynomial.zero()
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        if j == 0:
            term = scaled.poly
        else:
            inner = (ONE_MINUS_X2 ** (j - 1)) * scaled.poly.derivative(j)
            term = ONE_MINUS_X2 * inner.derivative(j)
        total = total + (cj if j % 2 == 0 else -cj) * term
    result = ScaledPolynomial(scaled.scale_sq, total)
    return result.poly if isinstance(f, Polynomial) else result


def _integer_exponents(params: JacobiParams) -> tuple[int, int]:
    if params.alpha.denominator != 1 or params.beta.denominator != 1:
        raise ValueError("exact classical pairing needs integer alpha, beta >= -1")
    return int(params.alpha), int(params.beta)


def _require_vanishing(p: Polynomial, spec: InnerProductSpec) -> None:
    """Each argument of a pairing must vanish where the pairing's weight is singular."""
    match spec:
        case Classical(params=params):
            a, b = _integer_exponents(params)
            context, roots = "classical pairing", [r for r, e in ((1, a), (-1, b)) if e == -1]
        case LeftDefinite(k=k) if k > 0:
            context, roots = "left-definite pairing (j = 0 term)", [1, -1]
        case _:
            return
    ints = p.int_form[0]
    for at in roots:
        if sum(c if at == 1 or i % 2 == 0 else -c for i, c in enumerate(ints)):
            raise NotInWeightedSpace(
                f"{context}: argument does not vanish at x = {at}, so it lies outside "
                f"the weighted space"
            )


def _row_terms(f: Polynomial, spec: InnerProductSpec, width: int) -> list:
    """The pairing of f with any g of degree < width, as a list of terms
    (d, c, (ints, den)), each contributing c * sum_i ints[i] / den * (g^(d))_i."""
    match spec:
        case Classical(params=params):
            q, m = symmetric_weight_form(f, *_integer_exponents(params))
            return [(0, 1, weighted_moments(q, m, width))]
        case SobolevPhi():
            # f(1) g(1)/2 + f(-1) g(-1)/2 pairs g_i with the sum of the
            # coefficients of f of the parity of i.
            ints, den = f.int_form
            even, odd = sum(ints[0::2]), sum(ints[1::2])
            boundary = [odd if i % 2 else even for i in range(width)]
            return [(0, 1, (boundary, den)), (1, 1, weighted_moments(f.derivative(), 0, width))]
        case LeftDefinite(n=order, k=k):
            return [
                (j, cj, weighted_moments(f.derivative(j), j - 1, width) if j
                 else weighted_moments(divide_by_weight(f, 1), 0, width))
                for j, cj in enumerate(composite_coefficients(order, k).c)
                if cj != 0
            ]
    raise TypeError(f"unknown inner product spec {spec!r}")


def _pairing_values(
    rows: Sequence[Polynomial], cols: Sequence[Polynomial], spec: InnerProductSpec
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact bilinear values B(f, g) for every f in rows and g in cols.

    Per row, the terms are folded into one integer vector over one
    denominator; per column, the derivative tower is laid out to match.  Each
    value is then a single integer dot product.
    """
    for p in (*rows, *cols):
        _require_vanishing(p, spec)
    width = max((len(g.int_form[0]) for g in cols), default=0)
    packed_rows, orders = [], []
    for f in rows:
        terms = _row_terms(f, spec, width)
        orders = [d for d, _, _ in terms]  # the same for every row
        scales = [Fraction(c) / den for _, c, (_, den) in terms]
        den = lcm(*(s.denominator for s in scales))
        vector = []
        for (_, _, (row, _)), s in zip(terms, scales):
            factor = s.numerator * (den // s.denominator)
            vector += [factor * v for v in row]
        packed_rows.append((vector, den))
    packed_cols = []
    for g in cols:
        tower, den = g.int_form
        done, vector = 0, []
        for d in orders:
            for _ in range(d - done):
                tower = [i * c for i, c in enumerate(tower)][1:]
            done = d
            vector += [*tower, *[0] * (width - len(tower))]
        packed_cols.append((vector, den))
    return tuple(
        tuple(Fraction(sum(map(mul, rv, cv)), rd * cd) for cv, cd in packed_cols)
        for rv, rd in packed_rows
    )


def inner_product(
    f: Polynomial | ScaledPolynomial,
    g: Polynomial | ScaledPolynomial,
    spec: InnerProductSpec,
) -> Surd:
    """Exact inner product; the result is (bilinear value) * sqrt(s_f * s_g)."""
    fs, gs = _as_scaled(f), _as_scaled(g)
    ((value,),) = _pairing_values([fs.poly], [gs.poly], spec)
    return Surd(value, fs.scale_sq * gs.scale_sq)


def decompose_w(f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Split f = f1 + f2 with f1 vanishing at +-1 and f2 of degree <= 1.

    f2 interpolates f at the endpoints: f2 = (f(1)-f(-1))/2 * x + (f(1)+f(-1))/2.
    """
    at1, atm1 = f(Fraction(1)), f(Fraction(-1))
    f2 = Polynomial(((at1 + atm1) / 2, (at1 - atm1) / 2))
    return f - f2, f2


def _family_degrees(
    params: JacobiParams, tag: Normalization, max_degree: int
) -> tuple[int, ...]:
    """Degrees of the family up to max_degree; UndefinedNormalization when there are none."""
    start = 2 if (params.is_nonclassical and tag is Normalization.L2) else 0
    if max_degree < start:
        raise UndefinedNormalization(
            f"the {tag.value} family starts at degree {start}, above max degree {max_degree}"
        )
    return tuple(range(start, max_degree + 1))


def gram_matrix(
    max_degree: int, spec: InnerProductSpec, family_tag: Normalization
) -> GramMatrix:
    """Gram matrix of the family (degrees up to max_degree) under the pairing.

    The family is classical at the pairing's parameters for a Classical spec
    and the nonclassical one otherwise; the L2-orthonormal nonclassical family
    starts at degree 2.  A family with no member of degree <= max_degree, a
    member outside the pairing's weighted space, or a member of nonpositive
    squared norm under the pairing raises UndefinedNormalization.
    """
    params = spec.params if isinstance(spec, Classical) else NONCLASSICAL
    degrees = _family_degrees(params, family_tag, max_degree)
    fam = [jacobi_family(d, params, family_tag) for d in degrees]
    polys = [f.poly for f in fam]
    try:
        values = _pairing_values(polys, polys, spec)
    except NotInWeightedSpace as exc:
        raise UndefinedNormalization(
            f"the {family_tag.value} family does not fit this pairing ({exc})"
        ) from exc
    gm = GramMatrix(degrees, values, tuple(f.scale_sq for f in fam))
    for i, (row, s) in enumerate(zip(values, gm.scales)):
        if row[i] * s <= 0:
            raise UndefinedNormalization(
                f"Gram diagonal entry {gm.entry(i, i)} at degree {degrees[i]} is not positive"
            )
    return gm


def operator_matrix(max_degree: int, spec: SpectrumSpec) -> GramMatrix:
    """Matrix <ell[p_i], p_j> in the inner product that matches the operator.

    T uses the Sobolev-orthonormal family (degrees from 0) paired by phi;
    A uses the L2-orthonormal family (degrees from 2) paired in the weighted
    space; Bn pairs the same family with the n-th left-definite form, where
    the eigen-relation yields diagonal entries (m(m-1)+k)^(n+1).
    """
    if spec.operator is OperatorTag.T:
        tag, ip = Normalization.PHI, SobolevPhi()
    elif spec.operator is OperatorTag.A:
        tag, ip = Normalization.L2, Classical(NONCLASSICAL)
    else:
        tag, ip = Normalization.L2, LeftDefinite(spec.power, spec.k)
    degrees = _family_degrees(NONCLASSICAL, tag, max_degree)
    fam = [jacobi_family(d, NONCLASSICAL, tag) for d in degrees]
    images = [apply_ell(p.poly, spec.k) for p in fam]
    values = _pairing_values(images, [p.poly for p in fam], ip)
    return GramMatrix(degrees, values, tuple(p.scale_sq for p in fam))


def spectrum(spec: SpectrumSpec, count: int) -> list[Fraction]:
    """First ``count`` eigenvalues, in increasing index.

    A and Bn: m(m-1) + k for m = 2, 3, ...; T: n(n-1) + k for n = 0, 1, 2, ...
    (for T the value k appears at both index 0 and index 1).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if spec.operator is OperatorTag.T:
        start = 0
    else:
        start = 2
    return [Fraction(m * (m - 1)) + spec.k for m in range(start, start + count)]
