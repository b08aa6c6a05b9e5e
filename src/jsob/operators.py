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

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from math import lcm, perm
from operator import mul

from .algebra import (
    ONE_MINUS_X2,
    Frozen,
    Polynomial,
    RationalLike,
    ScaledPolynomial,
    Surd,
    as_fraction,
    clear_poles,
    jacobi_moments,
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


class SobolevPhi(Frozen):
    """Boundary terms at +-1 (weight 1/2 each) plus the Dirichlet integral of f'g'."""


class LeftDefinite(Frozen):
    """The n-th left-definite pairing with shift k >= 0."""

    n: int
    k: Fraction

    def __init__(self, n: int, k: RationalLike):
        if n < 1:
            raise ValueError("left-definite order must be >= 1")
        kf = as_fraction(k)
        if kf < 0:
            raise ValueError("the shift k must be nonnegative")
        super().__init__(n, kf)


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

    def __init__(self, operator: OperatorTag, k: RationalLike, power: int | None = None):
        kf = as_fraction(k)
        if kf < 0:
            raise ValueError("the shift k must be nonnegative")
        if operator is OperatorTag.BN:
            if power is None or power < 1:
                raise ValueError("Bn needs a left-definite order power >= 1")
        elif power is not None:
            raise ValueError("only Bn carries a left-definite order")
        super().__init__(operator, kf, power)

    @property
    def first_index(self) -> int:
        """Index of the first eigenvalue, the first degree of the operator's family
        (every family has a member of degree at most 2)."""
        return _family_degrees(NONCLASSICAL, _realization(self)[0], 2)[0]


_ZERO = Surd.zero()  # immutable, so every zero cell can share it


class GramMatrix(Frozen):
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
    p = f if isinstance(f, Polynomial) else f.poly
    total = Polynomial.zero()
    for j, cj in enumerate(composite_coefficients(n, k).c):
        if cj == 0:
            continue
        if j == 0:
            term = p
        else:
            inner = (ONE_MINUS_X2 ** (j - 1)) * p.derivative(j)
            term = ONE_MINUS_X2 * inner.derivative(j)
        total = total + (cj if j % 2 == 0 else -cj) * term
    return total if p is f else ScaledPolynomial(f.scale_sq, total)


def _term_table(spec: InnerProductSpec) -> tuple[list, bool, str]:
    """The pairing as (terms, boundary, context).  Each term (d, c, a, b) adds
    c * integral of f^(d) g^(d) (1 - x)^a (1 + x)^b, in nondecreasing d; a true
    ``boundary`` adds f(1) g(1)/2 + f(-1) g(-1)/2.  A d = 0 term with a -1
    exponent needs f and g to vanish at that endpoint; ``context`` names the
    pairing when one does not."""
    match spec:
        case Classical(params=params):
            if params.alpha.denominator != 1 or params.beta.denominator != 1:
                raise ValueError("exact classical pairing needs integer alpha, beta >= -1")
            return [(0, 1, int(params.alpha), int(params.beta))], False, "classical pairing"
        case SobolevPhi():
            return [(1, 1, 0, 0)], True, "phi pairing"
        case LeftDefinite(n=order, k=k):
            coeffs = enumerate(composite_coefficients(order, k).c)
            terms = [(j, cj, j - 1, j - 1) for j, cj in coeffs if cj != 0]
            return terms, False, "left-definite pairing (j = 0 term)"
    raise TypeError(f"unknown inner product spec {spec!r}")


def _parity_sums(p: Polynomial) -> tuple[int, int]:
    """Sums of p's integer coefficients at even and odd powers: p(+-1) = (even +- odd) / den."""
    ints = p.int_form[0]
    return sum(ints[0::2]), sum(ints[1::2])


def _require_vanishing(p: Polynomial, terms: list, context: str) -> None:
    """Each argument of a pairing must vanish where the pairing's weight is singular."""
    even, odd = _parity_sums(p)
    roots = [at for d, _, a, b in terms if d == 0 for at, e in ((1, a), (-1, b)) if e == -1]
    for at in roots:
        if even + at * odd:
            raise NotInWeightedSpace(
                f"{context}: argument does not vanish at x = {at}, so it lies outside "
                f"the weighted space"
            )


def _row_vector(
    f: Polynomial, terms: list, boundary: bool, width: int, tables: dict
) -> tuple[list[int], int]:
    """The pairing of f with any g of degree < width as (ints, den): B(f, g) is
    sum_i ints[i] g_i / den.  A term (d, c, a, b) pairs g_i, i >= d, with
    c i!/(i-d)! times the integral of f^(d) x^(i-d) (1 - x)^a (1 + x)^b, whose
    weight, its poles cleared, has its moments in ``tables``."""
    parts = []
    for d, c, a, b in terms:
        if d < width:  # else g^(d) = 0
            p, a, b = clear_poles(f.derivative(d), a, b)
            ints, den = weighted_moments(p, tables[a, b], width - d)
            parts.append((d, Fraction(c, den), ints))
    if boundary:
        # f(1) g(1)/2 + f(-1) g(-1)/2 pairs g_i with the sum of the coefficients
        # of f of the parity of i.
        even, odd = _parity_sums(f)
        parts.append((0, Fraction(1, f.int_form[1]), [(even, odd)[i % 2] for i in range(width)]))
    den = lcm(*(s.denominator for _, s, _ in parts))
    vector = [0] * width
    for d, s, ints in parts:
        factor = s.numerator * (den // s.denominator)
        for i, v in enumerate(ints, d):
            vector[i] += factor * v * perm(i, d) if d else factor * v
    return vector, den


def _pairing_values(
    rows: Sequence[Polynomial], cols: Sequence[Polynomial], spec: InnerProductSpec
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact bilinear values B(f, g) for every f in rows and g in cols: each is
    one integer dot product of f's row vector with g's own coefficients.  Each
    weight, a -1 exponent cleared to 0, gets one moment table for every row."""
    terms, boundary, context = _term_table(spec)
    for p in (*rows, *cols):
        _require_vanishing(p, terms, context)
    width = max((len(g.int_form[0]) for g in cols), default=0)
    size = width + max((len(f.int_form[0]) for f in rows), default=0)
    weights = {(max(a, 0), max(b, 0)) for d, _, a, b in terms if d < width}
    tables = {(a, b): jacobi_moments(a, b, size) for a, b in weights}
    forms = [g.int_form for g in cols]
    return tuple(
        tuple(Fraction(sum(map(mul, vector, ints)), den * g_den) for ints, g_den in forms)
        for vector, den in (_row_vector(f, terms, boundary, width, tables) for f in rows)
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
    f2 = Polynomial.from_int_form(_parity_sums(f), f.int_form[1])
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


def _realization(spec: SpectrumSpec) -> tuple[Normalization, InnerProductSpec]:
    """The family and the pairing the operator is realized in."""
    if spec.operator is OperatorTag.T:
        return Normalization.PHI, SobolevPhi()
    if spec.operator is OperatorTag.A:
        return Normalization.L2, Classical(NONCLASSICAL)
    return Normalization.L2, LeftDefinite(spec.power, spec.k)


def operator_matrix(max_degree: int, spec: SpectrumSpec) -> GramMatrix:
    """Matrix <ell[p_i], p_j> in the inner product that matches the operator.

    T uses the Sobolev-orthonormal family (degrees from 0) paired by phi;
    A uses the L2-orthonormal family (degrees from 2) paired in the weighted
    space; Bn pairs the same family with the n-th left-definite form, where
    the eigen-relation yields diagonal entries (m(m-1)+k)^(n+1).
    """
    tag, ip = _realization(spec)
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
    start = spec.first_index
    return [spec.k + m * (m - 1) for m in range(start, start + count)]
