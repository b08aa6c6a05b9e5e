"""Exact toolkit for the nonclassical Jacobi family (alpha = beta = -1).

Constructs the family in its reference, weighted-L2-orthonormal, and
Sobolev-orthonormal normalizations, the Jacobi-Stirling combinatorics behind
the composite powers of the differential expression, the classical / Sobolev /
left-definite inner products with exact Gram matrices and operator spectra,
and a floating-point layer (Galerkin eigenvalues, boundedness constants).
The checks that ``jsob verify`` runs live in ``jsob.checks``.
"""

from .algebra import (
    NotDivisible,
    Polynomial,
    ScaledPolynomial,
    Surd,
    as_fraction,
    integrate_weighted,
)
from .jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    UndefinedNormalization,
    jacobi_family,
)
from .stirling import (
    CompositeCoefficients,
    StirlingTable,
    build_table,
    composite_coefficients,
    jacobi_stirling,
)
from .operators import (
    Classical,
    GramMatrix,
    LeftDefinite,
    NotInWeightedSpace,
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
from .numeric import (
    MassNotPositiveDefinite,
    NonFiniteIntegral,
    chel_K,
    chel_preset,
    galerkin_spectrum,
    galerkin_system,
)

__version__ = "0.1.0"


def __getattr__(name: str) -> type:
    if name != "ChelInstance":  # built on first use, see jsob.numeric
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return numeric.ChelInstance
