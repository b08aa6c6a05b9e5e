"""Exact toolkit for the nonclassical Jacobi family (alpha = beta = -1).

Constructs the family in its reference, weighted-L2-orthonormal, and
Sobolev-orthonormal normalizations, the Jacobi-Stirling combinatorics behind
the composite powers of the differential expression, the classical / Sobolev /
left-definite inner products with exact Gram matrices and operator spectra,
and a floating-point layer (quadrature, Galerkin eigenvalues, boundedness
constants) that cross-checks the exact results.
"""

from .algebra import (
    NotDivisible,
    Polynomial,
    ScaledPolynomial,
    Surd,
    as_fraction,
    divide_by_weight,
    integrate_weighted,
)
from .jacobi import (
    JacobiParams,
    NONCLASSICAL,
    Normalization,
    NotProportional,
    PoleInGammaRatio,
    UndefinedNormalization,
    check_derivative_identity,
    derivative_coefficient_squared,
    factorization_check,
    jacobi_family,
)
from .stirling import (
    CompositeCoefficients,
    StirlingTable,
    build_table,
    composite_coefficients,
    jacobi_stirling,
    verify_defining_identity,
)
from .operators import (
    Classical,
    GramMatrix,
    LeftDefinite,
    MismatchWithClosedForm,
    NotInWeightedSpace,
    OperatorTag,
    SobolevPhi,
    SpectrumSpec,
    apply_ell,
    apply_ell_power,
    decompose_w,
    derivative_orthogonality_value,
    gram_matrix,
    inner_product,
    operator_matrix,
    spectrum,
    verify_dirichlet_identity,
    verify_lagrange_identity,
)
from .numeric import (
    ChelInstance,
    MassNotPositiveDefinite,
    NonFiniteIntegral,
    QuadratureRule,
    chel_K,
    chel_preset,
    galerkin_spectrum,
    galerkin_system,
    gauss_jacobi,
    knorm_crosscheck,
)

__version__ = "0.1.0"
