"""Exact toolkit for the nonclassical Jacobi family (alpha = beta = -1).

Constructs the family in its reference, weighted-L2-orthonormal, and
Sobolev-orthonormal normalizations, the Jacobi-Stirling combinatorics behind
the composite powers of the differential expression, the classical / Sobolev /
left-definite inner products with exact Gram matrices and operator spectra,
and a floating-point layer (Galerkin eigenvalues, boundedness constants).
Each layer's ``__all__`` is its public API, and the package exports all of
them.  The checks that ``jsob verify`` runs live in ``jsob.checks``.
"""

from .algebra import *
from .jacobi import *
from .stirling import *
from .operators import *
from .numeric import *

__version__ = "0.1.0"


def __getattr__(name: str) -> type:
    if name != "ChelInstance":  # built on first use, see jsob.numeric
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return numeric.ChelInstance
