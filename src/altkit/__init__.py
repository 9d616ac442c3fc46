"""Exact alternator calculus in n-fold tensor algebras.

Everything is computed over exact coefficient rings; no floats, no
approximate comparisons.  The subpackages layer as

    ring_core      scalars, polynomials, finite free algebras
    tensor_algebra n-fold tensor powers and slot permutations
    alternator     signed symmetrizations and their identities
    span_solver    coordinates over the inverted alternator square
    norm_universal trace pairing, discriminant, maps onto presented algebras
    gen_etale      saturation, the single-pair pullback, the probe
    cli            verification driver and JSON reports
"""

from .errors import AltkitError
from .ring_core import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    FiniteFreeAlgebra,
    MultiPoly,
    PolyRing,
)
from .tensor_algebra import (
    Permutation,
    Tensor,
    TensorSpace,
    coprojection,
    is_sym_n11,
    is_symmetric,
    pure_tensor,
)
from .alternator import (
    IDENTITY_NAMES,
    AlternatorInstance,
    Witness,
    alpha,
    alpha_map,
    alpha_n11,
    check_identity,
)
from .span_solver import (
    LocalizedElem,
    coordinates,
    coordinates_of_invariant,
    r_algebra,
    structure_constants_R,
)
from .norm_universal import (
    NormMap,
    PullbackInstance,
    discriminant,
    free_case_check,
    trace_formula_check,
    traceexp_check,
    verify_pullback,
)
from .gen_etale import (
    BPlus,
    NormMapPlus,
    b_plus,
    diagonal_support_probe,
    is_generically_etale,
    verify_pullback_plus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AltkitError",
    "GF",
    "QQ",
    "ZZ",
    "AlgebraMap",
    "FiniteFreeAlgebra",
    "MultiPoly",
    "PolyRing",
    "Permutation",
    "Tensor",
    "TensorSpace",
    "coprojection",
    "is_sym_n11",
    "is_symmetric",
    "pure_tensor",
    "IDENTITY_NAMES",
    "AlternatorInstance",
    "Witness",
    "alpha",
    "alpha_map",
    "alpha_n11",
    "check_identity",
    "LocalizedElem",
    "coordinates",
    "coordinates_of_invariant",
    "r_algebra",
    "structure_constants_R",
    "NormMap",
    "PullbackInstance",
    "discriminant",
    "free_case_check",
    "trace_formula_check",
    "traceexp_check",
    "verify_pullback",
    "BPlus",
    "NormMapPlus",
    "b_plus",
    "diagonal_support_probe",
    "is_generically_etale",
    "verify_pullback_plus",
]
