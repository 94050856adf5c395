"""Exact computation of Ratliff-Rush closures of m-primary ideals.

The public surface: polynomial rings over QQ or F_p (`PolyRing`, `QQ`,
`GF`), the ideal calculus (`Ideal`, `groebner_basis`, `normal_form`),
Hilbert/Poincare invariants (`poincare_series`, `hilbert_samuel`,
`hilbert_coefficients`), certified reductions
(`find_superficial_sequence`, `certify_sequence`) and the closure pipeline
(`closure`, `closure_power`, `is_ratliff_rush_closed`,
`closure_via_colon_powers`, `chain_term`).  The joint postulation number
pn(I; x_1..x_d), which fixes the chain index, is reported by `closure` as
`ClosureReport.postulation_joint`.
"""

from ._version import __version__
from .closure import (
    BoundParams,
    ClosureReport,
    chain_term,
    closure,
    closure_power,
    closure_via_colon_powers,
    colon_powers_threshold,
    is_ratliff_rush_closed,
)
from .errors import (
    BoundTooLargeError,
    ChainUnstableError,
    ElementNotInIdealError,
    ExponentOverflowError,
    GenericityFailureError,
    NotMPrimaryError,
    NotSuperficialError,
    ParseError,
    RingMismatchError,
    RRClosureError,
    ZeroPolynomialError,
)
from .hilbert import (
    SeriesData,
    hilbert_coefficients,
    hilbert_samuel,
    hilbert_samuel_quotient,
    poincare_series,
    poincare_series_quotient,
    regularity_bound,
)
from .ideals import INFINITE, Ideal, ReducedBasis, exact_divide, groebner_basis, normal_form
from .orders import TermOrder, degrevlex
from .parsing import ProblemFile, parse_polynomial, parse_problem
from .polynomials import Polynomial, PolyRing
from .reductions import (
    ReductionCertificate,
    certify_sequence,
    find_superficial_sequence,
)
from .scalars import GF, QQ, PrimeField, RationalField

# the monomial kernels (``_kernels``) have one implementation, in Python
KERNEL_BACKEND = "pure"

__all__ = [
    "BoundParams",
    "BoundTooLargeError",
    "ChainUnstableError",
    "ClosureReport",
    "ElementNotInIdealError",
    "ExponentOverflowError",
    "GF",
    "GenericityFailureError",
    "INFINITE",
    "Ideal",
    "KERNEL_BACKEND",
    "NotMPrimaryError",
    "NotSuperficialError",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "ProblemFile",
    "QQ",
    "RRClosureError",
    "RationalField",
    "ReducedBasis",
    "ReductionCertificate",
    "RingMismatchError",
    "SeriesData",
    "TermOrder",
    "ZeroPolynomialError",
    "certify_sequence",
    "chain_term",
    "closure",
    "closure_power",
    "closure_via_colon_powers",
    "colon_powers_threshold",
    "degrevlex",
    "exact_divide",
    "find_superficial_sequence",
    "groebner_basis",
    "hilbert_coefficients",
    "hilbert_samuel",
    "hilbert_samuel_quotient",
    "is_ratliff_rush_closed",
    "normal_form",
    "parse_polynomial",
    "parse_problem",
    "poincare_series",
    "poincare_series_quotient",
    "regularity_bound",
    "__version__",
]
