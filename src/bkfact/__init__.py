"""Exact factorization residuals and open-box certification for second-order
bivariate linear partial differential operators with polynomial coefficients.

The package decides the residual condition a00 = R along a characteristic
root (not the same predicate as factoring; see bkfact.lpdo), and certifies
|a00 - R| < eps on an open rectangle with exact rational arithmetic:
closed-form quantifier-free criteria for the affine case, exact quadratic
extrema, and Bernstein subdivision for higher degree.
"""

from .certify import (
    Certificate,
    CertifiedInside,
    CertRequest,
    Extrema,
    Unknown,
    UnivQuad,
    Violated,
    bernstein_certify,
    certify_open_box,
    lifted_sufficient,
    qf_linear,
    qf_neg_casewise,
    qf_neg_compact,
    qf_nonpos_combined,
    quad_box_extrema,
    quad_from_reduced,
    quad_interval_decision,
    sample_falsify,
    triangle_sufficient,
    univariate_sufficient,
)
from .errors import (
    BkfactError,
    DegreeTooHighError,
    ExponentError,
    NoRationalRootsError,
    NotSimpleRootError,
    ParseError,
    PreconditionViolatedError,
    ZeroLeadingError,
)
from .lpdo import (
    CANONICAL_SYMBOL,
    CharRoot,
    FirstOrderFactor,
    LPDO2,
    PrincipalSymbol,
    ReducedCoeffs,
    ResidualTrace,
    apply_operator,
    bk_factors,
    canonical_residual,
    characteristic_roots,
    compose_first_order,
    exactness_system_deg1,
    family_deg1,
    reduced_coeffs,
    residual,
    residual_closed_deg1,
    residual_closed_deg2,
)
from .parsing import parse_poly
from .poly import (
    Box,
    Poly2,
    RangeEnclosure,
    as_fraction,
    char_diff,
    format_poly,
)
from .report import Report, RootReport, approx_factor_report

__version__ = "0.1.0"
