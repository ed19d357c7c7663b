"""Exact-arithmetic engine for Bernoulli/Euler convolution identities.

Three independent lanes cross-check each other: direct exact summation of
the identities, formal-series squaring and cubing of the underlying
asymptotic expansions, and floating-point quadrature of the integral
representations.
"""

from .errors import (
    BernkitError,
    DomainError,
    ExponentMismatch,
    KindMismatch,
    PoleEncountered,
    QuadFailure,
    RouteMismatch,
    UnknownName,
    ZeroDivisor,
    ZeroScale,
)
from .sequences import (
    SequenceCache,
    bernoulli,
    bernoulli_bar,
    euler_number,
    harmonic,
    harmonic_second,
    rising_factorial,
)
from .series import (
    ASYMPTOTIC,
    TAYLOR,
    TruncatedSeries,
    argument_scale,
    check_b_quadratic,
    check_doubling,
    laplace_asymptotic,
    named_series,
    series_add,
    series_mul,
    series_pow,
)
from .gammaalg import (
    GammaProduct,
    ReducedGamma,
    beta_factor,
    gamma_reduce,
)
from .identities import (
    FAMILY_KINDS,
    FLOORS,
    LEMMA_IDS,
    IdentityReport,
    family_terms,
    multi_lhs,
    verify_euler,
    verify_euler_bernoulli,
    verify_family,
    verify_fpz,
    verify_fpz_cubic,
    verify_gessel,
    verify_gessel_modified,
    verify_lemma_expansion,
    verify_miki,
    verify_miki_modified,
    verify_mixed,
    verify_multi,
    verify_p1,
)
from .floatcheck import (
    QUAD_NAMES,
    FamilyFloat,
    QuadResult,
    check_g_squared,
    check_zeta,
    digamma,
    family_float,
    optimal_series,
    quad_rep,
)

__version__ = "0.1.0"
