"""Exact-arithmetic engine for Bernoulli/Euler convolution identities.

Three independent lanes cross-check each other: direct exact summation of
the identities, formal-series squaring and cubing of the underlying
asymptotic expansions, and floating-point quadrature of the integral
representations.

The package exports the ``__all__`` of each of its seven modules, listed
per module in _EXPORTS.  A name is resolved on first access (PEP 562)
from the one module that lists it, and kept here, so ``import bernkit``
loads no module of the package and ``import bernkit.cli`` only those cli
imports; ``from bernkit import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

# each module's __all__, in its own order
_EXPORTS = {
    "errors": (
        "BernkitError", "DomainError", "KindMismatch", "UnknownName", "PoleEncountered",
        "ZeroDivisor", "ExponentMismatch", "QuadFailure", "RouteMismatch", "check_routes",
    ),
    "sequences": (
        "SequenceCache", "bernoulli", "bernoulli_bar", "euler_number", "harmonic",
        "harmonic_second", "rising_factorial",
    ),
    "series": (
        "TAYLOR", "ASYMPTOTIC", "TruncatedSeries", "series_add", "series_mul", "series_pow",
        "power_next", "named_series", "laplace_asymptotic", "check_b_quadratic",
    ),
    "gammaalg": ("GammaProduct", "ReducedGamma", "gamma_reduce", "gamma_reduce_pair", "beta_factor"),
    "identities": (
        "IDENTITIES", "Identity", "IdentityReport", "verify_euler", "verify_miki",
        "verify_miki_modified", "verify_fpz", "verify_mixed", "family_terms", "verify_family",
        "verify_p1", "verify_gessel", "verify_gessel_modified", "verify_fpz_cubic",
        "verify_multi", "multi_lhs", "verify_euler_bernoulli", "verify_lemma_expansion",
        "FAMILY_KINDS", "LEMMA_IDS",
    ),
    "floatcheck": ("family_float",),
    "quadrature": (
        "QuadResult", "digamma", "quad_rep", "optimal_series", "check_zeta", "check_g_squared",
        "QUAD_NAMES",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
