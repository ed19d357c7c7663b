"""Exception types shared across the package, and the cross-route check."""

__all__ = [
    "BernkitError",
    "DomainError",
    "KindMismatch",
    "UnknownName",
    "ZeroScale",
    "PartsMismatch",
    "PoleEncountered",
    "ZeroDivisor",
    "ExponentMismatch",
    "QuadFailure",
    "RouteMismatch",
    "check_routes",
]


class BernkitError(Exception):
    """Base class for all package errors."""


class DomainError(BernkitError):
    """Argument outside an operation's stated domain."""


class KindMismatch(BernkitError):
    """Taylor and asymptotic series mixed in one operation."""


class UnknownName(BernkitError):
    """Unrecognized series or integrand name."""


class ZeroScale(BernkitError):
    """Argument scaling by zero."""


class PartsMismatch(BernkitError):
    """Multinomial parts do not sum to the top index."""


class PoleEncountered(BernkitError):
    """A gamma factor was evaluated at a nonpositive integer."""


class ZeroDivisor(BernkitError):
    """A rising-factorial factor vanished in a denominator."""


class ExponentMismatch(BernkitError):
    """Gamma exponents disagree where they are required to match."""


class QuadFailure(BernkitError):
    """Quadrature error estimate exceeded the allowed bound."""


class RouteMismatch(BernkitError):
    """Two independent routes to one value disagree."""


def check_routes(first: str, a, second: str, b) -> None:
    """Raise RouteMismatch unless route ``first`` (value ``a``) and route
    ``second`` (value ``b``) agree; unlike ``assert``, this runs under -O."""
    if a != b:
        raise RouteMismatch(f"{first} gives {a}, {second} gives {b}")
