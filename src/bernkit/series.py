"""Truncated formal series over exact rationals.

Two regimes share one representation: a Taylor series sum c_m y^m and an
asymptotic series sum c_m x^(-m).  Either way ``coeffs`` maps the order m
to its coefficient and ``trunc`` is the last order the object vouches for;
higher orders are unknown, not zero.  Operations never mix the two kinds.

The asymptotic objects are purely formal coefficient lists.  Convergence
never enters: every check here is an exact statement about coefficients.

Truncation bookkeeping for products is conservative: unknown terms of one
factor first pollute the product at (trunc + min order of the other), so
the product is trusted to the smaller of the two such bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError, KindMismatch, UnknownName, ZeroScale
from .sequences import (
    Rational,
    bernoulli,
    bernoulli_bar,
    euler_number,
    rising_factorial,
)

__all__ = [
    "TAYLOR",
    "ASYMPTOTIC",
    "TruncatedSeries",
    "series_add",
    "series_mul",
    "series_pow",
    "named_series",
    "laplace_asymptotic",
    "argument_scale",
    "check_b_quadratic",
    "check_doubling",
]

TAYLOR = "taylor"
ASYMPTOTIC = "asymptotic"

NAMED = (
    "b",
    "coth_minus_inv",
    "inv_sinh_minus_inv",
    "sech",
    "log_sinh_ratio",
    "psi_tilde",
    "psi_bar",
    "psi_tilde_deriv",
    "psi_bar_deriv",
    "g",
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite piece of a formal series, trusted through order ``trunc``."""

    kind: str
    coeffs: dict[int, Fraction]
    trunc: int

    def __post_init__(self) -> None:
        if self.kind not in (TAYLOR, ASYMPTOTIC):
            raise KindMismatch(f"unknown series kind {self.kind!r}")
        clean = {}
        for m, c in self.coeffs.items():
            if m > self.trunc:
                raise DomainError(f"order {m} beyond truncation {self.trunc}")
            if c != 0:
                clean[m] = Fraction(c)
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, m: int) -> Fraction:
        return self.coeffs.get(m, Fraction(0))

    @property
    def min_order(self) -> int:
        # An all-zero series is zero through trunc; its first unknown
        # order is trunc + 1, which is what product bookkeeping needs.
        return min(self.coeffs, default=self.trunc + 1)

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self.coeffs.items())


def _require_same_kind(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.kind != b.kind:
        raise KindMismatch(f"cannot combine {a.kind} with {b.kind}")


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise sum, trusted to the smaller truncation order."""
    _require_same_kind(a, b)
    trunc = min(a.trunc, b.trunc)
    coeffs: dict[int, Fraction] = {}
    for m in set(a.coeffs) | set(b.coeffs):
        if m <= trunc:
            coeffs[m] = a.coeff(m) + b.coeff(m)
    return TruncatedSeries(a.kind, coeffs, trunc)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated where unknown tail terms could first land."""
    _require_same_kind(a, b)
    trunc = min(a.trunc + b.min_order, b.trunc + a.min_order)
    coeffs: dict[int, Fraction] = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            m = ma + mb
            if m <= trunc:
                coeffs[m] = coeffs.get(m, Fraction(0)) + ca * cb
    return TruncatedSeries(a.kind, coeffs, trunc)


def series_pow(a: TruncatedSeries, n: int) -> TruncatedSeries:
    """Repeated Cauchy product a**n for n >= 1."""
    if n < 1:
        raise DomainError(f"series power requires n >= 1, got {n}")
    result = a
    for _ in range(n - 1):
        result = series_mul(result, a)
    return result


def _scale(a: TruncatedSeries, c: Rational) -> TruncatedSeries:
    return TruncatedSeries(a.kind, {m: c * v for m, v in a.coeffs.items()}, a.trunc)


def _derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise d/dx of a Taylor series; trusted one order less."""
    if a.kind != TAYLOR:
        raise KindMismatch("derivative implemented for Taylor series only")
    coeffs = {m - 1: m * c for m, c in a.coeffs.items() if m != 0}
    return TruncatedSeries(TAYLOR, coeffs, a.trunc - 1)


def named_series(name: str, order: int, p: int | None = None) -> TruncatedSeries:
    """Exact truncated expansion of one of the built-in series.

    Taylor kind: b (the Bernoulli generating function x/(e^x-1)),
    coth_minus_inv (coth y - 1/y), inv_sinh_minus_inv (1/sinh y - 1/y),
    sech, log_sinh_ratio (ln(sinh y / y)).  Asymptotic kind: psi_tilde,
    psi_bar, psi_tilde_deriv / psi_bar_deriv (p-th derivative, integer
    p >= 0 passed either as the ``p`` argument or inline as e.g.
    "psi_tilde_deriv(2)"), g (the sech transform, odd orders E_2n/2^(2n+1)).
    """
    if name.endswith(")") and "(" in name:
        base, _, arg = name.partition("(")
        try:
            inline = int(arg[:-1])
        except ValueError:
            raise UnknownName(f"bad series parameter in {name!r}") from None
        if p is not None and p != inline:
            raise UnknownName(f"conflicting p for {name!r}")
        name, p = base, inline
    if name not in NAMED:
        raise UnknownName(f"no series named {name!r}")

    deriv = name in ("psi_tilde_deriv", "psi_bar_deriv")
    if deriv:
        if p is None or p < 0:
            raise UnknownName(f"{name} requires an integer p >= 0")
    elif p not in (None, 0):
        raise UnknownName(f"{name} takes no parameter")

    coeffs: dict[int, Fraction] = {}
    if name == "b":
        for n in range(order + 1):
            coeffs[n] = Fraction(bernoulli(n), factorial(n))
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "coth_minus_inv":
        for k in range(1, order // 2 + 2):
            if 2 * k - 1 <= order:
                coeffs[2 * k - 1] = Fraction(4**k, factorial(2 * k)) * bernoulli(2 * k)
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "inv_sinh_minus_inv":
        for k in range(1, order // 2 + 2):
            if 2 * k - 1 <= order:
                coeffs[2 * k - 1] = Fraction(4**k, factorial(2 * k)) * bernoulli_bar(2 * k)
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "sech":
        for n in range(0, order // 2 + 1):
            coeffs[2 * n] = Fraction(euler_number(2 * n), factorial(2 * n))
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "log_sinh_ratio":
        for k in range(1, order // 2 + 1):
            coeffs[2 * k] = Fraction(2 ** (2 * k - 1), k * factorial(2 * k)) * bernoulli(2 * k)
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "psi_tilde":
        for k in range(1, order // 2 + 1):
            coeffs[2 * k] = -bernoulli(2 * k) / (2 * k)
        return TruncatedSeries(ASYMPTOTIC, coeffs, order)
    if name == "psi_bar":
        for k in range(1, order // 2 + 1):
            coeffs[2 * k] = -bernoulli_bar(2 * k) / (2 * k)
        return TruncatedSeries(ASYMPTOTIC, coeffs, order)
    if name == "psi_tilde_deriv" or name == "psi_bar_deriv":
        value = bernoulli if name == "psi_tilde_deriv" else bernoulli_bar
        sign = (-1) ** (p + 1)
        n = 1
        while 2 * n + p <= order:
            coeffs[2 * n + p] = sign * value(2 * n) * rising_factorial(Fraction(2 * n), p) / (2 * n)
            n += 1
        return TruncatedSeries(ASYMPTOTIC, coeffs, order)
    # g
    for n in range(0, (order - 1) // 2 + 1):
        coeffs[2 * n + 1] = Fraction(euler_number(2 * n), 2 ** (2 * n + 1))
    return TruncatedSeries(ASYMPTOTIC, coeffs, order)


def laplace_asymptotic(t: TruncatedSeries) -> TruncatedSeries:
    """Term-wise Watson transform y^m -> m!/(2x)^(m+1).

    Realizes the integral int_0^inf y^m e^(-2xy) dy on each term, mapping
    Taylor data in y to asymptotic data in 1/x.
    """
    if t.kind != TAYLOR:
        raise KindMismatch("laplace transform expects a Taylor series")
    if t.min_order < 0:
        raise DomainError("negative powers of y have no transform")
    coeffs = {m + 1: c * Fraction(factorial(m), 2 ** (m + 1)) for m, c in t.coeffs.items()}
    return TruncatedSeries(ASYMPTOTIC, coeffs, t.trunc + 1)


def argument_scale(a: TruncatedSeries, lam: Rational) -> TruncatedSeries:
    """Substitute y -> lam*y (Taylor) or x -> lam*x (asymptotic)."""
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroScale("scale factor must be nonzero")
    power = 1 if a.kind == TAYLOR else -1
    coeffs = {m: c * lam ** (power * m) for m, c in a.coeffs.items()}
    return TruncatedSeries(a.kind, coeffs, a.trunc)


def _agree_through(a: TruncatedSeries, b: TruncatedSeries, order: int) -> bool:
    _require_same_kind(a, b)
    if min(a.trunc, b.trunc) < order:
        raise DomainError("comparison order exceeds a truncation guarantee")
    return all(a.coeff(m) == b.coeff(m) for m in range(min(a.min_order, b.min_order), order + 1))


def check_b_quadratic(order: int) -> bool:
    """Check b(x)^2 = (1-x) b(x) - x b'(x) coefficient-wise through ``order``."""
    if order < 2:
        raise DomainError("order must be at least 2")
    b = named_series("b", order + 1)
    lhs = series_mul(b, b)
    one_minus_x = TruncatedSeries(TAYLOR, {0: Fraction(1), 1: Fraction(-1)}, order + 1)
    x = TruncatedSeries(TAYLOR, {1: Fraction(1)}, order + 1)
    rhs = series_add(series_mul(one_minus_x, b), _scale(series_mul(x, _derivative(b)), Fraction(-1)))
    return _agree_through(lhs, rhs, order)


def check_doubling(order: int) -> bool:
    """Check psi_tilde(x) + psi_bar(x) = 2 psi_tilde(2x) through ``order``.

    Coefficient-wise this is B_2k + Bbar_2k = 2 B_2k / 2^(2k).
    """
    if order < 2 or order % 2 != 0:
        raise DomainError("order must be even and at least 2")
    tilde = named_series("psi_tilde", order)
    bar = named_series("psi_bar", order)
    lhs = series_add(tilde, bar)
    rhs = _scale(argument_scale(tilde, Fraction(2)), Fraction(2))
    return _agree_through(lhs, rhs, order)
