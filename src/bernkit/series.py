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
``series_mul`` is the Cauchy product over Fractions, and ``series_pow``
takes the N-th power by binary powering over it.

This module is the series route of ``identities``, which calls it through
two entry points, _power_coeff and _lemma_integral.  It keeps its own
arithmetic and imports nothing from that layer, so the two routes share
no summation code, and every B and Bbar here is read from the series' own
table, ``SequenceCache.series_bern``, grown by the tangent kernel, not
from the ``bern`` table that the folds and closed forms of ``identities``
read: a corrupted entry of either table makes the two routes disagree.

The N-th powers of psi_tilde and psi_bar check the nested folds of
``identities``.  _power_coeff reads them from the cache's memo
``power[variant, N]``, shared across n: it lists the coefficients c_0,
c_1, ... of the N-th power of psi_tilde (plain) or psi_bar (bar), c_m at
x^-(2N+2m); the entry N = 1 is the series itself, the base a_0, a_1, ...
the others are grown from.  A row past the end appends the missing c_m,
each by one step of ``power_next``, J.C.P. Miller's recurrence (Knuth,
TAOCP vol. 2, 4.7): for A(u) = sum a_k u^k with a_0 != 0, the
coefficients of A^N are c_0 = a_0^N and
c_m = sum(((N+1) k - m) a_k c_(m-k), k = 1..m) / (m a_0), each step
summed as integers over one lcm and reduced once.  A new order costs m
products whatever N is, no earlier coefficient is recomputed, and a
corrupted entry reaches every entry grown after it.

_lemma_integral is the second route of the four lemma checks of
``identities.verify_lemma_expansion``: it rebuilds each intermediate
asymptotic expansion of a squared generating function by exact inner
integration of the named Taylor series followed by the term-wise Laplace
transform.  The two harmonic ids sum that inner integral,
H_m = 1 + 1/2 + ... + 1/m, themselves, so this route reads no harmonic
table, while the closed forms read ``harm``: a corrupted H entry fails
them too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm, perm

from . import sequences
from .errors import DomainError, KindMismatch, UnknownName
from .sequences import euler_number

__all__ = [
    "TAYLOR",
    "ASYMPTOTIC",
    "TruncatedSeries",
    "series_add",
    "series_mul",
    "series_pow",
    "power_next",
    "named_series",
    "laplace_asymptotic",
    "check_b_quadratic",
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


class TruncatedSeries:
    """Finite piece of a formal series, trusted through order ``trunc``.
    Every operation builds a new series; none changes one in place.  It is
    a slotted class, not a NamedTuple, because its constructor checks the
    kind and the orders and keeps only the nonzero coefficients, as Fractions."""

    __slots__ = ("kind", "coeffs", "trunc")

    def __init__(self, kind: str, coeffs: dict[int, Fraction], trunc: int) -> None:
        if kind not in (TAYLOR, ASYMPTOTIC):
            raise KindMismatch(f"unknown series kind {kind!r}")
        clean = {}
        for m, c in coeffs.items():
            if m > trunc:
                raise DomainError(f"order {m} beyond truncation {trunc}")
            if c != 0:
                clean[m] = Fraction(c)
        self.kind = kind
        self.coeffs = clean
        self.trunc = trunc

    def __eq__(self, other: object) -> bool:
        if type(other) is not TruncatedSeries:
            return NotImplemented
        return (self.kind, self.coeffs, self.trunc) == (other.kind, other.coeffs, other.trunc)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.kind!r}, {self.coeffs!r}, {self.trunc!r})"

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
                coeffs[m] = coeffs.get(m, 0) + ca * cb
    return TruncatedSeries(a.kind, coeffs, trunc)


def series_pow(a: TruncatedSeries, n: int) -> TruncatedSeries:
    """a**n for n >= 1 by binary powering, in about 2 log2(n) Cauchy
    products.  The coefficients are exact and the truncation order of a
    product of powers of a depends only on their sum, so any bracketing
    gives the same series as n - 1 repeated products."""
    if n < 1:
        raise DomainError(f"series power requires n >= 1, got {n}")
    result = None
    while True:
        if n & 1:
            result = a if result is None else series_mul(result, a)
        n >>= 1
        if not n:
            return result
        a = series_mul(a, a)


def power_next(base: list[Fraction], power: list[Fraction], N: int) -> Fraction:
    """The next coefficient c_m, m = len(power), of A(u)^N, where
    A = sum base[k] u^k with base[0] != 0 and len(base) > m, and ``power``
    holds c_0, ..., c_(m-1): c_0 = a_0^N and, by Miller's recurrence,
    c_m = sum(((N+1) k - m) a_k c_(m-k), k = 1..m) / (m a_0).  The terms
    are summed as integers over the lcm of their denominators, and c_m is
    reduced once."""
    m = len(power)
    a0 = base[0]
    if not m:
        return a0**N
    parts = []
    for k in range(1, m + 1):
        a, c = base[k], power[m - k]
        parts.append((((N + 1) * k - m) * a.numerator * c.numerator, a.denominator * c.denominator))
    common = lcm(*(den for _, den in parts))
    total = sum(num * (common // den) for num, den in parts)
    return Fraction(total * a0.denominator, common * m * a0.numerator)


def _scale(a: TruncatedSeries, c: Fraction) -> TruncatedSeries:
    return TruncatedSeries(a.kind, {m: c * v for m, v in a.coeffs.items()}, a.trunc)


def _derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise d/dx of a Taylor series; trusted one order less."""
    if a.kind != TAYLOR:
        raise KindMismatch("derivative implemented for Taylor series only")
    coeffs = {m - 1: m * c for m, c in a.coeffs.items() if m != 0}
    return TruncatedSeries(TAYLOR, coeffs, a.trunc - 1)


def _bernoulli(n: int) -> Fraction:
    """B_n from the series' own table in the current cache."""
    return sequences._DEFAULT.series_bernoulli(n)


def _bernoulli_bar(n: int) -> Fraction:
    """Bbar_n from B_n in the series' own table."""
    return sequences._bbar_from(_bernoulli(n), n)


def _psi_coefficient(name: str, k: int, p: int = 0) -> Fraction:
    """The x^-(2k+p) coefficient, k >= 1, of the p-th derivative of
    psi_tilde (``name`` "psi_tilde") or psi_bar (any other psi name):
    -B_2k/(2k) or -Bbar_2k/(2k) times (-1)^p (2k)_p."""
    # d^p/dx^p x^(-2k) = (-1)^p (2k)_p x^(-2k-p), (2k)_p = perm(2k+p-1, p)
    value = _bernoulli if name.startswith("psi_tilde") else _bernoulli_bar
    return value(2 * k) * Fraction((-1) ** (p + 1) * perm(2 * k + p - 1, p), 2 * k)


def named_series(name: str, order: int, *, p: int | None = None) -> TruncatedSeries:
    """Exact truncated expansion of one of the built-in series.

    Taylor kind: b (the Bernoulli generating function x/(e^x-1)),
    coth_minus_inv (coth y - 1/y), inv_sinh_minus_inv (1/sinh y - 1/y),
    sech, log_sinh_ratio (ln(sinh y / y)).  Asymptotic kind (DLMF 5.11,
    5.15): psi_tilde, sum -B_2k/(2k) x^(-2k), and psi_bar, the same over
    Bbar_2k; psi_tilde_deriv / psi_bar_deriv, their p-th derivatives for
    the integer keyword p >= 0, with p = 0 the series itself; g (the sech
    transform, odd orders E_2n/2^(2n+1)).  These are the coefficients the
    exact lane reads and the float lane's quadrature targets are built
    from; B and Bbar come from the series' own table (see the module
    docstring).
    """
    if name not in NAMED:
        raise UnknownName(f"no series named {name!r}")
    if name.endswith("_deriv"):
        if not isinstance(p, int) or p < 0:
            raise UnknownName(f"{name} requires an integer p >= 0")
    elif p not in (None, 0):
        raise UnknownName(f"{name} takes no parameter")

    coeffs: dict[int, Fraction] = {}
    if name == "b":
        for n in range(order + 1):
            coeffs[n] = Fraction(_bernoulli(n), factorial(n))
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "coth_minus_inv" or name == "inv_sinh_minus_inv":
        value = _bernoulli if name == "coth_minus_inv" else _bernoulli_bar
        for k in range(1, order // 2 + 2):
            if 2 * k - 1 <= order:
                coeffs[2 * k - 1] = Fraction(4**k, factorial(2 * k)) * value(2 * k)
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "sech":
        for n in range(0, order // 2 + 1):
            coeffs[2 * n] = Fraction(euler_number(2 * n), factorial(2 * n))
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name == "log_sinh_ratio":
        for k in range(1, order // 2 + 1):
            coeffs[2 * k] = Fraction(2 ** (2 * k - 1), k * factorial(2 * k)) * _bernoulli(2 * k)
        return TruncatedSeries(TAYLOR, coeffs, order)
    if name.startswith("psi_"):
        p = p or 0
        for k in range(1, (order - p) // 2 + 1):
            coeffs[2 * k + p] = _psi_coefficient(name, k, p)
        return TruncatedSeries(ASYMPTOTIC, coeffs, order)
    # g
    for n in range(0, (order - 1) // 2 + 1):
        coeffs[2 * n + 1] = Fraction(euler_number(2 * n), 2 ** (2 * n + 1))
    return TruncatedSeries(ASYMPTOTIC, coeffs, order)


def _power_coeff(variant: str, N: int, n: int) -> Fraction:
    """x^(-2n) coefficient, n >= N, of the N-th power of psi_tilde (plain)
    or psi_bar (bar), from the cache's append-only ``power`` table.

    psi = x^-2 A(u) with u = x^-2 and a_j = -B_(2j+2)/(2j+2) (Bbar for bar),
    so psi^N = x^-2N sum c_m u^m and the coefficient is c_(n-N).  The base
    a_0, a_1, ... is the table's entry (variant, 1), read from the series'
    own B table by _psi_coefficient, and each missing c_m is appended to
    (variant, N) by Miller's recurrence, power_next, from the earlier
    ones: no coefficient is rebuilt when a later row asks for more.
    """
    powers = sequences._DEFAULT.power
    name = "psi_tilde" if variant == "plain" else "psi_bar"
    base = powers.setdefault((variant, 1), [])
    table = powers.setdefault((variant, N), [])
    top = n - N
    for j in range(len(base), top + 1):
        base.append(_psi_coefficient(name, j + 1))
    for _ in range(len(table), top + 1):
        table.append(power_next(base, table, N))
    return table[top]


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


def _lemma_integral(which: str, order: int) -> TruncatedSeries:
    """The integral route of lemma ``which`` (an ``identities.LEMMA_IDS``
    id) through x^-order: the transform of the integrated kernel series."""
    if which.endswith("-product"):
        if which == "coth-product":
            kernel = named_series("coth_minus_inv", order)
        else:
            inv_sinh = named_series("inv_sinh_minus_inv", order)
            kernel = series_add(inv_sinh, TruncatedSeries(TAYLOR, {-1: Fraction(1)}, order))
        log_ratio = named_series("log_sinh_ratio", order)
        return laplace_asymptotic(_scale(series_mul(kernel, log_ratio), Fraction(2)))
    # The harmonic-number lemmas: the inner integral of the bracketed
    # difference quotient turns each y^(2m-1) term into -H_2m (plain case,
    # bracket carries an extra u) or -H_{2m-1} (Bbar case, u-free bracket).
    # H_m is that integral, of (1 - t^m)/(1 - t) over [0, 1], summed here as
    # 1 + 1/2 + ... + 1/m, so this route reads no harmonic table.
    name = "coth_minus_inv" if which == "coth-harmonic" else "inv_sinh_minus_inv"
    source = named_series(name, order - 1)
    offset = 1 if which == "coth-harmonic" else 0
    inner = list(accumulate((Fraction(1, j) for j in range(1, order + 1)), initial=Fraction(0)))
    coeffs = {m: 2 * c * inner[m + offset] for m, c in source.coeffs.items()}
    return laplace_asymptotic(TruncatedSeries(TAYLOR, coeffs, order - 1))


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

