"""Exact rational arithmetic for the classical number sequences.

All values are ``fractions.Fraction`` (reduced, positive denominator) or
plain integers, so every downstream identity check is exact.  Conventions:

* Bernoulli numbers follow x/(e^x - 1) = sum B_n x^n / n!, so B_1 = -1/2.
* Modified Bernoulli numbers are Bbar_n = ((1 - 2^(n-1)) / 2^(n-1)) B_n.
* Euler numbers are the sech coefficients, sech s = sum E_n s^n / n!.

Bernoulli and Euler tables grow on demand inside a ``SequenceCache``;
computing index n fills every lower index.  A module-level default cache
backs the plain functions, and every consumer accepts an explicit cache so
a scan can own a private table (or a test can inject a corrupted one).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import PartsMismatch, check_routes

__all__ = [
    "Rational",
    "SequenceCache",
    "bernoulli",
    "bernoulli_bar",
    "euler_number",
    "harmonic",
    "harmonic_second",
    "binomial",
    "multinomial",
    "rising_factorial",
]

Rational = Fraction


class SequenceCache:
    """Growable Bernoulli and Euler tables.

    ``bern`` and ``eul`` are plain lists indexed by n.  Entries, once
    computed, are never recomputed; extension is append-only, so concurrent
    readers of a warmed cache are safe.
    """

    def __init__(self) -> None:
        self.bern: list[Fraction] = [Fraction(1)]
        self.eul: list[int] = [1]

    def bernoulli(self, n: int) -> Fraction:
        """B_n via the recurrence sum(C(n+1,k) B_k, k=0..n) = 0."""
        while len(self.bern) <= n:
            m = len(self.bern)
            acc = sum(comb(m + 1, k) * self.bern[k] for k in range(m))
            self.bern.append(Fraction(-acc, m + 1))
        return self.bern[n]

    def euler_number(self, n: int) -> int:
        """E_n by inverting cosh: sum(C(2m,2j) E_{2m-2j}, j=0..m) = 0."""
        while len(self.eul) <= n:
            m = len(self.eul)
            if m % 2 == 1:
                self.eul.append(0)
                continue
            acc = sum(comb(m, 2 * j) * self.eul[m - 2 * j] for j in range(1, m // 2 + 1))
            self.eul.append(-acc)
        return self.eul[n]


_DEFAULT = SequenceCache()


def _resolve(cache: SequenceCache | None) -> SequenceCache:
    return _DEFAULT if cache is None else cache


def bernoulli(n: int, cache: SequenceCache | None = None) -> Fraction:
    """Bernoulli number B_n (B_0=1, B_1=-1/2, B_2=1/6, ...)."""
    return _resolve(cache).bernoulli(n)


def bernoulli_bar(n: int, cache: SequenceCache | None = None) -> Fraction:
    """Modified Bernoulli number Bbar_n = ((1 - 2^(n-1)) / 2^(n-1)) B_n."""
    half_pow = Fraction(2) ** (n - 1)
    return (1 - half_pow) / half_pow * bernoulli(n, cache)


def euler_number(n: int, cache: SequenceCache | None = None) -> int:
    """Euler number E_n (E_0=1, E_2=-1, E_4=5, ...); zero for odd n."""
    return _resolve(cache).euler_number(n)


def harmonic(i: int) -> Fraction:
    """Harmonic number H_i = sum(1/j, j=1..i); H_0 = 0."""
    return sum((Fraction(1, j) for j in range(1, i + 1)), Fraction(0))


def harmonic_second(n: int) -> Fraction:
    """Generalized harmonic number H_{2n,2} = sum(1/(i j), 1 <= i < j <= 2n).

    Computed both by the double sum and by sum(H_l/(l+1), l=1..2n-1); the
    two forms must agree before the value is returned.
    """
    double = sum(
        (Fraction(1, i * j) for j in range(2, 2 * n + 1) for i in range(1, j)),
        Fraction(0),
    )
    partial = Fraction(0)
    folded = Fraction(0)
    for l in range(1, 2 * n):
        partial += Fraction(1, l)
        folded += partial / (l + 1)
    check_routes("double sum", double, "folded sum", folded)
    return double


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n,k); zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(n: int, parts: list[int]) -> int:
    """Multinomial coefficient n! / prod(part_i!)."""
    if sum(parts) != n:
        raise PartsMismatch(f"parts {parts} do not sum to {n}")
    result = factorial(n)
    for part in parts:
        result //= factorial(part)
    return result


def rising_factorial(q: Fraction, m: int) -> Fraction:
    """Rising factorial (q)_m = q (q+1) ... (q+m-1); empty product is 1."""
    result = Fraction(1)
    for j in range(m):
        result *= q + j
    return result
