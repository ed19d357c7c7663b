"""Exact rational arithmetic for the classical number sequences.

All values are ``fractions.Fraction`` (reduced, positive denominator) or
plain integers, so every downstream identity check is exact.  Conventions:

* Bernoulli numbers follow x/(e^x - 1) = sum B_n x^n / n!, so B_1 = -1/2.
* Modified Bernoulli numbers are Bbar_n = ((1 - 2^(n-1)) / 2^(n-1)) B_n.
* Euler numbers are the sech coefficients, sech s = sum E_n s^n / n!.

Bernoulli and Euler tables grow on demand inside a ``SequenceCache``;
computing index n fills every lower index.  Both come from the integer
kernels of Brent and Harvey, "Fast computation of Bernoulli, Tangent and
Secant numbers" (arXiv:1108.0286): ``_tangent_numbers`` gives T_1..T_N and
B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)); ``_secant_numbers`` gives
S_0..S_N and E_2n = (-1)^n S_n.  Each kernel runs in place for a fixed N
with integer multiply-adds only, so a table grows in doubling blocks, to
the least power of two >= n; the kernel runs of a growing table then cost
a constant factor more than one run at the final size.  Only the new
entries are appended (one gcd each); existing entries are never rewritten.

The cache also holds append-only prefix tables of H_i = sum 1/j and
H^(2)_i = sum 1/j^2, from which ``harmonic`` reads H_i and
``harmonic_second`` computes H_{2n,2} by two routes.  A module-level
default cache backs the plain functions, and every consumer of the
Bernoulli and Euler numbers accepts an explicit cache so a scan can own a
private table (or a test can inject a corrupted one).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DomainError, PartsMismatch, check_routes

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


def _tangent_numbers(N: int) -> list[int]:
    """T[k] = T_k, the tangent numbers 1, 2, 16, 272, ..., for 1 <= k <= N."""
    T = [0, 1] + [0] * (N - 1)
    for k in range(2, N + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, N + 1):
        for j in range(k, N + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def _secant_numbers(N: int) -> list[int]:
    """S[k] = S_k, the secant numbers 1, 1, 5, 61, 1385, ..., for 0 <= k <= N."""
    S = [1] + [0] * N
    for k in range(1, N + 1):
        S[k] = k * S[k - 1]
    for k in range(1, N + 1):
        for j in range(k + 1, N + 1):
            S[j] = (j - k) * S[j - 1] + (j - k + 1) * S[j]
    return S


def _block_end(n: int) -> int:
    """Last index of the growth block holding n >= 1: the least power of two
    >= n, so blocks at least double, and a request just past the end (B_800
    after B_798) does not rerun the kernel at twice the size it needs."""
    return 1 << (n - 1).bit_length()


class SequenceCache:
    """Growable Bernoulli, Euler and harmonic tables.

    ``bern``, ``eul``, ``harm`` (H_i) and ``harm2`` (H^(2)_i) are plain
    lists indexed by n.  Entries, once computed, are never recomputed or
    rewritten; extension is append-only, so concurrent readers of a warmed
    cache are safe.
    """

    def __init__(self) -> None:
        self.bern: list[Fraction] = [Fraction(1)]
        self.eul: list[int] = [1]
        self.harm: list[Fraction] = [Fraction(0)]
        self.harm2: list[Fraction] = [Fraction(0)]

    def bernoulli(self, n: int) -> Fraction:
        """B_n from the tangent numbers; odd entries are 0 except B_1."""
        if n >= len(self.bern):
            top = _block_end(n)
            T = _tangent_numbers(top // 2)
            for m in range(len(self.bern), top + 1):
                if m % 2:
                    self.bern.append(Fraction(-1, 2) if m == 1 else Fraction(0))
                else:
                    k, four = m // 2, 4 ** (m // 2)
                    self.bern.append(Fraction((-1) ** (k - 1) * m * T[k], four * (four - 1)))
        return self.bern[n]

    def euler_number(self, n: int) -> int:
        """E_n from the secant numbers; odd entries are 0."""
        if n >= len(self.eul):
            top = _block_end(n)
            S = _secant_numbers(top // 2)
            self.eul.extend(
                0 if m % 2 else (-1) ** (m // 2) * S[m // 2]
                for m in range(len(self.eul), top + 1)
            )
        return self.eul[n]

    def harmonic(self, i: int) -> Fraction:
        """H_i, growing the H_i and H^(2)_i prefix tables together."""
        if i < 0:
            raise DomainError(f"harmonic numbers need i >= 0, got {i}")
        while len(self.harm) <= i:
            j = len(self.harm)
            self.harm.append(self.harm[-1] + Fraction(1, j))
            self.harm2.append(self.harm2[-1] + Fraction(1, j * j))
        return self.harm[i]

    def harmonic_second(self, n: int) -> Fraction:
        """H_{2n,2} by the fold sum(H_l/(l+1), l=1..2n-1) and, independently,
        the elementary-symmetric form (H_2n^2 - H^(2)_2n) / 2."""
        h = self.harmonic(2 * n)
        folded = sum((self.harm[l] / (l + 1) for l in range(1, 2 * n)), Fraction(0))
        symmetric = (h * h - self.harm2[2 * n]) / 2
        check_routes("folded sum", folded, "symmetric form", symmetric)
        return folded


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
    return _DEFAULT.harmonic(i)


def harmonic_second(n: int) -> Fraction:
    """Generalized harmonic number H_{2n,2} = sum(1/(i j), 1 <= i < j <= 2n).

    Computed from the cached prefix tables by two routes that must agree
    before the value is returned; see ``SequenceCache.harmonic_second``.
    """
    return _DEFAULT.harmonic_second(n)


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
