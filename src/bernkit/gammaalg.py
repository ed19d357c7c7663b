"""Exact reduction of gamma-function products at rational argument.

The objects here are finite products of Gamma(p+m) and Gamma(2p+m) factors
with integer offsets m and integer exponents; a family term pairs one
with its rational scalar (see the ``identities`` docstring).  At a
concrete rational p every factor is rewritten against the canonical
bases Gamma(p) and Gamma(2p) through rising factorials,

    Gamma(t+m) = Gamma(t) * (t)_m,

leaving an integer exponent for each base and an exact rational cofactor.
The cofactor (t)_m, or 1/(t+m)_(-m) for a negative offset, is read from
the prefix table of its anchor (t, resp. t+m) in the process-wide
``SequenceCache`` through ``sequences.rising_factorial``, so a scan
multiplies once per new (anchor, offset) pair instead of once per step of
every factor.  No Legendre duplication is applied: the two bases stay
independent, which keeps every cofactor rational.  The cofactor is
carried as one integer numerator and one integer denominator, which each
factor multiplies by its rising entry's numerator and denominator
(swapped for a negative offset or a negative exponent), and it becomes
one Fraction at the end, so a reduction normalises once, not once per
factor.  gamma_reduce itself keeps no memo; the family rows keep its
results in the cache's ``reduced`` slot (see ``identities``).

When the anchor t (p or 2p) is itself a nonpositive integer, Gamma(t) has
a pole even where Gamma(t+m) is finite, so such factors are folded all the
way down to factorials instead (contributing exponent zero).  Any factor
whose own argument t+m lands on a nonpositive integer is a genuine pole
and raises PoleEncountered.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DomainError, PoleEncountered, ZeroDivisor
from .sequences import rising_factorial

__all__ = [
    "GammaProduct",
    "ReducedGamma",
    "gamma_reduce",
    "beta_factor",
]

BASES = ("p", "2p")


class GammaProduct:
    """Product of Gamma(base+offset)**exponent factors.

    ``factors`` is kept canonical: merged by (base, offset), zero exponents
    dropped, sorted.  Treat it as read-only: products are compared and
    hashed by it.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int, int], ...] = ()) -> None:
        merged: dict[tuple[str, int], int] = {}
        for base, offset, exponent in factors:
            if base not in BASES:
                raise DomainError(f"unknown gamma base {base!r}")
            merged[(base, offset)] = merged.get((base, offset), 0) + exponent
        canonical = tuple(
            (base, offset, exponent)
            for (base, offset), exponent in sorted(merged.items())
            if exponent != 0
        )
        # an already canonical tuple is kept, so products built from another
        # product's factors share them
        self.factors = factors if canonical == factors else canonical

    def __eq__(self, other: object) -> bool:
        if type(other) is not GammaProduct:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"GammaProduct({self.factors!r})"


class ReducedGamma:
    """Gamma(p)**a * Gamma(2p)**b * value, with value an exact rational."""

    __slots__ = ("exp_gamma_p", "exp_gamma_2p", "value")

    def __init__(self, exp_gamma_p: int, exp_gamma_2p: int, value: Fraction) -> None:
        self.exp_gamma_p = exp_gamma_p
        self.exp_gamma_2p = exp_gamma_2p
        self.value = value

    def __eq__(self, other: object) -> bool:
        if type(other) is not ReducedGamma:
            return NotImplemented
        return (self.exp_gamma_p, self.exp_gamma_2p, self.value) == (
            other.exp_gamma_p, other.exp_gamma_2p, other.value)

    def __repr__(self) -> str:
        return f"ReducedGamma({self.exp_gamma_p}, {self.exp_gamma_2p}, {self.value!r})"


def gamma_reduce(g: GammaProduct, p: Fraction) -> ReducedGamma:
    """Reduce ``g`` at the rational point ``p`` to base exponents and cofactor.

    The cofactor is carried as one integer numerator and one integer
    denominator: each factor multiplies them by the numerator and
    denominator of its rising entry (swapped for a negative offset or
    exponent), and one Fraction is built at the end.

    Raises PoleEncountered when any factor's argument is a nonpositive
    integer, and ZeroDivisor if a rising-factorial step would divide by
    zero (unreachable once the pole guard has passed, but kept explicit).
    """
    p = Fraction(p)
    anchors = {"p": p, "2p": 2 * p}
    num = den = 1
    exponents = {"p": 0, "2p": 0}
    for base, offset, exponent in g.factors:
        anchor = anchors[base]
        # t+m is a nonpositive integer only if the anchor t is an integer
        if anchor.denominator == 1:
            argument = anchor.numerator + offset
            if argument <= 0:
                raise PoleEncountered(f"Gamma({base}+{offset}) at p={p} has argument {argument}")
            if anchor.numerator <= 0:
                # Gamma(anchor) itself is singular; the factor is a pure
                # factorial here and contributes no base exponent.
                if exponent > 0:
                    num *= factorial(argument - 1) ** exponent
                else:
                    den *= factorial(argument - 1) ** -exponent
                continue
        if offset >= 0:
            rising = rising_factorial(anchor, offset)
            top, bottom = rising.numerator, rising.denominator
        else:
            argument = anchor + offset
            divisor = rising_factorial(argument, -offset)
            if divisor == 0:
                raise ZeroDivisor(f"({argument})_{-offset} vanishes at p={p}")
            top, bottom = divisor.denominator, divisor.numerator
        if top == 0 and exponent < 0:
            raise ZeroDivisor(f"({anchor})_{offset} vanishes in a denominator at p={p}")
        exponents[base] += exponent
        if exponent < 0:
            top, bottom, exponent = bottom, top, -exponent
        num *= top**exponent
        den *= bottom**exponent
    return ReducedGamma(exponents["p"], exponents["2p"], Fraction(num, den))


def beta_factor(k: int) -> GammaProduct:
    """Beta factor beta(p+k, p+1) = Gamma(p+k) Gamma(p+1) / Gamma(2p+k+1).

    Symbolic in p; evaluate with gamma_reduce at a concrete rational point.
    """
    if k < 1:
        raise DomainError(f"beta factor index must be positive, got {k}")
    return GammaProduct((("p", k, 1), ("p", 1, 1), ("2p", k + 1, -1)))
