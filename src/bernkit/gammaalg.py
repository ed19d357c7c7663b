"""Exact reduction of gamma-function products at rational argument.

The objects here are finite products of Gamma(p+m) and Gamma(2p+m) factors
with integer offsets m and integer exponents; a family term pairs one
with its rational scalar (see the ``identities`` docstring).  At a
concrete rational p every factor is rewritten against the canonical
bases Gamma(p) and Gamma(2p) through rising factorials,

    Gamma(t+m) = Gamma(t) * (t)_m,

leaving an integer exponent for each base and an exact rational cofactor.
The cofactor (t)_m, or 1/(t+m)_(-m) for a negative offset, comes from
the prefix table of its anchor (t, resp. t+m) in the process-wide
``SequenceCache``, so a scan multiplies once per new (anchor, offset)
pair instead of once per step of every factor.  The anchors p and 2p are
held as reduced integer (numerator, denominator) pairs, the very keys of
``SequenceCache.rising`` (2p is (a, b/2) for an even b, else (2a, b)), so
no Fraction is built for them.  Each table entry is itself a reduced
integer pair.  An entry that exists is read straight from
``sequences._DEFAULT.rising``, looked up at call time so an injected or
corrupted cache reaches every reduction; a missing one is grown by
``SequenceCache.rising_table``, the one grower of the tables, which
takes the anchor's integer pair and returns its table, so a miss builds
no Fraction either.  No Legendre duplication is
applied: the two bases stay independent, which keeps every cofactor
rational.

The reduction is one loop, gamma_reduce_pair.  It carries the cofactor
as one integer numerator and one integer denominator, which each factor
multiplies by the integer pair it reads from its rising table (swapped
for a negative offset or a negative exponent), and returns that pair
unreduced, with a positive denominator: no gcd runs in the loop, and it
reads no Fraction property.
gamma_reduce is a thin wrapper that builds the one Fraction of a
ReducedGamma from the pair.  The family rows call the loop directly and
bring a side's unreduced cofactors over one lcm, so a side is normalised
once, in its final Fraction, not once per factor tuple.  Neither keeps a
memo; the family rows keep the vectors for every p at the latest n in
the cache's per-n slot (see ``identities``).

When the anchor t (p or 2p) is itself a nonpositive integer, Gamma(t) has
a pole even where Gamma(t+m) is finite, so such factors are folded all the
way down to factorials instead (contributing exponent zero).  Any factor
whose own argument t+m lands on a nonpositive integer is a genuine pole
and raises PoleEncountered.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import sequences
from .errors import DomainError, PoleEncountered, ZeroDivisor
from .sequences import _rational

__all__ = [
    "GammaProduct",
    "ReducedGamma",
    "gamma_reduce",
    "gamma_reduce_pair",
    "beta_factor",
]

BASES = ("p", "2p")


def _is_canonical(factors: tuple[tuple[str, int, int], ...]) -> bool:
    """True if every base is known, the (base, offset) keys strictly ascend
    and no exponent is zero."""
    last = None
    for base, offset, exponent in factors:
        key = base, offset
        if base not in BASES or exponent == 0 or (last is not None and key <= last):
            return False
        last = key
    return True


class GammaProduct:
    """Product of Gamma(base+offset)**exponent factors.

    ``factors`` is kept canonical: merged by (base, offset), zero exponents
    dropped, sorted.  Treat it as read-only: products are compared and
    hashed by it.  It is a slotted class, not a NamedTuple, because its
    constructor canonicalises the factors it is given.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int, int], ...] = ()) -> None:
        # an already canonical tuple is kept as it is, so family_terms, which
        # writes its tuples in canonical order, merges and sorts nothing; any
        # other is canonicalised, and an unknown base raises there
        if type(factors) is not tuple or not _is_canonical(factors):
            merged: dict[tuple[str, int], int] = {}
            for base, offset, exponent in factors:
                if base not in BASES:
                    raise DomainError(f"unknown gamma base {base!r}")
                merged[(base, offset)] = merged.get((base, offset), 0) + exponent
            factors = tuple(
                (base, offset, exponent)
                for (base, offset), exponent in sorted(merged.items())
                if exponent != 0
            )
        self.factors = factors

    def __eq__(self, other: object) -> bool:
        if type(other) is not GammaProduct:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"GammaProduct({self.factors!r})"


class ReducedGamma(NamedTuple):
    """Gamma(p)**a * Gamma(2p)**b * value, with value an exact rational.

    A NamedTuple, so it compares, orders and hashes as the plain tuple
    (exp_gamma_p, exp_gamma_2p, value); neither isinstance(x, tuple) nor
    == tells it from that tuple."""

    exp_gamma_p: int
    exp_gamma_2p: int
    value: Fraction


def gamma_reduce(g: GammaProduct, p: Fraction) -> ReducedGamma:
    """Reduce ``g`` at the rational point ``p`` to base exponents and cofactor.

    gamma_reduce_pair's result, its integer pair made one Fraction; ``p``,
    the table reads and the errors are those of gamma_reduce_pair.
    """
    exp_p, exp_2p, num, den = gamma_reduce_pair(g, p)
    return ReducedGamma(exp_p, exp_2p, Fraction(num, den))


def gamma_reduce_pair(g: GammaProduct, p: Fraction) -> tuple[int, int, int, int]:
    """The reduction loop: (exp_gamma_p, exp_gamma_2p, numerator,
    denominator) of ``g`` at the rational point ``p``, the cofactor being
    numerator / denominator, unreduced, with a positive denominator.

    ``p`` is anything Fraction accepts; it is converted once, only when it
    is not a Fraction already, and anything else raises DomainError.  The
    anchors p and 2p are held as reduced integer (numerator, denominator)
    pairs, the keys of the rising tables.  A rising entry that exists is
    read straight from the table of ``sequences._DEFAULT``, looked up at
    call time; on a miss the table is grown by that cache's
    ``rising_table``, the one grower, which returns it.  Each factor
    multiplies the pair by its entry's integer pair (swapped for a
    negative offset or exponent); no gcd is taken.

    Raises PoleEncountered when any factor's argument is a nonpositive
    integer, and ZeroDivisor if a rising-factorial step would divide by
    zero (unreachable once the pole guard has passed, but kept explicit).
    """
    if not isinstance(p, Fraction):
        p = _rational("gamma_reduce", p)
    a, b = p.as_integer_ratio()
    # 2p in lowest terms: b is odd or halves, so no gcd is needed
    anchor_p, anchor_2p = (a, b), ((a, b // 2) if b % 2 == 0 else (2 * a, b))
    tables = sequences._DEFAULT.rising
    num = den = 1
    exp_p = exp_2p = 0
    for base, offset, exponent in g.factors:
        anchor = anchor_p if base == "p" else anchor_2p
        t_num, t_den = anchor
        # t+m is a nonpositive integer only if the anchor t is an integer
        if t_den == 1:
            argument = t_num + offset
            if argument <= 0:
                raise PoleEncountered(f"Gamma({base}+{offset}) at p={p} has argument {argument}")
            if t_num <= 0:
                # Gamma(anchor) itself is singular; the factor is a pure
                # factorial here and contributes no base exponent.
                if exponent > 0:
                    num *= factorial(argument - 1) ** exponent
                else:
                    den *= factorial(argument - 1) ** -exponent
                continue
        # (t)_m for m >= 0; 1/(t+m)_(-m), read at the anchor t+m, for m < 0
        key, steps = anchor, offset
        if offset < 0:
            key, steps = (t_num + offset * t_den, t_den), -offset
        table = tables.get(key)
        if table is None or steps >= len(table):
            table = sequences._DEFAULT.rising_table(key, steps)
        if offset >= 0:
            top, bottom = table[steps]
            if top == 0 and exponent < 0:
                raise ZeroDivisor(
                    f"({Fraction(*anchor)})_{offset} vanishes in a denominator at p={p}")
        else:
            bottom, top = table[steps]
            if bottom == 0:
                raise ZeroDivisor(f"({Fraction(*key)})_{steps} vanishes at p={p}")
        if base == "p":
            exp_p += exponent
        else:
            exp_2p += exponent
        if exponent < 0:
            top, bottom, exponent = bottom, top, -exponent
        if exponent != 1:
            top, bottom = top**exponent, bottom**exponent
        num *= top
        den *= bottom
    # a swapped entry numerator may be negative; the pair keeps den > 0
    if den < 0:
        num, den = -num, -den
    return exp_p, exp_2p, num, den


def beta_factor(k: int) -> GammaProduct:
    """Beta factor beta(p+k, p+1) = Gamma(p+k) Gamma(p+1) / Gamma(2p+k+1).

    Symbolic in p; evaluate with gamma_reduce at a concrete rational point.
    """
    if k < 1:
        raise DomainError(f"beta factor index must be positive, got {k}")
    return GammaProduct((("p", k, 1), ("p", 1, 1), ("2p", k + 1, -1)))
