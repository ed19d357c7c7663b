"""Exact verifiers for the Bernoulli/Euler convolution identities.

Every verifier evaluates both sides of one identity in exact rational
arithmetic and returns an IdentityReport whose residual is lhs - rhs;
ok means the residual is literally zero, never merely small.

The quadratic identities (Euler, Miki, the modified Miki form, the FPZ
identity and the mixed B/Bbar identity) are plain folded sums.  The
one-parameter families evaluate gamma-weighted versions of the latter
three at any rational p where no gamma factor is singular: both sides are
assembled as one scalar per distinct gamma factor, on the right a beta
factor times the side's one common factor Gamma(2p+2n); the factors are
reduced against the Gamma(p) and Gamma(2p) bases, checked for one
exponent pair common to both sides, and the sides are compared through
their rational cofactors; the float lane reads the same scalars and
products.  The cubic identities are triple convolutions.  Lemma-expansion
checks compare the closed form of an intermediate asymptotic series of a
squared generating function with the series route's integral.

The series route lives in ``series``, which this layer calls through two
entry points: _power_coeff, the series power that verify_multi compares
with the nested fold, and _lemma_integral, the second route of
verify_lemma_expansion.  ``series`` and ``gammaalg`` are imported inside
the functions that call them (verify_multi, verify_lemma_expansion, and
the builders of the family layout and cofactors), so a process that runs
no multi, lemma or family row never loads them: a deep quadratic scan
reads neither.

IDENTITIES is the one statement of each command-line identity id, an
Identity record of its floor, parameter kind and runner.  Every verifier
reads its floor there, so a name the registry lacks raises UnknownName,
and cli dispatches and checks its options through the registry alone.
Each runner looks its verifier up when it is called, so a verifier
replaced on the module from outside is the one that runs.

Every sum over compositions k_1+...+k_parts = n, every k_i >= 1, is
_fold(weight, parts, n) over a weight sequence named in _WEIGHTS: the
multi sums and the Miki and FPZ left sides ("plain", "bar"), and the
cubic right sides' multinomial triple sums, (2n)! times folds of "coth",
B_2k/(2k (2k)!).  Each fold step reads its smaller folds straight from
the memo.  The mixed left side pairs B with Bbar through _paired.

The x^(-2n) coefficients of the four lemma expansions (_coth_product,
_coth_harmonic, _sinh_product, _sinh_harmonic) are written once and are
the quadratic right sides: Miki's is the sum of the two coth
coefficients, FPZ's the sum of the two sinh ones, Gessel's reuses the
coth product and the cubic H_2n sum the sinh product.  The lemma check
therefore tests the weights those right sides sum, and the B and H
values too: its closed form reads the ``bern`` and ``harm`` tables, and
its integral route neither (see ``series``).  The coth product is summed
once per n, and each sinh product is a combination of the power-of-four
sums S_j below, each summed once per n; all are kept in the per-n slot
below, and the harmonic coefficients are computed on every call.  Their
C(2n, 2k) comes with the B products of the slot, whose binomial list
reads the Pascal row _binomial_row(2n): at n ~ 400, integer binomials
times B products are cheaper than products of coth weights with
factorial denominators.  The cubic forms share _cubic_form.  The mixed
family terms weigh by (1 - 2^(2k-1)) / 2^(2n-1); the mixed and p = 1
mixed right sides weigh by its numerator and divide the sum by its
common denominator 2^(2n-1) once.  The mixed and p = 1 mixed left sides
weigh B_{2n-2k} by Bbar's weight times 4^n, 2^(2k+1) - 2^(2n), and
divide the sum by 4^n once.

Every quadratic sum over products B_2k B_{2n-2k} times a weight w(k)
is _paired(n, weight): the Euler left side, the coth product, the
power-of-four sums S_j, the mixed left side and the p = 1 sums.  Bbar_m
enters as B_m times its weight bbar_scale(m): a form shared by B and
Bbar takes the weight, bbar_scale or _unit_scale.  A weight is written
as (terms, d), the sum of c 2^s over its (c, s) terms over d: 1 is
(_ONE, 1), S_j's 4^(jk) / (2kn) is ((1, 2jk),) over 2kn, and the mixed
left side's weight over 4^n the two terms of _bbar_terms.  c and d are
small integers in every sum.  Terms k and n-k share one product of
numerators of about 1,350 digits at n ~ 400, so each k < n/2 carries
w(k) + w(n-k) over the product of the two d's, and the middle k = n/2
of an even n counts once; each sum then does half the big products.  A
pair multiplies the product by each term's c times the other d and
shifts it left by s: two small multiplies, two shifts and an add for
S_j, where one integer weight (n-k) 4^(jk) + k 4^(j(n-k)) of up to
1,600 bits would cost a multiply of two big integers.  A sum that runs
through k = n takes its unpaired term, B_2n B_0 w(n), from the same
weight.  _fold(weight, 2, n) and the Euler-number left side pair their
equal terms the same way.

The weights of the sinh products and of the mixed and Euler-Bernoulli
right sides are polynomials in 4^k over 2kn, so those four sums are
combinations of three power-of-four sums, for j = 0, 1, 2,

    S_j(n) = sum over 1 <= k <= n of C(2n, 2k) B_2k B_{2n-2k} 4^(jk) / (2kn),

and they read S_0, S_1 and S_2 from the slot (see ("shifted", j)
below), so a deep n runs three big sums for them, not four.  The coth
product stays its own sum.  Its weight gives it as S_0 - B_2n / (2n^2),
but then the modified Miki form's check of its k=n form, S_0 plus a
harmonic term, against its H_2n form would reduce to H_2n - H_{2n-1} =
1/(2n) and check nothing.

The products are formed once per n, as two entries of the per-n slot
below: ("products", False) lists B_2k B_{2n-2k} and ("products", True)
C(2n, 2k) B_2k B_{2n-2k}, unreduced _Ratio's for k <= n/2, the second
built from the first by the first sum at n that asks for it.  As
C(2n, 2k) = C(2n, 2n-2k), the binomial factors out of each k, n-k pair:
the weights that carry it (the Euler left side, the coth product and the
S_j) drop it and read the binomial list, and so do the p = 1 right
sides, whose C(2n+2, 2k+2) / (n+1) is C(2n, 2k) 2(2n+1) / ((2k+1)(2k+2)).
The mixed and p = 1 left sides read the plain list.  Each term then
multiplies a big product by small integers and shifts it.
_fold and the Euler-number sum never read the products: Miki's and FPZ's left sides
and every multi fold form their own, so the two sides of each quadratic
identity stay independent routes.

Every exact sum of this layer but the family sides is _dot: each fold
step and the quadratic, p = 1 and cubic sums.  It multiplies each
term's factors as integer numerators and denominators and reduces the
total once, where a Fraction sum normalises through gcd after every
multiply and add (at n ~ 400 the B numerators have about
1,350 digits).  How it adds the products depends on their size,
measured as they are built.  When some product's numerator has more
than _MERGE_BITS = 1024 bits, neighbours are added pairwise, over the
product of their denominators divided by their gcd, down to one partial
sum: the lcm of all denominators of a deep sum has about 455 digits,
and bringing some 200 numerators over it costs more than the merges.
Smaller products are brought over one lcm.  Every paired B.B sum and
two-part fold of a deep row (n ~ 400, products of 4,400 bits or more)
takes the pairwise path, and every cubic sum (at most 600 bits) the
one-lcm path.  A family side is one integer dot product instead (see
the family entries of the per-n slot below).  series and floatcheck
keep their own arithmetic: the series power and the float twin are the
second routes of these sums, so they share no summation code with them.

Work that does not depend on the row is kept in the process-wide
``sequences._DEFAULT`` cache, looked up at call time so an injected
cache replaces it too.  Three memos are shared across n, because the
rows at later n read their entries: ``fold[weight]`` maps (parts, total)
to _fold(weight, parts, total), ``series`` keeps the series powers in
``power[variant, N]``, and ``beta`` holds the reductions of the family
right sides' beta factors at each p (see the family entries below).  The
fold and the series power keep separate tables, so the two routes of
verify_multi stay independent, and multi_lhs compares them on every
row.

Every other entry depends on n alone: each identity is stated at one n,
and its quadratic, family and lemma sums run over terms at that n.  It
lives in the cache's per-n ``slot``, the pair (n, entries), read through
_at_n(n, key, build), which builds an entry on first use and replaces
the slot whole, with no entry, the first time anything is looked up at
another n.  ``cli verify`` runs its rows n by n, so the rows at one n,
in any order, share every entry, and the slot holds one n's work at
most.  Its keys:

* ("products", binomial): the B products above.
* "coth-product": the x^(-2n) coefficient of the coth-product lemma
  expansion, summed by the first row that needs it and read by the
  others (Miki, the modified Miki form, Gessel and the lemma check).
* ("shifted", j): S_j(n) for j = 0, 1, 2, summed by the first row that
  needs it, its weight's 4^(jk) applied as a left shift by 2jk bits (see
  _paired above).  As Bbar's weight (2 - 4^(n-k)) / 4^(n-k) on B_{2n-2k} is
  (2 4^k - 4^n) / 4^n, and 1 - 2^(2k-1) = 1 - 4^k / 2:

  - the sinh product for B is S_0, and for Bbar 2 S_1 / 4^n - S_0
    (the modified Miki form, FPZ, the modified Gessel and cubic FPZ
    forms and the lemma check);
  - the mixed right side's sum is S_0 - S_1 / 2;
  - the Euler-Bernoulli right side is 2 S_2 - (2 + 4^n) S_1 + 4^n S_0,
    as (4^k - 1) 4^k (2 - 4^(n-k)) = 2 16^k - (2 + 4^n) 4^k + 4^n.
* "family-layout": what the three family kinds share at n, which
  depends on n alone, since their gamma structure is one and only their
  B and Bbar weights differ.  Per side it holds {factor tuple:
  GammaProduct}: on the left Gamma(p+2k) Gamma(p+2n-2k) for k = 1, ...,
  n//2, on the right the beta factors gammaalg.beta_factor(j) for j = 1,
  ..., 2n; and, once, the right side's common factor Gamma(2p+2n).  For
  each p met at n, keyed by (p numerator, p denominator), it holds the
  cofactors: the left vector, the unreduced integer cofactors that
  gammaalg.gamma_reduce_pair gives for the left products, as V, the lcm
  of their denominators, and their numerators over V; the right vector,
  the beta entries 1, ..., 2n of p (below) over their lcm the same way;
  and Gamma(2p+2n)'s unreduced integer pair.  They are built once per
  (n, p), every kind and verify_p1's rerun at p = 1 read them, and their
  build checks that every left product, and every beta factor times
  Gamma(2p+2n), reduces to one (Gamma(p), Gamma(2p)) exponent pair; a
  build that fails that check stores no cofactors (the beta entries it
  grew stay: they depend on p alone).
* ("family", which): family_terms(which, n), each side's scalars as S,
  the lcm of their denominators, and their integer numerators over S,
  in the layout's order.  A scalar is the sum of the exact rational
  coefficients of the summands with that gamma factor: the left terms k
  and n-k share one, and so do the right term at k and the beta term at
  j = 2k.  Each summand adds its scalar as an unreduced integer pair, so
  no scalar is reduced on its own and no Fraction is built.  The exact
  family rows and the float twin both read this entry and the layout,
  each from the slot on every row, so a replaced entry reaches them
  all.

Each family side is one integer dot product, sum(scalar numerators x
cofactor numerators) over S V; the right one is multiplied by the
numerator of Gamma(2p+2n)'s cofactor, whose denominator joins S V.  The
two sides are compared unreduced, by cross-multiplication; sides that
agree are normalised once, into one Fraction reported as both, and only
sides that differ are each reduced and subtracted (_report subtracts
only then).  _over_lcm brings integer pairs over one lcm for the
scalars, the cofactors and _dot's one-lcm sums alike.

The left products and Gamma(2p+2n) carry offsets that sum to 2n, so
none of them recurs at another n, and a row at another n drops nothing
it could read.  The beta factors recur: beta_factor(j) is on every right
side with 2n >= j.  So their reductions are kept across n, in the
cache's table ``beta``, keyed like ``rising`` by p's reduced (numerator,
denominator): entry j - 1 is gamma_reduce_pair(beta_factor(j), p), its
exponents and unreduced pair, appended by _beta_table, the table's one
grower, when a row at p first reads it.  A family scan over n = 2..30 at
eight p then reduces 2,512 products, where one that reduced every right
product at every (n, p) took 9,224.  gamma_reduce_pair alone reads the
rising tables for the families; a rising entry poisoned after the
cofactors that read it were stored no longer reaches the rows of that
(n, p), and one poisoned after a beta entry read it no longer reaches
that entry at any n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from operator import mul
from typing import Any, Callable, NamedTuple

from . import sequences
from .errors import DomainError, ExponentMismatch, UnknownName, check_routes
from .sequences import (
    _rational,
    bbar_scale,
    bernoulli,
    bernoulli_bar,
    euler_number,
    harmonic,
    harmonic_second,
)

__all__ = [
    "IDENTITIES",
    "Identity",
    "IdentityReport",
    "verify_euler",
    "verify_miki",
    "verify_miki_modified",
    "verify_fpz",
    "verify_mixed",
    "family_terms",
    "verify_family",
    "verify_p1",
    "verify_gessel",
    "verify_gessel_modified",
    "verify_fpz_cubic",
    "verify_multi",
    "multi_lhs",
    "verify_euler_bernoulli",
    "verify_lemma_expansion",
    "FAMILY_KINDS",
    "LEMMA_IDS",
]

FAMILY_KINDS = ("miki", "fpz", "mixed")
LEMMA_IDS = ("coth-product", "coth-harmonic", "sinh-product", "sinh-harmonic")


class IdentityReport(NamedTuple):
    """One identity at one parameter point.  The verifiers give exact sides
    and residual; floatcheck.family_float gives float ones at a float p.

    A NamedTuple, so it compares, orders and hashes as the plain tuple of
    its fields; neither isinstance(x, tuple) nor == tells it from that tuple."""

    identity: str
    n: int
    lhs: Fraction | float
    rhs: Fraction | float
    residual: Fraction | float
    ok: bool
    p: Fraction | float | None = None
    N: int | None = None


class Identity(NamedTuple):
    """One command-line identity id: the smallest n it is stated for, the
    kind of its second parameter (None, "p" or "N") and its runner, called
    as run(n, value) with that parameter's value."""

    floor: int
    param: str | None
    run: Callable[[int, Any], IdentityReport]


IDENTITIES = {
    "euler": Identity(2, None, lambda n, _: verify_euler(n)),
    "miki": Identity(2, None, lambda n, _: verify_miki(n)),
    "miki-modified": Identity(2, None, lambda n, _: verify_miki_modified(n)),
    "fpz": Identity(2, None, lambda n, _: verify_fpz(n)),
    "mixed": Identity(2, None, lambda n, _: verify_mixed(n)),
    "family-miki": Identity(2, "p", lambda n, p: verify_family("miki", n, p)),
    "family-fpz": Identity(2, "p", lambda n, p: verify_family("fpz", n, p)),
    "family-mixed": Identity(2, "p", lambda n, p: verify_family("mixed", n, p)),
    "p1-miki": Identity(2, None, lambda n, _: verify_p1("miki", n)),
    "p1-fpz": Identity(1, None, lambda n, _: verify_p1("fpz", n)),
    "p1-mixed": Identity(1, None, lambda n, _: verify_p1("mixed", n)),
    "gessel": Identity(3, None, lambda n, _: verify_gessel(n)),
    "gessel-modified": Identity(3, None, lambda n, _: verify_gessel_modified(n)),
    "fpz-cubic": Identity(3, None, lambda n, _: verify_fpz_cubic(n)),
    "euler-bernoulli": Identity(1, None, lambda n, _: verify_euler_bernoulli(n)),
    "multi": Identity(2, "N", lambda n, N: verify_multi(N, n, "plain")),
    "multi-bar": Identity(2, "N", lambda n, N: verify_multi(N, n, "bar")),
}


_ZERO = Fraction(0)


def _report(
    identity: str,
    n: int,
    lhs: Fraction,
    rhs: Fraction,
    p: Fraction | None = None,
    N: int | None = None,
) -> IdentityReport:
    if lhs == rhs:
        return IdentityReport(identity, n, lhs, rhs, _ZERO, True, p, N)
    return IdentityReport(identity, n, lhs, rhs, lhs - rhs, False, p, N)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _floor(identity: str) -> int:
    """The floor of a registry id; UnknownName for an id the registry lacks."""
    if identity not in IDENTITIES:
        raise UnknownName(f"no identity {identity!r}")
    return IDENTITIES[identity].floor


def _require_floor(identity: str, n: int) -> None:
    floor = _floor(identity)
    _require(n >= floor, f"{identity} identity needs n >= {floor}, got {n}")


# _dot adds its partial sums pairwise down to one when some product's
# numerator has more than this many bits, and otherwise sums them over one
# lcm.  The deep B.B sums break even near 500 bits (n ~ 60) and merge
# 30-40% faster from 1,000 bits on, while the cubic sums, at most 600
# bits, ran 13% slower merged than over one lcm.
_MERGE_BITS = 1024


def _dot(terms) -> Fraction:
    """Exact sum of the products of each term's int, Fraction or _Ratio factors.

    Each product is multiplied out as an integer numerator and denominator.
    If any numerator has more than _MERGE_BITS bits, neighbours are added
    in place, (a, b) + (c, d) = (a (d/g) + c (b/g), (b/g) d) for g =
    gcd(b, d), an odd count carrying its last one to the next round, until
    one partial sum remains: the multipliers stay about the size of one
    denominator, where the lcm of a long sum's denominators runs to
    hundreds of digits (binary splitting, Haible and Papanikolaou 1998).
    Otherwise the products are brought over one lcm of their denominators.
    Either way the total is reduced once, not after every multiply and add.
    """
    parts = []
    large = False
    for factors in terms:
        # from the first factor, not from 1, so a one-factor term copies
        # nothing; an empty term is 1
        factors = iter(factors)
        first = next(factors, 1)
        num, den = first.numerator, first.denominator
        for factor in factors:
            num *= factor.numerator
            den *= factor.denominator
        parts.append((num, den))
        if num.bit_length() > _MERGE_BITS:
            large = True
    while large and len(parts) > 1:
        half = len(parts) // 2
        for i in range(half):
            a, b = parts[2 * i]
            c, d = parts[2 * i + 1]
            g = gcd(b, d)
            b //= g
            parts[i] = a * (d // g) + c * b, b * d
        if len(parts) % 2:
            parts[half] = parts[-1]
            half += 1
        del parts[half:]
    common, numerators = _over_lcm(parts)
    return Fraction(sum(numerators), common)


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Integer (numerator, denominator) pairs over one common denominator:
    the lcm of the denominators, and each numerator over it, in order."""
    common = lcm(*(den for _, den in pairs))
    return common, [num * (common // den) for num, den in pairs]


class _Ratio(NamedTuple):
    """An integer ratio that need not be in lowest terms, a factor that
    _dot reads as it reads a Fraction."""

    numerator: int
    denominator: int


def _at_n(n: int, key, build: Callable[[], Any]) -> Any:
    """The entry ``key`` of the cache's per-n slot at n: build() the first
    time, then the entry it left.  The slot, the pair (n, entries), is
    replaced whole, with no entry, the first time anything is looked up at
    another n.  Callers only read the entries."""
    cache = sequences._DEFAULT
    at, entries = cache.slot
    if at != n:
        entries = {}
        cache.slot = n, entries
    value = entries.get(key)
    if value is None:
        value = entries[key] = build()
    return value


def _products(n: int, binomial: bool) -> list[_Ratio]:
    """The products B_2k B_{2n-2k} for k = 1, ..., n//2 as unreduced
    _Ratio's, each times C(2n, 2k) if ``binomial``, from the per-n slot;
    the binomial list is built from the plain one when a sum first asks
    for it."""

    def build():
        if binomial:
            row, plain = _binomial_row(2 * n), _products(n, False)
            return [_Ratio(row[2 * k] * num, den) for k, (num, den) in enumerate(plain, 1)]
        bernoulli(2 * n)
        bern, plain = sequences._DEFAULT.bern, []
        for k in range(1, n // 2 + 1):
            a, b = bern[2 * k], bern[2 * n - 2 * k]
            plain.append(_Ratio(a.numerator * b.numerator, a.denominator * b.denominator))
        return plain

    return _at_n(n, ("products", binomial), build)


def _paired(n: int, weight, through_n: bool = False, binomial: bool = False) -> Fraction:
    """Sum of B_2k B_{2n-2k} w(k) over 1 <= k <= n-1, or over 1 <= k <= n
    if ``through_n``, times C(2n, 2k) if ``binomial``.  weight(k) gives
    w(k) as (terms, d): the sum of c 2^s over its (c, s) terms, over the
    integer d.

    Terms k and n-k share the product B_2k B_{2n-2k}, and C(2n, 2k) =
    C(2n, 2n-2k), so one _dot runs over k <= n/2 and reads each product
    from _products: each k < n/2 carries w(k) + w(n-k) over the product of
    the two d's, without a gcd, and the middle term k = n/2 of an even n
    counts once.  The product's numerator is multiplied by each term's c
    and the other d, then shifted left by s, so a power of two in a weight
    costs a shift, not a multiply by an integer of hundreds of digits.
    The k = n term, B_2n B_0 w(n), has no partner, and C(2n, 2n) = 1.
    """
    products = _products(n, binomial)
    ks = range(1, n // 2 + 1)
    if through_n:
        products, ks = [*products, bernoulli(2 * n).as_integer_ratio()], [*ks, n]

    def terms():
        for k, (num, den) in zip(ks, products):
            own, scale = weight(k)
            other, other_scale = weight(n - k) if 2 * k < n else ((), 1)
            top = 0
            for c, s in own:
                top += num * (c * other_scale) << s
            for c, s in other:
                top += num * (c * scale) << s
            yield (_Ratio(top, den * scale * other_scale),)

    return _dot(terms())


# the (c, s) terms of the _paired weight 1
_ONE = ((1, 0),)


def _bbar_terms(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Bbar_{2n-2k}'s weight on B_{2n-2k}, (2 4^k - 4^n) / 4^n, times 4^n
    as _paired's (c, s) terms: 2^(2k+1) - 2^(2n)."""
    return (1, 2 * k + 1), (-1, 2 * n)


def _unit_scale(m: int) -> tuple[int, int]:
    """The weight of B_m in the B forms, 1, as the pair bbar_scale gives Bbar's."""
    return 1, 1


def _scaled_pair(m: int, scale) -> tuple[int, int]:
    """B_m times its weight scale(m) as an unreduced integer pair: B_m for
    _unit_scale, Bbar_m for bbar_scale."""
    (b, b_den), (num, den) = bernoulli(m).as_integer_ratio(), scale(m)
    return b * num, b_den * den


def _scaled(m: int, scale, divisor: int = 1) -> Fraction:
    """B_m times its weight scale(m), divided by ``divisor``, reduced once."""
    num, den = _scaled_pair(m, scale)
    return Fraction(num, den * divisor)


def _binomial_row(m: int) -> list[int]:
    """The Pascal row C(m, 0), ..., C(m, m), by C(m, j+1) = C(m, j) (m-j)/(j+1)."""
    row = [1]
    for j in range(m):
        row.append(row[-1] * (m - j) // (j + 1))
    return row


# the weight sequences w(k), k >= 1, of the composition sums; "coth" is the
# x^(2k) coefficient of log(sinh x / x) divided by 4^k
_WEIGHTS = {
    "plain": lambda k: _scaled(2 * k, _unit_scale, 2 * k),
    "bar": lambda k: _scaled(2 * k, bbar_scale, 2 * k),
    "coth": lambda k: _scaled(2 * k, _unit_scale, 2 * k * factorial(2 * k)),
}


def _fold_step(memo: dict, weight: str, parts: int, total: int) -> Fraction:
    """One fold entry from the smaller ones: w(total) for one part, else
    the sum of w(k) times the (parts-1)-part fold of total-k, each factor
    read straight from ``memo``, which must hold them."""
    if parts == 1:
        return _WEIGHTS[weight](total)
    if parts == 2:
        # terms k and total-k are equal: twice each k < total/2, once the middle
        return _dot(
            (2 if 2 * k < total else 1, memo[1, k], memo[1, total - k])
            for k in range(1, total // 2 + 1)
        )
    return _dot((memo[1, k], memo[parts - 1, total - k]) for k in range(1, total - parts + 2))


def _fold_memo(weight: str, parts: int, span: int) -> dict:
    """The cache's memo ``fold[weight]``, holding every entry (q, t) with
    q <= parts and q <= t < q + span: each missing one is filled, in rising
    order of q and t, so every step finds its factors in the memo and no
    call recurses, however many parts."""
    folds = sequences._DEFAULT.fold
    memo = folds.get(weight)
    if memo is None:
        memo = folds[weight] = {}
    for q in range(1, parts + 1):
        for t in range(q, q + span):
            if (q, t) not in memo:
                memo[q, t] = _fold_step(memo, weight, q, t)
    return memo


def _fold(weight: str, parts: int, total: int) -> Fraction:
    """Sum of the products w(k_1)...w(k_parts) over k_1+...+k_parts = total,
    every k_i >= 1, for w = _WEIGHTS[weight], by nested summation through
    the cache's memo ``fold[weight]``, fetched once: on a miss, the entries
    of fewer parts that the sum reads are filled first by _fold_memo."""
    memo = sequences._DEFAULT.fold.get(weight)
    value = None if memo is None else memo.get((parts, total))
    if value is None:
        span = total - parts + 1  # the largest part
        if span < 1:
            # no composition of total has that many parts: the empty sum
            return Fraction(0)
        memo = _fold_memo(weight, parts - 1, span)
        value = memo[parts, total] = _fold_step(memo, weight, parts, total)
    return value


def verify_euler(n: int) -> IdentityReport:
    """sum C(2n,2k) B_2k B_{2n-2k} = -(2n+1) B_2n, for n >= 2."""
    _require_floor("euler", n)
    lhs = _paired(n, lambda k: (_ONE, 1), binomial=True)
    rhs = -(2 * n + 1) * bernoulli(2 * n)
    return _report("euler", n, lhs, rhs)


def _coth_product(n: int) -> Fraction:
    """x^(-2n) coefficient of the coth-product lemma expansion, summed once
    per n and kept in the per-n slot."""
    return _at_n(n, "coth-product",
                 lambda: _paired(n, lambda k: (_ONE, 2 * k * (2 * n - 2 * k)), binomial=True))


def _coth_harmonic(n: int) -> Fraction:
    """x^(-2n) coefficient of the coth-harmonic lemma expansion."""
    return bernoulli(2 * n) * harmonic(2 * n) / n


def _shifted(n: int, j: int) -> Fraction:
    """S_j(n), the sum of C(2n, 2k) B_2k B_{2n-2k} 4^(jk) / (2kn) over
    1 <= k <= n, summed once per (n, j) and kept in the per-n slot."""
    return _at_n(n, ("shifted", j), lambda: _paired(
        n, lambda k: (((1, 2 * j * k),), 2 * k * n), through_n=True, binomial=True))


def _sinh_product(n: int, scale) -> Fraction:
    """x^(-2n) coefficient of the sinh-product lemma expansion for
    ``scale`` = bbar_scale; _unit_scale gives Miki's k=n form.  Both are
    read from the power-of-four sums of the per-n slot: the k=n form is
    S_0, and as Bbar's weight (2 - 4^(n-k)) / 4^(n-k) on B_{2n-2k} is
    (2 4^k - 4^n) / 4^n, the Bbar form is 2 S_1 / 4^n - S_0."""
    if scale is _unit_scale:
        return _shifted(n, 0)
    return 2 * _shifted(n, 1) / 4 ** n - _shifted(n, 0)


def _sinh_harmonic(n: int, scale) -> Fraction:
    """x^(-2n) coefficient of the sinh-harmonic lemma expansion for
    ``scale`` = bbar_scale."""
    return _scaled(2 * n, scale) * harmonic(2 * n - 1) / n


def _fpz_rhs(n: int, scale) -> Fraction:
    """Right side of the FPZ-shaped identity for the weight ``scale``:
    FPZ itself for bbar_scale, Miki's k=n form for _unit_scale."""
    return _sinh_product(n, scale) + _sinh_harmonic(n, scale)


def _miki_rhs(n: int) -> Fraction:
    """Right side of Miki's identity in the form with the full H_2n."""
    return _coth_product(n) + _coth_harmonic(n)


def verify_miki(n: int) -> IdentityReport:
    """Miki's identity, the form with the full harmonic number H_2n."""
    _require_floor("miki", n)
    return _report("miki", n, _fold("plain", 2, n), _miki_rhs(n))


def verify_miki_modified(n: int) -> IdentityReport:
    """Miki's identity rewritten with a k=n term and H_{2n-1}.

    The rewritten right side must equal the H_2n form exactly (the k=n
    term and the harmonic shift 1/(2n) trade off), so the two are
    cross-checked before reporting.
    """
    _require_floor("miki-modified", n)
    rhs = _fpz_rhs(n, _unit_scale)
    check_routes("the k=n form", rhs, "the H_2n form", _miki_rhs(n))
    return _report("miki-modified", n, _fold("plain", 2, n), rhs)


def verify_fpz(n: int) -> IdentityReport:
    """The Faber-Pandharipande-Zagier identity for the Bbar numbers."""
    _require_floor("fpz", n)
    return _report("fpz", n, _fold("bar", 2, n), _fpz_rhs(n, bbar_scale))


def verify_mixed(n: int) -> IdentityReport:
    """The mixed identity convolving B with Bbar via the doubling relation."""
    _require_floor("mixed", n)
    # Bbar's weight on B_{2n-2k} is (2 4^k - 4^n) / 4^n, so the lhs weight
    # over 4^n is 2^(2k+1) - 2^(2n) over 2k (2n-2k); the rhs weights
    # (1 - 2^(2k-1)) / 2^(2n-1) share their denominator, and the sum of
    # their numerators is S_0 - S_1 / 2
    lhs = _paired(n, lambda k: (_bbar_terms(n, k), 2 * k * (2 * n - 2 * k))) / 4 ** n
    rhs = (_shifted(n, 0) - _shifted(n, 1) / 2) / 2 ** (2 * n - 1)
    rhs += bernoulli(2 * n) * harmonic(2 * n - 1) / (n * Fraction(2) ** (2 * n))
    return _report("mixed", n, lhs, rhs)


def family_terms(which: str, n: int) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
    """(lhs, rhs) scalars of one gamma-weighted family, symbolic in p, built
    once per (which, n): per side, the common denominator S of its scalars
    and their integer numerators over S, in the order of the side's
    products in the family layout at n.  Each scalar is the sum of the
    exact rational coefficients of the summands that share one gamma
    factor: a left scalar multiplies Gamma(p+2k) Gamma(p+2n-2k) for
    k = 1, ..., n//2, and the j-th right scalar multiplies the beta factor
    gammaalg.beta_factor(j) = Gamma(p+j) Gamma(p+1) / Gamma(2p+j+1) for
    j = 1, ..., 2n, times the side's common factor Gamma(2p+2n).

    which selects the plain (miki), Bbar (fpz) or mixed variant.  Each
    summand's scalar is an unreduced integer pair, added to the pair of
    its factor: the left terms k and n-k share one, and so do the right
    term at k and the beta term at j = 2k.  At n = 30 the 29 + 89 summands
    leave 15 + 60 pairs.  Each side's pairs are brought over one lcm, so
    no scalar is reduced on its own and no Fraction is built.
    """
    _require_floor(f"family-{which}", n)
    return _at_n(n, ("family", which), lambda: tuple(map(_over_lcm, _summands(which, n))))


def _summands(which: str, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(lhs, rhs) of one family as lists of unreduced integer pairs, the
    scalars of the summands that share a gamma factor added: the left term
    k at index min(k, n-k) - 1, and the right term with the beta factor
    beta_factor(j) at index j - 1."""
    # B and Bbar enter as unreduced integer pairs, B_m times its weight
    lhs_first = bbar_scale if which == "fpz" else _unit_scale
    lhs_second = _unit_scale if which == "miki" else bbar_scale
    rhs_second = bbar_scale if which == "fpz" else _unit_scale
    fact = list(accumulate(range(1, 2 * n + 1), mul, initial=1))
    lhs_terms, rhs_terms = [(0, 1)] * (n // 2), [(0, 1)] * (2 * n)

    def add(terms, index, num, den):
        other, other_den = terms[index]
        terms[index] = num * other_den + other * den, den * other_den

    for k in range(1, n):
        # first(2k) second(2n-2k) / (2k (2n-2k) (2k-1)! (2n-2k-1)!), whose
        # denominator is (2k)! (2n-2k)!, times Gamma(p+2k) Gamma(p+2n-2k)
        a, a_den = _scaled_pair(2 * k, lhs_first)
        b, b_den = _scaled_pair(2 * n - 2 * k, lhs_second)
        add(lhs_terms, min(k, n - k) - 1, a * b, a_den * b_den * fact[2 * k] * fact[2 * n - 2 * k])
    for k in range(1, n + 1):
        # 2 B_2k second(2n-2k) w_k / ((2k)! (2n-2k)!), with the mixed
        # weight w_k = (1 - 2^(2k-1)) / 2^(2n-1), else 1, times
        # Gamma(p+1) Gamma(p+2k) / Gamma(2p+2k+1), the beta factor j = 2k
        a, a_den = _scaled_pair(2 * k, _unit_scale)
        b, b_den = _scaled_pair(2 * n - 2 * k, rhs_second)
        w_num, w_den = (1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1)) if which == "mixed" else (1, 1)
        add(rhs_terms, 2 * k - 1,
            2 * a * b * w_num, a_den * b_den * w_den * fact[2 * k] * fact[2 * n - 2 * k])
    b, b_den = _scaled_pair(2 * n, rhs_second)
    if which == "mixed":
        tail = b, b_den * fact[2 * n] * 2 ** (2 * n - 1)
    else:
        tail = 2 * b, b_den * fact[2 * n]
    for k in range(1, 2 * n):
        # the beta factor beta(p+k, p+1) = Gamma(p+k) Gamma(p+1) / Gamma(2p+k+1)
        add(rhs_terms, k - 1, *tail)
    return lhs_terms, rhs_terms


class _Layout(NamedTuple):
    """The family layout at one n, shared by the three kinds: per side,
    {factor tuple: GammaProduct} in the side's order; the right side's
    common factor Gamma(2p+2n); and the cofactors at each p met at n,
    keyed by (p numerator, p denominator): each side's vector as (V,
    numerators over V), and the common factor's unreduced integer pair."""

    products: tuple[dict[tuple, GammaProduct], dict[tuple, GammaProduct]]
    common: GammaProduct
    vectors: dict[tuple[int, int], tuple[tuple[int, list[int]], tuple[int, list[int]],
                                         tuple[int, int]]]


def _layout(n: int) -> _Layout:
    """The family layout at n from the per-n slot, built on first use: the
    left products Gamma(p+2k) Gamma(p+2n-2k) for k = 1, ..., n//2, the
    beta factors j = 1, ..., 2n and Gamma(2p+2n), each tuple written in
    GammaProduct's canonical order."""

    def build():
        from .gammaalg import GammaProduct, beta_factor

        lhs = {}
        for k in range(1, n // 2 + 1):
            factors = (("p", n, 2),) if 2 * k == n else (("p", 2 * k, 1), ("p", 2 * n - 2 * k, 1))
            lhs[factors] = GammaProduct(factors)
        rhs = {g.factors: g for g in map(beta_factor, range(1, 2 * n + 1))}
        return _Layout((lhs, rhs), GammaProduct((("2p", 2 * n, 1),)), {})

    return _at_n(n, "family-layout", build)


def _family(which: str, n: int) -> tuple[tuple[tuple[int, list[int]], ...], _Layout]:
    """family_terms(which, n) and the family layout at n, each read from the
    per-n slot on every call, so a replaced entry reaches every reader."""
    return family_terms(which, n), _layout(n)


def _beta_table(p: Fraction, key: tuple[int, int], m: int) -> list[tuple[int, int, int, int]]:
    """The cache's table ``beta[key]`` of p, key = (p numerator, p
    denominator), grown to m entries at least: the one grower of ``beta``.
    Entry j - 1 is gamma_reduce_pair(beta_factor(j), p), exponents and
    unreduced pair."""
    table = sequences._DEFAULT.beta.setdefault(key, [])
    if len(table) < m:
        from .gammaalg import beta_factor, gamma_reduce_pair

        for j in range(len(table) + 1, m + 1):
            table.append(gamma_reduce_pair(beta_factor(j), p))
    return table


def _cofactors(layout: _Layout, p: Fraction, key: tuple[int, int]) -> tuple[
        tuple[int, list[int]], tuple[int, list[int]], tuple[int, int]]:
    """The cofactors of both sides at p, key = (p numerator, p
    denominator): each side's unreduced cofactors over one denominator V,
    as (V, numerators), and the common factor's unreduced integer pair; no
    Fraction is built.  The left products and the common factor are
    reduced here, and the right side reads the beta entries 1, ..., 2n
    from the table ``beta`` of p.  Every left product, and every beta
    factor times the common factor, must reduce to one (Gamma(p),
    Gamma(2p)) exponent pair, else ExponentMismatch."""
    from .gammaalg import gamma_reduce_pair

    lhs, rhs = layout.products
    left = [gamma_reduce_pair(g, p) for g in lhs.values()]
    common_p, common_2p, num, den = gamma_reduce_pair(layout.common, p)
    right = _beta_table(p, key, len(rhs))[:len(rhs)]
    exponents = {(exp_p, exp_2p) for exp_p, exp_2p, _, _ in left}
    exponents.update((exp_p + common_p, exp_2p + common_2p) for exp_p, exp_2p, _, _ in right)
    if len(exponents) != 1:
        raise ExponentMismatch(f"terms reduce to mixed gamma exponents {sorted(exponents)}")
    return (*(_over_lcm([(top, bottom) for _, _, top, bottom in side]) for side in (left, right)),
            (num, den))


def verify_family(which: str, n: int, p: Fraction) -> IdentityReport:
    """One-parameter gamma-weighted family of the quadratic identities.

    Each side is one integer dot product: the scalars of family_terms over
    their denominator S, built once per (which, n), times the side's
    unreduced cofactors at p over their denominator V, over S V; the right
    one is then multiplied by the numerator of its common factor
    Gamma(2p+2n), whose denominator joins S V.  The cofactors are built
    once per (n, p), in the family layout at n, and every kind reads them,
    so the rows at one n reduce each left product and Gamma(2p+2n) once
    per p, in any order, and a row at another n replaces them.  The right
    cofactors are read from the table ``beta`` of p, which every n shares,
    so each beta factor is reduced once per p.  Every product must reduce
    to one (Gamma(p), Gamma(2p)) exponent pair; that is checked when the
    cofactors are built, and a failed build stores none, so every row
    at that (n, p) raises ExponentMismatch.

    The two unreduced sides are compared by cross-multiplication: sides
    that agree are one Fraction, reported as both lhs and rhs with a zero
    residual, and only sides that differ are each reduced and subtracted.
    The reported sides are exact rationals with that common factor
    Gamma(p)**a * Gamma(2p)**b divided out, and (a, b) is (2, 0) for all
    three kinds: the true sides are the reported ones times Gamma(p)**2,
    which is what family_float returns at a float p (family-miki at
    n = 2, p = 1/2 reports 1/256, its float twin pi/256).  ``p`` is
    anything Fraction accepts; anything else raises DomainError.
    """
    ((lhs_s, lhs_scalars), (rhs_s, rhs_scalars)), layout = _family(which, n)
    if not isinstance(p, Fraction):
        p = _rational("verify_family", p)
    key = p.as_integer_ratio()
    vectors = layout.vectors.get(key)
    if vectors is None:
        vectors = layout.vectors[key] = _cofactors(layout, p, key)
    (lhs_v, lhs_cofactors), (rhs_v, rhs_cofactors), (factor, factor_den) = vectors
    top, den = sum(map(mul, lhs_scalars, lhs_cofactors)), lhs_s * lhs_v
    rhs_top = factor * sum(map(mul, rhs_scalars, rhs_cofactors))
    rhs_den = rhs_s * rhs_v * factor_den
    lhs = Fraction(top, den)
    rhs = lhs if top * rhs_den == rhs_top * den else Fraction(rhs_top, rhs_den)
    return _report(f"family-{which}", n, lhs, rhs, p=p)


def _p1_sums(which: str, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Both sides of the reduced p = 1 form, and the shift from the family
    sides at p = 1.  Each sum runs over B_2k B_{2n-2k} products through
    _paired: the mixed left side through k = n-1, every other through n.

    The left sides read the plain products.  A right side's
    C(2n+2, 2k+2) / (n+1) is C(2n, 2k) 2(2n+1) / ((2k+1)(2k+2)), so the
    right sides read the binomial products, and every weight is small:
    Bbar enters through its weight times 4^n, a few powers of two, and
    each Bbar sum is divided by 4^n once."""
    B = bernoulli
    c = 2 * (2 * n + 1)
    if which == "mixed":
        lhs = _paired(n, lambda k: (_bbar_terms(n, k), 1)) / 4 ** n
        rhs = _paired(
            n, lambda k: (((c, 0), (-c, 2 * k - 1)), (2 * k + 1) * (2 * k + 2)),
            through_n=True, binomial=True,
        ) / 2 ** (2 * n - 1) + (2 * n - 1) * B(2 * n) / Fraction(2) ** (2 * n)
        return lhs, rhs, Fraction(0)
    if which == "miki":
        shift = B(2 * n)
        lhs = _paired(n, lambda k: (_ONE, 1), through_n=True)
        rhs = _paired(n, lambda k: (((c, 0),), (2 * k + 1) * (2 * k + 2)),
                      through_n=True, binomial=True)
    else:
        # (2 - 4^k)(2 - 4^(n-k)) = 4 - 2^(2k+1) - 2^(2n-2k+1) + 4^n
        shift = _scaled(2 * n, bbar_scale)
        lhs = _paired(n, lambda k: (((1, 2), (-1, 2 * k + 1), (-1, 2 * n - 2 * k + 1), (1, 2 * n)), 1),
                      through_n=True) / 4 ** n
        rhs = _paired(n, lambda k: (((c, 2 * k + 1), (-c, 2 * n)), (2 * k + 1) * (2 * k + 2)),
                      through_n=True, binomial=True) / 4 ** n
    return lhs, rhs + 2 * n * shift, shift


def verify_p1(which: str, n: int) -> IdentityReport:
    """The p = 1 specializations in their reduced binomial form.

    Each reduced form extends the family's left sum with its k=n term and
    absorbs that term into the right side, so against verify_family at
    p=1 the miki and fpz variants differ by exactly B_2n (resp. Bbar_2n)
    on both sides while the mixed variant coincides; both facts are
    checked where the domains overlap.  That family row is rerun at
    p = 1; when a family row at (n, 1) ran since the last row at another
    n, the rerun reads the reductions it stored in the per-n slot.
    """
    _require_floor(f"p1-{which}", n)
    lhs, rhs, shift = _p1_sums(which, n)
    if n >= _floor(f"family-{which}"):
        family = verify_family(which, n, 1)
        check_routes("the reduced lhs", lhs, "the shifted family lhs", family.lhs + shift)
        check_routes("the reduced rhs", rhs, "the shifted family rhs", family.rhs + shift)
    return _report(f"p1-{which}", n, lhs, rhs)


def _gessel_polynomial_term(n: int) -> Fraction:
    return Fraction(4 * n * n - 6 * n + 5, 4) * bernoulli(2 * n - 2) / (2 * n - 2)


def verify_gessel(n: int) -> IdentityReport:
    """Gessel's triple convolution identity, for n >= 3."""
    _require_floor("gessel", n)
    B = bernoulli
    lhs = multi_lhs(3, n, "plain")
    rhs = (
        factorial(2 * n) * _fold("coth", 3, n)
        + 3 * harmonic(2 * n) * _coth_product(n)
        + 6 * harmonic_second(n) * B(2 * n) / (2 * n)
        - _gessel_polynomial_term(n)
    )
    return _report("gessel", n, lhs, rhs)


def _cubic_form(n: int, scale) -> Fraction:
    """The right-side terms that the modified Gessel form (``scale`` =
    _unit_scale) and the cubic FPZ form (bbar_scale) share: the
    multinomial triple sum, read from the coth folds; the H_2n sum, which
    is the sinh product _sinh_product(n, scale) less its k=n term
    B_2n/(2n^2) (as B_0 = Bbar_0 = 1), times n; and the H_{2n,2} term.

    The triple sum runs over B_2m scale(2m) / (2m)!, which is 2m scale(2m)
    times the coth weight B_2m/(2m (2m)!), the coth memo's entry (1, m):
    _fold_memo holds every (1, m) and (2, n-m) entry the sum reads, each
    term reads them from the memo and carries 2m scale(2m) as an
    unreduced _Ratio, so no B weight or factorial is rebuilt per (n, m)."""

    def weight(m):
        num, den = scale(2 * m)
        return _Ratio(2 * m * num, den)

    memo = _fold_memo("coth", 2, n - 2)
    triple = _dot((memo[2, n - m], memo[1, m], weight(m)) for m in range(1, n - 1))
    return (
        3 * factorial(2 * n - 1) * triple
        + Fraction(3, n) * harmonic(2 * n)
        * (n * _sinh_product(n, scale) - bernoulli(2 * n) / (2 * n))
        + 6 * harmonic_second(n) * _scaled(2 * n, scale) / (2 * n)
    )


def verify_gessel_modified(n: int) -> IdentityReport:
    """The modified Gessel form produced by skipping the integration by parts."""
    _require_floor("gessel-modified", n)
    lhs = multi_lhs(3, n, "plain")
    rhs = _cubic_form(n, _unit_scale) - _gessel_polynomial_term(n)
    return _report("gessel-modified", n, lhs, rhs)


def verify_fpz_cubic(n: int) -> IdentityReport:
    """Cubic analog of the FPZ identity, for n >= 3.

    Beyond the shared cubic terms its right side carries 3/(2n) times the
    difference of the FPZ right sides for B and for Bbar (their k=n terms
    cancel, as B_0 = Bbar_0 = 1).
    """
    _require_floor("fpz-cubic", n)
    lhs = multi_lhs(3, n, "bar")
    rhs = (
        _cubic_form(n, bbar_scale)
        + Fraction(3, 2 * n) * (_fpz_rhs(n, _unit_scale) - _fpz_rhs(n, bbar_scale))
        - Fraction(2 * n - 1, 4) * bernoulli_bar(2 * n - 2)
    )
    return _report("fpz-cubic", n, lhs, rhs)


def verify_multi(N: int, n: int, variant: str = "plain") -> IdentityReport:
    """N-fold convolution sum of B_2k/(2k) (or Bbar) over k_1+...+k_N = n.

    lhs is the direct nested summation; rhs is, independently, the x^(-2n)
    coefficient of the N-th power of the matching asymptotic series (up to
    the sign (-1)^N).  Each route reads its own tables in the cache (the
    fold memo over ``bern``, the series power over the series' B table),
    so neither is rebuilt from scratch per row, and a corrupted B entry
    in either table fails the row.
    """
    identity = "multi" if variant == "plain" else f"multi-{variant}"
    _require(N >= 2, f"convolution fold count must be >= 2, got {N}")
    _require_floor(identity, n)
    _require(n >= N, f"order n must be at least N={N}, got {n}")
    from .series import _power_coeff

    direct = _fold(variant, N, n)
    via_series = (-1) ** N * _power_coeff(variant, N, n)
    return _report(identity, n, direct, via_series, N=N)


def multi_lhs(N: int, n: int, variant: str = "plain") -> Fraction:
    """The nested-fold value of verify_multi, once the series route agrees."""
    report = verify_multi(N, n, variant)
    check_routes("the nested fold", report.lhs, "the series power", report.rhs)
    return report.lhs


def verify_euler_bernoulli(n: int) -> IdentityReport:
    """Euler-number convolution expressed through Bernoulli numbers, n >= 1."""
    _require_floor("euler-bernoulli", n)
    # one euler_number grows the table, and the terms read its list; terms
    # k and n+1-k are equal: twice each k < (n+1)/2, once the middle
    euler_number(2 * n - 2)
    eul = sequences._DEFAULT.eul
    lhs = Fraction(sum(
        (2 if 2 * k < n + 1 else 1) * eul[2 * k - 2] * eul[2 * n - 2 * k]
        for k in range(1, (n + 1) // 2 + 1)
    ))
    # C(2n, 2k) B_2k B_{2n-2k} weighs (4^k - 1) 4^k (1 - 2^(2n-2k-1)) / (kn)
    # = (4^k - 1) 4^k (2 - 4^(n-k)) / (2kn), whose numerator is
    # 2 16^k - (2 + 4^n) 4^k + 4^n
    power = 4 ** n
    rhs = 2 * _shifted(n, 2) - (2 + power) * _shifted(n, 1) + power * _shifted(n, 0)
    return _report("euler-bernoulli", n, lhs, rhs)


def _lemma_closed_form(which: str, order: int) -> dict[int, Fraction]:
    coefficient = {
        "coth-product": _coth_product,
        "coth-harmonic": _coth_harmonic,
        "sinh-product": lambda n: _sinh_product(n, bbar_scale),
        "sinh-harmonic": lambda n: _sinh_harmonic(n, bbar_scale),
    }[which]
    return {2 * n: coefficient(n) for n in range(1, order // 2 + 1)}


def verify_lemma_expansion(which: str, order: int) -> bool:
    """Check one intermediate expansion of a squared generating function.

    Each id names a kernel (coth-* for the plain series, sinh-* for the
    modified one) and a form: the *-product ids state the expansion as the
    transform of twice the kernel times the log-sinh-ratio series, the
    *-harmonic ids state it through harmonic-number coefficients.  Route
    (a) evaluates the stated coefficient formula directly; route (b)
    rebuilds it by exact inner integration followed by the term-wise
    transform.  True iff all coefficients through ``order`` agree.
    """
    if which not in LEMMA_IDS:
        raise UnknownName(f"no lemma expansion {which!r}")
    _require(order >= 4 and order % 2 == 0, f"order must be even and >= 4, got {order}")
    from .series import _lemma_integral

    closed = _lemma_closed_form(which, order)
    integral = _lemma_integral(which, order)
    return all(closed.get(m, 0) == integral.coeff(m) for m in range(order + 1))
