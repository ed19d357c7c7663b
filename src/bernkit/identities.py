"""Exact verifiers for the Bernoulli/Euler convolution identities.

Every verifier evaluates both sides of one identity in exact rational
arithmetic and returns an IdentityReport whose residual is lhs - rhs;
ok means the residual is literally zero, never merely small.

The quadratic identities (Euler, Miki, the modified Miki form, the FPZ
identity and the mixed B/Bbar identity) are plain folded sums.  The
one-parameter families evaluate gamma-weighted versions of the latter
three at any rational p where no gamma factor is singular: both sides are
assembled as (GammaProduct, scalar) pairs, one per distinct factor tuple,
reduced against the Gamma(p) and Gamma(2p) bases, checked for one
exponent pair common to both sides, and compared through their rational
cofactors; the float lane reads the same family_terms.  The cubic
identities are triple convolutions.  Lemma-expansion checks reconstruct the intermediate
asymptotic series of the squared generating functions by two independent
routes.  FLOORS maps every command-line identity id to the smallest n
each verifier accepts.

Every sum over compositions k_1+...+k_parts = n, every k_i >= 1, is
_fold(weight, parts, n) over a weight sequence named in _WEIGHTS: the
multi sums and the Miki and FPZ left sides ("plain", "bar"), and the
cubic right sides' multinomial triple sums, (2n)! times folds of "coth",
B_2k/(2k (2k)!).  The mixed left side pairs B with Bbar through _paired.

The x^(-2n) coefficients of the four lemma expansions (_coth_product,
_coth_harmonic, _sinh_product, _sinh_harmonic) are written once and are
the quadratic right sides: Miki's is the sum of the two coth
coefficients, FPZ's the sum of the two sinh ones, Gessel's reuses the
coth product and the cubic H_2n sum the sinh product.  The lemma check
therefore tests the very code those right sides run.  They read C(2n, 2k)
from one Pascal row, _binomial_row(2n), per call: at n ~ 400, integer
binomials times B products are cheaper than products of coth weights
with factorial denominators.  The cubic forms share _cubic_form.  The
mixed family terms weigh by (1 - 2^(2k-1)) / 2^(2n-1); the mixed and
p = 1 mixed right sides weigh by its numerator and divide the sum by its
common denominator 2^(2n-1) once.

Every quadratic sum over products B_2k B_{2n-2k} times a small weight
w(k) is _paired(n, weight): the Euler left side, the coth and sinh
products, both mixed sides, the Euler-Bernoulli right side and the p = 1
sums.  Bbar_m enters as B_m times its weight bbar_scale(m): a form
shared by B and Bbar takes the weight, bbar_scale or _unit_scale.
Terms k and n-k share one product of numerators of about 1,350 digits at
n ~ 400, so each k < n/2 carries w(k) + w(n-k), an unreduced integer pair, and the
middle k = n/2 of an even n counts once; each sum then does half the big
products.  A sum that runs through k = n takes its unpaired term,
B_2n B_0 w(n), from the same weight.  _fold(weight, 2, n) and the
Euler-number left side pair their equal terms the same way.  Each sum pairs its own terms: no table of
products per n is shared between verifiers, so the two sides of Miki's
identity stay independent routes.

Every exact sum of this layer is _dot: each fold step, the quadratic,
p = 1 and cubic sums, and the cofactor sum of each family side.  It
multiplies each term's factors as integer numerators and denominators
and reduces the total once over one lcm, where a Fraction sum normalises
through gcd after every multiply and add (at n ~ 400 the B numerators
have about 1,350 digits).  A sum of more than _MERGE_ABOVE = 64 terms
first adds neighbours pairwise, over the product of their denominators
divided by their gcd, until at most 64 partial sums remain: the lcm of
all denominators of a deep sum has about 455 digits, and bringing some
200 numerators over it costs more than the merges.  The paired B.B sums
and the two-part folds take that path from n = 128 or 130.  series and
floatcheck keep their own arithmetic: the series power and the float
twin are the second routes of these sums, so they share no summation
code with them.

Work that does not depend on the row is done once per process, in
tables of the process-wide ``sequences._DEFAULT`` cache, looked up at
call time so an injected cache replaces them too:

* ``fold[weight]`` maps (parts, total) to _fold(weight, parts, total).
* ``power[variant, N]`` lists the x^(-m) coefficients of the N-th power
  of psi_tilde (plain) or psi_bar (bar), indexed by m.  The fold and the
  series power keep separate tables, so the two routes of verify_multi
  stay independent, and multi_lhs still compares them on every row.
* ``family[which, n]`` holds family_terms(which, n): the (lhs, rhs)
  tuples of one (GammaProduct, Fraction scalar) pair per distinct factor
  tuple, the product holding the canonical gamma factors and the scalar
  the sum of the exact rational coefficients of the summands with that
  tuple.  The left terms k and n-k share a tuple, and so do the beta
  term at an even k' and the right term at k'/2.  Each summand writes
  its tuple in canonical order and adds its scalar as an integer pair,
  so one product and one Fraction are built per distinct tuple, not per
  summand.  The exact family rows and the float twin both read this
  table.

The one slot that is not append-only, ``reduced``, is the pair ((n,
p.numerator, p.denominator), {factor tuple: ReducedGamma}) of the latest
family point (n, p): the gamma_reduce result of each distinct factor
tuple at n.  The three kinds at n have the same factor tuples and differ
in their scalars, and no tuple at n occurs at another n, so the slot is
replaced in one assignment, not grown, when a row at another (n, p)
comes, and its memory stays that of one row.  A row adds scalar x
cofactor per tuple, and a scan ordered by (n, p), as ``cli verify`` runs
it, reduces each product once per (n, p) for every kind and for
verify_p1's rerun at p = 1.  gamma_reduce alone fills the slot and alone
reads the rising tables for the families; a rising entry poisoned after
the products that read it were stored no longer reaches the rows of that
(n, p).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from . import sequences
from .errors import DomainError, ExponentMismatch, UnknownName, check_routes
from .gammaalg import GammaProduct, ReducedGamma, gamma_reduce
from .sequences import (
    bbar_scale,
    bernoulli,
    bernoulli_bar,
    euler_number,
    harmonic,
    harmonic_second,
)
from .series import (
    ASYMPTOTIC,
    TAYLOR,
    TruncatedSeries,
    _scale,
    laplace_asymptotic,
    named_series,
    series_add,
    series_mul,
    series_pow,
)

__all__ = [
    "FLOORS",
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

# smallest n each identity is stated for
FLOORS = {
    "euler": 2,
    "miki": 2,
    "miki-modified": 2,
    "fpz": 2,
    "mixed": 2,
    "family-miki": 2,
    "family-fpz": 2,
    "family-mixed": 2,
    "p1-miki": 2,
    "p1-fpz": 1,
    "p1-mixed": 1,
    "gessel": 3,
    "gessel-modified": 3,
    "fpz-cubic": 3,
    "euler-bernoulli": 1,
    "multi": 2,
    "multi-bar": 2,
}


class IdentityReport:
    """Exact evaluation of one identity at one parameter point."""

    __slots__ = ("identity", "n", "lhs", "rhs", "residual", "ok", "p", "N")

    def __init__(
        self,
        identity: str,
        n: int,
        lhs: Fraction,
        rhs: Fraction,
        residual: Fraction,
        ok: bool,
        p: Fraction | None = None,
        N: int | None = None,
    ) -> None:
        self.identity = identity
        self.n = n
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self.ok = ok
        self.p = p
        self.N = N


def _report(
    identity: str,
    n: int,
    lhs: Fraction,
    rhs: Fraction,
    p: Fraction | None = None,
    N: int | None = None,
) -> IdentityReport:
    residual = lhs - rhs
    return IdentityReport(identity, n, lhs, rhs, residual, residual == 0, p, N)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _require_floor(identity: str, n: int) -> None:
    floor = FLOORS[identity]
    _require(n >= floor, f"{identity} identity needs n >= {floor}, got {n}")


# _dot adds neighbouring partial sums pairwise while more than this many
# remain.  The one-lcm sum is as fast as the merges at 30 terms (the B.B
# sums at n = 60) and slower from 50 (n = 100) on, but merging all the way
# down slowed the short family and cubic sums by 13-20%, so these, at most
# 60 and 48 terms, keep the one-lcm sum.
_MERGE_ABOVE = 64


def _dot(terms) -> Fraction:
    """Exact sum of the products of each term's int, Fraction or _Ratio factors.

    Each product is multiplied out as an integer numerator and denominator.
    While more than _MERGE_ABOVE partial sums remain, neighbours are added
    in place, (a, b) + (c, d) = (a (d/g) + c (b/g), (b/g) d) for g =
    gcd(b, d), and an odd count carries its last one to the next round:
    the multipliers stay about the size of one denominator, where the lcm
    of a long sum's denominators runs to hundreds of digits (binary
    splitting, Haible and Papanikolaou 1998).  The rest are brought over
    one lcm of their denominators, and the total is reduced once, not
    after every multiply and add.
    """
    parts = []
    for factors in terms:
        num = den = 1
        for factor in factors:
            num *= factor.numerator
            den *= factor.denominator
        parts.append((num, den))
    while len(parts) > _MERGE_ABOVE:
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
    common = lcm(*(den for _, den in parts))
    return Fraction(sum(num * (common // den) for num, den in parts), common)


class _Ratio:
    """An integer ratio that need not be in lowest terms, a factor that
    _dot reads as it reads a Fraction."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator = numerator
        self.denominator = denominator


def _paired(n: int, weight, through_n: bool = False) -> Fraction:
    """Sum of B_2k B_{2n-2k} w(k) over 1 <= k <= n-1, or over 1 <= k <= n
    if ``through_n``, for w(k) = weight(k) an integer (numerator,
    denominator) pair.

    Terms k and n-k share the product B_2k B_{2n-2k}, so one _dot runs over
    k <= n/2: each k < n/2 carries w(k) + w(n-k), added over the product of
    the two denominators without a gcd, and the middle term k = n/2 of an
    even n counts once.  The k = n term, B_2n B_0 w(n), has no partner.
    """
    def terms():
        for k in range(1, n // 2 + 1):
            num, den = weight(k)
            if 2 * k < n:
                other, other_den = weight(n - k)
                num, den = num * other_den + other * den, den * other_den
            yield bernoulli(2 * k), bernoulli(2 * n - 2 * k), _Ratio(num, den)
        if through_n:
            yield bernoulli(2 * n), bernoulli(0), _Ratio(*weight(n))

    return _dot(terms())


def _unit_scale(m: int) -> tuple[int, int]:
    """The weight of B_m in the B forms, 1, as the pair bbar_scale gives Bbar's."""
    return 1, 1


def _scaled_pair(m: int, scale) -> tuple[int, int]:
    """B_m times its weight scale(m) as an unreduced integer pair: B_m for
    _unit_scale, Bbar_m for bbar_scale."""
    b, (num, den) = bernoulli(m), scale(m)
    return b.numerator * num, b.denominator * den


def _scaled(m: int, scale) -> Fraction:
    """B_m times its weight scale(m), reduced."""
    return Fraction(*_scaled_pair(m, scale))


def _binomial_row(m: int) -> list[int]:
    """The Pascal row C(m, 0), ..., C(m, m), by C(m, j+1) = C(m, j) (m-j)/(j+1)."""
    row = [1]
    for j in range(m):
        row.append(row[-1] * (m - j) // (j + 1))
    return row


# the weight sequences w(k), k >= 1, of the composition sums; "coth" is the
# x^(2k) coefficient of log(sinh x / x) divided by 4^k
_WEIGHTS = {
    "plain": lambda k: bernoulli(2 * k) / Fraction(2 * k),
    "bar": lambda k: bernoulli_bar(2 * k) / Fraction(2 * k),
    "coth": lambda k: bernoulli(2 * k) / Fraction(2 * k * factorial(2 * k)),
}


def _fold(weight: str, parts: int, total: int) -> Fraction:
    """Sum of the products w(k_1)...w(k_parts) over k_1+...+k_parts = total,
    every k_i >= 1, for w = _WEIGHTS[weight], by nested summation through
    the cache's memo ``fold[weight]``."""
    memo = sequences._DEFAULT.fold.setdefault(weight, {})
    if (parts, total) not in memo:
        if parts == 1:
            acc = _WEIGHTS[weight](total)
        elif parts == 2:
            # terms k and total-k are equal: twice each k < total/2, once the middle
            acc = _dot(
                (2 if 2 * k < total else 1, _fold(weight, 1, k), _fold(weight, 1, total - k))
                for k in range(1, total // 2 + 1)
            )
        else:
            # fill the smaller folds this one reaches in rising order of
            # parts, so the recursion below stays a few frames deep for any
            # parts instead of one level per part
            for q in range(3, parts):
                _fold(weight, q, total - parts + q)
            acc = _dot(
                (_fold(weight, 1, k), _fold(weight, parts - 1, total - k))
                for k in range(1, total - parts + 2)
            )
        memo[parts, total] = acc
    return memo[parts, total]


def verify_euler(n: int) -> IdentityReport:
    """sum C(2n,2k) B_2k B_{2n-2k} = -(2n+1) B_2n, for n >= 2."""
    _require_floor("euler", n)
    row = _binomial_row(2 * n)
    lhs = _paired(n, lambda k: (row[2 * k], 1))
    rhs = -(2 * n + 1) * bernoulli(2 * n)
    return _report("euler", n, lhs, rhs)


def _coth_product(n: int) -> Fraction:
    """x^(-2n) coefficient of the coth-product lemma expansion."""
    row = _binomial_row(2 * n)
    return _paired(n, lambda k: (row[2 * k], 2 * k * (2 * n - 2 * k)))


def _coth_harmonic(n: int) -> Fraction:
    """x^(-2n) coefficient of the coth-harmonic lemma expansion."""
    return bernoulli(2 * n) * harmonic(2 * n) / n


def _sinh_product(n: int, scale) -> Fraction:
    """x^(-2n) coefficient of the sinh-product lemma expansion for
    ``scale`` = bbar_scale; _unit_scale gives Miki's k=n form."""
    row = _binomial_row(2 * n)

    def weight(k):
        num, den = scale(2 * n - 2 * k)
        return row[2 * k] * num, 2 * k * n * den

    return _paired(n, weight, through_n=True)


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
    B, row = bernoulli, _binomial_row(2 * n)

    def lhs_weight(k):
        num, den = bbar_scale(2 * n - 2 * k)
        return num, den * 2 * k * (2 * n - 2 * k)

    # the rhs weights (1 - 2^(2k-1)) / 2^(2n-1) share their denominator
    lhs = _paired(n, lhs_weight)
    rhs = _paired(
        n, lambda k: (row[2 * k] * (1 - 2 ** (2 * k - 1)), 2 * k * n), through_n=True
    ) / 2 ** (2 * n - 1) + B(2 * n) * harmonic(2 * n - 1) / (n * Fraction(2) ** (2 * n))
    return _report("mixed", n, lhs, rhs)


def _reductions(n: int, p: Fraction) -> dict[tuple, ReducedGamma]:
    """The cache's ``reduced`` slot for the family rows at (n, p).

    Every family factor tuple at n carries Gamma(2p+2n) or a pair summing
    to 2n, so only rows at the same (n, p) read a reduction again; the
    slot keeps one (n, p) and starts empty when a row at another arrives.
    """
    cache = sequences._DEFAULT
    key = (n, p.numerator, p.denominator)
    slot = cache.reduced
    if slot[0] != key:
        slot = cache.reduced = (key, {})
    return slot[1]


def _reduce_side(
    side: tuple[tuple[GammaProduct, Fraction], ...],
    p: Fraction,
    table: dict[tuple, ReducedGamma],
    exponents: set[tuple[int, int]],
) -> Fraction:
    """Cofactor sum of one family side at p.

    Each product is reduced by gamma_reduce into ``table`` unless a row at
    the same (n, p) stored it; the side adds its scalar times that
    cofactor, and adds the product's (Gamma(p), Gamma(2p)) exponent pair
    to ``exponents``, which verify_family checks once for both sides.
    """
    pairs = []
    for product, scalar in side:
        reduced = table.get(product.factors)
        if reduced is None:
            reduced = table[product.factors] = gamma_reduce(product, p)
        exponents.add((reduced.exp_gamma_p, reduced.exp_gamma_2p))
        pairs.append((scalar, reduced.value))
    return _dot(pairs)


def family_terms(which: str, n: int) -> tuple[tuple[tuple[GammaProduct, Fraction], ...], ...]:
    """(lhs, rhs) terms of one gamma-weighted family, symbolic in p: one
    (GammaProduct, scalar) pair per distinct factor tuple, in order of first
    occurrence, built once per (which, n).

    which selects the plain (miki), Bbar (fpz) or mixed variant.  Each
    summand's factor tuple is written in GammaProduct's canonical order
    ("2p" before "p", offsets ascending, equal factors merged): a k = n/2
    left term carries ("p", n, 2), the k = 1 tail term ("p", 1, 2), and
    at k = 2n-1 the tail's Gamma(2p+2n) / Gamma(2p+k+1) cancels.  Each
    summand's scalar is an unreduced integer pair, added to the pair of
    its tuple; one GammaProduct and one Fraction are built per distinct
    tuple at the end: at n = 30 the 29 + 89 summands leave 15 + 60 pairs.
    """
    if which not in FAMILY_KINDS:
        raise UnknownName(f"no family {which!r}")
    _require_floor(f"family-{which}", n)
    table = sequences._DEFAULT.family
    if (which, n) in table:
        return table[which, n]
    # B and Bbar enter as unreduced integer pairs, B_m times its weight
    lhs_first = bbar_scale if which == "fpz" else _unit_scale
    lhs_second = _unit_scale if which == "miki" else bbar_scale
    rhs_second = bbar_scale if which == "fpz" else _unit_scale
    fact = [1]
    for j in range(1, 2 * n + 1):
        fact.append(fact[-1] * j)
    lhs_terms: dict[tuple, tuple[int, int]] = {}
    rhs_terms: dict[tuple, tuple[int, int]] = {}

    def add(terms, factors, num, den):
        if factors in terms:
            other, other_den = terms[factors]
            num, den = num * other_den + other * den, den * other_den
        terms[factors] = num, den

    for k in range(1, n):
        # first(2k) second(2n-2k) / (2k (2n-2k) (2k-1)! (2n-2k-1)!), whose
        # denominator is (2k)! (2n-2k)!
        a, a_den = _scaled_pair(2 * k, lhs_first)
        b, b_den = _scaled_pair(2 * n - 2 * k, lhs_second)
        low, high = sorted((2 * k, 2 * n - 2 * k))
        factors = (("p", low, 2),) if low == high else (("p", low, 1), ("p", high, 1))
        add(lhs_terms, factors, a * b, a_den * b_den * fact[2 * k] * fact[2 * n - 2 * k])
    for k in range(1, n + 1):
        # 2 B_2k second(2n-2k) w_k / ((2k)! (2n-2k)!), with the mixed
        # weight w_k = (1 - 2^(2k-1)) / 2^(2n-1), else 1, times
        # Gamma(p+1) Gamma(p+2k) Gamma(2p+2n) / Gamma(2p+2k+1)
        a, a_den = _scaled_pair(2 * k, _unit_scale)
        b, b_den = _scaled_pair(2 * n - 2 * k, rhs_second)
        w_num, w_den = (1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1)) if which == "mixed" else (1, 1)
        if k < n:
            gamma_2p = (("2p", 2 * k + 1, -1), ("2p", 2 * n, 1))
        else:
            gamma_2p = (("2p", 2 * n, 1), ("2p", 2 * n + 1, -1))
        add(rhs_terms, gamma_2p + (("p", 1, 1), ("p", 2 * k, 1)),
            2 * a * b * w_num, a_den * b_den * w_den * fact[2 * k] * fact[2 * n - 2 * k])
    b, b_den = _scaled_pair(2 * n, rhs_second)
    if which == "mixed":
        tail = b, b_den * fact[2 * n] * 2 ** (2 * n - 1)
    else:
        tail = 2 * b, b_den * fact[2 * n]
    for k in range(1, 2 * n):
        # the beta factor beta(p+k, p+1) = Gamma(p+k) Gamma(p+1) / Gamma(2p+k+1)
        # of gammaalg.beta_factor, times Gamma(2p+2n)
        gamma_2p = (("2p", k + 1, -1), ("2p", 2 * n, 1)) if k < 2 * n - 1 else ()
        gamma_p = (("p", 1, 2),) if k == 1 else (("p", 1, 1), ("p", k, 1))
        add(rhs_terms, gamma_2p + gamma_p, *tail)
    table[which, n] = terms = tuple(
        tuple((GammaProduct(factors), Fraction(num, den)) for factors, (num, den) in side.items())
        for side in (lhs_terms, rhs_terms)
    )
    return terms


def verify_family(which: str, n: int, p: Fraction) -> IdentityReport:
    """One-parameter gamma-weighted family of the quadratic identities.

    Both sides of family_terms are reduced at the rational point p, through
    the cache's ``reduced`` slot for (n, p); every product of either side
    must reduce to one (Gamma(p), Gamma(2p)) exponent pair, checked once
    per row, and the sides are compared through their rational cofactors.
    """
    lhs_side, rhs_side = family_terms(which, n)
    p = Fraction(p)
    table, exponents = _reductions(n, p), set()
    lhs = _reduce_side(lhs_side, p, table, exponents)
    rhs = _reduce_side(rhs_side, p, table, exponents)
    if len(exponents) != 1:
        raise ExponentMismatch(f"terms reduce to mixed gamma exponents {sorted(exponents)}")
    return _report(f"family-{which}", n, lhs, rhs, p=p)


def _p1_sums(which: str, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Both sides of the reduced p = 1 form, and the shift from the family
    sides at p = 1.  Each sum runs over B_2k B_{2n-2k} products through
    _paired: the mixed left side through k = n-1, every other through n."""
    B = bernoulli
    row = _binomial_row(2 * n + 2)
    if which != "mixed":
        scale = _unit_scale if which == "miki" else bbar_scale
        shift = _scaled(2 * n, scale)

        def square(k):
            a, b = scale(2 * k)
            c, d = scale(2 * n - 2 * k)
            return a * c, b * d

        def rhs_weight(k):
            num, den = scale(2 * n - 2 * k)
            return row[2 * k + 2] * num, (n + 1) * den

        lhs = _paired(n, square, through_n=True)
        rhs = _paired(n, rhs_weight, through_n=True) + 2 * n * shift
        return lhs, rhs, shift
    lhs = _paired(n, lambda k: bbar_scale(2 * n - 2 * k))
    rhs = _paired(
        n, lambda k: (row[2 * k + 2] * (1 - 2 ** (2 * k - 1)), n + 1), through_n=True
    ) / 2 ** (2 * n - 1) + (2 * n - 1) * B(2 * n) / Fraction(2) ** (2 * n)
    return lhs, rhs, Fraction(0)


def verify_p1(which: str, n: int) -> IdentityReport:
    """The p = 1 specializations in their reduced binomial form.

    Each reduced form extends the family's left sum with its k=n term and
    absorbs that term into the right side, so against verify_family at
    p=1 the miki and fpz variants differ by exactly B_2n (resp. Bbar_2n)
    on both sides while the mixed variant coincides; both facts are
    checked where the domains overlap.  Run right after the family rows at
    (n, 1), its family row reads the reductions they stored.
    """
    if which not in FAMILY_KINDS:
        raise UnknownName(f"no family {which!r}")
    _require_floor(f"p1-{which}", n)
    lhs, rhs, shift = _p1_sums(which, n)
    if n >= FLOORS[f"family-{which}"]:
        family = verify_family(which, n, Fraction(1))
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


def _cubic_form(n: int, scale, sinh: Fraction) -> Fraction:
    """The right-side terms that the modified Gessel form (``scale`` =
    _unit_scale) and the cubic FPZ form (bbar_scale) share: the
    multinomial triple sum, read from the coth fold; the H_2n sum, which
    is the sinh product ``sinh`` = _sinh_product(n, scale) less its k=n
    term B_2n/(2n^2) (as B_0 = Bbar_0 = 1), times n; and the H_{2n,2}
    term.  The caller passes ``sinh`` in, as the cubic FPZ form needs it
    once more."""
    triple = _dot(
        (_fold("coth", 2, n - m), _scaled(2 * m, scale), Fraction(1, factorial(2 * m)))
        for m in range(1, n - 1)
    )
    return (
        3 * factorial(2 * n - 1) * triple
        + Fraction(3, n) * harmonic(2 * n)
        * (n * sinh - bernoulli(2 * n) / (2 * n))
        + 6 * harmonic_second(n) * _scaled(2 * n, scale) / (2 * n)
    )


def verify_gessel_modified(n: int) -> IdentityReport:
    """The modified Gessel form produced by skipping the integration by parts."""
    _require_floor("gessel-modified", n)
    lhs = multi_lhs(3, n, "plain")
    rhs = _cubic_form(n, _unit_scale, _sinh_product(n, _unit_scale)) - _gessel_polynomial_term(n)
    return _report("gessel-modified", n, lhs, rhs)


def verify_fpz_cubic(n: int) -> IdentityReport:
    """Cubic analog of the FPZ identity, for n >= 3.

    Beyond the shared cubic terms its right side carries 3/(2n) times the
    difference of the FPZ right sides for B and for Bbar (their k=n terms
    cancel, as B_0 = Bbar_0 = 1).
    """
    _require_floor("fpz-cubic", n)
    lhs = multi_lhs(3, n, "bar")
    sinh_bar = _sinh_product(n, bbar_scale)
    fpz_bar = sinh_bar + _sinh_harmonic(n, bbar_scale)
    rhs = (
        _cubic_form(n, bbar_scale, sinh_bar)
        + Fraction(3, 2 * n) * (_fpz_rhs(n, _unit_scale) - fpz_bar)
        - Fraction(2 * n - 1, 4) * bernoulli_bar(2 * n - 2)
    )
    return _report("fpz-cubic", n, lhs, rhs)


def _block_end(order: int) -> int:
    """Growth rule of the ``power`` table: the least power of two >= order,
    so a table that grows by small steps rebuilds its power O(log) times."""
    return 1 << (order - 1).bit_length()


def _power_coeff(variant: str, N: int, order: int) -> Fraction:
    """x^(-order) coefficient of the N-th power of psi_tilde (plain) or
    psi_bar (bar), from the cache's append-only ``power`` table.

    The first build is at ``order`` itself; a later, higher order rebuilds
    the power at the end of its growth block and appends only the new
    coefficients, through the truncation order the power vouches for.
    """
    table = sequences._DEFAULT.power.setdefault((variant, N), [])
    if order >= len(table):
        build = _block_end(order) if table else order
        base = named_series("psi_tilde" if variant == "plain" else "psi_bar", build)
        power = series_pow(base, N)
        table.extend(power.coeff(m) for m in range(len(table), power.trunc + 1))
    return table[order]


def verify_multi(N: int, n: int, variant: str = "plain") -> IdentityReport:
    """N-fold convolution sum of B_2k/(2k) (or Bbar) over k_1+...+k_N = n.

    lhs is the direct nested summation; rhs is, independently, the x^(-2n)
    coefficient of the N-th power of the matching asymptotic series (up to
    the sign (-1)^N).  Each route reads its own table in the cache (fold
    memo, series power), so neither is rebuilt from scratch per row.
    """
    if variant not in ("plain", "bar"):
        raise UnknownName(f"no variant {variant!r}")
    identity = "multi" if variant == "plain" else "multi-bar"
    _require(N >= 2, f"convolution fold count must be >= 2, got {N}")
    _require_floor(identity, n)
    _require(n >= N, f"order n must be at least N={N}, got {n}")
    direct = _fold(variant, N, n)
    via_series = (-1) ** N * _power_coeff(variant, N, 2 * n)
    return _report(identity, n, direct, via_series, N=N)


def multi_lhs(N: int, n: int, variant: str = "plain") -> Fraction:
    """The nested-fold value of verify_multi, once the series route agrees."""
    report = verify_multi(N, n, variant)
    check_routes("the nested fold", report.lhs, "the series power", report.rhs)
    return report.lhs


def verify_euler_bernoulli(n: int) -> IdentityReport:
    """Euler-number convolution expressed through Bernoulli numbers, n >= 1."""
    _require_floor("euler-bernoulli", n)
    E = euler_number
    # terms k and n+1-k are equal: twice each k < (n+1)/2, once the middle
    lhs = Fraction(sum(
        (2 if 2 * k < n + 1 else 1) * E(2 * k - 2) * E(2 * n - 2 * k)
        for k in range(1, (n + 1) // 2 + 1)
    ))
    row = _binomial_row(2 * n)
    # 1 - 2^(2n-2k-1) = (2 - 2^(2n-2k)) / 2
    rhs = _paired(
        n, lambda k: ((4 ** k - 1) * 4 ** k * row[2 * k] * (2 - 4 ** (n - k)), 2 * k * n),
        through_n=True,
    )
    return _report("euler-bernoulli", n, lhs, rhs)


def _lemma_closed_form(which: str, order: int) -> TruncatedSeries:
    coefficient = {
        "coth-product": _coth_product,
        "coth-harmonic": _coth_harmonic,
        "sinh-product": lambda n: _sinh_product(n, bbar_scale),
        "sinh-harmonic": lambda n: _sinh_harmonic(n, bbar_scale),
    }[which]
    coeffs = {2 * n: coefficient(n) for n in range(1, order // 2 + 1)}
    return TruncatedSeries(ASYMPTOTIC, coeffs, order)


def _lemma_integral(which: str, order: int) -> TruncatedSeries:
    if which == "coth-product":
        coth = named_series("coth_minus_inv", order)
        log_ratio = named_series("log_sinh_ratio", order)
        return laplace_asymptotic(_scale(series_mul(coth, log_ratio), Fraction(2)))
    if which == "sinh-product":
        inv_sinh = named_series("inv_sinh_minus_inv", order)
        full = series_add(inv_sinh, TruncatedSeries(TAYLOR, {-1: Fraction(1)}, order))
        log_ratio = named_series("log_sinh_ratio", order)
        return laplace_asymptotic(_scale(series_mul(full, log_ratio), Fraction(2)))
    # The harmonic-number lemmas: the inner integral of the bracketed
    # difference quotient turns each y^(2m-1) term into -H_2m (plain case,
    # bracket carries an extra u) or -H_{2m-1} (Bbar case, u-free bracket).
    name = "coth_minus_inv" if which == "coth-harmonic" else "inv_sinh_minus_inv"
    source = named_series(name, order - 1)
    offset = 1 if which == "coth-harmonic" else 0
    coeffs = {m: 2 * c * harmonic(m + offset) for m, c in source.coeffs.items()}
    return laplace_asymptotic(TruncatedSeries(TAYLOR, coeffs, order - 1))


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
    closed = _lemma_closed_form(which, order)
    integral = _lemma_integral(which, order)
    return all(closed.coeff(m) == integral.coeff(m) for m in range(order + 1))
