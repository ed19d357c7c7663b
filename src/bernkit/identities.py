"""Exact verifiers for the Bernoulli/Euler convolution identities.

Every verifier evaluates both sides of one identity in exact rational
arithmetic and returns an IdentityReport whose residual is lhs - rhs;
ok means the residual is literally zero, never merely small.

The quadratic identities (Euler, Miki, the modified Miki form, the FPZ
identity and the mixed B/Bbar identity) are plain folded sums.  The
one-parameter families evaluate gamma-weighted versions of the latter
three at any rational p where no gamma factor is singular: both sides are
assembled term by term as GammaProducts, reduced against the Gamma(p) and
Gamma(2p) bases, checked for a common exponent pair, and compared through
their rational cofactors; family_terms builds those terms for the float
lane too.  The cubic identities are triple convolutions.  Lemma-expansion
checks reconstruct the intermediate asymptotic series of the squared
generating functions by two independent routes.  FLOORS maps every
command-line identity id to the smallest n each verifier accepts.

The x^(-2n) coefficients of the four lemma expansions (_coth_product,
_coth_harmonic, _sinh_product, _sinh_harmonic) are written once and are
the quadratic right sides: Miki's is the sum of the two coth
coefficients, FPZ's the sum of the two sinh ones, and Gessel's reuses the
coth product.  The lemma check therefore tests the very code those right
sides run.  The cubic forms share _cubic_form, the B/Bbar mixed forms
share _mixed_weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError, ExponentMismatch, UnknownName, check_routes
from .gammaalg import GammaProduct, beta_factor, gamma_reduce
from .sequences import (
    Rational,
    bernoulli,
    bernoulli_bar,
    binomial,
    euler_number,
    harmonic,
    harmonic_second,
    multinomial,
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


@dataclass(frozen=True)
class IdentityReport:
    """Exact evaluation of one identity at one parameter point."""

    identity: str
    n: int
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    ok: bool
    p: Fraction | None = None
    N: int | None = None

    def as_dict(self) -> dict:
        row: dict = {"identity": self.identity, "n": self.n}
        if self.p is not None:
            row["p"] = str(self.p)
        if self.N is not None:
            row["N"] = self.N
        row["lhs"] = str(self.lhs)
        row["rhs"] = str(self.rhs)
        row["residual"] = str(self.residual)
        row["ok"] = self.ok
        return row


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


def verify_euler(n: int) -> IdentityReport:
    """sum C(2n,2k) B_2k B_{2n-2k} = -(2n+1) B_2n, for n >= 2."""
    _require_floor("euler", n)
    lhs = sum(
        (
            binomial(2 * n, 2 * k) * bernoulli(2 * k) * bernoulli(2 * n - 2 * k)
            for k in range(1, n)
        ),
        Fraction(0),
    )
    rhs = -(2 * n + 1) * bernoulli(2 * n)
    return _report("euler", n, lhs, rhs)


def _quadratic_lhs(n: int, first, second) -> Fraction:
    return sum(
        (
            first(2 * k) * second(2 * n - 2 * k) / Fraction(2 * k) / (2 * n - 2 * k)
            for k in range(1, n)
        ),
        Fraction(0),
    )


def _coth_product(n: int) -> Fraction:
    """x^(-2n) coefficient of the coth-product lemma expansion."""
    B = bernoulli
    return sum(
        (
            B(2 * k) * B(2 * n - 2 * k) / Fraction(2 * k) / (2 * n - 2 * k) * binomial(2 * n, 2 * k)
            for k in range(1, n)
        ),
        Fraction(0),
    )


def _coth_harmonic(n: int) -> Fraction:
    """x^(-2n) coefficient of the coth-harmonic lemma expansion."""
    return bernoulli(2 * n) * harmonic(2 * n) / n


def _sinh_product(n: int, value) -> Fraction:
    """x^(-2n) coefficient of the sinh-product lemma expansion for
    ``value`` = bernoulli_bar; bernoulli gives Miki's k=n form."""
    return (
        sum(
            (
                bernoulli(2 * k) * value(2 * n - 2 * k) / Fraction(2 * k) * binomial(2 * n, 2 * k)
                for k in range(1, n + 1)
            ),
            Fraction(0),
        )
        / n
    )


def _sinh_harmonic(n: int, value) -> Fraction:
    """x^(-2n) coefficient of the sinh-harmonic lemma expansion for
    ``value`` = bernoulli_bar."""
    return value(2 * n) * harmonic(2 * n - 1) / n


def _fpz_rhs(n: int, value) -> Fraction:
    """Right side of the FPZ-shaped identity for the sequence ``value``:
    FPZ itself for bernoulli_bar, Miki's k=n form for bernoulli."""
    return _sinh_product(n, value) + _sinh_harmonic(n, value)


def _miki_rhs(n: int) -> Fraction:
    """Right side of Miki's identity in the form with the full H_2n."""
    return _coth_product(n) + _coth_harmonic(n)


def verify_miki(n: int) -> IdentityReport:
    """Miki's identity, the form with the full harmonic number H_2n."""
    _require_floor("miki", n)
    B = bernoulli
    return _report("miki", n, _quadratic_lhs(n, B, B), _miki_rhs(n))


def verify_miki_modified(n: int) -> IdentityReport:
    """Miki's identity rewritten with a k=n term and H_{2n-1}.

    The rewritten right side must equal the H_2n form exactly (the k=n
    term and the harmonic shift 1/(2n) trade off), so the two are
    cross-checked before reporting.
    """
    _require_floor("miki-modified", n)
    B = bernoulli
    rhs = _fpz_rhs(n, B)
    check_routes("the k=n form", rhs, "the H_2n form", _miki_rhs(n))
    return _report("miki-modified", n, _quadratic_lhs(n, B, B), rhs)


def verify_fpz(n: int) -> IdentityReport:
    """The Faber-Pandharipande-Zagier identity for the Bbar numbers."""
    _require_floor("fpz", n)
    Bb = bernoulli_bar
    return _report("fpz", n, _quadratic_lhs(n, Bb, Bb), _fpz_rhs(n, Bb))


def _mixed_weight(k: int, n: int) -> Fraction:
    """(1 - 2^(2k-1)) / 2^(2n-1), the doubling weight of the B/Bbar forms."""
    return Fraction(1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1))


def verify_mixed(n: int) -> IdentityReport:
    """The mixed identity convolving B with Bbar via the doubling relation."""
    _require_floor("mixed", n)
    B = bernoulli
    lhs = _quadratic_lhs(n, B, bernoulli_bar)
    rhs = (
        sum(
            (
                B(2 * k) * B(2 * n - 2 * k) / Fraction(2 * k)
                * binomial(2 * n, 2 * k) * _mixed_weight(k, n)
                for k in range(1, n + 1)
            ),
            Fraction(0),
        )
        / n
        + B(2 * n) * harmonic(2 * n - 1) / (n * Fraction(2) ** (2 * n))
    )
    return _report("mixed", n, lhs, rhs)


def _reduce_side(terms: list[GammaProduct], p: Fraction) -> tuple[tuple[int, int], Fraction]:
    reduced = [gamma_reduce(term, p) for term in terms]
    exponents = {(r.exp_gamma_p, r.exp_gamma_2p) for r in reduced}
    if len(exponents) != 1:
        raise ExponentMismatch(f"terms reduce to mixed gamma exponents {sorted(exponents)}")
    return exponents.pop(), sum((r.value for r in reduced), Fraction(0))


def family_terms(which: str, n: int) -> tuple[list[GammaProduct], list[GammaProduct]]:
    """Terms of both sides of one gamma-weighted family, symbolic in p.

    which selects the plain (miki), Bbar (fpz) or mixed variant.  Each
    term is a GammaProduct: an exact rational coefficient times Gamma(p+m)
    and Gamma(2p+m) factors in canonical form, so equal factors are merged
    (a k=n/2 left term carries Gamma(p+n)**2, the k=1 tail term
    Gamma(p+1)**2).  Returns (lhs terms, rhs terms).
    """
    if which not in FAMILY_KINDS:
        raise UnknownName(f"no family {which!r}")
    _require_floor(f"family-{which}", n)
    B, Bb = bernoulli, bernoulli_bar
    lhs_first = Bb if which == "fpz" else B
    lhs_second = B if which == "miki" else Bb

    lhs_terms = []
    for k in range(1, n):
        rat = (
            lhs_first(2 * k)
            * lhs_second(2 * n - 2 * k)
            / Fraction(2 * k)
            / (2 * n - 2 * k)
            / factorial(2 * k - 1)
            / factorial(2 * n - 2 * k - 1)
        )
        lhs_terms.append(GammaProduct((("p", 2 * k, 1), ("p", 2 * n - 2 * k, 1)), rat))

    rhs_terms = []
    for k in range(1, n + 1):
        pair = B(2 * k) * (Bb(2 * n - 2 * k) if which == "fpz" else B(2 * n - 2 * k))
        weight = _mixed_weight(k, n) if which == "mixed" else Fraction(1)
        rat = 2 * pair * weight / Fraction(factorial(2 * k)) / factorial(2 * n - 2 * k)
        rhs_terms.append(
            GammaProduct(
                (("p", 1, 1), ("p", 2 * k, 1), ("2p", 2 * n, 1), ("2p", 2 * k + 1, -1)), rat
            )
        )
    if which == "miki":
        tail = 2 * B(2 * n) / Fraction(factorial(2 * n))
    elif which == "fpz":
        tail = 2 * Bb(2 * n) / Fraction(factorial(2 * n))
    else:
        tail = B(2 * n) / Fraction(factorial(2 * n)) / 2 ** (2 * n - 1)
    for k in range(1, 2 * n):
        rhs_terms.append(beta_factor(k) * GammaProduct((("2p", 2 * n, 1),), tail))
    return lhs_terms, rhs_terms


def verify_family(which: str, n: int, p: Rational) -> IdentityReport:
    """One-parameter gamma-weighted family of the quadratic identities.

    Both sides' family_terms are reduced at the rational point p, required
    to share one (Gamma(p), Gamma(2p)) exponent pair, and compared through
    their rational cofactors.
    """
    lhs_terms, rhs_terms = family_terms(which, n)
    p = Fraction(p)
    lhs_exp, lhs_value = _reduce_side(lhs_terms, p)
    rhs_exp, rhs_value = _reduce_side(rhs_terms, p)
    if lhs_exp != rhs_exp:
        raise ExponentMismatch(f"sides reduce to gamma exponents {lhs_exp} vs {rhs_exp}")
    return _report(f"family-{which}", n, lhs_value, rhs_value, p=p)


def verify_p1(which: str, n: int) -> IdentityReport:
    """The p = 1 specializations in their reduced binomial form.

    Each reduced form extends the family's left sum with its k=n term and
    absorbs that term into the right side, so against verify_family at
    p=1 the miki and fpz variants differ by exactly B_2n (resp. Bbar_2n)
    on both sides while the mixed variant coincides; both facts are
    checked where the domains overlap.
    """
    if which not in FAMILY_KINDS:
        raise UnknownName(f"no family {which!r}")
    _require_floor(f"p1-{which}", n)
    B, Bb = bernoulli, bernoulli_bar
    if which != "mixed":
        S = B if which == "miki" else Bb
        lhs = sum((S(2 * k) * S(2 * n - 2 * k) for k in range(1, n + 1)), Fraction(0))
        rhs = (
            sum(
                (
                    B(2 * k) * S(2 * n - 2 * k) * binomial(2 * n + 2, 2 * k + 2)
                    for k in range(1, n + 1)
                ),
                Fraction(0),
            )
            / (n + 1)
            + 2 * n * S(2 * n)
        )
        shift = S(2 * n)
    else:
        lhs = sum((B(2 * k) * Bb(2 * n - 2 * k) for k in range(1, n)), Fraction(0))
        rhs = (
            sum(
                (
                    B(2 * k) * B(2 * n - 2 * k) * _mixed_weight(k, n) * binomial(2 * n + 2, 2 * k + 2)
                    for k in range(1, n + 1)
                ),
                Fraction(0),
            )
            / (n + 1)
            + (2 * n - 1) * B(2 * n) / Fraction(2) ** (2 * n)
        )
        shift = Fraction(0)
    if n >= FLOORS[f"family-{which}"]:
        family = verify_family(which, n, Fraction(1))
        check_routes("the reduced lhs", lhs, "the shifted family lhs", family.lhs + shift)
        check_routes("the reduced rhs", rhs, "the shifted family rhs", family.rhs + shift)
    return _report(f"p1-{which}", n, lhs, rhs)


def _triple_terms(n: int):
    for k in range(1, n - 1):
        for l in range(1, n - k):
            yield k, l, n - k - l


def _gessel_polynomial_term(n: int) -> Fraction:
    return Fraction(4 * n * n - 6 * n + 5, 4) * bernoulli(2 * n - 2) / (2 * n - 2)


def verify_gessel(n: int) -> IdentityReport:
    """Gessel's triple convolution identity, for n >= 3."""
    _require_floor("gessel", n)
    B = bernoulli
    lhs = multi_lhs(3, n, "plain")
    rhs = (
        sum(
            (
                B(2 * k)
                * B(2 * l)
                * B(2 * m)
                / Fraction(8 * k * l * m)
                * multinomial(2 * n, [2 * k, 2 * l, 2 * m])
                for k, l, m in _triple_terms(n)
            ),
            Fraction(0),
        )
        + 3 * harmonic(2 * n) * _coth_product(n)
        + 6 * harmonic_second(n) * B(2 * n) / (2 * n)
        - _gessel_polynomial_term(n)
    )
    return _report("gessel", n, lhs, rhs)


def _cubic_form(n: int, value) -> Fraction:
    """The right-side terms that the modified Gessel form (``value`` =
    bernoulli) and the cubic FPZ form (bernoulli_bar) share: the triple
    sum, the H_2n sum and the H_{2n,2} term."""
    B = bernoulli
    return (
        Fraction(3, 2 * n)
        * sum(
            (
                B(2 * k) * B(2 * l) * value(2 * m) / Fraction(4 * k * l)
                * multinomial(2 * n, [2 * k, 2 * l, 2 * m])
                for k, l, m in _triple_terms(n)
            ),
            Fraction(0),
        )
        + Fraction(3, n)
        * harmonic(2 * n)
        * sum(
            (
                binomial(2 * n, 2 * k) * B(2 * k) * value(2 * n - 2 * k) / Fraction(2 * k)
                for k in range(1, n)
            ),
            Fraction(0),
        )
        + 6 * harmonic_second(n) * value(2 * n) / (2 * n)
    )


def verify_gessel_modified(n: int) -> IdentityReport:
    """The modified Gessel form produced by skipping the integration by parts."""
    _require_floor("gessel-modified", n)
    lhs = multi_lhs(3, n, "plain")
    rhs = _cubic_form(n, bernoulli) - _gessel_polynomial_term(n)
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
        _cubic_form(n, bernoulli_bar)
        + Fraction(3, 2 * n) * (_fpz_rhs(n, bernoulli) - _fpz_rhs(n, bernoulli_bar))
        - Fraction(2 * n - 1, 4) * bernoulli_bar(2 * n - 2)
    )
    return _report("fpz-cubic", n, lhs, rhs)


def verify_multi(N: int, n: int, variant: str = "plain") -> IdentityReport:
    """N-fold convolution sum of B_2k/(2k) (or Bbar) over k_1+...+k_N = n.

    lhs is the direct nested summation; rhs is, independently, the x^(-2n)
    coefficient of the N-th power of the matching asymptotic series (up to
    the sign (-1)^N).
    """
    if variant not in ("plain", "bar"):
        raise UnknownName(f"no variant {variant!r}")
    identity = "multi" if variant == "plain" else "multi-bar"
    _require(N >= 2, f"convolution fold count must be >= 2, got {N}")
    _require_floor(identity, n)
    _require(n >= N, f"order n must be at least N={N}, got {n}")
    value = bernoulli if variant == "plain" else bernoulli_bar

    memo: dict[tuple[int, int], Fraction] = {}

    def fold(parts: int, total: int) -> Fraction:
        if parts == 1:
            return value(2 * total) / Fraction(2 * total)
        if (parts, total) in memo:
            return memo[(parts, total)]
        acc = sum(
            (value(2 * k) / Fraction(2 * k) * fold(parts - 1, total - k)
             for k in range(1, total - parts + 2)),
            Fraction(0),
        )
        memo[(parts, total)] = acc
        return acc

    direct = fold(N, n)
    base = named_series("psi_tilde" if variant == "plain" else "psi_bar", 2 * n)
    via_series = (-1) ** N * series_pow(base, N).coeff(2 * n)
    return _report(identity, n, direct, via_series, N=N)


def multi_lhs(N: int, n: int, variant: str = "plain") -> Fraction:
    """The nested-fold value of verify_multi, once the series route agrees."""
    report = verify_multi(N, n, variant)
    check_routes("the nested fold", report.lhs, "the series power", report.rhs)
    return report.lhs


def verify_euler_bernoulli(n: int) -> IdentityReport:
    """Euler-number convolution expressed through Bernoulli numbers, n >= 1."""
    _require_floor("euler-bernoulli", n)
    lhs = Fraction(
        sum(
            euler_number(2 * k - 2) * euler_number(2 * n - 2 * k)
            for k in range(1, n + 1)
        )
    )
    rhs = (
        Fraction(2, n)
        * sum(
            (
                bernoulli(2 * k)
                * bernoulli(2 * n - 2 * k)
                / Fraction(k)
                * (2 ** (2 * k) - 1)
                * 2 ** (2 * k - 1)
                * (1 - Fraction(2) ** (2 * n - 2 * k - 1))
                * binomial(2 * n, 2 * k)
                for k in range(1, n + 1)
            ),
            Fraction(0),
        )
    )
    return _report("euler-bernoulli", n, lhs, rhs)


def _lemma_closed_form(which: str, order: int) -> TruncatedSeries:
    coefficient = {
        "coth-product": _coth_product,
        "coth-harmonic": _coth_harmonic,
        "sinh-product": lambda n: _sinh_product(n, bernoulli_bar),
        "sinh-harmonic": lambda n: _sinh_harmonic(n, bernoulli_bar),
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
