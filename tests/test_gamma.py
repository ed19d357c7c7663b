"""Gamma-product algebra tests.

Everything reduces against the Gamma(p)/Gamma(2p) bases; the oracle for
most cases is the functional equation Gamma(t+1) = t Gamma(t) applied by
hand, plus the telescoping closed forms of the beta sums.  The integer
gamma_reduce and its loop gamma_reduce_pair are also held to a
Fraction-arithmetic reduction kept here.
"""

from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from conftest import family_pairs
from hypothesis import example, given, strategies as st

import bernkit.gammaalg
import bernkit.sequences
from bernkit import (
    FAMILY_KINDS,
    DomainError,
    GammaProduct,
    PoleEncountered,
    ReducedGamma,
    SequenceCache,
    ZeroDivisor,
    beta_factor,
    gamma_reduce,
    gamma_reduce_pair,
    harmonic,
    rising_factorial,
)

F = Fraction


def test_factor_canonicalization():
    g = GammaProduct((("p", 2, 1), ("p", 2, 3), ("2p", 1, -1), ("p", 0, 0)))
    assert g.factors == (("2p", 1, -1), ("p", 2, 4))
    # a product carries its factors and nothing else; a family term's
    # scalar stands beside it
    assert GammaProduct.__slots__ == ("factors",)
    assert not hasattr(GammaProduct, "__mul__")


def test_multiplication():
    # a product of products is the product of their concatenated factors
    a = GammaProduct((("p", 1, 1),))
    b = GammaProduct((("p", 1, -1), ("2p", 3, 2)))
    assert GammaProduct(a.factors + b.factors).factors == (("2p", 3, 2),)
    assert GammaProduct(a.factors + a.factors).factors == (("p", 1, 2),)


def test_product_hash_agrees_with_equality():
    # two spellings of one product, reordered or with an exponent split in
    # two, are one set element and one dict key
    product = GammaProduct((("p", 1, 1), ("2p", 3, -1)))
    reordered = GammaProduct((("2p", 3, -1), ("p", 1, 1)))
    split = GammaProduct((("p", 1, 2), ("2p", 3, -1), ("p", 1, -1)))
    assert product == reordered == split
    assert hash(product) == hash(reordered) == hash(split)
    assert len({product, reordered, split}) == 1
    table = {product: "one"}
    assert table[reordered] == table[split] == "one"
    other = GammaProduct((("p", 1, 1), ("2p", 3, -2)))
    assert other != product and other not in table


def test_bad_base_rejected():
    with pytest.raises(DomainError):
        GammaProduct((("3p", 1, 1),))


def test_canonical_factors_are_kept_and_others_canonicalised():
    # a tuple already in canonical order is kept as given, the same object
    factors = (("2p", 3, -1), ("2p", 5, 1), ("p", 1, 2), ("p", 4, 1))
    assert GammaProduct(factors).factors is factors
    assert GammaProduct(()).factors == ()
    # out of order, a repeated (base, offset), a zero exponent or a list
    # takes the merging path, to the one canonical tuple
    for given, canonical in (
        ((("p", 1, 2), ("2p", 3, -1)), (("2p", 3, -1), ("p", 1, 2))),
        ((("p", 1, 1), ("p", 1, 1)), (("p", 1, 2),)),
        ((("p", 1, 1), ("p", 1, -1)), ()),
        ((("2p", 3, 0), ("p", 1, 2)), (("p", 1, 2),)),
        ([("2p", 3, -1), ("p", 1, 2)], (("2p", 3, -1), ("p", 1, 2))),
    ):
        product = GammaProduct(given)
        assert product.factors == canonical and type(product.factors) is tuple, given
    # an unknown base raises whether it is met in order or out of it
    for given in ((("3p", 1, 1),), (("2p", 1, 1), ("3p", 2, 1)), (("p", 2, 1), ("3p", 1, 1))):
        with pytest.raises(DomainError, match="unknown gamma base '3p'"):
            GammaProduct(given)


def test_family_terms_write_canonical_tuples(monkeypatch):
    # every product of the family layout keeps the tuple family_terms
    # wrote, so none of them is merged or sorted again
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    canonical = bernkit.gammaalg._is_canonical
    for n in range(2, 13):
        for which in FAMILY_KINDS:
            for side in family_pairs(which, n):
                assert all(canonical(product.factors) for product, _ in side), (which, n)


def test_reduce_identity_factor():
    # Gamma(p+0) is the base itself: exponent (1,0), cofactor 1
    r = gamma_reduce(GammaProduct((("p", 0, 1),)), F(1, 2))
    assert (r.exp_gamma_p, r.exp_gamma_2p, r.value) == (1, 0, 1)


def test_reduce_positive_offsets():
    # Gamma(p+3) = Gamma(p) (p)_3
    r = gamma_reduce(GammaProduct((("p", 3, 1),)), F(1, 2))
    assert (r.exp_gamma_p, r.exp_gamma_2p) == (1, 0)
    assert r.value == F(1, 2) * F(3, 2) * F(5, 2)
    r = gamma_reduce(GammaProduct((("2p", 2, 1),)), F(3, 4))
    assert (r.exp_gamma_p, r.exp_gamma_2p) == (0, 1)
    assert r.value == F(3, 2) * F(5, 2)


def test_reduce_negative_offset():
    # Gamma(p-1) = Gamma(p) / (p-1)
    r = gamma_reduce(GammaProduct((("p", -1, 1),)), F(1, 2))
    assert (r.exp_gamma_p, r.value) == (1, -2)


def test_reduce_folds_nonpositive_integer_anchor():
    # at p=0 the anchor Gamma(p) is singular but Gamma(p+3) = 2! is finite
    r = gamma_reduce(GammaProduct((("p", 3, 1),)), F(0))
    assert (r.exp_gamma_p, r.exp_gamma_2p, r.value) == (0, 0, 2)
    # anchor 2p = -1 at p = -1/2 folds, while the p base stays symbolic
    g = GammaProduct((("2p", 4, 1), ("p", 1, 1)))
    r = gamma_reduce(g, F(-1, 2))
    assert (r.exp_gamma_p, r.exp_gamma_2p) == (1, 0)
    assert r.value == F(2) * F(-1, 2)  # 2! from the fold, (p)_1 = -1/2


def test_reduce_fold_with_negative_exponent():
    r = gamma_reduce(GammaProduct((("2p", 3, -2),)), F(0))
    assert (r.exp_gamma_p, r.exp_gamma_2p, r.value) == (0, 0, F(1, 4))


def test_reduce_pole():
    with pytest.raises(PoleEncountered):
        gamma_reduce(GammaProduct((("p", 1, 1),)), F(-1))
    with pytest.raises(PoleEncountered):
        gamma_reduce(GammaProduct((("2p", 2, 1),)), F(-1))
    with pytest.raises(PoleEncountered):
        gamma_reduce(GammaProduct((("p", 0, 1),)), F(0))


@given(
    st.fractions(min_value=F(1, 7), max_value=F(9, 2)),
    st.integers(min_value=0, max_value=6),
)
def test_functional_equation(p, m):
    # Gamma(p+m+1) / Gamma(p+m) = p+m
    up = gamma_reduce(GammaProduct((("p", m + 1, 1),)), p)
    lo = gamma_reduce(GammaProduct((("p", m, 1),)), p)
    assert up.value / lo.value == p + m


@given(st.fractions(min_value=F(1, 5), max_value=F(7, 2)))
@example(F(1))
def test_reduce_is_multiplicative(p):
    # reducing the concatenated factors of two products, which merge where
    # they share a (base, offset), multiplies the two reductions
    a = GammaProduct((("p", 2, 1), ("2p", 1, -1), ("2p", 4, -1)))
    b = GammaProduct((("p", -1, 1), ("2p", 4, 2), ("p", 2, -1)))
    ab = GammaProduct(a.factors + b.factors)
    assert ab.factors == (("2p", 1, -1), ("2p", 4, 1), ("p", -1, 1))
    if p == 1:
        # Gamma(p-1), a factor of b and of ab, has its pole at p = 1, the
        # one point of the range where either product is singular
        for product in (b, ab):
            with pytest.raises(PoleEncountered):
                gamma_reduce(product, p)
        return
    ra, rb, rab = gamma_reduce(a, p), gamma_reduce(b, p), gamma_reduce(ab, p)
    assert rab.value == ra.value * rb.value
    assert rab.exp_gamma_p == ra.exp_gamma_p + rb.exp_gamma_p
    assert rab.exp_gamma_2p == ra.exp_gamma_2p + rb.exp_gamma_2p


def test_beta_factor():
    g = beta_factor(2)
    assert g.factors == (("2p", 3, -1), ("p", 1, 1), ("p", 2, 1))
    with pytest.raises(DomainError):
        beta_factor(0)


def test_beta_factor_at_one():
    r = gamma_reduce(beta_factor(1), F(1))
    assert (r.exp_gamma_p, r.exp_gamma_2p, r.value) == (2, -1, F(1, 6))


def _beta_sum(n, p):
    """Sum of beta(p+k, p+1) for k = 1 .. 2n-1, reduced at p: the base
    exponents every summand shares, and the summed cofactors."""
    terms = [gamma_reduce(beta_factor(k), p) for k in range(1, 2 * n)]
    [exponents] = {(t.exp_gamma_p, t.exp_gamma_2p) for t in terms}
    return exponents, sum(t.value for t in terms)


def test_beta_sum_reduces_to_harmonic_at_zero():
    # beta(k, 1) = 1/k, so the sum is H_{2n-1}
    for n in range(1, 8):
        assert _beta_sum(n, F(0)) == ((0, 0), harmonic(2 * n - 1))


def test_beta_sum_telescopes_at_one():
    # beta(1+k, 2) = 1/((k+1)(k+2)) telescopes to 1/2 - 1/(2n+1)
    for n in range(1, 8):
        assert _beta_sum(n, F(1)) == ((2, -1), F(1, 2) - F(1, 2 * n + 1))
    assert _beta_sum(1, F(1))[1] == F(1, 6)


def test_beta_sum_errors():
    with pytest.raises(PoleEncountered):
        _beta_sum(2, F(-1))


def _fraction_reduce(g, p):
    """gamma_reduce as it was before it carried integers: a Fraction value
    scaled by each factor's cofactor, read from the same rising tables."""
    p = F(p)
    anchors = {"p": p, "2p": 2 * p}
    value = F(1)
    exponents = {"p": 0, "2p": 0}
    for base, offset, exponent in g.factors:
        anchor = anchors[base]
        if anchor.denominator == 1:
            argument = anchor.numerator + offset
            if argument <= 0:
                raise PoleEncountered(f"Gamma({base}+{offset}) at p={p} has argument {argument}")
            if anchor.numerator <= 0:
                value *= F(factorial(argument - 1)) ** exponent
                continue
        if offset >= 0:
            cofactor = rising_factorial(anchor, offset)
        else:
            argument = anchor + offset
            divisor = rising_factorial(argument, -offset)
            if divisor == 0:
                raise ZeroDivisor(f"({argument})_{-offset} vanishes at p={p}")
            cofactor = 1 / divisor
        if cofactor == 0 and exponent < 0:
            raise ZeroDivisor(f"({anchor})_{offset} vanishes in a denominator at p={p}")
        value *= F(cofactor) ** exponent
        exponents[base] += exponent
    return ReducedGamma(exponents["p"], exponents["2p"], value)


def _outcome(reduce, g, p):
    """The reduction, or the type and message of the error it raises."""
    try:
        return reduce(g, p)
    except (PoleEncountered, ZeroDivisor) as error:
        return type(error), str(error)


# 3/4, 5/6 and -5/4 halve the denominator of 2p, at a positive and a
# negative anchor
ORACLE_PS = (F(0), F(1), F(3), F(-1, 4), F(-1, 2), F(1, 3), F(5, 2), F(7, 3),
             F(3, 4), F(5, 6), F(-5, 4))
OFFSETS = range(-5, 13)
EXPONENTS = (1, -1, 2, -2)


def _products():
    """Every one-factor product on the offset and exponent grid, and a
    two-base product per offset pair, so factors of both bases and both
    signs meet in one reduction."""
    for base in ("p", "2p"):
        for offset in OFFSETS:
            for exponent in EXPONENTS:
                yield GammaProduct(((base, offset, exponent),))
    for offset in OFFSETS:
        for other in OFFSETS:
            yield GammaProduct((("p", offset, 1), ("2p", other, -1), ("p", other - offset, -2)))


@pytest.mark.parametrize("p", ORACLE_PS)
def test_integer_reduction_matches_the_fraction_reduction(p):
    # an integer anchor (p = 0, 1, 3, 5/2, -1/2) puts some products of the
    # grid on a pole; those must raise the same error
    reduced = 0
    for g in _products():
        expected = _outcome(_fraction_reduce, g, p)
        outcome = _outcome(gamma_reduce, g, p)
        assert outcome == expected, (g.factors, p)
        if isinstance(outcome, ReducedGamma):
            assert type(outcome.value) is Fraction
            reduced += 1
    assert reduced >= 2 * len(OFFSETS) * len(EXPONENTS)


@pytest.mark.parametrize("p", ORACLE_PS)
def test_reduction_loop_matches_the_fraction_reduction(p):
    # gamma_reduce_pair returns the unreduced integer pair that gamma_reduce
    # wraps: the oracle's exponents, its value as num / den with den > 0,
    # and the same pole errors as gamma_reduce and the oracle
    paired = 0
    for g in _products():
        expected = _outcome(_fraction_reduce, g, p)
        outcome = _outcome(gamma_reduce_pair, g, p)
        if isinstance(expected, ReducedGamma):
            assert len(outcome) == 4 and all(type(x) is int for x in outcome), (g.factors, p)
            exp_p, exp_2p, num, den = outcome
            assert (exp_p, exp_2p) == expected[:2], (g.factors, p)
            assert den > 0 and Fraction(num, den) == expected.value, (g.factors, p)
            paired += 1
        else:
            assert outcome == expected == _outcome(gamma_reduce, g, p), (g.factors, p)
    assert paired >= 2 * len(OFFSETS) * len(EXPONENTS)


def test_reduction_takes_any_rational_form_of_p():
    # an int, a string, a float or a Decimal p reduces, and fails, as its
    # Fraction does
    for g in _products():
        assert _outcome(gamma_reduce, g, 2) == _outcome(gamma_reduce, g, F(2))
        assert _outcome(gamma_reduce, g, "1/3") == _outcome(gamma_reduce, g, F(1, 3))
        assert _outcome(gamma_reduce, g, -1) == _outcome(gamma_reduce, g, F(-1))
        for p in (0.5, Decimal("0.5")):
            assert _outcome(gamma_reduce, g, p) == _outcome(gamma_reduce, g, F(1, 2))
            assert _outcome(gamma_reduce_pair, g, p) == _outcome(gamma_reduce_pair, g, F(1, 2))


@pytest.mark.parametrize("p", ("abc", None, float("inf"), float("nan"), "1/0", [1, 2]),
                         ids=["word", "None", "inf", "nan", "zero-denominator", "list"])
@pytest.mark.parametrize("reduce", (gamma_reduce, gamma_reduce_pair))
def test_non_rational_p_is_a_domain_error(reduce, p):
    # once a bare ValueError, TypeError or OverflowError
    with pytest.raises(DomainError, match="rational"):
        reduce(beta_factor(2), p)


@pytest.mark.parametrize("p", (F(-1), F(-3, 2)))
def test_integer_reduction_raises_where_the_fraction_reduction_does(p):
    # at p = -1 both anchors are poles; at p = -3/2 only 2p = -3 is
    raised = 0
    for g in _products():
        expected = _outcome(_fraction_reduce, g, p)
        assert _outcome(gamma_reduce, g, p) == expected, (g.factors, p)
        raised += not isinstance(expected, ReducedGamma)
    assert raised > 0


def test_vanishing_rising_entry_raises_zero_divisor(monkeypatch):
    # past the pole guard no rising entry is 0; a corrupted one must still
    # be refused in a denominator, by either offset sign
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    p = F(1, 3)
    cache.rising_factorial(p, 4)
    cache.rising_factorial(p - 2, 2)
    cache.rising[1, 3][4] = 0, 1
    cache.rising[-5, 3][2] = 0, 1
    for g in (GammaProduct((("p", 4, -1),)), GammaProduct((("p", -2, 1),))):
        outcome = _outcome(gamma_reduce, g, p)
        assert outcome[0] is ZeroDivisor
        assert outcome == _outcome(_fraction_reduce, g, p) == _outcome(gamma_reduce_pair, g, p)
    # in a numerator the zero entry is a zero value
    assert gamma_reduce(GammaProduct((("p", 4, 2),)), p).value == 0


def test_poisoned_rising_entry_changes_the_reduction(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    p = F(5, 2)
    products = [GammaProduct((("2p", 6, 1), ("p", 3, -1))), GammaProduct((("2p", -1, 2),))]
    clean = [gamma_reduce(g, p) for g in products]
    num, den = cache.rising[5, 1][6]
    cache.rising[5, 1][6] = 3 * num, den  # (5)_6, read by Gamma(2p+6)
    num, den = cache.rising[4, 1][1]
    cache.rising[4, 1][1] = 5 * num, den  # (4)_1, read by Gamma(2p-1) = Gamma(2p) / (2p-1)_1
    poisoned = [gamma_reduce(g, p) for g in products]
    assert poisoned[0].value == 3 * clean[0].value
    assert poisoned[1].value == clean[1].value / 25
    assert poisoned == [_fraction_reduce(g, p) for g in products]
