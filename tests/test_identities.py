"""Identity-suite tests.

Acceptance runs the full stated ranges; here the same checks run on
shorter ranges plus the frozen point values, the error paths, and the
cross-route agreements that make each verifier trustworthy.
"""

import ast
import functools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path

import pytest
from conftest import family_pairs
from hypothesis import given, settings, strategies as st

import bernkit
from bernkit import (
    DomainError,
    ExponentMismatch,
    FAMILY_KINDS,
    GammaProduct,
    IDENTITIES,
    LEMMA_IDS,
    PoleEncountered,
    RouteMismatch,
    SequenceCache,
    UnknownName,
    bernoulli,
    bernoulli_bar,
    beta_factor,
    family_terms,
    gamma_reduce,
    harmonic,
    harmonic_second,
    multi_lhs,
    named_series,
    series_pow,
    verify_euler,
    verify_euler_bernoulli,
    verify_family,
    verify_fpz,
    verify_fpz_cubic,
    verify_gessel,
    verify_gessel_modified,
    verify_lemma_expansion,
    verify_miki,
    verify_miki_modified,
    verify_mixed,
    verify_multi,
    verify_p1,
)
from bernkit import floatcheck, gammaalg, identities

F = Fraction

QUADRATICS = (verify_euler, verify_miki, verify_miki_modified, verify_fpz, verify_mixed)
CUBICS = (verify_gessel, verify_gessel_modified, verify_fpz_cubic)


def test_quadratic_identities_hold():
    for n in range(2, 41):
        for verify in QUADRATICS:
            report = verify(n)
            assert report.ok and report.residual == 0, (verify.__name__, n)


def test_quadratic_floor():
    for verify in QUADRATICS:
        with pytest.raises(DomainError):
            verify(1)


def test_euler_frozen_point():
    report = verify_euler(2)
    assert report.lhs == report.rhs == F(1, 6)


def test_miki_frozen_point():
    report = verify_miki(2)
    assert report.lhs == F(1, 144)
    assert report.rhs == F(1, 24) + F(-1, 60) * F(25, 12)


def test_fpz_frozen_point():
    assert verify_fpz(2).lhs == F(1, 576)


def test_quadratic_lhs_forms_agree():
    for n in range(2, 21):
        assert verify_miki(n).lhs == verify_miki_modified(n).lhs
        # and the Miki left side is the psi_tilde square, coefficient-wise
        square = series_pow(named_series("psi_tilde", 2 * n), 2)
        assert square.coeff(2 * n) == verify_miki(n).lhs
        bar_square = series_pow(named_series("psi_bar", 2 * n), 2)
        assert bar_square.coeff(2 * n) == verify_fpz(n).lhs


def test_miki_modified_cross_checks_the_h2n_form(monkeypatch):
    # shifting H_2n (not H_{2n-1}) breaks only the H_2n form of the right side
    real = bernkit.identities.harmonic
    monkeypatch.setattr(bernkit.identities, "harmonic", lambda i: real(i) + (i % 2 == 0))
    with pytest.raises(bernkit.RouteMismatch, match="the H_2n form"):
        verify_miki_modified(4)


P_GRID = (F(0), F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 2), F(-1, 4))


def test_family_identities_hold():
    for which in FAMILY_KINDS:
        for n in range(2, 16):
            for p in P_GRID:
                report = verify_family(which, n, p)
                assert report.ok, (which, n, p)
                assert report.p == p


def test_family_p0_rows_bit_identical():
    reference = {"miki": verify_miki_modified, "fpz": verify_fpz, "mixed": verify_mixed}
    for which, verify in reference.items():
        for n in range(2, 16):
            fam = verify_family(which, n, F(0))
            ref = verify(n)
            assert fam.lhs == ref.lhs
            assert fam.rhs == ref.rhs


# the value each parameter kind's runner is given in the registry test
_REGISTRY_VALUES = {None: None, "p": F(1, 2), "N": 2}


@pytest.mark.parametrize("ident", IDENTITIES)
def test_registry_runs_each_identity_from_its_floor(ident):
    # the runner answers for its own id, carries p or N exactly when its
    # parameter kind says so, and refuses the n just below its floor
    spec = IDENTITIES[ident]
    value = _REGISTRY_VALUES[spec.param]
    report = spec.run(spec.floor, value)
    assert report.identity == ident and report.n == spec.floor and report.ok
    assert (report.p is not None, report.N is not None) == (spec.param == "p", spec.param == "N")
    with pytest.raises(DomainError) as caught:
        spec.run(spec.floor - 1, value)
    assert str(caught.value) == f"{ident} identity needs n >= {spec.floor}, got {spec.floor - 1}"


def test_family_errors():
    with pytest.raises(UnknownName):
        verify_family("euler", 3, F(1))
    with pytest.raises(UnknownName):
        family_terms("euler", 3)
    with pytest.raises(DomainError):
        verify_family("miki", 1, F(1))
    with pytest.raises(PoleEncountered):
        verify_family("miki", 2, F(-1))
    with pytest.raises(PoleEncountered):
        verify_family("fpz", 3, F(-2))


def _layout(which, n):
    """The family layout at n, read after family_terms(which, n)."""
    return identities._family(which, n)[1]


def _with_gamma_p(product):
    """``product`` times one more Gamma(p)."""
    return GammaProduct(product.factors + (("p", 0, 1),))


def test_family_side_with_mixed_exponents_raises(monkeypatch):
    # one left product carrying an extra Gamma(p) no longer shares the side's
    # exponent pair, which the row must refuse rather than sum
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    lhs = _layout("miki", 4).products[0]
    last = list(lhs)[-1]
    lhs[last] = _with_gamma_p(lhs[last])
    with pytest.raises(ExponentMismatch, match="mixed gamma exponents"):
        verify_family("miki", 4, F(1, 2))


def test_family_sides_with_different_exponents_raise(monkeypatch):
    # every left product carrying an extra Gamma(p): each side shares one
    # exponent pair, but the two sides' pairs differ, which the row must
    # refuse rather than compare
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    layout = _layout("miki", 4)
    lhs = layout.products[0]
    for factors, product in lhs.items():
        lhs[factors] = _with_gamma_p(product)
    pairs = [{(r.exp_gamma_p, r.exp_gamma_2p) for r in (gamma_reduce(product, F(1, 2))
                                                        for product in side.values())}
             for side in layout.products]
    assert len(pairs[0]) == len(pairs[1]) == 1 and pairs[0] != pairs[1]
    with pytest.raises(ExponentMismatch, match="mixed gamma exponents"):
        verify_family("miki", 4, F(1, 2))


def test_mixed_exponent_layout_raises_on_every_row(monkeypatch):
    # the exponent check runs when the vectors at (n, p) are built, and a
    # failed build stores nothing: every kind at that point raises, each
    # time it is asked, the p = 1 rerun of verify_p1 included
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert verify_family("fpz", 5, F(3)).ok
    layout = _layout("fpz", 5)
    rhs = layout.products[1]
    first = next(iter(rhs))
    rhs[first] = _with_gamma_p(rhs[first])
    for _ in range(2):
        for which in FAMILY_KINDS:
            for p in (F(1, 2), F(1)):
                with pytest.raises(ExponentMismatch, match="mixed gamma exponents"):
                    verify_family(which, 5, p)
            with pytest.raises(ExponentMismatch):
                verify_p1(which, 5)
    assert list(layout.vectors) == [(3, 1)]
    # the vectors built before the change are still read
    assert all(verify_family(which, 5, F(3)).ok for which in FAMILY_KINDS)


def test_family_rising_tables_stay_small(monkeypatch):
    # one prefix table per anchor, no longer than the largest offset 2n+1
    # needs, and a repeated reduction appends nothing
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    n, ps = 30, (F(1, 3), F(5, 2), F(-1, 2))
    for which in FAMILY_KINDS:
        for p in ps:
            verify_family(which, n, p)
    anchors = {(q.numerator, q.denominator) for p in ps for q in (p, 2 * p) if q != -1}
    assert set(cache.rising) == anchors
    assert all(len(table) <= 2 * n + 2 for table in cache.rising.values())
    before = {key: list(table) for key, table in cache.rising.items()}
    for which in FAMILY_KINDS:
        verify_family(which, n, ps[0])
    assert cache.rising == before


def test_p1_forms_hold():
    # n >= 2 rows carry the built-in cross-assert against the family at p=1
    for which in FAMILY_KINDS:
        for n in range(2, 21):
            assert verify_p1(which, n).ok, (which, n)
    assert verify_p1("fpz", 1).ok
    assert verify_p1("mixed", 1).ok
    with pytest.raises(DomainError):
        verify_p1("miki", 1)
    with pytest.raises(UnknownName):
        verify_p1("gessel", 3)
    with pytest.raises(UnknownName):
        verify_p1("plain", 3)


def test_p1_frozen_points():
    miki = verify_p1("miki", 2)
    assert miki.lhs == F(-1, 180) and miki.rhs == F(23, 180) - F(24, 180)
    fpz = verify_p1("fpz", 1)
    assert fpz.lhs == F(-1, 12) and fpz.rhs == F(1, 12) - F(1, 6)
    mixed = verify_p1("mixed", 1)
    assert mixed.lhs == 0 and mixed.rhs == 0


def test_cubic_identities_hold():
    for n in range(3, 26):
        for verify in CUBICS:
            report = verify(n)
            assert report.ok and report.residual == 0, (verify.__name__, n)


def test_cubic_floor():
    for verify in CUBICS:
        with pytest.raises(DomainError):
            verify(2)


def test_cubic_lhs_matches_multi():
    for n in range(3, 16):
        plain = multi_lhs(3, n, "plain")
        assert verify_gessel(n).lhs == plain
        assert verify_gessel_modified(n).lhs == plain
        assert verify_fpz_cubic(n).lhs == multi_lhs(3, n, "bar")


def test_cubic_frozen_points():
    assert verify_gessel(3).lhs == F(1, 1728)
    assert verify_fpz_cubic(3).lhs == F(-1, 13824)


def test_multi_lhs_values():
    assert multi_lhs(2, 2) == F(1, 144)
    assert multi_lhs(3, 3) == F(1, 1728)
    assert multi_lhs(3, 3, "bar") == F(-1, 13824)
    # N = 2 reduces to the Miki left side
    for n in range(2, 15):
        assert multi_lhs(2, n) == verify_miki(n).lhs


def test_multi_lhs_series_route():
    # same dual check the function runs internally, reproduced externally
    for variant, name in (("plain", "psi_tilde"), ("bar", "psi_bar")):
        for N in (2, 3, 4):
            for n in range(N, 13):
                power = series_pow(named_series(name, 2 * n), N)
                assert multi_lhs(N, n, variant) == (-1) ** N * power.coeff(2 * n)


def test_deep_fold_stays_within_the_recursion_limit(monkeypatch):
    # the one composition of 400 into 400 parts is 1 + ... + 1, so the fold
    # is w(1)^400 = (B_2 / 2)^400; from a fresh cache it used to recurse
    # once per part, past Python's default limit of 1000 frames
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    assert identities._fold("plain", 400, 400) == F(1, 12) ** 400


@pytest.mark.parametrize("name", ["psi_tilde", "psi_bar"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_power_coefficients_do_not_depend_on_the_build_order(name, N):
    # series_pow vouches for every coefficient through the power's
    # truncation order, so each must be the same whatever order the power
    # was built at
    for n in range(2, 9):
        low = series_pow(named_series(name, 2 * n), N)
        high = series_pow(named_series(name, 4 * n), N)
        assert low.trunc >= 2 * n
        assert [low.coeff(m) for m in range(low.trunc + 1)] == [
            high.coeff(m) for m in range(low.trunc + 1)], n


def test_gessel_forms_share_one_fold_and_one_power(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    calls = []
    real_next = bernkit.series.power_next

    def counted(base, power, N):
        calls.append((len(power), N))
        return real_next(base, power, N)

    monkeypatch.setattr(bernkit.series, "power_next", counted)
    assert verify_gessel(7).ok
    # one recurrence step per coefficient c_0, ..., c_4, the last at x^-14
    assert calls == [(m, 3) for m in range(5)]
    folds = dict(cache.fold["plain"])
    memos = {weight: dict(memo) for weight, memo in cache.fold.items()}
    powers = {key: list(table) for key, table in cache.power.items()}
    assert verify_gessel_modified(7).ok
    assert calls == [(m, 3) for m in range(5)]
    assert cache.fold["plain"] == folds and cache.power == powers
    # the modified form's triple sum reads only coth folds gessel built
    assert {weight: dict(memo) for weight, memo in cache.fold.items()} == memos
    assert (3, 7) in folds and sorted(powers) == [("plain", 1), ("plain", 3)]
    # a later row past the table appends its new coefficients and keeps
    # the earlier ones, the same objects: nothing is rebuilt
    assert verify_gessel(10).ok
    assert calls == [(m, 3) for m in range(8)]
    assert len(powers["plain", 3]) == 5 and len(cache.power["plain", 3]) == 8
    assert all(a is b for a, b in zip(cache.power["plain", 3], powers["plain", 3]))
    # Gessel's triple sum alone reads the coth fold at parts = 3
    cache.fold["coth"][3, 7] += 1
    assert [n for n in range(3, 11) if not verify_gessel(n).ok] == [7]
    assert verify_gessel_modified(7).ok


def _multinomial_triple(n: int, first, second, third, divisor) -> Fraction:
    """Brute-force reference for the cubic right sides' triple sums: the
    products over k+l+m = n (all >= 1) with the multinomial (2n; 2k, 2l, 2m)
    = (2n)! / ((2k)! (2l)! (2m)!)."""
    return sum(
        (
            first(2 * k) * second(2 * l) * third(2 * m) / divisor(k, l, m)
            * (factorial(2 * n) // (factorial(2 * k) * factorial(2 * l) * factorial(2 * m)))
            for k in range(1, n - 1)
            for l in range(1, n - k)
            for m in [n - k - l]
        ),
        F(0),
    )


@pytest.mark.parametrize("value", [bernoulli, bernoulli_bar])
def test_coth_fold_matches_the_multinomial_triple_sums(value):
    B = bernoulli
    for n in range(3, 31):
        gessel = _multinomial_triple(n, B, B, B, lambda k, l, m: F(8 * k * l * m))
        assert factorial(2 * n) * identities._fold("coth", 3, n) == gessel, n
        # the cubic forms' triple term, after their H_2n sum and H_{2n,2}
        # term, each written out directly
        cubic = F(3, 2 * n) * _multinomial_triple(n, B, B, value, lambda k, l, m: F(4 * k * l))
        h_sum = sum(
            (comb(2 * n, 2 * k) * B(2 * k) * value(2 * n - 2 * k) / F(2 * k)
             for k in range(1, n)),
            F(0),
        )
        rest = F(3, n) * harmonic(2 * n) * h_sum + 6 * harmonic_second(n) * value(2 * n) / (2 * n)
        scale = identities._unit_scale if value is bernoulli else bernkit.sequences.bbar_scale
        assert identities._cubic_form(n, scale) - rest == cubic, n


# Plain transcriptions of the quadratic sums, each term normalised by
# Fraction arithmetic: the references the one-reduction kernel _dot must match.


def _plain_square(first, second, n):
    return sum((first(2 * k) / F(2 * k) * second(2 * n - 2 * k) / (2 * n - 2 * k)
                for k in range(1, n)), F(0))


def _plain_coth_product(n):
    B = bernoulli
    return sum(
        (B(2 * k) * B(2 * n - 2 * k) / F(2 * k) / (2 * n - 2 * k) * comb(2 * n, 2 * k)
         for k in range(1, n)),
        F(0),
    )


def _plain_sinh_rhs(n, value):
    product = sum(
        (bernoulli(2 * k) * value(2 * n - 2 * k) / F(2 * k) * comb(2 * n, 2 * k)
         for k in range(1, n + 1)),
        F(0),
    ) / n
    return product + value(2 * n) * harmonic(2 * n - 1) / n


def _plain_sides(name, n):
    """(lhs, rhs) of one quadratic verifier by the plain term-by-term sums."""
    B, Bb = bernoulli, bernoulli_bar
    if name == "verify_euler":
        lhs = sum((comb(2 * n, 2 * k) * B(2 * k) * B(2 * n - 2 * k) for k in range(1, n)), F(0))
        return lhs, -(2 * n + 1) * B(2 * n)
    if name == "verify_miki":
        return _plain_square(B, B, n), _plain_coth_product(n) + B(2 * n) * harmonic(2 * n) / n
    if name == "verify_miki_modified":
        return _plain_square(B, B, n), _plain_sinh_rhs(n, B)
    if name == "verify_fpz":
        return _plain_square(Bb, Bb, n), _plain_sinh_rhs(n, Bb)
    if name == "verify_mixed":
        rhs = sum(
            (B(2 * k) * B(2 * n - 2 * k) / F(2 * k) * comb(2 * n, 2 * k)
             * F(1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1)) for k in range(1, n + 1)),
            F(0),
        ) / n + B(2 * n) * harmonic(2 * n - 1) / (n * F(2) ** (2 * n))
        return _plain_square(B, Bb, n), rhs
    assert name == "verify_euler_bernoulli"
    lhs = F(sum(bernkit.euler_number(2 * k - 2) * bernkit.euler_number(2 * n - 2 * k)
                for k in range(1, n + 1)))
    rhs = F(2, n) * sum(
        (B(2 * k) * B(2 * n - 2 * k) / F(k) * (2 ** (2 * k) - 1) * 2 ** (2 * k - 1)
         * (1 - F(2) ** (2 * n - 2 * k - 1)) * comb(2 * n, 2 * k) for k in range(1, n + 1)),
        F(0),
    )
    return lhs, rhs


def _plain_p1_sides(which, n):
    B, Bb = bernoulli, bernoulli_bar
    if which != "mixed":
        S = B if which == "miki" else Bb
        lhs = sum((S(2 * k) * S(2 * n - 2 * k) for k in range(1, n + 1)), F(0))
        rhs = sum(
            (B(2 * k) * S(2 * n - 2 * k) * comb(2 * n + 2, 2 * k + 2) for k in range(1, n + 1)),
            F(0),
        ) / (n + 1) + 2 * n * S(2 * n)
        return lhs, rhs
    lhs = sum((B(2 * k) * Bb(2 * n - 2 * k) for k in range(1, n)), F(0))
    rhs = sum(
        (B(2 * k) * B(2 * n - 2 * k) * F(1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1))
         * comb(2 * n + 2, 2 * k + 2) for k in range(1, n + 1)),
        F(0),
    ) / (n + 1) + (2 * n - 1) * B(2 * n) / F(2) ** (2 * n)
    return lhs, rhs


@pytest.mark.parametrize("verify", QUADRATICS + (verify_euler_bernoulli,), ids=lambda f: f.__name__)
def test_quadratic_sums_match_the_plain_sums(verify):
    # at n = 263 a paired sum has 131 terms: two pairwise rounds in _dot,
    # the first with an odd carry, before the one-lcm sum
    for n in [*range(2, 13), 150, 263]:
        report = verify(n)
        assert (report.lhs, report.rhs) == _plain_sides(verify.__name__, n), n


def test_p1_and_family_sums_match_the_plain_sums():
    for which in FAMILY_KINDS:
        for n in range(IDENTITIES[f"p1-{which}"].floor, 13):
            report = verify_p1(which, n)
            assert (report.lhs, report.rhs) == _plain_p1_sides(which, n), (which, n)
    for n, p in ((5, F(1, 2)), (9, F(-1, 4)), (12, F(3))):
        for which in FAMILY_KINDS:
            report = verify_family(which, n, p)
            lhs, rhs = (sum((F(*scalar) * gamma_reduce(product, p).value
                             for product, scalar in side), F(0))
                        for side in family_pairs(which, n))
            assert (report.lhs, report.rhs) == (lhs, rhs), (which, n, p)


# The B.B sums as single _dot sums, one term per k, each weight a reduced
# Fraction: the references the paired sums (terms k and n-k share one
# product) must match, at both parities of n.


def _unpaired_sums(n):
    """{name: value} of every paired sum at n, each summed term by term."""
    dot, B, Bb = identities._dot, bernoulli, bernoulli_bar
    E = bernkit.euler_number
    row, row2 = identities._binomial_row(2 * n), identities._binomial_row(2 * n + 2)
    mixed = lambda k: F(1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1))
    sums = {
        "euler-lhs": dot((row[2 * k], B(2 * k), B(2 * n - 2 * k)) for k in range(1, n)),
        "coth-product": dot((B(2 * k), B(2 * n - 2 * k), F(row[2 * k], 2 * k * (2 * n - 2 * k)))
                            for k in range(1, n)),
        "mixed-lhs": dot((B(2 * k), Bb(2 * n - 2 * k), F(1, 2 * k * (2 * n - 2 * k)))
                         for k in range(1, n)),
        "mixed-rhs": dot((B(2 * k), B(2 * n - 2 * k), F(row[2 * k], 2 * k * n), mixed(k))
                         for k in range(1, n + 1))
        + B(2 * n) * harmonic(2 * n - 1) / (n * F(2) ** (2 * n)),
        "euler-bernoulli-lhs": F(sum(E(2 * k - 2) * E(2 * n - 2 * k) for k in range(1, n + 1))),
        "euler-bernoulli-rhs": dot(
            (B(2 * k), B(2 * n - 2 * k), F((4 ** k - 1) * 4 ** k * row[2 * k], k * n),
             1 - F(2) ** (2 * n - 2 * k - 1)) for k in range(1, n + 1)),
        "p1-mixed": (
            dot((B(2 * k), Bb(2 * n - 2 * k)) for k in range(1, n)),
            dot((B(2 * k), B(2 * n - 2 * k), mixed(k), F(row2[2 * k + 2], n + 1))
                for k in range(1, n + 1)) + (2 * n - 1) * B(2 * n) / F(2) ** (2 * n),
            F(0),
        ),
    }
    for value in (B, Bb):
        sums[f"sinh-product-{value.__name__}"] = dot(
            (B(2 * k), value(2 * n - 2 * k), F(row[2 * k], 2 * k * n)) for k in range(1, n + 1))
    for which, S in (("miki", B), ("fpz", Bb)):
        sums[f"p1-{which}"] = (
            dot((S(2 * k), S(2 * n - 2 * k)) for k in range(1, n + 1)),
            dot((B(2 * k), S(2 * n - 2 * k), F(row2[2 * k + 2], n + 1)) for k in range(1, n + 1))
            + 2 * n * S(2 * n),
            S(2 * n),
        )
    for weight, w in identities._WEIGHTS.items():
        sums[f"fold-{weight}"] = dot((w(k), w(n - k)) for k in range(1, n))
    return sums


def _paired_sums(n):
    B, Bb = bernoulli, bernoulli_bar
    sums = {
        "euler-lhs": verify_euler(n).lhs if n >= 2 else F(0),
        "coth-product": identities._coth_product(n),
        "euler-bernoulli-lhs": verify_euler_bernoulli(n).lhs,
        "euler-bernoulli-rhs": verify_euler_bernoulli(n).rhs,
        "sinh-product-bernoulli": identities._sinh_product(n, identities._unit_scale),
        "sinh-product-bernoulli_bar": identities._sinh_product(n, bernkit.sequences.bbar_scale),
    }
    if n >= 2:
        report = verify_mixed(n)
        sums["mixed-lhs"], sums["mixed-rhs"] = report.lhs, report.rhs
    for which in FAMILY_KINDS:
        sums[f"p1-{which}"] = identities._p1_sums(which, n)
    for weight in identities._WEIGHTS:
        sums[f"fold-{weight}"] = identities._fold(weight, 2, n)
    return sums


@pytest.mark.parametrize("n", [*range(1, 42), 400, 401])
def test_paired_sums_match_the_unpaired_sums(n):
    paired, unpaired = _paired_sums(n), _unpaired_sums(n)
    if n < 2:
        del unpaired["mixed-lhs"], unpaired["mixed-rhs"]
    assert paired.keys() == unpaired.keys()
    for name in paired:
        assert paired[name] == unpaired[name], (name, n)


def test_paired_weights_need_no_common_factor():
    # w(k) + w(n-k) over the product of the two denominators: the pair
    # need not be in lowest terms, and the middle k = n/2 counts once
    B = bernoulli
    for n in (6, 7):
        weight = lambda k: (((k, 0),), 3 * (n - k))
        expected = sum((B(2 * k) * B(2 * n - 2 * k) * F(k, 3 * (n - k)) for k in range(1, n)), F(0))
        assert identities._paired(n, weight) == expected
    assert identities._paired(1, lambda k: pytest.fail("no term at n = 1")) == 0


_shift_terms = st.lists(
    st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=48)),
    min_size=1, max_size=3).map(tuple)


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=14), st.booleans(), st.booleans(), st.booleans(),
       st.data())
def test_paired_shifted_weights_match_the_term_by_term_sum(n, through_n, binomial, mirror, data):
    # each k draws its (c, s) terms and d; with ``mirror`` each k > n/2
    # takes the weight of n-k, so the two terms of a pair shift equally
    weights = {}
    for k in range(1, n + 1):
        if mirror and n < 2 * k < 2 * n:
            weights[k] = weights[n - k]
        else:
            weights[k] = data.draw(_shift_terms), data.draw(st.integers(min_value=1, max_value=30))
    B = bernoulli
    expected = sum(
        (comb(2 * n, 2 * k) if binomial else 1) * B(2 * k) * B(2 * n - 2 * k)
        * F(sum(c * 2 ** s for c, s in weights[k][0]), weights[k][1])
        for k in range(1, n + 1 if through_n else n))
    assert identities._paired(n, weights.__getitem__, through_n, binomial) == expected


_factors = st.one_of(
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.fractions(max_denominator=10 ** 12),
    st.just(0),
    st.just(F(0)),
)


def _plain_dot(terms):
    return sum((functools.reduce(lambda a, b: a * F(b.numerator, b.denominator), factors, F(1))
                for factors in terms), F(0))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.lists(_factors, max_size=5).map(tuple), max_size=8))
def test_dot_is_the_sum_of_the_products(terms):
    total = identities._dot(iter(terms))
    assert isinstance(total, F) and total == _plain_dot(terms)


def _long_terms(length, seed):
    """length terms of 0 to 3 factors each, the kinds of a long sum where
    _dot adds neighbours pairwise before the one lcm: integers the size of
    deep-row B numerators, fractions whose denominators share little, zeros
    and an unreduced ratio.  Drawn from a seeded generator, since hypothesis
    caps the entropy of one example far below 300 such terms."""
    rng = random.Random(seed)
    kinds = (
        lambda: rng.randint(-(10 ** 400), 10 ** 400),
        lambda: F(rng.randint(-(10 ** 40), 10 ** 40), rng.randint(1, 10 ** 40)),
        lambda: 0,
        lambda: identities._Ratio(6, 4),
    )
    return [tuple(rng.choice(kinds)() for _ in range(rng.randint(0, 3))) for _ in range(length)]


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2 ** 32))
def test_long_dot_is_the_sum_of_the_products(length, seed):
    terms = _long_terms(length, seed)
    total = identities._dot(iter(terms))
    assert isinstance(total, F) and total == _plain_dot(terms)


def _product_bits(terms):
    return max(abs(functools.reduce(lambda a, f: a * f.numerator, factors, 1)).bit_length()
               for factors in terms)


@pytest.mark.parametrize("length", [64, 65, 128, 129, 130])
def test_dot_at_the_merge_lengths(length):
    # _long_terms' integers near 10^400 put these sums past the size gate,
    # so they merge down to one partial sum: 64 and 128 halve evenly to
    # one; 65 and 129 carry an odd partial sum in every round but the last,
    # and 130 from its second round on
    assert identities._MERGE_BITS == 1024
    for seed in range(3):
        terms = _long_terms(length, seed)
        assert _product_bits(terms) > identities._MERGE_BITS, seed
        total = identities._dot(iter(terms))
        assert isinstance(total, F) and total == _plain_dot(terms), seed


def _large_terms(length, seed):
    """length terms, each product past _dot's size gate: an integer of
    more than _MERGE_BITS bits, a fraction whose denominator shares little
    with the others', and an unreduced ratio, as in a deep row's B.B
    terms."""
    rng = random.Random(seed)
    low = identities._MERGE_BITS
    return [
        (
            rng.choice((-1, 1)) * rng.randint(2 ** low, 2 ** (low + 400)),
            F(rng.randint(1, 10 ** 40), rng.randint(1, 10 ** 40)),
            identities._Ratio(rng.randint(1, 9), 2 * rng.randint(1, 9)),
        )
        for _ in range(length)
    ]


def _counted_gcd(monkeypatch):
    calls = []
    real = identities.gcd
    monkeypatch.setattr(identities, "gcd", lambda a, b: calls.append(1) or real(a, b))
    return calls


@pytest.mark.parametrize("length", [1, 2, 3, 17, 63, 64, 65, 129, 202])
def test_dot_past_the_size_gate(length, monkeypatch):
    # past the gate every sum merges down to one partial sum, one gcd per merge
    calls = _counted_gcd(monkeypatch)
    for seed in range(3):
        terms = _large_terms(length, seed)
        calls.clear()
        total = identities._dot(iter(terms))
        assert isinstance(total, F) and total == _plain_dot(terms), seed
        assert len(calls) == length - 1, seed


def test_dot_below_the_size_gate_takes_one_lcm(monkeypatch):
    # however long, a sum of products at or below the gate takes no merge
    calls = _counted_gcd(monkeypatch)
    rng = random.Random(0)
    top = 2 ** identities._MERGE_BITS - 1
    terms = [(rng.randint(-top, top), F(1, rng.randint(1, 10 ** 40))) for _ in range(202)]
    terms.append((top,))
    assert identities._dot(iter(terms)) == _plain_dot(terms)
    assert not calls


def test_dot_of_nothing_is_zero():
    assert identities._dot([]) == 0 and isinstance(identities._dot(iter(())), F)
    assert identities._dot([(), (F(-1, 2),)]) == F(1, 2)


def test_binomial_row_is_the_pascal_row(monkeypatch):
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    for m in [*range(65), 806, 3]:
        row = identities._binomial_row(m)
        assert row == [comb(m, j) for j in range(m + 1)], m


def test_fold_weights_are_the_reduced_fractions():
    # each weight is one Fraction from the B_2k pair; the references are the
    # Fraction expressions it replaced
    old = {
        "plain": lambda k: bernoulli(2 * k) / F(2 * k),
        "bar": lambda k: bernoulli_bar(2 * k) / F(2 * k),
        "coth": lambda k: bernoulli(2 * k) / F(2 * k * factorial(2 * k)),
    }
    assert old.keys() == identities._WEIGHTS.keys()
    for weight, w in identities._WEIGHTS.items():
        for k in range(1, 201):
            assert w(k) == old[weight](k), (weight, k)


def _count_paired(monkeypatch):
    """Counts the _paired sums run from here on, in a list of one entry."""
    calls = [0]
    real = identities._paired

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "_paired", counted)
    return calls


def _slot_keys(cache, kind):
    """x for each key (kind, x) of the per-n slot, in the order of entry."""
    return [key[1] for key in cache.slot[1] if isinstance(key, tuple) and key[0] == kind]


def _lemma_keys(cache):
    """The keys of the coth product coefficient and of the power-of-four
    sums S_j, which give the sinh product coefficients, in the per-n slot."""
    return {key for key in cache.slot[1] if key == "coth-product" or key[0] == "shifted"}


def test_coth_product_is_summed_once_per_n(monkeypatch):
    # miki sums the coth product; miki-modified sums only S_0, its sinh
    # product, and reads the coth product for its H_2n cross-check; gessel
    # reads it
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    calls = _count_paired(monkeypatch)
    n, counts = 9, []
    for verify in (verify_miki, verify_miki_modified, verify_gessel):
        calls[0] = 0
        assert verify(n).ok
        counts.append(calls[0])
    assert counts == [1, 1, 0]
    assert cache.slot[0] == n
    assert _lemma_keys(cache) == {"coth-product", ("shifted", 0)}
    row = identities._binomial_row(2 * n)
    assert cache.slot[1]["coth-product"] == identities._paired(
        n, lambda k: (((row[2 * k], 0),), 2 * k * (2 * n - 2 * k)))


def test_poisoned_lemma_entry_fails_the_rows_that_read_it(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert verify_miki(6).ok
    cache.slot[1]["coth-product"] += 1
    assert not verify_miki(6).ok
    with pytest.raises(RouteMismatch, match="the H_2n form"):
        verify_miki_modified(6)
    # a row at another n replaces the slot, the poisoned entry with it
    assert verify_miki(7).ok and verify_miki_modified(7).ok
    assert verify_miki(6).ok and verify_miki_modified(6).ok


def test_euler_row_builds_one_binomial_row(monkeypatch):
    assert "binomial" not in vars(identities)
    # on a fresh cache: the process-wide one may hold the products at n
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    rows = []
    real = identities._binomial_row

    def counted(m):
        rows.append(m)
        return real(m)

    monkeypatch.setattr(identities, "_binomial_row", counted)
    for n in (2, 7, 40):
        rows.clear()
        assert verify_euler(n).ok
        assert rows == [2 * n]
    assert verify_mixed(9).ok and verify_euler_bernoulli(9).ok
    assert all(verify_p1(which, 9).ok for which in FAMILY_KINDS)


def _poison(products, i):
    """Adds 1 to the i-th product of a list of _products, in place."""
    num, den = products[i]
    products[i] = identities._Ratio(num + den, den)


def test_poisoned_binomial_product_fails_the_rows_that_read_it(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    n = 9
    _poison(identities._products(n, True), 2)
    assert cache.slot[0] == n
    assert not verify_euler(n).ok
    # the sinh and coth products both read the poisoned entry, and their
    # weights at k, n-k add to the same 1/(2k(n-k)), so the two forms of
    # the right side still agree and the fold on the left tells them apart
    assert not verify_miki_modified(n).ok
    assert not verify_miki(n).ok and not verify_fpz(n).ok
    assert not verify_mixed(n).ok and not verify_euler_bernoulli(n).ok
    # a row at another n replaces the slot, the lemma entries at n with it
    assert verify_euler(n + 1).ok and cache.slot[0] == n + 1
    assert verify_euler(n).ok and verify_miki(n).ok


def test_poisoned_plain_product_fails_the_rows_that_read_it(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    n = 8
    identities._products(n, True)
    _poison(identities._products(n, False), 1)
    # the binomial list was built before the poison, so only the mixed left
    # side and the p = 1 sums, the readers of the plain list, see it
    assert verify_euler(n).ok and verify_miki(n).ok and verify_euler_bernoulli(n).ok
    assert not verify_mixed(n).ok
    for which in FAMILY_KINDS:
        with pytest.raises(RouteMismatch, match="the reduced lhs"):
            verify_p1(which, n)


def test_interleaved_rows_equal_their_fresh_cache_values(monkeypatch):
    rows = [(verify_euler, 40), (verify_mixed, 41), (verify_euler, 40),
            (verify_euler_bernoulli, 41), (verify_fpz, 40), (verify_mixed, 40),
            (verify_miki_modified, 41), (verify_euler_bernoulli, 40)]
    fresh = {}
    for verify, n in rows:
        monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
        fresh[verify, n] = verify(n)
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    built = []
    real = identities._binomial_row

    def counted(m):
        built.append(m)
        return real(m)

    monkeypatch.setattr(identities, "_binomial_row", counted)
    for verify, n in rows:
        assert verify(n) == fresh[verify, n], (verify.__name__, n)
        assert cache.slot[0] == n
    # the slot is replaced at each change of n and builds each list once
    # per visit: the mixed row at 40 reads the lists the fpz row left
    assert built == [80, 82, 80, 82, 80, 82, 80]
    verify_euler(40)
    assert built[-1] == 80 and len(built) == 7


def _bump(entries, which):
    """Adds 1 to the first left scalar of the slot entry ("family", which):
    its numerator over S grows by S."""
    (common, (num, *rest)), rhs = entries["family", which]
    entries["family", which] = ((common, [num + common, *rest]), rhs)


def _fails(verify, n):
    """True if the row at n is not ok, or its two routes disagree."""
    try:
        return not verify(n).ok
    except RouteMismatch:
        return True


def test_slot_keeps_the_entries_of_one_n(monkeypatch):
    n = 7
    rows = {"euler": verify_euler, "miki": verify_miki, "fpz": verify_fpz,
            "mixed": verify_mixed, "fpz-cubic": verify_fpz_cubic,
            "family-mixed": lambda m: verify_family("mixed", m, F(1, 2)),
            "p1-mixed": lambda m: verify_p1("mixed", m)}
    fresh = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", fresh)
    assert all(verify(n + 1).ok for verify in rows.values())
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert all(verify(n).ok for verify in rows.values())
    assert {key if isinstance(key, str) else key[0] for key in cache.slot[1]} == {
        "products", "coth-product", "shifted", "family-layout", "family"}
    # after the rows at n+1, the slot holds what they alone leave: no entry of n
    assert all(verify(n + 1).ok for verify in rows.values())
    assert cache.slot == fresh.slot

    def poison_products():
        _poison(identities._products(n, True), 2)

    def poison_coth():
        identities._coth_product(n)
        cache.slot[1]["coth-product"] += 1

    def poison_family():
        family_terms("mixed", n)
        _bump(cache.slot[1], "mixed")

    # a poisoned entry at n fails the rows at n that read it, and no row at n+1
    for poison, readers in ((poison_products,
                             {"euler", "miki", "fpz", "mixed", "fpz-cubic", "p1-mixed"}),
                            (poison_coth, {"miki"}),
                            (poison_family, {"family-mixed", "p1-mixed"})):
        poison()
        assert cache.slot[0] == n
        assert {name for name, verify in rows.items() if _fails(verify, n)} == readers
        assert not any(_fails(verify, n + 1) for verify in rows.values())


def test_folds_and_the_euler_number_sum_read_no_pair_product(monkeypatch):
    # with every slot entry poisoned, the composition folds, the multi
    # rows and the Euler-number left side keep their fresh-cache values
    n = 12
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    expected = ([identities._fold(weight, 2, n) for weight in ("plain", "bar")],
                multi_lhs(3, n), verify_euler_bernoulli(n).lhs)
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    for binomial in (False, True):
        products = identities._products(n, binomial)
        for i in range(len(products)):
            _poison(products, i)
    assert cache.slot[0] == n and _slot_keys(cache, "products") == [False, True]
    assert ([identities._fold(weight, 2, n) for weight in ("plain", "bar")],
            multi_lhs(3, n), verify_euler_bernoulli(n).lhs) == expected
    assert not verify_euler_bernoulli(n).ok


def test_second_routes_do_not_use_the_sum_kernel(monkeypatch):
    # the series power and the float twin check the exact sums, so neither
    # may run through _dot, even on a cache with nothing built yet
    def broken(terms):
        raise AssertionError("_dot called")

    folds = {(N, n): (-1) ** N * multi_lhs(N, n) for N in (2, 4) for n in (4, 6)}
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    monkeypatch.setattr(identities, "_dot", broken)
    with pytest.raises(AssertionError, match="_dot called"):
        verify_miki(6)
    for (N, n), fold in folds.items():
        assert series_pow(named_series("psi_tilde", 2 * n), N).coeff(2 * n) == fold
    for which in FAMILY_KINDS:
        assert floatcheck.family_float(which, 6, 0.75).ok


def _imports(module):
    """Each (module, name) pair that ``module``'s source imports."""
    pairs = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            pairs.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            pairs.update((node.module or "", alias.name) for alias in node.names)
    return pairs


def test_identities_reaches_the_series_route_through_two_entry_points():
    # identities imports exactly the power and the lemma integral from
    # series, and series imports nothing from identities
    from_series = {name for module, name in _imports(identities) if "series" in module.split(".")}
    assert from_series == {"_lemma_integral", "_power_coeff"}
    assert ("", "series") not in _imports(identities)
    parts = {part for pair in _imports(bernkit.series) for name in pair if name
             for part in name.split(".")}
    assert "identities" not in parts, parts


def test_series_power_route_shares_no_code_with_the_sum_kernel(monkeypatch):
    # a multi row's power route never reaches _dot while its fold route
    # does; that series imports nothing from identities is pinned above
    real_dot = identities._dot
    depth, calls = [], {"dot": 0, "pow": 0}

    def dot(terms):
        if depth:
            raise AssertionError("_dot called on the series power route")
        calls["dot"] += 1
        return real_dot(terms)

    def on_power_route(real):
        def run(*args):
            calls["pow"] += 1
            depth.append(real)
            try:
                return real(*args)
            finally:
                depth.pop()
        return run

    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    monkeypatch.setattr(identities, "_dot", dot)
    # the power route is the recurrence step and the base it reads
    for name in ("power_next", "_psi_coefficient"):
        monkeypatch.setattr(bernkit.series, name, on_power_route(getattr(bernkit.series, name)))
    for variant in ("plain", "bar"):
        for n in range(4, 51):
            multi_lhs(4, n, variant)
    assert calls["dot"] > 0 and calls["pow"] > 0


def test_fresh_cache_after_warm_rows_flips_the_rows_that_read_it(monkeypatch):
    # warm the process-wide tables first: a fresh injected cache must not
    # see any fold, power or family entry built from the true numbers
    warm_multi = verify_multi(2, 5).lhs
    assert verify_gessel(4).ok and verify_gessel(3).ok and verify_fpz_cubic(4).ok
    assert verify_family("miki", 4, F(1, 2)).ok
    cache = SequenceCache()
    cache.bernoulli(16)
    cache.bern[8] += 1
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert verify_gessel(3).ok and not verify_gessel(4).ok
    assert not verify_fpz_cubic(4).ok
    assert verify_family("miki", 3, F(1, 2)).ok
    assert not verify_family("miki", 4, F(1, 2)).ok
    # a multi row's fold reads B_8 from the corrupted table and its series
    # power reads the series' own, so the row fails
    poisoned = verify_multi(2, 5)
    assert not poisoned.ok and poisoned.lhs != warm_multi and poisoned.rhs == warm_multi


def test_corrupted_power_entry_fails_the_multi_row_at_that_n(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert verify_multi(2, 4).ok
    # entry m of ("plain", N) is the x^-(2N+2m) coefficient: n = 4 reads c_2
    assert len(cache.power["plain", 2]) == 3
    cache.power["plain", 2][2] += 1
    assert [verify_multi(2, n).ok for n in range(2, 5)] == [True, True, False]
    # the recurrence grows each c_m from the earlier ones, so every row
    # grown past the corrupted entry fails too, but n = 5: its step weighs
    # c_2 by (N+1) k - m = 0
    assert not verify_multi(2, 12).ok
    assert len(cache.power["plain", 2]) == 11
    assert [n for n in range(2, 13) if not verify_multi(2, n).ok] == [4, *range(6, 13)]
    with pytest.raises(RouteMismatch, match="series power"):
        multi_lhs(2, 4)


@pytest.mark.parametrize("orders", [
    list(range(3, 41)),
    [40],
    [17, 3, 40, 9, 25, 4, 31],
], ids=["ascending", "one-jump", "out-of-order"])
def test_power_table_does_not_depend_on_the_order_of_requests(monkeypatch, orders):
    # the recurrence appends c_m from c_0, ..., c_(m-1) alone, so any order
    # of rows leaves the table that one row at the top n leaves
    tables = []
    for asked in ([40], orders):
        cache = SequenceCache()
        monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
        for n in asked:
            for variant in ("plain", "bar"):
                assert verify_multi(3, n, variant).ok, (variant, n)
        tables.append(cache.power)
    assert tables[0] == tables[1]
    assert sorted(tables[1]) == [("bar", 1), ("bar", 3), ("plain", 1), ("plain", 3)]
    assert len(tables[1]["plain", 3]) == 38


@pytest.mark.parametrize("variant, name", [("plain", "psi_tilde"), ("bar", "psi_bar")])
def test_power_table_matches_binary_powering(monkeypatch, variant, name):
    # entry m of the ("variant", N) table is the x^-(2N+2m) coefficient of
    # psi^N; series_pow squares and multiplies whole series instead
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    for N in range(2, 9):
        bernkit.series._power_coeff(variant, N, 60)
        power = series_pow(named_series(name, 120), N)
        table = bernkit.sequences._DEFAULT.power[variant, N]
        assert len(table) == 61 - N and power.trunc == 120 + 2 * N - 2
        assert [power.coeff(m) for m in range(121)] == [
            table[(m - 2 * N) // 2] if m >= 2 * N and m % 2 == 0 else 0 for m in range(121)], N


def _poisoned_b4(table):
    """A fresh cache with B_4 + 1 in ``table``, "bern" or "series_bern"."""
    cache = SequenceCache()
    cache.bernoulli(12)
    cache.series_bernoulli(12)
    getattr(cache, table)[4] += 1
    return cache


@pytest.mark.parametrize("table", ["bern", "series_bern"])
def test_each_b_table_fails_the_rows_that_compare_it_with_the_other(monkeypatch, table):
    # a multi row's fold reads ``bern`` and its series power the series'
    # own table, and so do the lemma checks' closed forms and integral
    # routes: a corrupted B_4 in either table fails them.  The rows at
    # n = 3 read B_2 alone.
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", _poisoned_b4(table))
    for variant in ("plain", "bar"):
        assert [verify_multi(3, n, variant).ok for n in range(3, 8)] == [True] + [False] * 4, variant
    for which in LEMMA_IDS:
        assert not verify_lemma_expansion(which, 20), which


def test_a_poisoned_harmonic_entry_fails_the_harmonic_lemma_checks(monkeypatch):
    # the closed forms read H from ``harm``, and the integral routes sum
    # their own; H_8 + 1, carried into every H_m grown after it, fails both
    # harmonic checks, and the product checks read no H
    cache = SequenceCache()
    cache.harmonic(8)
    cache.harm[8] += 1
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert LEMMA_IDS == ("coth-product", "coth-harmonic", "sinh-product", "sinh-harmonic")
    assert [verify_lemma_expansion(which, 20) for which in LEMMA_IDS] == [True, False, True, False]


@pytest.mark.parametrize("table, index, failing", [
    ("bern", 6, LEMMA_IDS),
    ("harm", 8, ("coth-harmonic", "sinh-harmonic")),
])
def test_the_lemma_integral_route_reads_only_the_series_table(monkeypatch, table, index, failing):
    # a corrupted bern or harm entry leaves every integral route as it is
    # on a fresh cache, and fails exactly the checks whose closed form
    # reads that table
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    fresh = {which: bernkit.series._lemma_integral(which, 20) for which in LEMMA_IDS}
    cache = SequenceCache()
    cache.bernoulli(index)
    cache.harmonic(index)
    getattr(cache, table)[index] += 1
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    for which in LEMMA_IDS:
        assert bernkit.series._lemma_integral(which, 20) == fresh[which], which
        assert verify_lemma_expansion(which, 20) == (which not in failing), which


def test_a_poisoned_series_table_reaches_only_the_series_readers(monkeypatch):
    # check_b_quadratic reads the series' b(x) alone; the quadratic and
    # family rows read ``bern`` alone, so they stay ok
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", _poisoned_b4("series_bern"))
    assert not bernkit.check_b_quadratic(60)
    assert all(verify_euler(n).ok and verify_miki(n).ok for n in range(2, 8))
    for which in FAMILY_KINDS:
        assert all(verify_family(which, n, F(1, 2)).ok for n in range(2, 8)), which
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", _poisoned_b4("bern"))
    assert bernkit.check_b_quadratic(60)
    assert not verify_euler(4).ok and not verify_miki(4).ok


def _family_summands(which, n):
    """(lhs, rhs) of one gamma-weighted family written out term by term, one
    (GammaProduct, scalar) pair per summand: the reference that the
    collected sides of family_terms must add up to."""
    B, Bb = bernoulli, bernoulli_bar
    lhs_first = Bb if which == "fpz" else B
    lhs_second = B if which == "miki" else Bb
    rhs_second = Bb if which == "fpz" else B
    fact = [factorial(j) for j in range(2 * n + 1)]
    mixed = which == "mixed"
    lhs = [(GammaProduct((("p", 2 * k, 1), ("p", 2 * n - 2 * k, 1))),
            lhs_first(2 * k) * lhs_second(2 * n - 2 * k) / (fact[2 * k] * fact[2 * n - 2 * k]))
           for k in range(1, n)]
    weight = lambda k: F(1 - 2 ** (2 * k - 1), 2 ** (2 * n - 1)) if mixed else 1
    rhs = [(GammaProduct((("p", 1, 1), ("p", 2 * k, 1), ("2p", 2 * n, 1), ("2p", 2 * k + 1, -1))),
            2 * B(2 * k) * rhs_second(2 * n - 2 * k) * weight(k)
            / (fact[2 * k] * fact[2 * n - 2 * k]))
           for k in range(1, n + 1)]
    tail = rhs_second(2 * n) / fact[2 * n] * (F(1, 2 ** (2 * n - 1)) if mixed else 2)
    rhs += [(GammaProduct((("p", k, 1), ("p", 1, 1), ("2p", k + 1, -1), ("2p", 2 * n, 1))), tail)
            for k in range(1, 2 * n)]
    return lhs, rhs


def _collected(summands):
    """{factor tuple: sum of its scalars}, in order of first occurrence."""
    totals = {}
    for product, scalar in summands:
        totals[product.factors] = totals.get(product.factors, 0) + scalar
    return totals


def test_family_terms_are_product_scalar_pairs(monkeypatch):
    # one (GammaProduct, scalar) pair per distinct factor tuple, whose
    # scalar, a reduced integer pair with a positive denominator, adds the
    # summands of that tuple; the three kinds at n list the same factor
    # tuples in the same order, share one product per tuple and differ in
    # scalars.  The hand-written tuples must be GammaProduct's canonical
    # ones, among them the k = n/2 square, the k = 1 tail square and the
    # k = 2n-1 tail whose Gamma(2p+...) pair cancels
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    written = []
    real = gammaalg.GammaProduct

    def recorded(factors):
        written.append(factors)
        return real(factors)

    monkeypatch.setattr(gammaalg, "GammaProduct", recorded)
    for n in range(2, 13):
        written.clear()
        sides = {which: family_pairs(which, n) for which in FAMILY_KINDS}
        assert len(written) == n // 2 + 2 * n
        # family_terms itself: per side, S and the numerators over S, one
        # per product of the layout
        for which in FAMILY_KINDS:
            for (common, numerators), side in zip(family_terms(which, n), sides[which]):
                assert type(common) is int and common > 0 and len(numerators) == len(side)
        assert all(real(factors).factors == factors for factors in written), n
        for which, terms in sides.items():
            summands = _family_summands(which, n)
            assert tuple(map(len, summands)) == (n - 1, 3 * n - 1)
            assert tuple(map(len, terms)) == (n // 2, 2 * n)
            for side, each in zip(terms, summands):
                for product, (num, den) in side:
                    assert type(product) is GammaProduct and type(num) is type(den) is int
                    assert num != 0 and den > 0 and gcd(num, den) == 1
                assert [(product.factors, scalar) for product, scalar in side] == [
                    (factors, (total.numerator, total.denominator))
                    for factors, total in _collected(each).items()], (which, n)
        tuples = {which: [[product.factors for product, _ in side] for side in terms]
                  for which, terms in sides.items()}
        assert tuples["miki"] == tuples["fpz"] == tuples["mixed"]
        products = {which: [product for side in terms for product, _ in side]
                    for which, terms in sides.items()}
        assert all(map(lambda a, b, c: a is b is c, *products.values()))
        assert sides["miki"][0][0][1] != sides["fpz"][0][0][1]
        lhs, rhs = tuples["miki"]
        assert ((("p", n, 2),) in lhs) == (n % 2 == 0)
        assert (("2p", 2, -1), ("2p", 2 * n, 1), ("p", 1, 2)) in rhs
        assert (("p", 1, 1), ("p", 2 * n - 1, 1)) in rhs


def test_package_exports_no_test_only_helpers():
    for name in ("binomial", "multinomial", "PartsMismatch", "check_mixed_trig", "Rational"):
        assert not hasattr(bernkit, name), name
    assert not hasattr(bernkit.sequences, "Rational")


def test_family_terms_are_built_once_per_cache(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    terms = family_terms("fpz", 5)
    assert family_terms("fpz", 5) is terms
    assert all(isinstance(side, tuple) for side in terms)
    products = tuple({factors: GammaProduct(factors) for factors in _collected(each)}
                     for each in _family_summands("fpz", 5))
    layout = identities._Layout(products, {})
    assert cache.slot == (5, {"family-layout": layout, ("family", "fpz"): terms})
    assert list(map(list, cache.slot[1]["family-layout"].products)) == list(map(list, products))
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    rebuilt = family_terms("fpz", 5)
    assert rebuilt is not terms and rebuilt == terms


def _count_reductions(monkeypatch):
    """Record the factor tuple of every call the family rows make to the
    reduction loop, gamma_reduce_pair."""
    calls = []
    real = gammaalg.gamma_reduce_pair

    def counted(g, p):
        calls.append(g.factors)
        return real(g, p)

    monkeypatch.setattr(gammaalg, "gamma_reduce_pair", counted)
    return calls


def _layout_tuples(which, n):
    """Every factor tuple of the family layout at n."""
    return {factors for side in _layout(which, n).products for factors in side}


def _vector_points(cache):
    """The p keys of the cofactor vectors in the slot's family layout."""
    return list(cache.slot[1]["family-layout"].vectors)


def _family_keys(cache):
    """The family keys of the per-n slot."""
    return {key for key in cache.slot[1] if key == "family-layout" or key[0] == "family"}


def test_family_kinds_reduce_each_factor_tuple_once_per_point(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    calls = _count_reductions(monkeypatch)
    for which in FAMILY_KINDS:
        assert verify_family(which, 6, F(1, 2)).ok
    terms = {which: sum(family_pairs(which, 6), ()) for which in FAMILY_KINDS}
    distinct = {product.factors for product, _ in terms["miki"]}
    assert all({product.factors for product, _ in side} == distinct for side in terms.values())
    summands = sum(_family_summands("miki", 6), [])
    assert len(calls) == len(set(calls)) == len(distinct) == len(terms["miki"]) < len(summands)
    assert set(calls) == distinct
    # the kinds share one layout, and in it one pair of cofactor vectors per p
    assert cache.slot[0] == 6 and _slot_keys(cache, "family") == list(FAMILY_KINDS)
    assert _vector_points(cache) == [(1, 2)]
    assert _layout_tuples("miki", 6) == distinct
    assert not hasattr(cache.slot[1]["family-layout"], "__dict__")
    # another p at the same n joins the slot, so coming back reduces nothing
    verify_family("fpz", 6, F(3))
    assert cache.slot[0] == 6
    assert _vector_points(cache) == [(1, 2), (3, 1)]
    assert len(calls) == 2 * len(distinct)
    verify_family("mixed", 6, F(1, 2))
    assert len(calls) == 2 * len(distinct)
    # a row at another n replaces the slot, so coming back to n = 6 reduces again
    verify_family("miki", 7, F(1, 2))
    assert cache.slot[0] == 7 and _slot_keys(cache, "family") == ["miki"]
    assert _vector_points(cache) == [(1, 2)]
    calls.clear()
    verify_family("mixed", 6, F(1, 2))
    assert set(calls) == distinct and len(calls) == len(distinct)


def test_reduction_slot_holds_one_n(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    for n in range(2, 16):
        for p in (F(1, 2), F(3)):
            assert verify_family("miki", n, p).ok
    assert cache.slot[0] == 15 and _slot_keys(cache, "family") == ["miki"]
    assert _vector_points(cache) == [(1, 2), (3, 1)]
    layout = cache.slot[1]["family-layout"]
    for vectors in layout.vectors.values():
        assert [len(numerators) for _, numerators in vectors] == list(map(len, layout.products))


@pytest.mark.parametrize("which", FAMILY_KINDS)
def test_p1_rerun_reads_the_stored_reductions(monkeypatch, which):
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    calls = _count_reductions(monkeypatch)
    assert verify_family(which, 5, F(1)).ok
    stored = len(calls)
    assert stored > 0
    assert verify_p1(which, 5).ok
    assert len(calls) == stored


def test_corrupted_reduction_fails_the_rows_that_read_it(monkeypatch):
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    for which in FAMILY_KINDS:
        assert verify_family(which, 5, F(1)).ok
    # the k = 1 beta term of the right sides at n = 5 carries Gamma(2p+10)
    key = GammaProduct(beta_factor(1).factors + (("2p", 10, 1),)).factors
    rhs = list(_layout("miki", 5).products[1])
    assert key in rhs

    def corrupt():
        common, numerators = _layout("miki", 5).vectors[1, 1][1]
        numerators[rhs.index(key)] += common

    corrupt()
    assert not any(verify_family(which, 5, F(1)).ok for which in FAMILY_KINDS)
    with pytest.raises(RouteMismatch):
        verify_p1("miki", 5)
    # another p at n = 5 reads its own reductions and keeps the corrupted one
    assert verify_family("miki", 5, F(1, 2)).ok
    assert not verify_family("fpz", 5, F(1)).ok
    # leaving n = 5 drops the slot, the corrupted entry with it
    assert verify_p1("miki", 4).ok
    assert all(verify_family(which, 5, F(1)).ok for which in FAMILY_KINDS)
    corrupt()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    assert all(verify_family(which, 5, F(1)).ok for which in FAMILY_KINDS)


MERGE_PS = (F(0), F(1), F(3), F(-1, 4), F(-1, 2), F(1, 3), F(5, 2), F(7, 3))


def test_family_sides_sum_each_factor_tuple_once(monkeypatch):
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    for n in range(2, 31):
        sides = {which: (_family_summands(which, n), family_pairs(which, n))
                 for which in FAMILY_KINDS}
        order = [[[product.factors for product, _ in side] for side in terms]
                 for _, terms in sides.values()]
        assert order[0] == order[1] == order[2], n
        for summands, terms in sides.values():
            for each, side in zip(summands, terms):
                factors = [product.factors for product, _ in side]
                assert len(factors) == len(set(factors)) <= len(each)
                assert set(factors) == {product.factors for product, _ in each}
        layout = _layout("miki", n)
        for p in MERGE_PS:
            for which, (summands, _) in sides.items():
                row = verify_family(which, n, p)
                # each tuple's cofactor, read back from its side's stored vector
                cofactor = {factors: F(top, common)
                            for side, (common, tops) in zip(
                                layout.products, layout.vectors[p.numerator, p.denominator])
                            for factors, top in zip(side, tops)}
                # the per-summand sums: one scalar x cofactor per summand
                assert [row.lhs, row.rhs] == [
                    sum((s * cofactor[product.factors] for product, s in each), F(0))
                    for each in summands], (n, p, which)
            # every product of both sides reduces to one exponent pair
            assert len({bernkit.gamma_reduce_pair(g, p)[:2]
                        for side in layout.products for g in side.values()}) == 1
    # 29 + 89 summands at n = 30: k and 30-k pair on the left, and each even
    # beta term joins a right term on the right
    for which in FAMILY_KINDS:
        assert tuple(map(len, _family_summands(which, 30))) == (29, 89)
        assert tuple(len(numerators) for _, numerators in family_terms(which, 30)) == (15, 60)


def test_interleaved_family_rows_match_a_fresh_cache(monkeypatch):
    # kinds and p values interleaved at each n, the pole-anchor p = 0 among
    # them, give the reports of rows each run on a fresh cache, and each
    # factor tuple is still reduced once per (n, p)
    ps = (F(0), F(-1, 4), F(5, 2), F(1))
    rows = [(which, n, p) for n in range(2, 9) for which in FAMILY_KINDS for p in ps]
    random.Random(7).shuffle(rows)
    rows.sort(key=lambda row: row[1])
    fresh = {}
    for row in rows:
        monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
        fresh[row] = verify_family(*row)
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    calls = _count_reductions(monkeypatch)
    points = []
    for row in rows:
        start = len(calls)
        assert verify_family(*row) == fresh[row], row
        points += [(row[1], row[2], factors) for factors in calls[start:]]
    assert len(points) == len(set(points))
    assert set(points) == {(n, p, factors) for n in range(2, 9) for p in ps
                           for factors in _layout_tuples("miki", n)}


def test_cofactor_vectors_build_no_fraction_on_warm_tables(monkeypatch):
    # the family rows read unreduced integer pairs from the reduction loop:
    # on grown rising tables, a side's cofactor vector at a new (n, p) is
    # built with no Fraction, and the side's final Fraction normalises it
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    points = [(n, p) for n in (6, 13) for p in (F(1, 3), F(-1, 4), F(5, 2), F(0), F(-1, 2))]
    warm = [verify_family(which, n, p) for n, p in points for which in FAMILY_KINDS]
    built, counts = [], []
    real_new, real_cofactors = Fraction.__new__, identities._cofactors

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    def cofactors(products, p):
        before = len(built)
        vectors = real_cofactors(products, p)
        counts.append(len(built) - before)
        return vectors

    monkeypatch.setattr(identities, "_cofactors", cofactors)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    rows = []
    for n, p in points:
        cache.slot = (None, {})
        rows += [verify_family(which, n, p) for which in FAMILY_KINDS]
    monkeypatch.undo()
    assert rows == warm and all(row.ok for row in rows)
    assert counts == [0] * len(points)
    assert built  # the counter saw the Fractions built outside the loop


def test_cofactor_vectors_build_no_fraction_on_cold_tables(monkeypatch):
    # a missing rising entry is grown by SequenceCache.rising_table, which
    # appends integer pairs: on empty rising tables too, a vector pair is
    # built with no Fraction, and each cofactor is gamma_reduce's value
    for n, p in [(n, p) for n in (6, 13) for p in (F(1, 3), F(-1, 4), F(5, 2), F(0), F(-1, 2))]:
        cache = SequenceCache()
        monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
        products = _layout("mixed", n).products
        assert cache.rising == {}
        built = []
        real_new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__new__", counted_new)
            vectors = identities._cofactors(products, p)
        # p = 0 reads no table: both anchors are poles, every factor a factorial
        assert built == [] and bool(cache.rising) == (p != 0), (n, p)
        for side, (common, numerators) in zip(products, vectors):
            assert [F(num, common) for num in numerators] == [
                gamma_reduce(product, p).value for product in side.values()], (n, p)


def test_family_rows_reuse_the_family_products(monkeypatch):
    # family_terms builds one product per distinct factor tuple, shared by
    # the three kinds at n; the rows read those and build none of their own
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    built = []
    real = gammaalg.GammaProduct

    def counted(factors):
        built.append(real(factors))
        return built[-1]

    monkeypatch.setattr(gammaalg, "GammaProduct", counted)
    for which in FAMILY_KINDS:
        terms = family_pairs(which, 7)
        summands = sum(_family_summands(which, 7), [])
        assert len(built) == len(_collected(summands)) < len(summands)
        first = {}
        for product in built:
            first.setdefault(product.factors, product)
        assert [product.factors for product, _ in sum(terms, ())] == list(first)
        assert all(product is first[product.factors] for product, _ in sum(terms, ()))
    monkeypatch.setattr(gammaalg, "GammaProduct", lambda *a: pytest.fail("product built"))
    for which in FAMILY_KINDS:
        assert verify_family(which, 7, F(2, 3)).ok


def test_agreeing_family_sides_are_one_fraction(monkeypatch):
    # sides that agree are normalised once: the row reports its lhs as its
    # rhs, with a zero residual; sides that differ are each reduced and
    # subtracted
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    for which in FAMILY_KINDS:
        for n, p in ((2, F(1, 2)), (7, F(-1, 4)), (12, F(3)), (9, F(0))):
            r = verify_family(which, n, p)
            assert r.ok and r.lhs is r.rhs, (which, n, p)
            assert type(r.residual) is F and r.residual == 0
    p = F(1, 3)
    clean = verify_family("fpz", 6, p)
    entries = bernkit.sequences._DEFAULT.slot[1]
    _bump(entries, "fpz")
    product = next(iter(entries["family-layout"].products[0].values()))
    r = verify_family("fpz", 6, p)
    assert not r.ok and r.rhs == clean.rhs
    assert r.lhs - clean.lhs == gamma_reduce(product, p).value
    assert type(r.residual) is F and r.residual == r.lhs - r.rhs != 0


def test_injected_cache_replaces_the_family_table(monkeypatch):
    assert verify_family("fpz", 6, F(1, 2)).ok
    warm = bernkit.sequences._DEFAULT.slot[1]["family", "fpz"]
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert verify_family("fpz", 6, F(1, 2)).ok
    assert cache.slot[0] == 6 and _slot_keys(cache, "family") == ["fpz"]
    entries = cache.slot[1]
    assert entries["family", "fpz"] == warm and entries["family", "fpz"] is not warm
    # the exact rows and the float twin read the one family entry: a
    # changed collected scalar flips them at every p
    _bump(entries, "fpz")
    assert not verify_family("fpz", 6, F(1, 2)).ok
    assert not verify_family("fpz", 6, F(3)).ok
    assert not floatcheck.family_float("fpz", 6, 0.5).ok
    with pytest.raises(RouteMismatch):
        verify_p1("fpz", 6)
    assert verify_family("miki", 6, F(3)).ok
    # neither the process-wide table nor a fresh cache sees the change
    assert bernkit.sequences._DEFAULT is cache
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", SequenceCache())
    assert verify_family("fpz", 6, F(1, 2)).ok


def test_family_slot_keys_are_the_kinds_run_and_one_layout(monkeypatch):
    # the family work at n lives in one entry per kind run, exact or
    # float, and one layout, whatever the p and the other rows at n
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    for n in (5, 6):
        for p in (F(1, 2), F(-1, 4), F(1)):
            assert verify_family("fpz", n, p).ok and verify_family("mixed", n, p).ok
        assert floatcheck.family_float("fpz", n, 0.75).ok and verify_p1("mixed", n).ok
        assert verify_euler(n).ok and cache.slot[0] == n
        assert _family_keys(cache) == {("family", "fpz"), ("family", "mixed"), "family-layout"}
    assert floatcheck.family_float("miki", 6, 0.75).ok
    assert _family_keys(cache) == {("family", which) for which in FAMILY_KINDS} | {
        "family-layout"}


def test_poisoned_layout_fails_every_kind(monkeypatch):
    # the three kinds and the float twin read one layout at n: a changed
    # product fails them all at every p whose vectors are built after the
    # change, the p = 1 rerun of verify_p1 included, and a changed vector
    # fails the three kinds at its p
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    n = 6
    assert all(verify_family(which, n, F(1, 3)).ok for which in FAMILY_KINDS)
    layout = _layout("miki", n)
    lhs = layout.products[0]
    first = next(iter(lhs))
    assert first == (("p", 2, 1), ("p", 2 * n - 2, 1))
    lhs[first] = GammaProduct((("p", 3, 1), ("p", 2 * n - 2, 1)))
    for which in FAMILY_KINDS:
        assert not verify_family(which, n, F(5, 2)).ok
        assert not floatcheck.family_float(which, n, 0.75).ok
        with pytest.raises(RouteMismatch):
            verify_p1(which, n)
    # the vectors at 1/3 were built before the change and still agree
    assert all(verify_family(which, n, F(1, 3)).ok for which in FAMILY_KINDS)
    common, numerators = layout.vectors[1, 3][1]
    numerators[0] += common
    assert not any(verify_family(which, n, F(1, 3)).ok for which in FAMILY_KINDS)
    # a row at another n replaces the slot, the layout with it
    assert verify_family("miki", n + 1, F(1, 3)).ok
    assert all(verify_family(which, n, p).ok for which in FAMILY_KINDS for p in (F(1, 3), F(5, 2)))
    assert all(floatcheck.family_float(which, n, 0.75).ok for which in FAMILY_KINDS)


def test_fpz_cubic_sums_each_sinh_product_once(monkeypatch):
    # S_0 and S_1, which give the B and the Bbar sinh products, are its only
    # paired sums, each run once however often the right side reads it; a
    # rerun reads both
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    calls = _count_paired(monkeypatch)
    assert verify_fpz_cubic(9).ok
    assert calls == [2]
    assert cache.slot[0] == 9
    assert _lemma_keys(cache) == {("shifted", 0), ("shifted", 1)}
    assert verify_fpz_cubic(9).ok
    assert calls == [2]


def test_deep_rows_share_three_power_of_four_sums(monkeypatch):
    # the six deep ids at one n: the euler left side, the coth product,
    # the mixed left side and S_0, S_1, S_2, which give both sinh products
    # and the mixed and Euler-Bernoulli right sides
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    calls = _count_paired(monkeypatch)
    deep = ("euler", "miki", "miki-modified", "fpz", "mixed", "euler-bernoulli")
    assert all(IDENTITIES[ident].run(9, None).ok for ident in deep)
    assert calls == [6]
    assert cache.slot[0] == 9
    assert _lemma_keys(cache) == {"coth-product", ("shifted", 0), ("shifted", 1), ("shifted", 2)}


def test_multi_lhs_errors():
    with pytest.raises(DomainError):
        multi_lhs(1, 5)
    with pytest.raises(DomainError):
        multi_lhs(3, 2)
    with pytest.raises(UnknownName):
        multi_lhs(2, 4, "hat")
    with pytest.raises(UnknownName):
        verify_multi(2, 4, "hat")


def test_euler_bernoulli_holds():
    for n in range(1, 31):
        report = verify_euler_bernoulli(n)
        assert report.ok, n
    assert verify_euler_bernoulli(1).lhs == 1
    with pytest.raises(DomainError):
        verify_euler_bernoulli(0)


def test_lemma_expansions():
    for which in LEMMA_IDS:
        assert verify_lemma_expansion(which, 30), which
    with pytest.raises(UnknownName):
        verify_lemma_expansion("coth", 10)
    with pytest.raises(DomainError):
        verify_lemma_expansion("coth-product", 7)
    with pytest.raises(DomainError):
        verify_lemma_expansion("coth-product", 2)


def test_poisoned_cache_breaks_identities(monkeypatch):
    cache = SequenceCache()
    cache.bernoulli(12)
    cache.bern[4] += 1
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    assert not verify_euler(4).ok
    assert not verify_miki(4).ok
    assert not verify_fpz(3).ok
    # internal dual-route asserts survive a consistent corruption
    assert not verify_miki_modified(4).ok
    # the series route reads B from its own table, so Gessel's nested fold
    # disagrees with it before the row is built
    with pytest.raises(RouteMismatch, match="series power"):
        verify_gessel(4)
    assert not verify_mixed(4).ok
    assert not verify_euler_bernoulli(4).ok
    for which in FAMILY_KINDS:
        assert not verify_p1(which, 4).ok, which


def test_route_checks_survive_optimize():
    # under python -O every assert is stripped; the second routes must
    # still run, so a perturbed H^(2) table or series route has to raise
    # RouteMismatch
    script = textwrap.dedent("""
        import sys
        from bernkit import RouteMismatch, SequenceCache, identities, series
        assert False, "assert statements must be stripped here"
        cache = SequenceCache()
        cache.harmonic_second(5)
        cache.harm2[10] += 1
        try:
            cache.harmonic_second(5)
            sys.exit(4)
        except RouteMismatch as exc:
            print(exc)
        real_next = series.power_next
        series.power_next = lambda base, power, N: 2 * real_next(base, power, N)
        try:
            identities.multi_lhs(2, 4)
        except RouteMismatch as exc:
            print(exc)
            sys.exit(0)
        sys.exit(3)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(bernkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "nested fold" in done.stdout and "series power" in done.stdout
    assert "symmetric form" in done.stdout


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=60))
def test_quadratics_hold_sampled(n):
    assert verify_euler(n).ok
    assert verify_miki(n).ok
    assert verify_mixed(n).ok


@settings(deadline=None, max_examples=10)
@given(
    st.integers(min_value=2, max_value=20),
    st.fractions(min_value=F(-3, 4), max_value=4, max_denominator=4),
)
def test_family_holds_sampled(n, p):
    assert verify_family("mixed", n, p).ok
