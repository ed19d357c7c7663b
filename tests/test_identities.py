"""Identity-suite tests.

Acceptance runs the full stated ranges; here the same checks run on
shorter ranges plus the frozen point values, the error paths, and the
cross-route agreements that make each verifier trustworthy.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bernkit
from bernkit import (
    DomainError,
    FAMILY_KINDS,
    LEMMA_IDS,
    PoleEncountered,
    SequenceCache,
    UnknownName,
    bernoulli,
    bernoulli_bar,
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
    verify_p1,
)

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


def test_family_errors():
    with pytest.raises(UnknownName):
        verify_family("euler", 3, F(1))
    with pytest.raises(DomainError):
        verify_family("miki", 1, F(1))
    with pytest.raises(PoleEncountered):
        verify_family("miki", 2, F(-1))
    with pytest.raises(PoleEncountered):
        verify_family("fpz", 3, F(-2))


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


def test_multi_lhs_errors():
    with pytest.raises(DomainError):
        multi_lhs(1, 5)
    with pytest.raises(DomainError):
        multi_lhs(3, 2)
    with pytest.raises(UnknownName):
        multi_lhs(2, 4, "hat")


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


def test_report_as_dict():
    report = verify_family("mixed", 3, F(1, 2))
    row = report.as_dict()
    assert list(row) == ["identity", "n", "p", "lhs", "rhs", "residual", "ok"]
    assert row["identity"] == "family-mixed"
    assert row["p"] == "1/2"
    assert row["residual"] == "0"
    assert row["ok"] is True
    plain = verify_euler(4).as_dict()
    assert "p" not in plain and "N" not in plain
    assert F(plain["lhs"]) - F(plain["rhs"]) == F(plain["residual"])


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
    report = verify_gessel(4)
    assert not report.ok


def test_route_checks_survive_optimize():
    # under python -O every assert is stripped; the second routes must
    # still run, so a perturbed H^(2) table or series route has to raise
    # RouteMismatch
    script = textwrap.dedent("""
        import sys
        from bernkit import RouteMismatch, SequenceCache, identities, series
        assert False, "assert statements must be stripped here"
        cache = SequenceCache()
        cache.harmonic(10)
        cache.harm2[10] += 1
        try:
            cache.harmonic_second(5)
            sys.exit(4)
        except RouteMismatch as exc:
            print(exc)
        real_pow = identities.series_pow
        identities.series_pow = lambda a, n: series._scale(real_pow(a, n), 2)
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
