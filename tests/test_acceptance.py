"""Top-level acceptance checklist.

Nine criteria, one test each, run at full stated ranges and tolerances.
Each test prints a single PASS line when it completes (visible with
pytest -s); pytest -v gives the same one-line-per-criterion view.
Everything here goes through the public API only.
"""

import json
import math
from fractions import Fraction

from conftest import CliRunner

from bernkit import (
    bernoulli,
    bernoulli_bar,
    check_b_quadratic,
    check_g_squared,
    check_zeta,
    digamma,
    harmonic,
    multi_lhs,
    named_series,
    quad_rep,
    series_pow,
    sequences,
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
from bernkit.cli import main as cli_main

F = Fraction


def test_criterion_1():
    """Five quadratic identities: exact residual 0 for 2 <= n <= 100."""
    verifiers = (verify_euler, verify_miki, verify_miki_modified, verify_fpz, verify_mixed)
    for n in range(2, 101):
        for verify in verifiers:
            report = verify(n)
            assert report.residual == 0 and report.ok, (verify.__name__, n)
    print("criterion 1 PASS: quadratic identities exact for 2 <= n <= 100")


def test_criterion_2():
    """Gamma-weighted families on the 8-point rational p grid, 2 <= n <= 40,
    with the p=0 and p=1 reductions checked row by row."""
    p_grid = (F(0), F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 2), F(-1, 4))
    base = {"miki": verify_miki_modified, "fpz": verify_fpz, "mixed": verify_mixed}
    for which, plain in base.items():
        for n in range(2, 41):
            for p in p_grid:
                fam = verify_family(which, n, p)
                assert fam.residual == 0 and fam.ok, (which, n, p)
            at0 = verify_family(which, n, F(0))
            ref = plain(n)
            assert at0.lhs == ref.lhs and at0.rhs == ref.rhs
            at1 = verify_family(which, n, F(1))
            cor = verify_p1(which, n)
            shift = {
                "miki": bernoulli(2 * n),
                "fpz": bernoulli_bar(2 * n),
                "mixed": F(0),
            }[which]
            assert cor.lhs == at1.lhs + shift and cor.rhs == at1.rhs + shift
            assert cor.residual == 0
    print("criterion 2 PASS: families exact on the p grid for 2 <= n <= 40,"
          " p=0 and p=1 rows reduce as documented")


def test_criterion_3():
    """Cubic identities: exact residual 0 for 3 <= n <= 60, left sides
    agreeing with the N = 3 fold."""
    for n in range(3, 61):
        plain = multi_lhs(3, n, "plain")
        bar = multi_lhs(3, n, "bar")
        for verify in (verify_gessel, verify_gessel_modified):
            report = verify(n)
            assert report.residual == 0 and report.lhs == plain, (verify.__name__, n)
        report = verify_fpz_cubic(n)
        assert report.residual == 0 and report.lhs == bar, n
    print("criterion 3 PASS: cubic identities exact for 3 <= n <= 60")


def test_criterion_4():
    """Route equivalence: nested folds equal series powers for N in {2,3,4},
    and the squared series reproduces every Miki left side to n = 50."""
    for variant, name in (("plain", "psi_tilde"), ("bar", "psi_bar")):
        for N in (2, 3, 4):
            for n in range(N, 21):
                power = series_pow(named_series(name, 2 * n), N)
                assert multi_lhs(N, n, variant) == (-1) ** N * power.coeff(2 * n)
    square = series_pow(named_series("psi_tilde", 100), 2)
    for n in range(2, 51):
        assert square.coeff(2 * n) == verify_miki(n).lhs, n
    print("criterion 4 PASS: fold and series routes agree (N <= 4, n <= 20;"
          " squares to n = 50)")


def test_criterion_5():
    """Lemma-level expansions match to order 40, including the order-2
    cancellation that makes the squared 1/sinh series start at order 4."""
    for which in ("coth-product", "coth-harmonic", "sinh-product", "sinh-harmonic"):
        assert verify_lemma_expansion(which, 40), which
    cancelled = F(bernoulli(2) * bernoulli_bar(0), 2) + bernoulli_bar(2) * harmonic(1)
    assert cancelled == 0
    assert series_pow(named_series("psi_bar", 4), 2).coeff(2) == 0
    print("criterion 5 PASS: lemma expansions equal to order 40, n = 1"
          " cancellation confirmed")


def test_criterion_6():
    """Euler-Bernoulli mixed-sequence identity: exact for 1 <= n <= 50."""
    for n in range(1, 51):
        report = verify_euler_bernoulli(n)
        assert report.residual == 0 and report.ok, n
    print("criterion 6 PASS: Euler-Bernoulli identity exact for 1 <= n <= 50")


def test_criterion_7():
    """Series-level self-check (quadratic recurrence) to order 100."""
    assert check_b_quadratic(100)
    print("criterion 7 PASS: series recurrence check to order 100")


def test_criterion_8():
    """Float suite at the documented tolerances."""
    for name in ("psi_tilde", "psi_bar"):
        for x in (2.0, 5.0, 10.0):
            assert quad_rep(name, x).abs_dev < 1e-8, (name, x)
    for name in ("psi_tilde_p", "psi_bar_p"):
        for x in (2.0, 5.0, 10.0):
            assert quad_rep(name, x, p=1.0).abs_dev < 1e-7, (name, x)
    for n in range(1, 9):
        r = check_zeta(n)
        assert r.abs_dev < 1e-12 * abs(r.target), n
    for i in range(20):
        x = 0.4 + 0.9 * i
        lhs = digamma(2.0 * x)
        rhs = 0.5 * digamma(x) + 0.5 * digamma(x + 0.5) + math.log(2.0)
        assert abs(lhs - rhs) < 1e-12, x
    for x in (5.0, 10.0):
        assert check_g_squared(x).abs_dev < 1e-8, x
    print("criterion 8 PASS: quadrature 1e-8/1e-7, zeta 1e-12, doubling 1e-12,"
          " squared-g 1e-8")


def test_criterion_9(monkeypatch):
    """A single corrupted coefficient must surface as ok=false, exit 1."""
    cache = sequences.SequenceCache()
    cache.bernoulli(12)
    cache.bern[4] += 1
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        ["verify", "--identity", "euler", "--identity", "miki",
         "--n-max", "6", "--jobs", "1", "--format", "json"])
    assert result.exit_code == 1
    rows = json.loads(result.output)
    flipped = [row for row in rows if not row["ok"]]
    assert flipped
    print("criterion 9 PASS: injected perturbation flips"
          f" {len(flipped)} of {len(rows)} rows to ok=false with exit code 1")
