"""Float-lane tests.

These pin the quadrature checks to the tolerances they are documented to
meet, verify the closed-form targets against independent special-function
facts (recurrence, doubling, even zeta values), and exercise the error
paths.  The deviation-decay tests encode the expected behaviour of an
asymptotic expansion: accuracy improves rapidly with the argument.
"""

import math
from fractions import Fraction

import pytest

from bernkit import (
    DomainError,
    FAMILY_KINDS,
    QUAD_NAMES,
    UnknownName,
    check_g_squared,
    check_mixed_trig,
    check_zeta,
    digamma,
    family_float,
    family_terms,
    gamma_reduce,
    optimal_series,
    quad_rep,
    verify_family,
)

EULER_GAMMA = 0.5772156649015329


def test_digamma_frozen_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)


def test_digamma_recurrence():
    for i in range(40):
        x = 0.3 + 0.45 * i
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)


def test_digamma_doubling():
    # psi(2x) = psi(x)/2 + psi(x + 1/2)/2 + ln 2
    for i in range(20):
        x = 0.4 + 0.9 * i
        lhs = digamma(2.0 * x)
        rhs = 0.5 * digamma(x) + 0.5 * digamma(x + 0.5) + math.log(2.0)
        assert abs(lhs - rhs) < 1e-12, x


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-2.5)


def test_quad_psi_tilde_far():
    r = quad_rep("psi_tilde", 10.0)
    assert r.ok
    assert r.abs_dev < 1e-9


def test_quad_psi_bar_target_is_shifted_digamma():
    r = quad_rep("psi_bar", 5.0)
    assert r.ok
    assert r.abs_dev < 1e-9
    assert r.target == pytest.approx(digamma(5.5) - math.log(5.0), abs=1e-15)


def test_quad_first_derivative():
    r = quad_rep("psi_tilde_p", 8.0, p=1.0)
    assert r.ok
    assert r.abs_dev < 1e-7


def test_quad_higher_weights():
    assert quad_rep("psi_tilde_p", 6.0, p=2.0).ok
    assert quad_rep("psi_bar_p", 6.0, p=2.0).ok
    # p >= 3 switches the target to the truncated derivative series
    assert quad_rep("psi_tilde_p", 8.0, p=3.0).ok
    # non-integer weight drops the prefactor, termwise-transform target
    assert quad_rep("psi_bar_p", 8.0, p=0.5).ok


def test_quad_g():
    r = quad_rep("g", 5.0)
    assert r.ok
    assert quad_rep("g", 10.0).abs_dev < 1e-9


@pytest.mark.parametrize("name, x, p", [("psi_tilde_p", 1.0, 3.0), ("g", 1.0, 0.0),
                                        ("psi_tilde_p", 1.0, 0.5)])
def test_loose_series_target_is_unverified(name, x, p):
    # each of these passed against a tolerance that had grown to the
    # omitted term itself (1.0, 0.125, 6.7e-3)
    r = quad_rep(name, x, p)
    assert r.abs_dev <= r.tol and r.tol > 1e-6
    assert not r.ok
    assert r.error.startswith("target unverified")
    row = r.as_dict()
    assert row["ok"] is False and row["error"] == r.error
    assert math.isfinite(r.value)


def test_quad_errors():
    with pytest.raises(UnknownName):
        quad_rep("psi", 5.0)
    with pytest.raises(DomainError):
        quad_rep("psi_tilde", 0.5)
    with pytest.raises(DomainError):
        quad_rep("psi_tilde_p", 5.0, p=-1.0)
    with pytest.raises(DomainError):
        quad_rep("psi_tilde", 5.0, p=1.0)
    with pytest.raises(DomainError):
        quad_rep("g", 5.0, p=2.0)


def test_quad_sum_identity():
    # psi_tilde(x) + psi_bar(x) = 2 psi_tilde(2x), inherited from digamma
    # doubling; holds for the quadrature values themselves
    for x in (2.0, 4.0):
        total = quad_rep("psi_tilde", x).value + quad_rep("psi_bar", x).value
        assert abs(total - 2.0 * quad_rep("psi_tilde", 2.0 * x).value) < 1e-8


def test_deviation_decreases_with_x():
    for name in ("psi_tilde", "psi_bar", "g"):
        devs = []
        for x in (2.0, 5.0, 10.0, 20.0):
            r = quad_rep(name, x)
            series_value, _ = optimal_series(name, x)
            devs.append(abs(r.value - series_value))
        assert devs[0] > devs[1] > devs[2] > devs[3], (name, devs)


def test_optimal_series_error_estimate():
    value, omitted = optimal_series("psi_tilde", 10.0)
    assert abs(value - quad_rep("psi_tilde", 10.0).value) <= max(omitted, 1e-15)
    with pytest.raises(UnknownName):
        optimal_series("b", 10.0)


def test_mixed_trig_residual():
    for i in range(40):
        s = 0.1 + (20.0 - 0.1) * i / 39.0
        assert check_mixed_trig(s) < 1e-13, s


def test_zeta_agreement():
    for n in range(1, 9):
        r = check_zeta(n)
        assert r.ok, (n, r.abs_dev, r.tol)
        assert r.name == "zeta"
    # n = 1 is exactly B_2 = 1/6 against 2 * 2! / (2 pi)^2 * zeta(2)
    assert check_zeta(1).value == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_zeta_domain():
    with pytest.raises(DomainError):
        check_zeta(0)
    with pytest.raises(DomainError):
        check_zeta(9)


def test_g_squared():
    near = check_g_squared(2.0)
    assert near.ok and near.abs_dev < 1e-7
    mid = check_g_squared(5.0)
    assert mid.ok and mid.abs_dev < 1e-8
    far = check_g_squared(10.0)
    assert far.ok and far.abs_dev < 1e-9
    with pytest.raises(DomainError):
        check_g_squared(1.5)


def test_family_float_grid():
    for which in ("miki", "fpz", "mixed"):
        for n in (2, 5, 9):
            for p in (0.0, 1.0, 0.5, 2.75, -0.25):
                r = family_float(which, n, p)
                assert r.ok, (which, n, p, r.residual)
                assert r.identity == f"family-{which}"


def _exact_sides(which, n, p):
    """verify_family's sides as floats, scaled by their common gamma
    factor Gamma(p)^a Gamma(2p)^b, each with the summed magnitude of its
    terms (the scale that rounding errors in the float lane live on)."""
    report = verify_family(which, n, p)
    sides = []
    for value, terms in zip((report.lhs, report.rhs), family_terms(which, n)):
        reduced = [gamma_reduce(term, p) for term in terms]
        assert sum(r.value for r in reduced) == value
        a, b = reduced[0].exp_gamma_p, reduced[0].exp_gamma_2p
        scale = (math.gamma(p) ** a if a else 1.0) * (math.gamma(2 * p) ** b if b else 1.0)
        size = float(sum(abs(r.value) for r in reduced)) * abs(scale)
        sides.append((float(value) * scale, size))
    return sides


@pytest.mark.parametrize("which", FAMILY_KINDS)
def test_family_float_matches_exact_lane(which):
    # n = 2 and n = 4 reach the merged Gamma(p+1)^2 and Gamma(p+n)^2 factors
    for n in (2, 3, 4, 10, 40, 80):
        for p in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 4), Fraction(5, 2)):
            r = family_float(which, n, float(p))
            (lhs, lhs_size), (rhs, rhs_size) = _exact_sides(which, n, p)
            assert abs(r.lhs - lhs) <= 1e-12 * lhs_size, (n, p)
            assert abs(r.rhs - rhs) <= 1e-12 * rhs_size, (n, p)
            assert r.ok


def test_family_float_has_no_vacuous_pass():
    # once ok with lhs = -inf and rhs = +inf, and a spurious "gamma pole"
    for which, n, p in (("fpz", 75, 2.95), ("miki", 60, 2.75)):
        r = family_float(which, n, p)
        assert r.ok and math.isfinite(r.lhs) and math.isfinite(r.rhs)
        assert r.lhs == pytest.approx(_exact_sides(which, n, Fraction(p))[0][0], rel=1e-12)
    # once an OverflowError traceback: out of double range is a DomainError
    with pytest.raises(DomainError, match="double range"):
        family_float("fpz", 90, 0.5)


def test_family_float_errors():
    with pytest.raises(DomainError):
        family_float("miki", 2, -1.0)
    with pytest.raises(DomainError):
        family_float("miki", 2, math.nan)
    with pytest.raises(DomainError):
        family_float("miki", 1, 0.5)
    with pytest.raises(UnknownName):
        family_float("euler", 2, 0.5)


def test_quad_result_dict_keys():
    row = quad_rep("psi_tilde", 5.0).as_dict()
    assert list(row) == ["name", "x", "p", "value", "target", "abs_dev", "tol", "est_error", "ok"]
    assert row["ok"] is True
    assert row["tol"] == 1e-8 and 0 <= row["est_error"] <= 1e-8
    fam = family_float("mixed", 3, 0.5).as_dict()
    assert list(fam) == ["identity", "n", "p", "lhs", "rhs", "residual", "ok"]


def test_names_registry():
    assert set(QUAD_NAMES) == {"psi_tilde", "psi_bar", "psi_tilde_p", "psi_bar_p", "g"}
