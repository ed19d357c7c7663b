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
from conftest import family_pairs

from bernkit import identities, quadrature, sequences
from bernkit import (
    DomainError,
    FAMILY_KINDS,
    IdentityReport,
    QUAD_NAMES,
    QuadFailure,
    TruncatedSeries,
    UnknownName,
    check_g_squared,
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
    assert quad_rep("psi_tilde_p", 8.0, p=3.0).ok
    # non-integer weight drops the prefactor, termwise-transform target
    assert quad_rep("psi_bar_p", 8.0, p=0.5).ok


def test_quad_g():
    r = quad_rep("g", 5.0)
    assert r.ok
    assert quad_rep("g", 10.0).abs_dev < 1e-9


@pytest.mark.parametrize("name, x, p", [("g", 1.0, 0.0),
                                        ("psi_tilde_p", 1.0, 0.5)])
def test_loose_series_target_is_unverified(name, x, p):
    # each of these passed against a tolerance that had grown to the
    # omitted term itself (0.125, 6.7e-3)
    r = quad_rep(name, x, p)
    assert r.abs_dev <= r.tol and r.tol > 1e-6
    assert not r.ok
    assert r.error.startswith("target unverified")
    assert math.isfinite(r.value)


@pytest.mark.parametrize("name, x, p", [("psi_tilde_p", 1.0, 3.0), ("psi_bar_p", 1.0, 5.0)])
def test_recurred_target_is_verified(name, x, p):
    # an integer-p psi target is the series at a shifted x plus exact
    # recurrence steps, so it is exact at x = 1 too; p = 3 used to be
    # unverified here (omitted term 1.0)
    r = quad_rep(name, x, p)
    assert r.ok, r.error
    assert r.tol == min(1e-8, 1e-5 * abs(r.target))
    assert r.abs_dev <= r.tol


def test_recurrence_bound_keeps_the_series_tolerance(monkeypatch):
    # with no shift allowed the target is the series at x itself, held to
    # its omitted term, so the row says it is unverified
    monkeypatch.setattr(quadrature, "_MAX_SHIFT", 0)
    r = quad_rep("psi_tilde_p", 1.0, 3.0)
    assert r.tol == optimal_series("psi_tilde_p", 1.0, 3.0)[1] > 1e-6
    assert r.error.startswith("target unverified")


def _mp_derivative(mpmath, name, x, p):
    """p-th derivative of the psi function named, by mpmath.diff of its
    digamma form at the working precision."""
    if name.startswith("psi_tilde"):
        f = lambda t: mpmath.digamma(t) - mpmath.log(t) + 1 / (2 * t)
    else:
        f = lambda t: mpmath.digamma(t + mpmath.mpf(1) / 2) - mpmath.log(t)
    return mpmath.diff(f, mpmath.mpf(x), p)


@pytest.mark.parametrize("name", ["psi_tilde_p", "psi_bar_p"])
def test_integer_p_target_matches_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for p in (1, 2, 3):
            for x in (1.0, 1.5, 2.0, 5.0, 7.0, 10.0, 20.0):
                exact = _mp_derivative(mpmath, name, x, p)
                target = quad_rep(name, x, float(p)).target
                rel = abs((target - exact) / exact)
                assert rel < 1e-12, (p, x, float(rel))


@pytest.mark.parametrize("name", ["psi_tilde_p", "psi_bar_p"])
@pytest.mark.parametrize("p, x", [(1, 1e4), (2, 1e3), (2, 3e3), (2, 1e4)])
def test_far_integer_p_rows_are_not_vacuous(name, p, x):
    # these passed against Richardson differences held to an absolute
    # 1e-7; the target is now exact, and the quadrature value is wrong
    mpmath = pytest.importorskip("mpmath")
    r = quad_rep(name, x, float(p))
    assert not r.ok and "exceeds the tolerance" in r.error
    with mpmath.workdps(40):
        exact = _mp_derivative(mpmath, name, x, p)
        assert abs((r.target - exact) / exact) < 1e-12


@pytest.mark.parametrize("name", ["psi_tilde", "psi_bar"])
def test_far_closed_form_rows_are_not_vacuous(name):
    # past x ~ 3000 the target is under the old absolute 1e-8, and by
    # x = 1e4 the quadrature has lost it; such rows fail, nearer ones pass
    for x in (1e4, 1e6):
        r = quad_rep(name, x)
        assert not r.ok and r.tol < abs(r.target) * 1e-4, x
        assert "exceeds the tolerance" in r.error
    for x in (1000.0, 3000.0):
        assert quad_rep(name, x).ok, x
    with pytest.raises(QuadFailure, match="below the normal double range"):
        quad_rep(name, 1e308)


@pytest.mark.parametrize("name", ["psi_tilde", "psi_bar"])
def test_p0_target_matches_mpmath(name):
    # the digamma closed form cancels at large x (psi_bar at x = 3000 was
    # off by 4.9e-7 relative); past x ~ 7 the target is the series
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in (5.0, 10.0, 20.0, 3000.0, 1e6):
            m = mpmath.mpf(x)
            if name == "psi_tilde":
                exact = mpmath.digamma(m) - mpmath.log(m) + 1 / (2 * m)
            else:
                exact = mpmath.digamma(m + mpmath.mpf(1) / 2) - mpmath.log(m)
            target = quad_rep(name, x).target
            rel = abs((target - exact) / exact)
            assert rel < (1e-12 if x < 7 else 1e-15), (x, float(rel))
    expected = {"psi_tilde": "-8.350e-322", "psi_bar": "4.150e-322"}[name]
    with pytest.raises(QuadFailure, match=f"target {expected} below the normal double range"):
        quad_rep(name, 1e160)


@pytest.mark.parametrize("name, x, p", [("psi_tilde_p", 1e4, 0.5), ("psi_tilde_p", 1e3, 2.5),
                                        ("psi_bar_p", 1e3, 3.0)])
def test_far_series_rows_are_not_vacuous(name, x, p):
    # a series target is held to 1e-5 of |target| as well: each of these
    # passed against an absolute 1e-8, or had no target at all (p = 3)
    r = quad_rep(name, x, p)
    assert not r.ok and r.tol <= abs(r.target) * 1e-5
    assert "exceeds the tolerance" in r.error
    assert quad_rep("psi_bar_p", 100.0, 3.0).ok
    with pytest.raises(QuadFailure, match="below the normal double range"):
        quad_rep(name, 1e100, 3.0)


def _mp_polygamma_form(mpmath, name, x, p):
    """p-th derivative of the psi function named, p >= 1, from mpmath's
    polygamma and the derivatives of ln x and 1/(2x) written out."""
    x = mpmath.mpf(x)
    log_term = (-1) ** (p - 1) * mpmath.factorial(p - 1) / x ** p
    if name.startswith("psi_tilde"):
        return mpmath.polygamma(p, x) - log_term + (-1) ** p * mpmath.factorial(p) / (2 * x ** (p + 1))
    return mpmath.polygamma(p, x + mpmath.mpf(1) / 2) - log_term


@pytest.mark.parametrize("name", ["psi_tilde_p", "psi_bar_p"])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_high_weight_quadrature_keeps_its_tail(name, x):
    # the tail was cut where exp(-2xs) < 1e-18, where s^10 exp(-2xs) still
    # carried mass: psi_bar_p read 320771.14077 at x = 1 against an exact
    # 320771.14123, and psi_tilde_p at x = 2 was off by 4.3e-6
    mpmath = pytest.importorskip("mpmath")
    r = quad_rep(name, x, 10.0)
    assert r.ok, r.error
    with mpmath.workdps(40):
        exact = _mp_polygamma_form(mpmath, name, x, 10)
        assert abs((r.value - exact) / exact) < 1e-12
        assert abs((r.target - exact) / exact) < 1e-12


@pytest.mark.parametrize("x, p", [(1.0, 0.0), (5.0, 0.0), (1.0, 0.5), (1.0, 10.0), (2.0, 10.0),
                                  (1.0, 60.0), (30.0, 3.0)])
def test_tail_cut_is_where_the_weight_has_fallen(x, p):
    # s^p exp(-2xs) at the cut is 1e-18 of its value at the peak p/(2x)
    cut = quadrature._tail_cut(x, p)
    peak = p / (2.0 * x)
    assert cut > peak
    log_ratio = (p * math.log(cut / peak) if p else 0.0) - 2.0 * x * (cut - peak)
    assert log_ratio == pytest.approx(math.log(quadrature._TAIL_EPS), rel=1e-8)


@pytest.mark.parametrize("name, x, p", [
    ("psi_tilde_p", 35.0, 100), ("psi_bar_p", 35.0, 100),
    ("psi_tilde_p", 100.0, 200), ("psi_bar_p", 100.0, 200),
], ids=["psi_tilde_p", "psi_bar_p", "psi_tilde_p-x100", "psi_bar_p-x100"])
def test_overflowed_series_terms_keep_a_real_bound(name, x, p):
    # past k = 50, 35^(2k+100) overflows a double; such a term was formed as
    # c * 35^-(2k+100), which underflowed to 0 and became the omitted term.
    # At x = 100, p = 200 every term overflows; formed through logarithms,
    # the sum was 2.2e-13 (psi_tilde_p) and 1.7e-13 (psi_bar_p) off
    mpmath = pytest.importorskip("mpmath")
    value, omitted = optimal_series(name, x, p)
    assert 0 < omitted < 1e-15 * abs(value)
    with mpmath.workdps(60):
        exact = _mp_polygamma_form(mpmath, name, x, p)
        assert abs((value - exact) / exact) < 1e-15


def test_quad_target_reads_named_series(monkeypatch):
    # the float target is built from the exact coefficients the identity
    # lane reads, so a wrong named_series coefficient fails the row
    assert quad_rep("psi_tilde_p", 10.0, 1.0).ok
    real = quadrature.named_series

    def perturbed(name, order, **kwargs):
        series = real(name, order, **kwargs)
        if name != "psi_tilde_deriv" or kwargs.get("p") != 1:
            return series
        coeffs = dict(series.coeffs)
        coeffs[3] *= 2
        return TruncatedSeries(series.kind, coeffs, series.trunc)

    monkeypatch.setattr(quadrature, "named_series", perturbed)
    # the coefficients are memoised per cache: a fresh one reads them anew
    monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
    assert not quad_rep("psi_tilde_p", 10.0, 1.0).ok


def _tripled_b4(*tables):
    """A fresh cache with B_4 tripled in each of ``tables``: ``bern``,
    which the digamma tail reads, and ``series_bern``, the series' own
    table, which the quad_rep targets read through named_series."""
    cache = sequences.SequenceCache()
    cache.bernoulli(4)
    cache.series_bernoulli(4)
    for table in tables:
        getattr(cache, table)[4] *= 3
    return cache


@pytest.mark.parametrize("used_first", [False, True], ids=["swap-first", "use-first"])
def test_float_coefficients_follow_the_swapped_cache(monkeypatch, used_first):
    # the digamma tail and the quad_rep target read B_4 from the cache that
    # is current, whether or not the float lane read another one first
    honest = quad_rep("psi_tilde_p", 10.0, 1.0).target, digamma(3.0)
    if used_first:
        monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
        assert (quad_rep("psi_tilde_p", 10.0, 1.0).target, digamma(3.0)) == honest
    monkeypatch.setattr(sequences, "_DEFAULT", _tripled_b4("bern", "series_bern"))
    tripled = quad_rep("psi_tilde_p", 10.0, 1.0).target, digamma(3.0)
    assert tripled[0] != honest[0] and tripled[1] != honest[1]
    # each float coefficient follows the one table it reads
    monkeypatch.setattr(sequences, "_DEFAULT", _tripled_b4("series_bern"))
    assert (quad_rep("psi_tilde_p", 10.0, 1.0).target, digamma(3.0)) == (tripled[0], honest[1])
    monkeypatch.setattr(sequences, "_DEFAULT", _tripled_b4("bern"))
    assert (quad_rep("psi_tilde_p", 10.0, 1.0).target, digamma(3.0)) == (honest[0], tripled[1])
    monkeypatch.setattr(sequences, "_DEFAULT", sequences.SequenceCache())
    assert (quad_rep("psi_tilde_p", 10.0, 1.0).target, digamma(3.0)) == honest


def _mp_g(mpmath, x):
    """g(x) = integral of exp(-2xs) sech s over s >= 0, which is Dirichlet's
    beta function at z = x + 1/2: (psi((z+1)/2) - psi(z/2)) / 2."""
    z = mpmath.mpf(x) + mpmath.mpf(1) / 2
    return (mpmath.digamma((z + 1) / 2) - mpmath.digamma(z / 2)) / 2


@pytest.mark.parametrize("x", [50.0, 100.0, 1000.0])
def test_far_g_rows_form_their_terms_through_logarithms(x):
    # E_2n/2^(2n+1) and x^(2n+1) leave the double range from x ~ 50 on,
    # though their ratio does not; these rows raised "leaves the double range"
    mpmath = pytest.importorskip("mpmath")
    r = quad_rep("g", x)
    assert r.ok, r.error
    with mpmath.workdps(40):
        exact = _mp_g(mpmath, x)
        assert abs((r.value - exact) / exact) < 1e-15
        assert abs((r.target - exact) / exact) < 1e-15


@pytest.mark.parametrize("name, x, p", [("psi_tilde_p", 1.5, 15), ("psi_bar_p", 1.5, 15),
                                        ("psi_tilde_p", 2.0, 20)])
def test_large_values_are_held_to_their_rounding(name, x, p):
    # near 8e8, 2e8 and 5e11 an absolute 1e-8 is under one ulp: the p = 15
    # rows failed on 1-ulp deviations, and at p = 20 quad's error estimate
    # 4.1e-8 (9e-14 of the integral) raised QuadFailure
    mpmath = pytest.importorskip("mpmath")
    r = quad_rep(name, x, float(p))
    assert r.ok, r.error
    assert r.tol == 4 * math.ulp(r.target) > 1e-8
    with mpmath.workdps(40):
        exact = _mp_polygamma_form(mpmath, name, x, p)
        assert abs(r.value - exact) <= 2 * math.ulp(r.target)
        assert abs(r.target - exact) <= math.ulp(r.target)


def test_quadrature_bound_is_relative_to_the_value(monkeypatch):
    # x = 1, p = 0 integrates two pieces, each reported as (value, error)
    integrate = pytest.importorskip("scipy.integrate")
    piece = {}
    monkeypatch.setattr(integrate, "quad", lambda f, a, b, **options: piece["result"])
    piece["result"] = (1e6, 5e-7)
    assert quadrature._integrate(None, 1.0) == (2e6, 1e-6)
    piece["result"] = (1e6, 2e-6)
    with pytest.raises(QuadFailure, match="exceeds 2.000e-06"):
        quadrature._integrate(None, 1.0)
    piece["result"] = (1.0, 1e-8)
    with pytest.raises(QuadFailure, match="exceeds 1.000e-08"):
        quadrature._integrate(None, 1.0)


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


@pytest.mark.parametrize("name", ["psi_tilde", "psi_bar", "g"])
def test_p_zero_rows_name_their_real_variants(name):
    # g has no _p variant: its error names the two representations that
    # take p != 0, and a psi row names its own _p variant
    with pytest.raises(DomainError) as raised:
        quad_rep(name, 5.0, p=3.0)
    message = str(raised.value)
    assert "g_p" not in message and "the _p variant" not in message
    variants = ("psi_tilde_p", "psi_bar_p") if name == "g" else (f"{name}_p",)
    assert all(v in message for v in variants)



@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["x", "p"])
def test_non_finite_arguments_are_domain_errors(arg, value):
    # unchecked, a nan or inf p gives _tail_cut a nan step that never ends
    # its loop, and a nan x meets a bare ValueError from Fraction
    args = {"x": 5.0, "p": 2.0, arg: value}
    with pytest.raises(DomainError):
        quad_rep("psi_tilde_p", **args)
    with pytest.raises(DomainError):
        quad_rep("psi_bar_p", **args)
    if arg == "x":
        with pytest.raises(DomainError):
            quad_rep("g", value)
        with pytest.raises(DomainError):
            check_g_squared(value)

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
    # the doubling relation behind the mixed identity, coth s + csch s =
    # coth(s/2), in double precision
    for i in range(40):
        s = 0.1 + (20.0 - 0.1) * i / 39.0
        lhs = math.cosh(s) / math.sinh(s) + 1.0 / math.sinh(s)
        rhs = math.cosh(s / 2.0) / math.sinh(s / 2.0)
        assert abs(lhs - rhs) < 1e-13, s


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


def test_family_float_row_is_an_identity_report():
    # the float twin's row is the exact lane's record, with float fields
    r = family_float("miki", 5, 0.5)
    assert type(r) is IdentityReport
    assert (r.identity, r.n, r.p, r.N) == ("family-miki", 5, 0.5, None)
    assert isinstance(r.lhs, float) and r.residual == r.lhs - r.rhs


def _exact_sides(which, n, p):
    """verify_family's sides as floats, scaled by their common gamma
    factor Gamma(p)^a Gamma(2p)^b, each with the summed magnitude of its
    terms (the scale that rounding errors in the float lane live on)."""
    report = verify_family(which, n, p)
    sides = []
    for value, terms in zip((report.lhs, report.rhs), family_pairs(which, n)):
        reduced = [gamma_reduce(product, p) for product, _ in terms]
        values = [Fraction(*scalar) * r.value for (_, scalar), r in zip(terms, reduced)]
        assert sum(values) == value
        a, b = reduced[0].exp_gamma_p, reduced[0].exp_gamma_2p
        scale = (math.gamma(p) ** a if a else 1.0) * (math.gamma(2 * p) ** b if b else 1.0)
        size = float(sum(abs(v) for v in values)) * abs(scale)
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


@pytest.mark.parametrize("p", (Fraction(1, 3), Fraction(3, 4), Fraction(5, 2)))
@pytest.mark.parametrize("which", FAMILY_KINDS)
def test_exact_family_sides_omit_gamma_p_squared(which, p):
    # an exact family row reports its sides with the common factor
    # Gamma(p)^a Gamma(2p)^b divided out, (a, b) = (2, 0) for every kind;
    # the float twin reports the true sides
    assert {gamma_reduce(product, p)[:2]
            for side in family_pairs(which, 5) for product, _ in side} == {(2, 0)}
    exact, twin = verify_family(which, 5, p), family_float(which, 5, float(p))
    scale = math.gamma(p) ** 2
    for true, reported in ((twin.lhs, exact.lhs), (twin.rhs, exact.rhs)):
        assert abs(true / (float(reported) * scale) - 1) <= 1e-12


def test_family_scalar_floats_are_the_fraction_floats():
    # the float twin reads each scalar as num / S, its numerator over the
    # side's common denominator, bit for bit the float of the exact
    # rational, so its rows keep their digits
    for which in FAMILY_KINDS:
        for n in range(2, 31):
            for common, numerators in family_terms(which, n):
                for num in numerators:
                    assert (num / common).hex() == float(Fraction(num, common)).hex(), (which, n)


def test_family_float_has_no_vacuous_pass():
    # once ok with lhs = -inf and rhs = +inf, and a spurious "gamma pole"
    for which, n, p in (("fpz", 75, 2.95), ("miki", 60, 2.75)):
        r = family_float(which, n, p)
        assert r.ok and math.isfinite(r.lhs) and math.isfinite(r.rhs)
        assert r.lhs == pytest.approx(_exact_sides(which, n, Fraction(p))[0][0], rel=1e-12)
    # once an OverflowError traceback: out of double range is a DomainError
    with pytest.raises(DomainError, match="double range"):
        family_float("fpz", 90, 0.5)


@pytest.mark.parametrize("which", FAMILY_KINDS)
def test_family_float_range_edge(which):
    # at p = 0.75 the largest gamma argument, 2p+2n+1, passes math.gamma's
    # limit near 171.6 between n = 84 and n = 85; the common factor
    # Gamma(2p+2n) of the right side does not move that edge
    assert family_float(which, 84, 0.75).ok
    with pytest.raises(DomainError, match="leaves the double range"):
        family_float(which, 85, 0.75)


def test_family_float_is_relative_on_small_sides(monkeypatch):
    # fpz at n = 5, p = -0.999 has sides near 5.3e-5: a left scalar off by
    # a relative 1e-6 moves the residual by about 5e-11, under an absolute
    # 1e-8 but 1e-6 of the sides
    assert family_float("fpz", 5, -0.999).ok
    (common, (num, *rest)), rhs = family_terms("fpz", 5)
    poisoned = ((common * 10**6, [num * (10**6 + 1), *(m * 10**6 for m in rest)]), rhs)
    layout = identities._family("fpz", 5)[1]
    cache = sequences.SequenceCache()
    cache.slot = (5, {("family", "fpz"): poisoned, "family-layout": layout})
    monkeypatch.setattr(sequences, "_DEFAULT", cache)
    r = family_float("fpz", 5, -0.999)
    assert abs(r.lhs) < 1e-4 and abs(r.residual) < 1e-8
    assert not r.ok


def test_family_float_errors():
    with pytest.raises(DomainError):
        family_float("miki", 2, -1.0)
    with pytest.raises(DomainError):
        family_float("miki", 2, math.nan)
    with pytest.raises(DomainError):
        family_float("miki", 1, 0.5)
    with pytest.raises(UnknownName):
        family_float("euler", 2, 0.5)


def test_names_registry():
    assert set(QUAD_NAMES) == {"psi_tilde", "psi_bar", "psi_tilde_p", "psi_bar_p", "g"}
