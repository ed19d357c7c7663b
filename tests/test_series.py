"""Series-engine tests: construction invariants, truncation bookkeeping,
named expansions against frozen coefficients, and the transform ops."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bernkit.series
from bernkit import (
    ASYMPTOTIC,
    TAYLOR,
    DomainError,
    KindMismatch,
    TruncatedSeries,
    UnknownName,
    bernoulli,
    check_b_quadratic,
    laplace_asymptotic,
    named_series,
    series_add,
    series_mul,
    series_pow,
)

F = Fraction


def taylor(coeffs, trunc):
    return TruncatedSeries(TAYLOR, {m: F(c) for m, c in coeffs.items()}, trunc)


def test_construction_drops_zeros():
    s = taylor({0: 1, 1: 0, 2: 3}, 5)
    assert s.coeffs == {0: 1, 2: 3}
    assert s.coeff(1) == 0
    assert s.coeff(4) == 0


def test_construction_rejects_orders_beyond_trunc():
    with pytest.raises(DomainError):
        taylor({6: 1}, 5)


def test_construction_rejects_bad_kind():
    with pytest.raises(KindMismatch):
        TruncatedSeries("laurent", {0: F(1)}, 3)


def test_min_order():
    assert taylor({2: 1, 5: 1}, 9).min_order == 2
    assert taylor({}, 9).min_order == 10  # zero series: first unknown order
    assert taylor({-1: 1}, 4).min_order == -1


def test_add_mixed_kinds_rejected():
    a = taylor({0: 1}, 3)
    b = TruncatedSeries(ASYMPTOTIC, {1: F(1)}, 3)
    with pytest.raises(KindMismatch):
        series_add(a, b)
    with pytest.raises(KindMismatch):
        series_mul(a, b)


def test_mul_truncation_bookkeeping():
    a = taylor({1: 1}, 5)        # min order 1
    b = taylor({2: 1, 3: 4}, 7)  # min order 2
    prod = series_mul(a, b)
    assert prod.trunc == min(5 + 2, 7 + 1)
    assert prod.coeff(3) == 1 and prod.coeff(4) == 4


def test_mul_truncation_is_sound():
    # coefficients of a truncated product agree with a higher-order product
    # through the advertised truncation
    for order in (6, 9, 13):
        small = named_series("b", order)
        big = named_series("b", order + 8)
        ps, pb = series_mul(small, small), series_mul(big, big)
        for m in range(ps.trunc + 1):
            assert ps.coeff(m) == pb.coeff(m)


def plain_cauchy(a, b):
    """The Cauchy product written out term by term: the definition
    series_mul must match."""
    if a.kind != b.kind:
        raise KindMismatch(f"cannot combine {a.kind} with {b.kind}")
    trunc = min(a.trunc + b.min_order, b.trunc + a.min_order)
    coeffs = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            m = ma + mb
            if m <= trunc:
                coeffs[m] = coeffs.get(m, F(0)) + ca * cb
    return TruncatedSeries(a.kind, coeffs, trunc)


huge = st.integers(-(10**300), 10**300)
rationals = st.builds(
    F, st.integers(-9, 9) | huge, st.integers(1, 9) | st.integers(1, 10**300)
)


def any_series(kind):
    # orders from -3 (the 1/y Taylor term of the lemma routes) to 12; the
    # slack gives unequal truncations, and an empty dict the empty series
    return st.builds(
        lambda coeffs, slack: TruncatedSeries(kind, coeffs, max(coeffs, default=-2) + slack),
        st.dictionaries(st.integers(-3, 12), rationals | st.just(F(0)), max_size=8),
        st.integers(0, 6),
    )


series_pairs = st.sampled_from([TAYLOR, ASYMPTOTIC]).flatmap(
    lambda kind: st.tuples(any_series(kind), any_series(kind))
)


@settings(max_examples=300)
@given(series_pairs)
def test_mul_is_the_plain_cauchy_product(pair):
    a, b = pair
    product = series_mul(a, b)
    assert product == plain_cauchy(a, b)
    assert product.trunc == min(a.trunc + b.min_order, b.trunc + a.min_order)
    assert all(type(c) is F and c != 0 for c in product.coeffs.values())


def test_mul_drops_cancelled_orders():
    one_plus = taylor({-1: 1, 0: 1, 1: 1}, 4)
    one_minus = taylor({-1: 1, 0: -1, 1: 1}, 4)
    product = series_mul(one_plus, one_minus)
    assert product == plain_cauchy(one_plus, one_minus)
    assert product.items() == [(-2, F(1)), (0, F(1)), (2, F(1))] and product.trunc == 3
    empty = taylor({}, 5)
    assert series_mul(empty, one_plus) == plain_cauchy(empty, one_plus) == taylor({}, 4)


@pytest.mark.parametrize("variant", ["psi_tilde", "psi_bar"])
def test_pow_is_the_plain_cauchy_power(variant):
    base = named_series(variant, 128)
    plain = base
    for N in range(2, 5):
        plain = plain_cauchy(plain, base)
        assert series_pow(base, N) == plain, N


@pytest.mark.parametrize("name", ["psi_tilde", "psi_bar", "b", "zero"])
def test_pow_is_the_repeated_product(name):
    # binary powering brackets the products differently: the coefficients
    # and the truncation order (both compared by ==) must be those of
    # N - 1 repeated products
    base = taylor({}, 6) if name == "zero" else named_series(name, 12)
    repeated = base
    for N in range(1, 10):
        assert series_pow(base, N) == repeated, N
        repeated = series_mul(repeated, base)


def test_pow_squares_its_way_up(monkeypatch):
    calls = []
    real = bernkit.series.series_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(bernkit.series, "series_mul", counted)
    series_pow(named_series("psi_tilde", 8), 64)
    assert len(calls) <= 2 * (64).bit_length()


def test_pow_basics():
    b = named_series("b", 8)
    assert series_pow(b, 1) == b
    assert series_pow(b, 2) == series_mul(b, b)
    with pytest.raises(DomainError):
        series_pow(b, 0)


def test_square_coefficients_frozen():
    tilde = named_series("psi_tilde", 8)
    assert series_pow(tilde, 2).coeff(4) == F(1, 144)
    bar = named_series("psi_bar", 8)
    assert series_pow(bar, 2).coeff(4) == F(1, 576)
    assert series_pow(named_series("psi_tilde", 6), 3).coeff(6) == F(-1, 1728)


def test_named_b_series():
    b = named_series("b", 4)
    assert b.items() == [(0, F(1)), (1, F(-1, 2)), (2, F(1, 12)), (4, F(-1, 720))]


def test_named_psi_series():
    tilde = named_series("psi_tilde", 6)
    assert tilde.items() == [(2, F(-1, 12)), (4, F(1, 120)), (6, F(-1, 252))]
    assert tilde.kind == ASYMPTOTIC
    bar = named_series("psi_bar", 4)
    assert bar.items() == [(2, F(1, 24)), (4, F(-7, 960))]


def test_named_g_series():
    g = named_series("g", 5)
    assert g.items() == [(1, F(1, 2)), (3, F(-1, 8)), (5, F(5, 32))]


def test_named_trig_series():
    # coth y - 1/y = y/3 - y^3/45 + 2 y^5/945 - ...
    coth = named_series("coth_minus_inv", 5)
    assert coth.items() == [(1, F(1, 3)), (3, F(-1, 45)), (5, F(2, 945))]
    # 1/sinh y - 1/y = -y/6 + 7 y^3/360 - 31 y^5/15120 + ...
    inv = named_series("inv_sinh_minus_inv", 5)
    assert inv.items() == [(1, F(-1, 6)), (3, F(7, 360)), (5, F(-31, 15120))]
    # ln(sinh y / y) = y^2/6 - y^4/180 + ...
    log_ratio = named_series("log_sinh_ratio", 4)
    assert log_ratio.items() == [(2, F(1, 6)), (4, F(-1, 180))]
    sech = named_series("sech", 4)
    assert sech.items() == [(0, F(1)), (2, F(-1, 2)), (4, F(5, 24))]


def test_named_deriv_series():
    deriv = named_series("psi_tilde_deriv", 8, p=2)
    # d^2/dx^2 of -1/(12 x^2) contributes -6/12 = -1/2 at x^-4
    assert deriv.coeff(4) == F(-1, 2)
    # p = 0 reproduces the function itself
    assert named_series("psi_bar_deriv", 8, p=0) == named_series("psi_bar", 8)
    # p is passed as the keyword only; the inline text form
    # psi_tilde_deriv(2) belongs to the CLI (test_cli)
    with pytest.raises(TypeError):
        named_series("psi_tilde_deriv", 8, 2)
    with pytest.raises(UnknownName):
        named_series("psi_tilde_deriv(2)", 8)


@pytest.mark.parametrize("p", [2.0, F(1, 2), F(2), "2"])
def test_named_deriv_series_needs_an_int_p(p):
    # a non-int p, even an integral float or Fraction, is a package error
    # and not a TypeError from the coefficient arithmetic
    with pytest.raises(UnknownName, match="integer p"):
        named_series("psi_tilde_deriv", 8, p=p)


def test_named_psi_tilde_is_its_p0_derivative():
    # the twin of test_named_deriv_series' psi_bar check: each psi series
    # reads its own sequence, B for psi_tilde and Bbar for psi_bar
    assert named_series("psi_tilde_deriv", 40, p=0) == named_series("psi_tilde", 40)
    assert named_series("psi_tilde", 40) != named_series("psi_bar", 40)


def test_named_series_errors():
    with pytest.raises(UnknownName):
        named_series("psi_hat", 6)
    with pytest.raises(UnknownName):
        named_series("psi_tilde_deriv", 6)  # missing p
    with pytest.raises(UnknownName):
        named_series("psi_bar_deriv", 6, p=-1)
    with pytest.raises(UnknownName):
        named_series("sech", 6, p=1)


def test_laplace_transform():
    coth = named_series("coth_minus_inv", 9)
    image = laplace_asymptotic(coth)
    assert image.kind == ASYMPTOTIC
    assert image.trunc == 10
    # term-wise: 4^k B_2k/(2k)! * (2k-1)!/2^2k = B_2k/(2k)
    for k in range(1, 6):
        assert image.coeff(2 * k) == bernoulli(2 * k) / (2 * k)
    with pytest.raises(KindMismatch):
        laplace_asymptotic(image)
    with pytest.raises(DomainError):
        laplace_asymptotic(taylor({-1: 1}, 4))


small_series = st.builds(
    lambda d, trunc: TruncatedSeries(
        TAYLOR, {m: F(num, den) for m, (num, den) in d.items()}, trunc
    ),
    st.dictionaries(
        st.integers(min_value=0, max_value=6),
        st.tuples(st.integers(-9, 9), st.integers(1, 9)),
        max_size=4,
    ),
    st.integers(min_value=6, max_value=10),
)


@given(small_series, small_series)
def test_add_commutes(a, b):
    assert series_add(a, b) == series_add(b, a)


@given(small_series, small_series, small_series)
def test_mul_distributes_over_add(a, b, c):
    lhs = series_mul(a, series_add(b, c))
    rhs = series_add(series_mul(a, b), series_mul(a, c))
    # compare only through the order both sides vouch for
    bound = min(lhs.trunc, rhs.trunc)
    assert all(lhs.coeff(m) == rhs.coeff(m) for m in range(bound + 1))


def test_check_b_quadratic():
    assert check_b_quadratic(40)
    with pytest.raises(DomainError):
        check_b_quadratic(1)

