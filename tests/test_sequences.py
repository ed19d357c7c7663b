"""Exact-core tests.

The package's B kernel is Seidel's triangle for the Genocchi numbers
G_2n = 2(1 - 4^n) B_2n, and its E kernel the secant triangle of Brent and
Harvey grown one column at a time.  Three oracles share no code with
them, and the B kernel shares its triangle with none of them:

* the boustrophedon (Seidel zigzag) triangle, pure integer additions:
  tangent numbers give B_2n through 4^n(4^n-1), secant numbers give E_2n;
* the Fraction recurrences the package used before the kernels,
  sum(C(n+1,k) B_k, k=0..n) = 0 and the cosh inversion
  sum(C(2m,2j) E_{2m-2j}, j=0..m) = 0, checked to B_300 and E_300 under
  several growth orders of the tables;
* Brent and Harvey's in-place kernels for one fixed N: the tangent
  numbers, tied to the Genocchi row by |G_2n| = n T_n / 4^(n-1), and the
  secant numbers, the triangle the E kernel grows one column at a time.

The series layer reads B from a second table, ``series_bern``, grown by
the tangent triangle of Brent and Harvey one column at a time.  The
in-place tangent kernel mirrors that triangle, so for that table only the
zigzag triangle and the Fraction recurrence are independent oracles; the
two B tables must also agree entry for entry.

The rising-factorial prefix tables are checked against the direct product
q (q+1) ... (q+m-1), which the package no longer computes.
"""

import inspect
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

import bernkit
from bernkit import (
    DomainError,
    SequenceCache,
    bernoulli,
    bernoulli_bar,
    euler_number,
    harmonic,
    harmonic_second,
    rising_factorial,
)
from bernkit.identities import _binomial_row


def zigzag(n_max: int) -> list[int]:
    """Zigzag numbers 1,1,1,2,5,16,61,272,... by boustrophedon additions."""
    values = [1]
    row = [1]
    for _ in range(n_max):
        prev = row
        row = [0]
        for k in range(len(prev)):
            row.append(row[-1] + prev[len(prev) - 1 - k])
        values.append(row[-1])
    return values


Z = zigzag(61)


def oracle_bernoulli(n: int) -> Fraction:
    """B_2n from the tangent number Z_{2n-1}."""
    four = 4**n
    return Fraction((-1) ** (n - 1) * Z[2 * n - 1] * 2 * n, four * (four - 1))


ORACLE_MAX = 300


@cache
def recurrence_bernoulli() -> list[Fraction]:
    """B_0..B_ORACLE_MAX by sum(C(m+1,k) B_k, k=0..m) = 0."""
    bern = [Fraction(1)]
    for m in range(1, ORACLE_MAX + 1):
        bern.append(Fraction(-sum(comb(m + 1, k) * bern[k] for k in range(m)), m + 1))
    return bern


@cache
def recurrence_euler() -> list[int]:
    """E_0..E_ORACLE_MAX by inverting cosh: sum(C(2m,2j) E_{2m-2j}, j=0..m) = 0."""
    eul = [1]
    for m in range(1, ORACLE_MAX + 1):
        eul.append(0 if m % 2 else -sum(comb(m, 2 * j) * eul[m - 2 * j] for j in range(1, m // 2 + 1)))
    return eul


# one request for the top index; every index in turn; jumps of uneven
# length, odd and even, that each add a different number of columns; a
# late upward scan by 2, as a deep scan asks for B_2n at n, n+1, ...
GROWTH_ORDERS = {
    "one-shot": [ORACLE_MAX],
    "stepwise": list(range(ORACLE_MAX + 1)),
    "boundaries": [1, 2, 3, 7, 9, 16, 17, 70, 129, 257, ORACLE_MAX],
    "upward-by-2": list(range(250, ORACLE_MAX + 1, 2)),
}


def tangent_numbers(N: int) -> list[int]:
    """T[k] = T_k, 1 <= k <= N, by Brent and Harvey's in-place kernel."""
    T = [0, 1] + [0] * (N - 1)
    for k in range(2, N + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, N + 1):
        for j in range(k, N + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def secant_numbers(N: int) -> list[int]:
    """S[k] = S_k, 0 <= k <= N, by Brent and Harvey's in-place kernel."""
    S = [1] + [0] * N
    for k in range(1, N + 1):
        S[k] = k * S[k - 1]
    for k in range(1, N + 1):
        for j in range(k + 1, N + 1):
            S[j] = (j - k) * S[j - 1] + (j - k + 1) * S[j]
    return S


def test_column_kernels_match_the_in_place_kernels():
    N = ORACLE_MAX
    genocchi, secant, tangent_ends = [1], [1], [0]
    g_row, s_col, t_col = [1], [], []
    for j in range(2, N + 1):
        g_row = bernkit.sequences._next_genocchi_row(g_row)
        assert len(g_row) == j
        genocchi.append(g_row[0])
    for j in range(1, N + 1):
        s_col = bernkit.sequences._next_secant_column(s_col)
        assert len(s_col) == j
        secant.append(s_col[-1])
        t_col = bernkit.sequences._next_tangent_column(t_col)
        assert len(t_col) == j
        tangent_ends.append(t_col[-1])
    tangent = tangent_numbers(N)
    assert tangent_ends == tangent
    assert genocchi == [Fraction(n * tangent[n], 4 ** (n - 1)) for n in range(1, N + 1)]
    assert secant == secant_numbers(N)
    assert genocchi[:6] == [1, 1, 3, 17, 155, 2073] and secant[:6] == [1, 1, 5, 61, 1385, 50521]


def two_multiply_secant_column(col: list[int]) -> list[int]:
    """Column j+1 of the secant triangle by the recurrence as written,
    A_k(j+1) = (j+1-k) A_k(j) + (j+2-k) A_(k-1)(j+1), two multiplies per entry."""
    j = len(col)
    if not j:
        return [1]
    nxt = [(j + 1) * col[0]]
    for k in range(1, j):
        nxt.append((j + 1 - k) * col[k] + (j + 2 - k) * nxt[k - 1])
    nxt.append(col[-1] + 2 * nxt[-1])
    return nxt


def test_secant_column_steps_with_one_multiply_per_entry():
    # whole columns, not only their ends, match the two-multiply recurrence,
    # and the ends E_2n = (-1)^n S_n invert cosh: sum C(2n, 2k) E_2k = 0
    col, ends = [], [1]
    for j in range(1, 101):
        step = bernkit.sequences._next_secant_column(col)
        if j <= 60:
            assert step == two_multiply_secant_column(col), j
        col = step
        ends.append((-1) ** j * col[-1])
    for n in range(1, 101):
        assert sum(comb(2 * n, 2 * k) * ends[k] for k in range(n + 1)) == 0, n


def test_tables_grow_to_the_requested_index(monkeypatch):
    # no growth block: a deep scan's B_806 and E_804 step the Genocchi row
    # to exactly k = 403 and the secant column to 402, and no step goes
    # past the request
    steps = []
    step = bernkit.sequences._next_genocchi_row
    monkeypatch.setattr(bernkit.sequences, "_next_genocchi_row", lambda row: steps.append(1) or step(row))
    cache = SequenceCache()
    cache.bernoulli(3)
    assert cache.genocchi_row == [1] and not steps
    cache.bernoulli(806)
    cache.euler_number(804)
    assert len(cache.bern) == 807 and len(cache.eul) == 805
    assert len(cache.genocchi_row) == 403 and len(cache.secant_col) == 402
    assert len(steps) == 402
    cache.bernoulli(807)
    cache.euler_number(805)
    assert len(cache.bern) == 808 and len(cache.eul) == 806
    assert len(cache.genocchi_row) == 403 and len(cache.secant_col) == 402
    assert len(steps) == 402
    cache.bernoulli(808)
    assert len(cache.bern) == 809 and len(cache.genocchi_row) == 404 and len(steps) == 403


@pytest.mark.parametrize("order", sorted(GROWTH_ORDERS))
def test_bernoulli_matches_recurrence_oracle(order):
    cache = SequenceCache()
    for n in GROWTH_ORDERS[order]:
        assert cache.bernoulli(n) == recurrence_bernoulli()[n], n
    assert cache.bern[: ORACLE_MAX + 1] == recurrence_bernoulli()


@pytest.mark.parametrize("order", sorted(GROWTH_ORDERS))
def test_series_bernoulli_matches_recurrence_oracle(order):
    cache = SequenceCache()
    for n in GROWTH_ORDERS[order]:
        assert cache.series_bernoulli(n) == recurrence_bernoulli()[n], n
    assert cache.series_bern[: ORACLE_MAX + 1] == recurrence_bernoulli()
    assert len(cache.bern) == 1  # the folds' table is not touched


@pytest.mark.parametrize("stepwise", [False, True], ids=["one-request", "index-by-index"])
def test_the_two_bernoulli_tables_agree_through_b806(stepwise):
    # the Genocchi table of the folds and the tangent table of the series
    # share no kernel, and must hold the same numbers through a deep
    # scan's B_806, however the series table grows
    cache = SequenceCache()
    cache.bernoulli(806)
    for n in range(807) if stepwise else [806]:
        cache.series_bernoulli(n)
    assert len(cache.series_bern) == 807 and len(cache.tangent_col) == 403
    assert cache.series_bern == cache.bern


def test_series_table_grows_from_its_own_column():
    # the tangent column is the series table's kernel state: growth past a
    # corrupted entry appends true entries, and neither table's growth
    # reads or writes the other
    cache = SequenceCache()
    cache.series_bernoulli(10)
    cache.series_bern[4] += 1
    assert cache.series_bernoulli(100) == recurrence_bernoulli()[100]
    assert cache.series_bern[4] == Fraction(-1, 30) + 1
    assert cache.series_bern[11:] == recurrence_bernoulli()[11:101]
    assert len(cache.bern) == 1 and cache.genocchi_row == [1]
    assert cache.bernoulli(100) == recurrence_bernoulli()[100] and cache.bern[4] == Fraction(-1, 30)
    assert len(cache.tangent_col) == 50
    with pytest.raises(DomainError):
        cache.series_bernoulli(-1)


@pytest.mark.parametrize("order", sorted(GROWTH_ORDERS))
def test_euler_matches_recurrence_oracle(order):
    cache = SequenceCache()
    for n in GROWTH_ORDERS[order]:
        assert cache.euler_number(n) == recurrence_euler()[n], n
    assert cache.eul[: ORACLE_MAX + 1] == recurrence_euler()


def test_growth_never_rewrites_entries():
    # growth past a corrupted entry appends fresh entries and leaves the
    # corrupted one (and every other existing entry) as it was
    cache = SequenceCache()
    cache.bernoulli(10)
    cache.euler_number(10)
    cache.bern[4] += 1
    cache.eul[6] += 1
    bern_before, eul_before = list(cache.bern), list(cache.eul)
    assert cache.bernoulli(100) == recurrence_bernoulli()[100]
    assert cache.euler_number(100) == recurrence_euler()[100]
    assert cache.bern[: len(bern_before)] == bern_before
    assert cache.eul[: len(eul_before)] == eul_before
    assert cache.bern[4] == Fraction(-1, 30) + 1 and cache.eul[6] == -60
    assert cache.bern[len(bern_before):] == recurrence_bernoulli()[len(bern_before):len(cache.bern)]

    # a rising-factorial table grows from its last entry: entries below the
    # corruption and the new ones built from an intact last entry are right
    q = Fraction(2, 3)
    cache.rising_factorial(q, 6)
    table = cache.rising[2, 3]
    num, den = table[3]
    table[3] = num + den, den
    rising_before = list(table)
    assert cache.rising_factorial(q, 20) == direct_rising(q, 20)
    assert table[: len(rising_before)] == rising_before
    assert Fraction(*table[3]) == direct_rising(q, 3) + 1
    assert table[len(rising_before):] == [
        direct_rising(q, m).as_integer_ratio() for m in range(len(rising_before), 21)]


def test_bernoulli_small_table():
    table = [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(5, 66), Fraction(0),
        Fraction(-691, 2730),
    ]
    assert [bernoulli(n) for n in range(13)] == table


def test_bernoulli_against_zigzag_oracle():
    for n in range(1, 31):
        assert bernoulli(2 * n) == oracle_bernoulli(n)


def test_bernoulli_odd_vanish():
    assert all(bernoulli(2 * n + 1) == 0 for n in range(1, 30))


def _small_primes(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
    return [q for q, is_p in enumerate(sieve) if is_p]


def test_von_staudt_clausen():
    # B_2n + sum(1/q) over primes q with (q-1) | 2n is an integer
    primes = _small_primes(401)
    for n in range(1, 201):
        total = bernoulli(2 * n) + sum(
            Fraction(1, q) for q in primes if q <= 2 * n + 1 and (2 * n) % (q - 1) == 0
        )
        assert total.denominator == 1, n


def test_bernoulli_bar_table():
    assert bernoulli_bar(0) == 1
    assert bernoulli_bar(1) == 0
    assert bernoulli_bar(2) == Fraction(-1, 12)
    assert bernoulli_bar(4) == Fraction(7, 240)
    assert bernoulli_bar(6) == Fraction(-31, 1344)


def test_bernoulli_bar_definition():
    for n in range(0, 40):
        half_pow = Fraction(2) ** (n - 1)
        assert bernoulli_bar(n) == (1 - half_pow) / half_pow * bernoulli(n)


def test_bernoulli_bar_follows_a_corrupted_bernoulli_entry(monkeypatch):
    # Bbar is not cached: it is rebuilt from B on every call
    cache = SequenceCache()
    monkeypatch.setattr(bernkit.sequences, "_DEFAULT", cache)
    before = bernoulli_bar(10)
    assert before == Fraction(-511, 512) * Fraction(5, 66)
    cache.bern[10] += 1
    assert bernoulli_bar(10) == Fraction(-511, 512) * (Fraction(5, 66) + 1) != before


def test_euler_numbers():
    assert [euler_number(n) for n in (0, 2, 4, 6, 8, 10)] == [1, -1, 5, -61, 1385, -50521]
    assert all(euler_number(2 * n + 1) == 0 for n in range(20))


def test_euler_against_zigzag_oracle():
    for n in range(0, 31):
        assert euler_number(2 * n) == (-1) ** n * Z[2 * n]


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(5) == Fraction(137, 60)
    assert harmonic(6) == Fraction(49, 20)


def test_harmonic_second_values():
    assert harmonic_second(1) == Fraction(1, 2)
    assert harmonic_second(2) == Fraction(35, 24)
    assert harmonic_second(3) == Fraction(203, 90)


def test_harmonic_second_brute_force():
    for n in range(1, 12):
        brute = sum(
            Fraction(1, i * j)
            for i in range(1, 2 * n + 1)
            for j in range(i + 1, 2 * n + 1)
        )
        assert harmonic_second(n) == brute


def test_harmonic_second_runs_both_routes_on_every_read(monkeypatch):
    order = [n for _ in range(3) for n in (4, 1, 9, 4)]
    expected = [harmonic_second(n) for n in order]
    checked = []
    real = bernkit.sequences.check_routes

    def counted(*args):
        checked.append(args[1])
        real(*args)

    monkeypatch.setattr(bernkit.sequences, "check_routes", counted)
    cache = SequenceCache()
    assert [cache.harmonic_second(n) for n in order] == expected
    assert checked == expected
    # no value is kept: a table poisoned after a clean read fails every
    # later read, and the unpoisoned n still read cleanly
    cache.harm2[18] += 1
    for _ in range(2):
        with pytest.raises(bernkit.RouteMismatch, match="symmetric form"):
            cache.harmonic_second(9)
    assert len(checked) == len(order) + 2
    assert cache.harmonic_second(4) == expected[0]


def test_harmonic_second_reads_its_prefix_table_in_any_order():
    # the folded route reads F_(2n-1) = sum(H_l/(l+1), l=1..2n-1); at n = 0
    # that is the empty sum, never the last entry of a grown table
    def direct(n):
        h, total = Fraction(0), Fraction(0)
        for l in range(1, 2 * n):
            h += Fraction(1, l)
            total += h / (l + 1)
        return total

    expected = {n: direct(n) for n in range(61)}
    cache = SequenceCache()
    for n in [*range(60, -1, -1), *range(61)]:
        assert cache.harmonic_second(n) == expected[n], n
    assert len(cache.hfold) == len(cache.harm2) == 121
    fresh = SequenceCache()
    assert [fresh.harmonic_second(n) for n in range(61)] == [expected[n] for n in range(61)]
    assert cache.harmonic_second(0) == fresh.harmonic_second(0) == 0


@given(st.integers(min_value=0, max_value=400))
def test_harmonic_step(i):
    assert harmonic(i + 1) - harmonic(i) == Fraction(1, i + 1)


def test_harmonic_tables_are_prefix_sums():
    cache = SequenceCache()
    assert cache.harmonic(30) == sum(Fraction(1, j) for j in range(1, 31))
    cache.harmonic_second(15)
    assert len(cache.harm) == len(cache.harm2) == len(cache.hfold) == 31
    for i in range(31):
        assert cache.harm2[i] == sum((Fraction(1, j * j) for j in range(1, i + 1)), Fraction(0))
    with pytest.raises(DomainError):
        cache.harmonic(-1)
    with pytest.raises(DomainError):
        cache.harmonic_second(-1)


def test_harmonic_grows_only_its_own_table():
    # deep rows read H_i to i = 806 and never H^(2) or the fold; those two
    # tables grow only when harmonic_second reads them
    cache = SequenceCache()
    cache.harmonic(806)
    assert len(cache.harm) == 807
    assert len(cache.harm2) == len(cache.hfold) == 1


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
def test_binomial_pascal(n, k):
    # the package's binomials, the Pascal rows of identities, against
    # Pascal's rule C(n, k) = C(n-1, k-1) + C(n-1, k)
    k = min(k, n)
    above, row = _binomial_row(n - 1), _binomial_row(n)
    assert row[k] == (above[k - 1] if k else 0) + (above[k] if k < n else 0)


def test_rising_factorial():
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising_factorial(Fraction(7, 3), 0) == 1
    assert rising_factorial(Fraction(3), 4) == 360
    assert rising_factorial(Fraction(-2), 3) == 0


@pytest.mark.parametrize("q", (0.5, "1/2", "0.5", Decimal("0.5")),
                         ids=["float", "str-ratio", "str-decimal", "Decimal"])
def test_rising_factorial_converts_what_fraction_accepts(q):
    # a float, string or Decimal anchor is converted once and keys the
    # table of its reduced Fraction
    cache = SequenceCache()
    assert cache.rising_factorial(q, 3) == rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising_factorial(q, 3) == Fraction(15, 8)
    assert cache.rising == {(1, 2): [(1, 1), (1, 2), (3, 4), (15, 8)]}


@pytest.mark.parametrize("q", ("abc", None, float("inf"), float("nan"), "1/0", [1, 2]),
                         ids=["word", "None", "inf", "nan", "zero-denominator", "list"])
def test_non_rational_anchor_is_a_domain_error(q):
    # once a bare AttributeError ('float' object has no attribute 'numerator')
    cache = SequenceCache()
    with pytest.raises(DomainError, match="rational"):
        cache.rising_factorial(q, 3)
    with pytest.raises(DomainError, match="rational"):
        rising_factorial(q, 3)
    assert cache.rising == {}


def direct_rising(q: Fraction, m: int) -> Fraction:
    """(q)_m as the direct product q (q+1) ... (q+m-1), the test oracle."""
    result = Fraction(1)
    for j in range(m):
        result *= q + j
    return result


RISING_ORDERS = {
    "one-shot": lambda top: [top],
    "stepwise": lambda top: list(range(top + 1)),
    "descending": lambda top: list(range(top, -1, -1)),
}


@given(
    st.fractions(min_value=-12, max_value=12, max_denominator=7)
    | st.integers(min_value=-12, max_value=0).map(Fraction),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(sorted(RISING_ORDERS)),
)
def test_rising_factorial_matches_direct_product(q, top, order):
    # nonpositive integers q included: there (q)_m = 0 for every m > -q.
    # Every table entry is the oracle's reduced integer pair with a
    # positive denominator, (0, 1) for a zero, in any growth order
    cache = SequenceCache()
    for m in RISING_ORDERS[order](top):
        value = cache.rising_factorial(q, m)
        assert type(value) is Fraction and value == direct_rising(q, m), (q, m)
    (key, table), = cache.rising.items()
    assert key == (q.numerator, q.denominator)
    assert len(table) == top + 1
    for m, (num, den) in enumerate(table):
        assert type(num) is type(den) is int and den > 0 and gcd(num, den) == 1, (q, m)
        assert (num, den) == direct_rising(q, m).as_integer_ratio(), (q, m)


def test_cache_injection_is_isolated(monkeypatch):
    poisoned = SequenceCache()
    poisoned.bernoulli(8)
    poisoned.bern[4] += 1
    with monkeypatch.context() as patch:
        patch.setattr(bernkit.sequences, "_DEFAULT", poisoned)
        assert bernoulli(4) == Fraction(-1, 30) + 1
        assert bernoulli(6) == Fraction(1, 42)  # already computed, untouched
    assert bernoulli(4) == Fraction(-1, 30)  # default cache unaffected


def test_fresh_cache_matches_default():
    cache = SequenceCache()
    assert [cache.bernoulli(n) for n in range(20)] == [bernoulli(n) for n in range(20)]
    assert [cache.euler_number(n) for n in range(20)] == [euler_number(n) for n in range(20)]


def _warm_bernoulli(n):
    cache = SequenceCache()
    cache.bernoulli(4)
    return cache.bernoulli(n)


def _warm_rising_factorial(m):
    # a grown table must not answer a negative m from its end
    cache = SequenceCache()
    cache.rising_factorial(Fraction(1, 2), 5)
    return cache.rising_factorial(Fraction(1, 2), m)


def _warm_bernoulli_bar(n):
    cache = SequenceCache()
    cache.bernoulli_bar(6)
    return cache.bernoulli_bar(n)


@pytest.mark.parametrize("call, args", [
    (lambda n: SequenceCache().bernoulli(n), (-1,)),
    (_warm_bernoulli, (-1,)),
    (lambda n: SequenceCache().euler_number(n), (-2,)),
    (bernoulli, (-1,)),
    (bernoulli_bar, (-3,)),
    (euler_number, (-2,)),
    (rising_factorial, (Fraction(1, 2), -2)),
    (_warm_rising_factorial, (-1,)),
    (_warm_bernoulli_bar, (-1,)),
], ids=["fresh-bernoulli", "warm-bernoulli", "fresh-euler", "bernoulli", "bernoulli_bar",
        "euler_number", "rising_factorial", "warm-rising_factorial", "warm-bernoulli_bar"])
def test_negative_indices_are_domain_errors(call, args):
    with pytest.raises(DomainError):
        call(*args)


def test_no_function_takes_a_cache():
    # one table set: tests inject a table by replacing sequences._DEFAULT
    from bernkit import cli, floatcheck, gammaalg, identities, series

    for module in (bernkit.sequences, series, gammaalg, identities, floatcheck, cli):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                assert "cache" not in inspect.signature(fn).parameters, f"{module.__name__}.{name}"
