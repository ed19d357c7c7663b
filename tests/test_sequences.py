"""Exact-core tests.

Two oracles share no code with the package's tangent/secant kernels:

* the boustrophedon (Seidel zigzag) triangle, pure integer additions:
  tangent numbers give B_2n through 4^n(4^n-1), secant numbers give E_2n;
* the Fraction recurrences the package used before the kernels,
  sum(C(n+1,k) B_k, k=0..n) = 0 and the cosh inversion
  sum(C(2m,2j) E_{2m-2j}, j=0..m) = 0, checked to B_300 and E_300 under
  several growth orders of the doubling tables.
"""

import inspect
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, strategies as st

import bernkit
from bernkit import (
    DomainError,
    PartsMismatch,
    SequenceCache,
    bernoulli,
    bernoulli_bar,
    binomial,
    euler_number,
    harmonic,
    harmonic_second,
    multinomial,
    rising_factorial,
)


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


# one request for the top index; every index in turn; requests that each
# cross one or more doubling boundaries (8, 16, 32, 64, 128, 256)
GROWTH_ORDERS = {
    "one-shot": [ORACLE_MAX],
    "stepwise": list(range(ORACLE_MAX + 1)),
    "boundaries": [1, 2, 3, 7, 9, 16, 17, 70, 129, 257, ORACLE_MAX],
}


@pytest.mark.parametrize("order", sorted(GROWTH_ORDERS))
def test_bernoulli_matches_recurrence_oracle(order):
    cache = SequenceCache()
    for n in GROWTH_ORDERS[order]:
        assert cache.bernoulli(n) == recurrence_bernoulli()[n], n
    assert cache.bern[: ORACLE_MAX + 1] == recurrence_bernoulli()


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


@given(st.integers(min_value=0, max_value=400))
def test_harmonic_step(i):
    assert harmonic(i + 1) - harmonic(i) == Fraction(1, i + 1)


def test_harmonic_tables_are_prefix_sums():
    cache = SequenceCache()
    assert cache.harmonic(30) == sum(Fraction(1, j) for j in range(1, 31))
    assert len(cache.harm) == len(cache.harm2) == 31
    for i in range(31):
        assert cache.harm2[i] == sum((Fraction(1, j * j) for j in range(1, i + 1)), Fraction(0))
    with pytest.raises(DomainError):
        cache.harmonic(-1)


def test_binomial_matches_comb_and_clips():
    for n in range(0, 12):
        for k in range(-2, n + 3):
            expected = comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
def test_binomial_pascal(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_multinomial():
    assert multinomial(6, [2, 2, 2]) == 90
    assert multinomial(4, [4]) == 1
    assert multinomial(0, []) == 1
    with pytest.raises(PartsMismatch):
        multinomial(5, [2, 2])


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4)
)
def test_multinomial_as_binomial_chain(parts):
    n = sum(parts)
    expected = 1
    rest = n
    for part in parts:
        expected *= comb(rest, part)
        rest -= part
    assert multinomial(n, parts) == expected


def test_rising_factorial():
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising_factorial(Fraction(7, 3), 0) == 1
    assert rising_factorial(Fraction(3), 4) == 360
    assert rising_factorial(Fraction(-2), 3) == 0


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


@pytest.mark.parametrize("call, args", [
    (lambda n: SequenceCache().bernoulli(n), (-1,)),
    (_warm_bernoulli, (-1,)),
    (lambda n: SequenceCache().euler_number(n), (-2,)),
    (bernoulli, (-1,)),
    (bernoulli_bar, (-3,)),
    (euler_number, (-2,)),
    (rising_factorial, (Fraction(1, 2), -2)),
    (multinomial, (3, [-1, 4])),
], ids=["fresh-bernoulli", "warm-bernoulli", "fresh-euler", "bernoulli", "bernoulli_bar",
        "euler_number", "rising_factorial", "multinomial"])
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
