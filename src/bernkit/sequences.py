"""Exact rational arithmetic for the classical number sequences.

All values are ``fractions.Fraction`` (reduced, positive denominator) or
plain integers, so every downstream identity check is exact.  Conventions:

* Bernoulli numbers follow x/(e^x - 1) = sum B_n x^n / n!, so B_1 = -1/2.
* Modified Bernoulli numbers are Bbar_n = ((1 - 2^(n-1)) / 2^(n-1)) B_n,
  the weight written once, as the integer pair ``bbar_scale(n)``; Bbar is
  not stored, so it always follows the B table it is read from.
* Euler numbers are the sech coefficients, sech s = sum E_n s^n / n!.

Bernoulli and Euler tables grow on demand inside a ``SequenceCache``;
computing index n fills every lower index and no higher one.  B comes
from Seidel's triangle for the Genocchi numbers G_2k = 2(1 - 4^k) B_2k
(D. Dumont, Duke Math. J. 41 (1974) 305-318), with additions only: from
the row of step k, whose end is |G_2k|, a running sum left to right ends
in |G_2k+2|, the row repeats that end, and a running sum right to left
gives the row of step k+1; the row of step 1 is [1], and
B_2k = (-1)^(k-1) |G_2k| / (2 (4^k - 1)).  E comes from the secant
triangle of Brent and Harvey, "Fast computation of Bernoulli, Tangent and
Secant numbers" (arXiv:1108.0286), filled one column at a time: column j
ends in S_j, and E_2j = (-1)^j S_j.  ``_next_genocchi_row`` and
``_next_secant_column`` step their triangle with integer adds and small
multiply-adds only (one small multiply per secant entry), and the cache
keeps the latest row or column of each (``genocchi_row``,
``secant_col``), so B_n adds just the steps up to n//2.  Any order of
requests then does the work of one run at the final size.
Only the new entries are appended (one gcd each); existing entries are
never rewritten, and the row and column are the kernels' state, not
tables, so a corrupted ``bern`` or ``eul`` entry never feeds later
growth.

The series layer reads B from a second table of its own, ``series_bern``,
grown by ``series_bernoulli`` from the tangent triangle of the same
paper: column j ends in the tangent number T_j, and
B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).  ``_next_tangent_column``
steps it with integer multiply-adds, and the cache keeps its latest
column, ``tangent_col``.  The two tables share no kernel and no entry,
so a corrupted ``bern`` entry reaches the folds and closed forms but
not the series, and a corrupted ``series_bern`` entry the series but
not the folds: a row that compares the two cannot agree on either.

The cache also holds append-only prefix tables of H_i = sum 1/j,
grown by ``harmonic``, and of H^(2)_i = sum 1/j^2 and
F_m = sum(H_l/(l+1), l=1..m), grown together by their one reader,
``harmonic_second``, which reads H_{2n,2} by two routes, F_{2n-1} and
(H_2n^2 - H^(2)_2n) / 2, and checks them against each other on every
read; and one prefix table per anchor q = a/b of the rising factorials,
``rising[a, b] = [(q)_0, (q)_1, ...]``, each entry the reduced integer
pair (numerator, denominator) with a positive denominator.  One grower,
``SequenceCache.rising_table``, takes the key (a, b) and returns the
table grown to the index asked for; ``rising_factorial`` wraps it and
builds the one Fraction (q)_m, and ``gammaalg.gamma_reduce_pair``, the
reduction loop, multiplies by the pair it reads straight from the table
and calls the grower on a miss, so it builds no Fraction.  For a
reduced a/b every factor a + jb is prime to b, so (q)_m =
(a (a+b) ... (a+(m-1)b)) / b^m is in lowest terms as it stands (a zero
factor needs b = 1, so a zero entry is (0, 1)): growth is two integer
multiplies per entry and no gcd.  Growing an anchor's table
from length L to m+1 takes m+1-L such steps, so a scan that reduces many
gamma products at a few anchors steps O(anchors x largest offset) times,
not once per step of every product.  The key is the (numerator,
denominator) pair, not the Fraction: hashing a Fraction computes a
modular inverse on every lookup.

The identity layer keeps the memo ``fold`` shared across n and one
per-n ``slot`` for all of its work that depends on n alone, and the
series route the memo ``power``, also shared across n; ``identities``
and ``series`` describe them.

One process-wide cache, ``_DEFAULT``, backs every plain function here,
and through them the exact lane, the series and the float lane.  A test
replaces it with a fresh or corrupted instance through
``monkeypatch.setattr(sequences, "_DEFAULT", cache)``; the plain
functions look it up at call time, so the exact lane, ``named_series``
and the float lane, whose coefficient memos are kept per cache, follow
the replacement.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Any, Hashable

from .errors import DomainError, check_routes

__all__ = [
    "SequenceCache",
    "bernoulli",
    "bernoulli_bar",
    "euler_number",
    "harmonic",
    "harmonic_second",
    "rising_factorial",
]


def bbar_scale(m: int) -> tuple[int, int]:
    """Bbar_m = B_m (2 - 2^m) / 2^m: the factor as an integer pair."""
    power = 1 << m
    return 2 - power, power


def _bbar_from(b: Fraction, m: int) -> Fraction:
    """Bbar_m from B_m = b: b times the weight bbar_scale(m), reduced once."""
    num, den = bbar_scale(m)
    return Fraction(b.numerator * num, b.denominator * den)


def _next_genocchi_row(row: list[int]) -> list[int]:
    """Row k+1 of Seidel's Genocchi triangle from row k, both kept in the
    order the right-to-left pass writes them, so row[0] = |G_2k| and
    len(row) = k: a running sum over the row left to right ends in
    |G_2k+2|, and the running sum right to left over that pass, started
    from its repeated end, is the next row."""
    up = list(accumulate(reversed(row)))
    return list(accumulate(reversed(up), initial=up[-1]))


def _next_tangent_column(col: list[int]) -> list[int]:
    """Column j+1 of the tangent triangle from column j = [A_1(j), ...,
    A_j(j)], whose last entry is T_j; the empty column 0 gives [1]:
    A_1(j+1) = j A_1(j), A_k(j+1) = (j+1-k) A_k(j) + (j+3-k) A_(k-1)(j+1)
    for 2 <= k <= j, and A_(j+1)(j+1) = 2 A_j(j+1)."""
    j = len(col)
    if not j:
        return [1]
    prev = j * col[0]
    nxt = [prev]
    append = nxt.append
    u = j  # stepped down to j+1-k for each row k = 2, ..., j
    for a in col[1:]:
        u -= 1
        prev = u * a + (u + 2) * prev
        append(prev)
    append(2 * prev)
    return nxt


def _next_secant_column(col: list[int]) -> list[int]:
    """Column j+1 of the secant triangle from column j = [A_0(j), ...,
    A_(j-1)(j)], whose last entry is S_j; the empty column 0 gives [1]:
    A_0(j+1) = (j+1) A_0(j), A_k(j+1) = (j+1-k) A_k(j) + (j+2-k) A_(k-1)(j+1)
    for 1 <= k <= j-1, and A_j(j+1) = A_(j-1)(j) + 2 A_(j-1)(j+1).  The
    middle entries are stepped as u (A_k(j) + A_(k-1)(j+1)) + A_(k-1)(j+1)
    for u = j+1-k: one small multiply and two adds per entry, not two
    multiplies and an add."""
    j = len(col)
    if not j:
        return [1]
    prev = (j + 1) * col[0]
    nxt = [prev]
    append = nxt.append
    u = j + 1  # stepped down to j+1-k for each row k = 1, ..., j-1
    for a in col[1:]:
        u -= 1
        prev = u * (a + prev) + prev
        append(prev)
    append(col[-1] + 2 * prev)
    return nxt


def _require_index(what: str, n: int) -> None:
    if n < 0:
        raise DomainError(f"{what} needs an index >= 0, got {n}")


def _rational(what: str, value: Any) -> Fraction:
    """``value`` as a Fraction: anything Fraction accepts, converted once;
    DomainError for anything else (None, "abc", inf, nan, "1/0")."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"{what} needs a rational value, got {value!r}") from None


class SequenceCache:
    """Growable Bernoulli (``bern``, and the series' own ``series_bern``),
    Euler, harmonic and rising-factorial tables, the identity layer's
    memo ``fold`` and its per-n ``slot``, and the series route's memo
    ``power``.

    ``bern``, ``series_bern``, ``eul``, ``harm`` (H_i), ``harm2``
    (H^(2)_i) and ``hfold`` (F_m = sum(H_l/(l+1), l=1..m), F_0 = 0) are
    plain lists indexed by n; ``bernoulli`` grows ``bern`` and
    ``series_bernoulli`` grows ``series_bern``, each from its own kernel;
    ``harmonic`` grows ``harm``, and ``harmonic_second`` grows ``harm2``
    and ``hfold`` together, to one length; ``rising``, grown by
    ``rising_table``, maps an anchor's (numerator, denominator) to the
    list of its (q)_m indexed by m, each a reduced (numerator,
    denominator) integer pair.
    ``slot`` is the pair (n, entries) of the latest n the
    identity layer looked anything up at: ``entries`` maps a key to work
    that depends on that n alone; the ``identities`` docstring lists the
    keys and ``fold``, and the ``series`` docstring ``power``.
    Entries, once computed, are never recomputed or rewritten: a table
    only grows by appending, so an entry or a list read once keeps its
    value however far the table grows later.  ``slot`` is the exception,
    replaced whole, with no entry, when anything is looked up at another
    n, and so are ``genocchi_row``, ``tangent_col`` and ``secant_col``, the
    kernels' state: row max(1, (len(bern) - 1) // 2) of Seidel's Genocchi
    triangle, column (len(series_bern) - 1) // 2 of the tangent triangle
    and column (len(eul) - 1) // 2 of the secant triangle, each replaced
    by the next one as its table grows.
    """

    def __init__(self) -> None:
        self.bern: list[Fraction] = [Fraction(1)]
        self.eul: list[int] = [1]
        self.genocchi_row: list[int] = [1]
        self.series_bern: list[Fraction] = [Fraction(1)]
        self.tangent_col: list[int] = []
        self.secant_col: list[int] = []
        self.harm: list[Fraction] = [Fraction(0)]
        self.harm2: list[Fraction] = [Fraction(0)]
        self.hfold: list[Fraction] = [Fraction(0)]
        self.rising: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.fold: dict[str, dict[tuple[int, int], Fraction]] = {}
        self.power: dict[tuple[str, int], list[Fraction]] = {}
        self.slot: tuple[int | None, dict[Hashable, Any]] = (None, {})

    def bernoulli(self, n: int) -> Fraction:
        """B_n from the Genocchi numbers; odd entries are 0 except B_1."""
        _require_index("bernoulli", n)
        if n >= len(self.bern):
            for m in range(len(self.bern), n + 1):
                if m % 2:
                    self.bern.append(Fraction(-1, 2) if m == 1 else Fraction(0))
                else:
                    k = m // 2
                    while len(self.genocchi_row) < k:
                        self.genocchi_row = _next_genocchi_row(self.genocchi_row)
                    G = self.genocchi_row[0]
                    self.bern.append(Fraction((-1) ** (k - 1) * G, 2 * ((1 << m) - 1)))
        return self.bern[n]

    def series_bernoulli(self, n: int) -> Fraction:
        """B_n from the tangent numbers, in the series' own table
        ``series_bern``; odd entries are 0 except B_1."""
        _require_index("series_bernoulli", n)
        table = self.series_bern
        for m in range(len(table), n + 1):
            if m % 2:
                table.append(Fraction(-1, 2) if m == 1 else Fraction(0))
            else:
                k, four = m // 2, 1 << m
                while len(self.tangent_col) < k:
                    self.tangent_col = _next_tangent_column(self.tangent_col)
                T = self.tangent_col[-1]
                table.append(Fraction((-1) ** (k - 1) * m * T, four * (four - 1)))
        return table[n]

    def bernoulli_bar(self, n: int) -> Fraction:
        """Bbar_n = B_n times the weight bbar_scale(n)."""
        return _bbar_from(self.bernoulli(n), n)

    def euler_number(self, n: int) -> int:
        """E_n from the secant numbers; odd entries are 0."""
        _require_index("euler_number", n)
        if n >= len(self.eul):
            for m in range(len(self.eul), n + 1):
                if m % 2:
                    self.eul.append(0)
                else:
                    while len(self.secant_col) < m // 2:
                        self.secant_col = _next_secant_column(self.secant_col)
                    self.eul.append((-1) ** (m // 2) * self.secant_col[-1])
        return self.eul[n]

    def harmonic(self, i: int) -> Fraction:
        """H_i from the prefix table ``harm``, grown as needed."""
        _require_index("harmonic", i)
        for j in range(len(self.harm), i + 1):
            self.harm.append(self.harm[-1] + Fraction(1, j))
        return self.harm[i]

    def harmonic_second(self, n: int) -> Fraction:
        """H_{2n,2} as the fold F_{2n-1} = sum(H_l/(l+1), l=1..2n-1) (F_0
        at n = 0) and, independently, as the elementary-symmetric form
        (H_2n^2 - H^(2)_2n) / 2; both routes run and are checked on every
        read.  Their prefix tables ``hfold`` and ``harm2`` grow here, in
        one loop, to index 2n: one add each per new index."""
        h = self.harmonic(2 * n)
        harm, harm2, fold = self.harm, self.harm2, self.hfold
        for l in range(len(harm2), 2 * n + 1):
            harm2.append(harm2[-1] + Fraction(1, l * l))
            fold.append(fold[-1] + harm[l] / (l + 1))
        # the empty sum at n = 0 is F_0, not F_-1, the last entry
        value = fold[max(2 * n - 1, 0)]
        check_routes("folded sum", value, "symmetric form", (h * h - harm2[2 * n]) / 2)
        return value

    def rising_table(self, key: tuple[int, int], m: int) -> list[tuple[int, int]]:
        """The prefix table of the anchor q = a/b, ``key`` = (a, b) in lowest
        terms with b > 0, grown to index m at least: the one grower of
        ``rising``.  Each new entry is the last one times (a + jb, b),
        already reduced, so no Fraction is built."""
        table = self.rising.get(key)
        if table is None:
            table = self.rising[key] = [(1, 1)]
        a, b = key
        for j in range(len(table) - 1, m):
            num, den = table[j]
            table.append((num * (a + j * b), den * b))
        return table

    def rising_factorial(self, q: Fraction, m: int) -> Fraction:
        """(q)_m from the prefix table of the anchor q, grown as needed by
        ``rising_table``.  ``q`` is anything Fraction accepts, converted
        once when it is not a Fraction already; anything else raises
        DomainError."""
        _require_index("rising_factorial", m)
        if not isinstance(q, Fraction):
            q = _rational("rising_factorial", q)
        return Fraction(*self.rising_table(q.as_integer_ratio(), m)[m])


_DEFAULT = SequenceCache()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_0=1, B_1=-1/2, B_2=1/6, ...)."""
    return _DEFAULT.bernoulli(n)


def bernoulli_bar(n: int) -> Fraction:
    """Modified Bernoulli number Bbar_n = ((1 - 2^(n-1)) / 2^(n-1)) B_n."""
    return _DEFAULT.bernoulli_bar(n)


def euler_number(n: int) -> int:
    """Euler number E_n (E_0=1, E_2=-1, E_4=5, ...); zero for odd n."""
    return _DEFAULT.euler_number(n)


def harmonic(i: int) -> Fraction:
    """Harmonic number H_i = sum(1/j, j=1..i); H_0 = 0."""
    return _DEFAULT.harmonic(i)


def harmonic_second(n: int) -> Fraction:
    """Generalized harmonic number H_{2n,2} = sum(1/(i j), 1 <= i < j <= 2n).

    Computed from the cached prefix tables by two routes that must agree
    before the value is returned; see ``SequenceCache.harmonic_second``.
    """
    return _DEFAULT.harmonic_second(n)


def rising_factorial(q: Fraction, m: int) -> Fraction:
    """Rising factorial (q)_m = q (q+1) ... (q+m-1); empty product is 1.
    ``q`` is anything Fraction accepts; anything else raises DomainError."""
    return _DEFAULT.rising_factorial(q, m)
