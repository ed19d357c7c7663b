"""Double-precision quadrature of the integral representations behind the
exact lane.

The exact modules treat a few analytic facts as given: the psi-type
asymptotic expansions arise from Laplace transforms of trigonometric
kernels, float(B_2n) matches the even zeta values, and the squared
g-series has its own integral representation.  Everything here validates
those facts numerically with adaptive quadrature, independently of the
rational arithmetic, so the two lanes cannot fail in the same way.
``cli quadcheck`` is the one command that loads this module, and scipy is
loaded only when a first integral is taken.

Quadrature scheme: each kernel is smooth once the 1/s singularity is
subtracted; integrands switch to their Taylor series below s = 0.1 to
avoid cancellation, the range is split at s = 1, and the tail is cut
where the weight s^p exp(-2xs) has fallen 1e-18 below its peak at
s = p/(2x).

Targets: a psi row at integer p reads the derivative series at a shifted
argument x + N, where it is exact to half an ulp, and steps back down to
x with the recurrence psi(x+1) = psi(x) + 1/x (DLMF 5.5.2, 5.15), so one
rule serves every x and p.  Other rows read the optimally truncated
series at x itself.  The coefficients of the psi derivative series and of
g are the exact ones of ``series.named_series``, which the exact lane
reads too, so the quadrature checks that code and not a float copy of it;
at non-integer p the kernel's Taylor series is transformed term by term.
The in-house ``digamma`` is not used for targets; it stays as public API
and as an independent oracle for the tests.  The float coefficients read
from the exact tables (the digamma tail, from ``bern``, and the series of
the targets, from the series' own B table) are memoised per
``sequences._DEFAULT`` cache, so a cache swapped in at any time reaches
them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import wraps
from typing import NamedTuple

from . import sequences
from .errors import DomainError, QuadFailure, UnknownName
from .sequences import bernoulli
from .series import named_series

__all__ = [
    "QuadResult",
    "digamma",
    "quad_rep",
    "optimal_series",
    "check_zeta",
    "check_g_squared",
    "QUAD_NAMES",
]

QUAD_NAMES = ("psi_tilde", "psi_bar", "psi_tilde_p", "psi_bar_p", "g")

_SERIES_CUT = 0.1
_TAIL_EPS = 1e-18
_MAX_TERMS = 120
# A psi target at integer p recurs up to at most x + _MAX_SHIFT.  Every p
# whose series terms fit a double (p <= 124) has an exact series by x = 44.
_MAX_SHIFT = 64
# A target whose error bound exceeds this (or _ULP_TOL ulps of a larger
# target) verifies nothing: the omitted term of a divergent series grows
# without bound as x falls.
_TOL_CAP = 1e-6
# A target is checked to 1e-8 (or its series' omitted term), but never
# looser than this fraction of |target|: psi_tilde(x) ~ -1/(12 x^2) falls
# under 1e-8 near x = 3000, past which an absolute 1e-8 would pass any
# value, 0 included.
_REL_TOL = 1e-5
# Nor is it tighter than this many ulps of the target: a large value
# cannot be rounded to a double any closer.
_ULP_TOL = 4
# quad is asked for this relative error, and an integral is not converged
# while its error estimate exceeds both it times |value| and 1e-8.  A few
# ulps would be too tight a floor here: quad's estimate carries a rounding
# term of 50 machine epsilons times the integral of |f| on every piece.
_QUAD_REL = 1e-12


class QuadResult(NamedTuple):
    """One quadrature value against its independent target."""

    name: str
    x: float
    p: float
    value: float
    est_error: float
    target: float
    abs_dev: float
    tol: float

    @property
    def error(self) -> str | None:
        """Why the row is not ok, or None when it is."""
        cap = max(_TOL_CAP, _ULP_TOL * math.ulp(self.target))
        if self.tol > cap:
            return f"target unverified: its error bound {self.tol:.3e} exceeds the cap {cap:.3g}"
        if not self.abs_dev <= self.tol:
            return f"deviation {self.abs_dev:.3e} exceeds the tolerance {self.tol:.3e}"
        return None

    @property
    def ok(self) -> bool:
        return self.error is None


def _per_cache(build):
    """Memoise build(*args) for the current ``sequences._DEFAULT``.  The
    memo holds the values read from one cache and is dropped when another
    cache is swapped in, so every float coefficient here follows the exact
    tables, as the exact lane does."""
    memo: list = [None, {}]

    @wraps(build)
    def read(*args):
        if memo[0] is not sequences._DEFAULT:
            memo[:] = sequences._DEFAULT, {}
        table = memo[1]
        if args not in table:
            table[args] = build(*args)
        return table[args]

    return read


@_per_cache
def _psi_tail() -> tuple[float, ...]:
    # psi(x) = ln x - 1/(2x) - sum B_2k/(2k x^2k); seven terms reach ~1e-15
    # absolute error once the argument has been recurred up to x >= 8.
    return tuple(float(bernoulli(2 * k)) / (2 * k) for k in range(1, 8))


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function, x > 0."""
    if x <= 0:
        raise DomainError(f"digamma needs x > 0, got {x}")
    acc = 0.0
    while x < 8:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_psi_tail()):
        tail = tail * z + c
    return acc + math.log(x) - 0.5 / x - z * tail


@_per_cache
def _kernel_coeffs(series_name: str) -> tuple[tuple[int, float], ...]:
    s = named_series(series_name, 21)
    return tuple((m, float(c)) for m, c in s.items())


def _taylor(coeffs: tuple[tuple[int, float], ...], s: float) -> float:
    acc = 0.0
    for m, c in coeffs:
        acc += c * s**m
    return acc


# Each psi kernel, shared by its _p name: the named_series of its Taylor
# expansion at s = 0, read below _SERIES_CUT where the closed form cancels;
# the closed form; and the (a, w) terms of the recurrence
# f(x) - f(x+1) = ln(1+1/x) - sum w / (x+a) of the function f it represents.
_PSI_KERNELS = {
    "psi_tilde": ("coth_minus_inv", lambda s: math.cosh(s) / math.sinh(s) - 1.0 / s,
                  ((0.0, 0.5), (1.0, 0.5))),
    "psi_bar": ("inv_sinh_minus_inv", lambda s: 1.0 / math.sinh(s) - 1.0 / s, ((0.5, 1.0),)),
}


def _tail_cut(x: float, p: float) -> float:
    """The s past the peak p/(2x) of s^p exp(-2xs) where the weight has
    fallen to _TAIL_EPS of the peak: the fixed point of
    s = peak + (ln(1/_TAIL_EPS) + p ln(s/peak)) / (2x), which the
    iteration climbs from below (the map's slope there is peak/s < 1)."""
    peak, drop = p / (2.0 * x), -math.log(_TAIL_EPS)
    s = peak + drop / (2.0 * x)
    while p:
        step = peak + (drop + p * math.log(s / peak)) / (2.0 * x)
        if step - s <= 1e-9 * s:
            break
        s = step
    return s


def _integrate(f, x: float, p: float = 0.0) -> tuple[float, float]:
    """Integral of f over [0, inf) for f carrying an s^p exp(-2xs) weight."""
    # imported here, not at the top: scipy takes most of a second to load,
    # and no exact-lane command needs it
    from scipy.integrate import quad

    cut = max(1.0, _tail_cut(x, p))
    pieces = [(0.0, 1.0)]
    if cut > 1.0:
        pieces.append((1.0, cut))
    total = 0.0
    err = 0.0
    for a, b in pieces:
        v, e = quad(f, a, b, epsabs=1e-12, epsrel=_QUAD_REL, limit=200)
        total += v
        err += e
    bound = max(1e-8, _QUAD_REL * abs(total))
    if err > bound:
        raise QuadFailure(f"estimated quadrature error {err:.3e} exceeds {bound:.3e}")
    return total, err


def _over_power(c: Fraction, base: float, power: int) -> float:
    """c / base**power; where c or base**power leaves the double range
    though the ratio need not, the exact rational ratio, correctly rounded."""
    try:
        return float(c) / base**power
    except OverflowError:
        return float(c / Fraction(base) ** power)


@_per_cache
def _series_coeffs(name: str, p: int) -> tuple[tuple[int, Fraction], ...]:
    """The exact named_series coefficients that the quad_rep row ``name``
    reads at integer p (any p for g): _MAX_TERMS terms of g, and the
    _MAX_TERMS - 1 of the psi derivative series, which start at x^-(p+2)."""
    if name == "g":
        return tuple(named_series("g", 2 * _MAX_TERMS - 1).items())
    deriv = name.removesuffix("_p") + "_deriv"
    return tuple(named_series(deriv, 2 * _MAX_TERMS - 2 + p, p=p).items())


def _asymptotic_terms(name: str, x: float, p: float):
    """Lazy terms of the asymptotic expansion matching quad_rep(name, x, p)."""
    if name == "g" or float(p).is_integer():
        for m, c in _series_coeffs(name, int(p)):
            yield _over_power(c, x, m)
        return
    # raw transform: sum_m c_m Gamma(m+p+1) / (2x)^(m+p+1)
    for m, c in _kernel_coeffs(_PSI_KERNELS[name.removesuffix("_p")][0]):
        yield c * math.gamma(m + p + 1.0) / (2.0 * x) ** (m + p + 1.0)


def optimal_series(name: str, x: float, p: float = 0.0) -> tuple[float, float]:
    """Optimally truncated asymptotic value and the first omitted term.

    Terms are accumulated up to (but not including) the smallest one; the
    magnitude of that smallest term is the conventional error estimate for
    a divergent asymptotic expansion.
    """
    if name not in QUAD_NAMES:
        raise UnknownName(f"no representation named {name!r}")
    terms: list[float] = []
    for t in _asymptotic_terms(name, x, p):
        if terms and abs(t) > abs(terms[-1]) * 1e6:
            break
        terms.append(t)
        if len(terms) > 3 and abs(terms[-1]) >= abs(terms[-2]):
            break
    smallest = min(range(len(terms)), key=lambda i: abs(terms[i]))
    return math.fsum(terms[:smallest]), abs(terms[smallest])


def _recurrence_step(name: str, x: float, p: int) -> float:
    """p-th derivative of f(x) - f(x+1) for the psi function f named:
    ln(1+1/x) - 1/(2x) - 1/(2(x+1)) for psi_tilde, ln(1+1/x) - 1/(x+1/2)
    for psi_bar."""
    inv = lambda a, k: (-1.0) ** k * math.factorial(k) * (x + a) ** -(k + 1)  # d^k 1/(x+a)
    log = math.log1p(1.0 / x) if p == 0 else inv(1.0, p - 1) - inv(0.0, p - 1)
    return log - sum(w * inv(a, p) for a, w in _PSI_KERNELS[name.removesuffix("_p")][2])


def quad_rep(name: str, x: float, p: float = 0.0) -> QuadResult:
    """Adaptive quadrature of one integral representation vs. its target.

    For the psi kernels the value is -(-2)^p * integral of
    exp(-2xs) s^p (coth s - 1/s) ds (resp. the 1/sinh kernel), i.e. the
    p-th derivative of the represented function f when p is an integer.
    Its target is the optimally truncated derivative series at the least
    x + N (N >= 0) where the series' omitted term is at most half an ulp,
    plus the N exact recurrence steps from f(x) = f(x+1) + [f(x) - f(x+1)],
    each elementary by psi(x+1) = psi(x) + 1/x.  Non-integer p drops the
    derivative prefactor and is compared against the term-wise transform
    of the kernel's Taylor series at x; g has no elementary closed form,
    and its target is the optimally truncated Euler-number series at x.
    Every target is checked to the largest of min(1e-8, 1e-5 |target|),
    its series' first omitted term and 4 ulps of the target, so a far x
    cannot pass vacuously and a large value is not held past its rounding.  A
    row whose bound exceeds 1e-6 is not ok and says so in its error, but
    still carries the quadrature value; below that bound, a target under
    the normal double range raises QuadFailure.  A weight, prefactor or
    target that overflows a double (large p) raises QuadFailure rather
    than OverflowError.
    """
    if name not in QUAD_NAMES:
        raise UnknownName(f"no representation named {name!r}")
    if not math.isfinite(x) or not math.isfinite(p):
        raise DomainError(f"quadrature needs a finite x and p, got x = {x}, p = {p}")
    if x < 1:
        raise DomainError(f"quadrature grid starts at x = 1, got {x}")
    if p < 0:
        raise DomainError(f"weight exponent must be >= 0, got {p}")
    if p != 0 and name == "g":
        raise DomainError("g takes p = 0 only; only psi_tilde_p and psi_bar_p take p != 0")
    if p != 0 and name in _PSI_KERNELS:
        raise DomainError(f"{name} takes p = 0 only; use {name}_p")

    if name == "g":
        kernel = lambda s: 1.0 / math.cosh(s)
    else:
        series_name, closed, _ = _PSI_KERNELS[name.removesuffix("_p")]
        kernel = lambda s: _taylor(_kernel_coeffs(series_name), s) if s < _SERIES_CUT else closed(s)
    integrand = lambda s: math.exp(-2.0 * x * s) * s**p * kernel(s)
    try:
        raw, err = _integrate(integrand, x, p)
        # a psi row at integer p reads the series at the least x + shift
        # where it is exact, and recurs back down to x
        recur = name != "g" and float(p).is_integer()
        value = -((-2.0) ** p) * raw if recur else raw
        shift, (target, omitted) = 0, optimal_series(name, x, p)
        while recur and omitted > 0.5 * math.ulp(target) and shift < _MAX_SHIFT:
            shift += 1
            target, omitted = optimal_series(name, x + shift, p)
        target = math.fsum([target, *(_recurrence_step(name, x + j, int(p)) for j in range(shift))])
        tol = max(min(1e-8, _REL_TOL * abs(target)), omitted, _ULP_TOL * math.ulp(target))
        if tol <= _TOL_CAP and abs(target) < sys.float_info.min:
            raise QuadFailure(
                f"{name} at x = {x} has a target {target:.3e} below the normal double range")
    except OverflowError:
        raise QuadFailure(f"{name} at x = {x}, p = {p} leaves the double range") from None
    return QuadResult(name, x, p, value, err, target, abs(value - target), tol)


def check_zeta(n: int) -> QuadResult:
    """float(B_2n) against the even zeta value, 1 <= n <= 8.

    zeta(2n) is summed directly to k < 50 with an Euler-Maclaurin tail;
    the omitted tail term bounds the summation error.
    """
    if not 1 <= n <= 8:
        raise DomainError(f"zeta check covers 1 <= n <= 8, got {n}")
    s = 2 * n
    K = 50
    partial = math.fsum(k ** (-s) for k in range(1, K))
    tail = (
        K ** (1 - s) / (s - 1)
        + K ** (-s) / 2.0
        + s * K ** (-s - 1) / 12.0
        - s * (s + 1) * (s + 2) * K ** (-s - 3) / 720.0
    )
    est = s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * K ** (-s - 5) / 30240.0
    zeta = partial + tail
    target = (-1.0) ** (n + 1) * 2.0 * math.factorial(s) / (2.0 * math.pi) ** s * zeta
    value = float(bernoulli(2 * n))
    return QuadResult("zeta", float(n), 0.0, value, est, target, abs(value - target), 1e-12 * abs(target))


@_per_cache
def _log_cosh_coeffs() -> tuple[tuple[int, float], ...]:
    # ln cosh y = L(2y) - L(y) for L = ln(sinh y / y), so each coefficient
    # of L at order 2k picks up the factor 4^k - 1.
    s = named_series("log_sinh_ratio", 20)
    return tuple((m, float(c) * (4.0 ** (m // 2) - 1.0)) for m, c in s.items())


def _log_cosh_over_sinh(y: float) -> float:
    if y == 0.0:
        return 0.0
    if y < _SERIES_CUT:
        return _taylor(_log_cosh_coeffs(), y) / math.sinh(y)
    return math.log(math.cosh(y)) / math.sinh(y)


def check_g_squared(x: float) -> QuadResult:
    """Quadrature of 2 * integral exp(-2xy) ln(cosh y)/sinh y dy against
    the square of the g representation's value."""
    if not 2 <= x < math.inf:
        raise DomainError(f"squared-g check needs a finite x >= 2, got {x}")
    integrand = lambda y: 2.0 * math.exp(-2.0 * x * y) * _log_cosh_over_sinh(y)
    value, err = _integrate(integrand, x)
    target = quad_rep("g", x).value ** 2
    tol = 1e-8 if x >= 5 else 1e-7
    return QuadResult("g_squared", x, 0.0, value, err, target, abs(value - target), tol)
