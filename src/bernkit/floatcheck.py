"""Double-precision checks of the analytic inputs to the exact lane.

The exact modules treat a few analytic facts as given: the psi-type
asymptotic expansions arise from Laplace transforms of trigonometric
kernels, float(B_2n) matches the even zeta values, and the squared
g-series has its own integral representation.  Everything here validates
those facts numerically with adaptive quadrature, independently of the
rational arithmetic, so the two lanes cannot fail in the same way.

Quadrature scheme: each kernel is smooth once the 1/s singularity is
subtracted; integrands switch to their Taylor series below s = 0.1 to
avoid cancellation, the range is split at s = 1, and the exponential tail
is cut where exp(-2xs) drops under 1e-18.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from scipy.integrate import quad

from .errors import DomainError, QuadFailure, UnknownName
from .gammaalg import GammaProduct
from .identities import family_terms
from .sequences import (
    bernoulli,
    bernoulli_bar,
    euler_number,
    rising_factorial,
)
from .series import named_series

__all__ = [
    "QuadResult",
    "FamilyFloat",
    "digamma",
    "quad_rep",
    "optimal_series",
    "check_mixed_trig",
    "check_zeta",
    "check_g_squared",
    "family_float",
    "QUAD_NAMES",
]

QUAD_NAMES = ("psi_tilde", "psi_bar", "psi_tilde_p", "psi_bar_p", "g")

_SERIES_CUT = 0.1
_TAIL_EPS = 1e-18
_MAX_TERMS = 120
# A target whose error bound exceeds this verifies nothing: the omitted
# term of a divergent series grows without bound as x falls.
_TOL_CAP = 1e-6


@dataclass(frozen=True)
class QuadResult:
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
        if self.tol > _TOL_CAP:
            return f"target unverified: its error bound {self.tol:.3e} exceeds the cap {_TOL_CAP:.0e}"
        if not self.abs_dev <= self.tol:
            return f"deviation {self.abs_dev:.3e} exceeds the tolerance {self.tol:.3e}"
        return None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        row = {
            "name": self.name,
            "x": self.x,
            "p": self.p,
            "value": self.value,
            "target": self.target,
            "abs_dev": self.abs_dev,
            "tol": self.tol,
            "est_error": self.est_error,
            "ok": self.ok,
        }
        if not row["ok"]:
            row["error"] = self.error
        return row


# psi(x) = ln x - 1/(2x) - sum B_2k/(2k x^2k); seven terms reach ~1e-15
# absolute error once the argument has been recurred up to x >= 8.
_PSI_TAIL = [float(bernoulli(2 * k)) / (2 * k) for k in range(1, 8)]


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
    for c in reversed(_PSI_TAIL):
        tail = tail * z + c
    return acc + math.log(x) - 0.5 / x - z * tail


def _psi_tilde_closed(x: float) -> float:
    return digamma(x) - math.log(x) + 0.5 / x

def _psi_bar_closed(x: float) -> float:
    return digamma(x + 0.5) - math.log(x)


@lru_cache(maxsize=None)
def _kernel_coeffs(series_name: str) -> tuple[tuple[int, float], ...]:
    s = named_series(series_name, 21)
    return tuple((m, float(c)) for m, c in s.items())


def _series_eval(series_name: str, s: float) -> float:
    acc = 0.0
    for m, c in _kernel_coeffs(series_name):
        acc += c * s**m
    return acc


def _coth_minus_inv(s: float) -> float:
    if s < _SERIES_CUT:
        return _series_eval("coth_minus_inv", s)
    return math.cosh(s) / math.sinh(s) - 1.0 / s


def _inv_sinh_minus_inv(s: float) -> float:
    if s < _SERIES_CUT:
        return _series_eval("inv_sinh_minus_inv", s)
    return 1.0 / math.sinh(s) - 1.0 / s


def _sech(s: float) -> float:
    return 1.0 / math.cosh(s)


_KERNELS = {
    "psi_tilde": _coth_minus_inv,
    "psi_tilde_p": _coth_minus_inv,
    "psi_bar": _inv_sinh_minus_inv,
    "psi_bar_p": _inv_sinh_minus_inv,
    "g": _sech,
}


def _integrate(f, x: float) -> tuple[float, float]:
    """Integral of f over [0, inf) for f carrying an exp(-2xs) factor."""
    cut = max(1.0, -math.log(_TAIL_EPS) / (2.0 * x))
    pieces = [(0.0, 1.0)]
    if cut > 1.0:
        pieces.append((1.0, cut))
    total = 0.0
    err = 0.0
    for a, b in pieces:
        v, e = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += v
        err += e
    return total, err


def _difference_target(closed, x: float, p: int) -> float:
    """p-th derivative of a closed form by Richardson-extrapolated
    central differences (two extrapolation levels, step halving)."""
    if p == 1:
        D = lambda h: (closed(x + h) - closed(x - h)) / (2.0 * h)
    else:
        D = lambda h: (closed(x + h) - 2.0 * closed(x) + closed(x - h)) / (h * h)
    d1, d2, d3 = D(0.1), D(0.05), D(0.025)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _asymptotic_terms(name: str, x: float, p: float):
    """Lazy terms of the asymptotic expansion matching quad_rep(name, x, p)."""
    if name == "g":
        for n in range(0, _MAX_TERMS):
            yield float(euler_number(2 * n)) / (2.0 * x) ** (2 * n + 1)
        return
    plain = name.startswith("psi_tilde")
    value = bernoulli if plain else bernoulli_bar
    if float(p).is_integer():
        ip = int(p)
        sign = (-1.0) ** (ip + 1)
        for k in range(1, _MAX_TERMS):
            c = float(value(2 * k)) / (2 * k) * float(rising_factorial(Fraction(2 * k), ip))
            yield sign * c / x ** (2 * k + ip)
    else:
        # raw transform: sum_m c_m Gamma(m+p+1) / (2x)^(m+p+1)
        series_name = "coth_minus_inv" if plain else "inv_sinh_minus_inv"
        for m, c in _kernel_coeffs(series_name):
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
        if len(terms) >= 2 and abs(terms[-1]) >= abs(terms[-2]) and len(terms) > 3:
            break
    smallest = min(range(len(terms)), key=lambda i: abs(terms[i]))
    return math.fsum(terms[:smallest]), abs(terms[smallest])


def quad_rep(name: str, x: float, p: float = 0.0) -> QuadResult:
    """Adaptive quadrature of one integral representation vs. its target.

    For the psi kernels the value is -(-2)^p * integral of
    exp(-2xs) s^p (coth s - 1/s) ds (resp. the 1/sinh kernel), i.e. the
    p-th derivative of the represented function when p is an integer;
    targets come from digamma closed forms (p = 0), Richardson-extrapolated
    finite differences (p = 1, 2) or the optimally truncated derivative
    series (p >= 3).  Non-integer p drops the derivative prefactor and is
    compared against the term-wise transform of the kernel's Taylor
    series.  g has no elementary closed form; its target is the optimally
    truncated Euler-number series.  A series target is trusted to its
    first omitted term; a row where that bound exceeds 1e-6 is not ok and
    says so in its error, but still carries the quadrature value.
    """
    if name not in QUAD_NAMES:
        raise UnknownName(f"no representation named {name!r}")
    if x < 1:
        raise DomainError(f"quadrature grid starts at x = 1, got {x}")
    if p < 0:
        raise DomainError(f"weight exponent must be >= 0, got {p}")
    if p != 0 and name in ("psi_tilde", "psi_bar", "g"):
        raise DomainError(f"{name} takes p = 0 only; use the _p variant")

    kernel = _KERNELS[name]
    integrand = lambda s: math.exp(-2.0 * x * s) * s**p * kernel(s)
    raw, err = _integrate(integrand, x)
    if err > 1e-8:
        raise QuadFailure(f"estimated quadrature error {err:.3e} exceeds 1e-8")

    ip = int(p) if float(p).is_integer() and name != "g" else None
    value = raw if ip is None else -((-2.0) ** ip) * raw
    closed = _psi_tilde_closed if name.startswith("psi_tilde") else _psi_bar_closed
    if ip == 0:
        target, tol = closed(x), 1e-8
    elif ip in (1, 2):
        target, tol = _difference_target(closed, x, ip), 1e-7
    else:
        target, omitted = optimal_series(name, x, p)
        tol = max(1e-8, omitted)
    return QuadResult(name, x, p, value, err, target, abs(value - target), tol)


def check_mixed_trig(s: float) -> float:
    """Residual of coth s + 1/sinh s = coth(s/2) in double precision."""
    lhs = math.cosh(s) / math.sinh(s) + 1.0 / math.sinh(s)
    rhs = math.cosh(s / 2.0) / math.sinh(s / 2.0)
    return abs(lhs - rhs)


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


@lru_cache(maxsize=None)
def _log_cosh_coeffs() -> tuple[tuple[int, float], ...]:
    # ln cosh y = L(2y) - L(y) for L = ln(sinh y / y), so each coefficient
    # of L at order 2k picks up the factor 4^k - 1.
    s = named_series("log_sinh_ratio", 20)
    return tuple((m, float(c) * (4.0 ** (m // 2) - 1.0)) for m, c in s.items())


def _log_cosh_over_sinh(y: float) -> float:
    if y == 0.0:
        return 0.0
    if y < _SERIES_CUT:
        num = 0.0
        for m, c in _log_cosh_coeffs():
            num += c * y**m
        return num / math.sinh(y)
    return math.log(math.cosh(y)) / math.sinh(y)


def check_g_squared(x: float) -> QuadResult:
    """Quadrature of 2 * integral exp(-2xy) ln(cosh y)/sinh y dy against
    the square of the g representation's value."""
    if x < 2:
        raise DomainError(f"squared-g check needs x >= 2, got {x}")
    integrand = lambda y: 2.0 * math.exp(-2.0 * x * y) * _log_cosh_over_sinh(y)
    value, err = _integrate(integrand, x)
    if err > 1e-8:
        raise QuadFailure(f"estimated quadrature error {err:.3e} exceeds 1e-8")
    target = quad_rep("g", x).value ** 2
    tol = 1e-8 if x >= 5 else 1e-7
    return QuadResult("g_squared", x, 0.0, value, err, target, abs(value - target), tol)


@dataclass(frozen=True)
class FamilyFloat:
    """Float evaluation of one gamma-weighted family identity."""

    identity: str
    n: int
    p: float
    lhs: float
    rhs: float
    residual: float
    ok: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _float_side(terms: list[GammaProduct], p: float) -> float:
    """Sum of the terms at float p.  Each product is carried as a mantissa
    and a binary exponent, so it overflows only if the sum itself does.
    The rational coefficients shrink like (2 pi)^(-2n) and stay far inside
    the double range wherever math.gamma does not overflow."""
    scaled = []
    for term in terms:
        m, e = math.frexp(float(term.scalar))
        for base, offset, exponent in term.factors:
            gm, ge = math.frexp(math.gamma((p if base == "p" else 2.0 * p) + offset))
            m, de = math.frexp(m * gm**exponent)
            e += de + ge * exponent
        scaled.append((m, e))
    top = max(e for _, e in scaled)
    return math.ldexp(math.fsum(math.ldexp(m, e - top) for m, e in scaled), top)


def family_float(which: str, n: int, p: float) -> FamilyFloat:
    """Both sides of a family identity in double precision via math.gamma.

    The float twin of the exact family verifier: it evaluates the same
    family_terms, but takes each gamma factor from math.gamma instead of
    reducing it exactly, which makes it the only check of non-integer p.
    Agreement is relative to 1e-8.
    A side outside the double range (about 2n + 2p > 171) raises
    DomainError rather than passing with infinite sides.
    """
    if not -1 < p < math.inf:
        raise DomainError(f"float family evaluation needs finite p > -1, got {p}")
    lhs_terms, rhs_terms = family_terms(which, n)
    try:
        lhs = _float_side(lhs_terms, p)
        rhs = _float_side(rhs_terms, p)
    except OverflowError:
        raise DomainError(f"family-{which} at n = {n}, p = {p} leaves the double range") from None
    residual = lhs - rhs
    # never ok with a non-finite side or residual
    ok = math.isfinite(residual) and abs(residual) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    return FamilyFloat(f"family-{which}", n, p, lhs, rhs, residual, ok)
