"""The float twin of the exact family verifier.

family_float evaluates both sides of a gamma-weighted family in double
precision: the same family_terms scalars over the same layout products
as ``identities.verify_family``, with each gamma factor taken from
math.gamma instead of being reduced exactly.  It is the lane that takes a
float p (``verify --float-p``).  The quadrature checks of the integral
representations live in ``quadrature``, which only ``cli quadcheck``
loads.

``cli`` imports this module when it is imported itself, since the
benchmark's per-layer trace reads its line from
``python -X importtime -c "import bernkit.cli"``.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .identities import IdentityReport, _family

__all__ = ["family_float"]


def _times_gammas(m: float, e: int, factors, p: float) -> tuple[float, int]:
    """m 2^e times the product of gamma ``factors`` at float p, as a
    mantissa and a binary exponent."""
    for base, offset, exponent in factors:
        gm, ge = math.frexp(math.gamma((p if base == "p" else 2.0 * p) + offset))
        m, de = math.frexp(m * gm**exponent)
        e += de + ge * exponent
    return m, e


def _float_side(products, common: int, numerators: list[int], p: float, factors=()) -> float:
    """Sum of each product times its scalar at float p, times the product of
    the side's common gamma ``factors``, the scalars given as their common
    denominator S and their numerators over S.  Each term, and the sum
    before the common factors are folded in once, is carried as a mantissa
    and a binary exponent, so it overflows only if the side itself does.
    The rational scalars shrink like (2 pi)^(-2n) and stay far inside the
    double range wherever math.gamma does not overflow; Python's int true
    division rounds correctly, so num / S is the very float that
    float(Fraction(num, S)) gives."""
    scaled = [_times_gammas(*math.frexp(num / common), product.factors, p)
              for product, num in zip(products, numerators)]
    top = max(e for _, e in scaled)
    m, e = math.frexp(math.fsum(math.ldexp(m, e - top) for m, e in scaled))
    m, e = _times_gammas(m, e, factors, p)
    return math.ldexp(m, e + top)


def family_float(which: str, n: int, p: float) -> IdentityReport:
    """Both sides of a family identity in double precision via math.gamma.

    The float twin of the exact family verifier: it evaluates the same
    family_terms over the same layout products, but takes each gamma
    factor from math.gamma instead of reducing it exactly, so it is the
    only lane that takes a float p; the exact lane checks rational p,
    integer or not (1/2, 3/2, 5/2 and -1/4 on every acceptance scan).  Its IdentityReport carries float sides,
    residual and p.  Agreement is relative, to 1e-8 of the larger side,
    with no absolute floor under small sides.
    A side outside the double range (about 2n + 2p > 171) raises
    DomainError rather than passing with infinite sides.
    """
    if not -1 < p < math.inf:
        raise DomainError(f"float family evaluation needs finite p > -1, got {p}")
    (lhs_scalars, rhs_scalars), layout = _family(which, n)
    lhs_products, rhs_products = layout.products
    try:
        lhs = _float_side(lhs_products.values(), *lhs_scalars, p)
        rhs = _float_side(rhs_products.values(), *rhs_scalars, p, layout.common.factors)
    except OverflowError:
        raise DomainError(f"family-{which} at n = {n}, p = {p} leaves the double range") from None
    residual = lhs - rhs
    # never ok with a non-finite side or residual
    ok = math.isfinite(residual) and abs(residual) <= 1e-8 * max(abs(lhs), abs(rhs))
    return IdentityReport(f"family-{which}", n, lhs, rhs, residual, ok, p)
