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


def _float_side(products, common: int, numerators: list[int], p: float) -> float:
    """Sum of each product times its scalar at float p, the scalars given
    as their common denominator S and their numerators over S.  Each term
    is carried as a mantissa and a binary exponent, so it overflows only
    if the sum itself does.  The rational scalars shrink like (2 pi)^(-2n)
    and stay far inside the double range wherever math.gamma does not
    overflow; Python's int true division rounds correctly, so num / S is
    the very float that float(Fraction(num, S)) gives."""
    scaled = []
    for product, num in zip(products, numerators):
        m, e = math.frexp(num / common)
        for base, offset, exponent in product.factors:
            gm, ge = math.frexp(math.gamma((p if base == "p" else 2.0 * p) + offset))
            m, de = math.frexp(m * gm**exponent)
            e += de + ge * exponent
        scaled.append((m, e))
    top = max(e for _, e in scaled)
    return math.ldexp(math.fsum(math.ldexp(m, e - top) for m, e in scaled), top)


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
    sides, layout = _family(which, n)
    try:
        lhs, rhs = (_float_side(products.values(), *scalars, p)
                    for products, scalars in zip(layout.products, sides))
    except OverflowError:
        raise DomainError(f"family-{which} at n = {n}, p = {p} leaves the double range") from None
    residual = lhs - rhs
    # never ok with a non-finite side or residual
    ok = math.isfinite(residual) and abs(residual) <= 1e-8 * max(abs(lhs), abs(rhs))
    return IdentityReport(f"family-{which}", n, lhs, rhs, residual, ok, p)
