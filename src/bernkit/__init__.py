"""Exact-arithmetic engine for Bernoulli/Euler convolution identities.

Three independent lanes cross-check each other: direct exact summation of
the identities, formal-series squaring and cubing of the underlying
asymptotic expansions, and floating-point quadrature of the integral
representations.

The package exports the ``__all__`` of each of its six modules.
"""

from .errors import *
from .sequences import *
from .series import *
from .gammaalg import *
from .identities import *
from .floatcheck import *

__version__ = "0.1.0"
