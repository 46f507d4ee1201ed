"""Exact computation of Atkin's U operator on overconvergent p-adic modular
forms at the genus-zero primes p in {2, 3, 5, 7, 13}, tame level 1:
hauptmodul q-expansions, the bivariate polynomials generating the U matrix,
exact characteristic series with truncation certificates, Newton polygons,
weight twists, and the characteristic-3 combinatorics behind the sharp
parabola below the 3-adic cuspidal polygon.
"""

from .scalars import INF, val_p, QuadInt3, val_quad3
from .series import QSeries, PrecisionError, eta_quotient
from .modcurve import GENUS_ZERO_PRIMES

__version__ = "0.1.0"
