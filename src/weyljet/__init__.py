"""weyljet: truncated-series computer algebra for deformation quantization
and jet-level Lagrangian analysis.

The package is organized around a sparse truncated power-series kernel
(:mod:`weyljet.series`, :mod:`weyljet.stationary`), the Moyal/Weyl algebra
(:mod:`weyljet.weyl`), the formal Weil representation (:mod:`weyljet.weil`)
and exact Maslov cocycle arithmetic (:mod:`weyljet.maslov`).
"""

from .series import (SeriesContext, TruncatedSeries, OscillatoryScalar,
                     SeriesError, compose, invert_map, linear_combination)
from .stationary import (gaussian_moment, gaussian_prefactor,
                         legendre_transform, stationary_phase,
                         fiber_stationary_phase, DegenerateHessianError)

__all__ = [
    "SeriesContext", "TruncatedSeries", "OscillatoryScalar",
    "SeriesError", "compose", "invert_map", "linear_combination",
    "gaussian_moment", "gaussian_prefactor", "legendre_transform",
    "stationary_phase", "fiber_stationary_phase", "DegenerateHessianError",
]

__version__ = "0.1.0"
