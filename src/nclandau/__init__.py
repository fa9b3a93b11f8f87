"""Noncommuting planar coordinates in truncated Landau-level spaces.

The package builds the coordinate, momentum, and level operators of a
charged particle in a uniform magnetic field on finite oscillator bases,
projects the coordinates onto a chosen number of levels, and verifies the
resulting commutator matrix: -i (keep+1) hbar c / eB on the top kept
level, zero elsewhere in the interior, and zero everywhere away from the
boundary when nothing is projected out. An independent momentum-grid
route reproduces the same numbers by finite differences.
"""

import os

# No route calls BLAS, so an OpenBLAS worker thread would only spin; set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Import names from the submodules. The root still loads numpy and the engine modules,
# in this order, because the benchmark's start-up probe times ``import nclandau``.
from . import fock, ladder, landau_gauge, projection, spectrum, units

__version__ = "0.1.0"
