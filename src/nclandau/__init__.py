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

# The root loads numpy, which the benchmark's start-up probe times with ``import nclandau``,
# and no submodule: each process imports only the modules its command runs.
import numpy

__version__ = "0.1.0"
