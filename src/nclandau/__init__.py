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

from .fock import (
    BasisIndex,
    Cutoffs,
    OperatorMatrix,
    annihilation_matrix,
    commutator,
    dagger,
    flatten,
    identity,
    kron,
    matmul,
)
from .ladder import (
    build_H,
    build_L,
    build_a,
    build_alpha,
    build_b,
    build_momenta,
    build_xy,
)
from .landau_gauge import (
    GridCommutatorReport,
    KGrid,
    build_landau_xy,
    convergence_study,
    oscillator_p_elements,
    oscillator_x_elements,
    projected_commutator_landau,
)
from .projection import (
    CommutatorReport,
    full_space_scan,
    project,
    projected_commutator_xy,
    projector,
    sweep,
)
from .spectrum import SpectrumReport, verify_spectrum
from .units import NATURAL, PhysicalUnits, cyclotron_frequency, level_spacing, magnetic_length

__version__ = "0.1.0"
