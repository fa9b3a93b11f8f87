"""Spectrum and degeneracy checks for the truncated level structure."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fock import Cutoffs, commutator
from .ladder import build_H, build_L
from .units import NATURAL, PhysicalUnits, level_spacing

__all__ = ["SpectrumReport", "verify_spectrum"]

# Relative tolerance of the level energies, scaled by max(1, level spacing).
TOLERANCE = 1e-12


class SpectrumReport(NamedTuple):
    """Eigenvalues of the level Hamiltonian against the exact ladder values."""

    eigenvalues: list[float]
    expected: list[float]
    max_abs_error: float
    degeneracy_table: dict[int, int]
    hl_commutes: bool
    ok: bool


def verify_spectrum(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> SpectrumReport:
    """Check levels hbar omega (n + 1/2), each (J+1)-fold, and [H, L] = 0.

    H = b†b + 1/2 and L = j - n are built on the N+1 levels alone (J = 0),
    where [H, L] = 0 is checked: J is a numerical cutoff only. H is real and
    diagonal, so its sorted diagonal, each entry repeated J+1 times, is the
    composite spectrum bit for bit; an H of any other shape raises. It is
    scaled by hbar omega once. Physics failures land in the report.
    """
    ham, ang = build_H(Cutoffs(cutoffs.landau_cutoff, 0)), build_L(Cutoffs(cutoffs.landau_cutoff, 0))
    if set(ham.diagonals) != {0} or np.any(ham.diagonals[0].imag):
        raise ValueError("the ladder Hamiltonian is not a real diagonal matrix")
    gap, multiplicity = level_spacing(units), cutoffs.num_degeneracy
    levels = np.repeat(np.sort(ham.diagonals[0].real), multiplicity)
    eig = gap * levels
    expected = np.repeat(gap * (np.arange(cutoffs.num_levels) + 0.5), multiplicity)
    max_abs_error = float(np.max(np.abs(eig - expected)))

    # Assign each eigenvalue to the nearest exact level.
    nearest = np.clip(np.round(levels - 0.5).astype(int), 0, cutoffs.landau_cutoff)
    table = dict(enumerate(np.bincount(nearest, minlength=cutoffs.num_levels).tolist()))

    hl_commutes = not any(np.any(v) for v in commutator(ham, ang).diagonals.values())

    ok = (max_abs_error <= TOLERANCE * max(1.0, gap) and all(count == multiplicity for count in table.values())
          and hl_commutes)
    return SpectrumReport(eig.tolist(), expected.tolist(), max_abs_error, table, hl_commutes, ok)
