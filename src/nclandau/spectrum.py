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

    cutoffs: Cutoffs
    eigenvalues: list[float]
    expected: list[float]
    max_abs_error: float
    degeneracy_table: dict[int, int]
    hl_commutes: bool
    ok: bool

    def as_dict(self) -> dict:
        return {
            "N": self.cutoffs.landau_cutoff,
            "J": self.cutoffs.degeneracy_cutoff,
            "eigenvalues": list(self.eigenvalues),
            "expected": list(self.expected),
            "max_abs_error": self.max_abs_error,
            "degeneracy_table": {str(n): m for n, m in sorted(self.degeneracy_table.items())},
            "hl_commutes": self.hl_commutes,
            "ok": self.ok,
        }

    def table_rows(self) -> list[list]:
        spacing = self.expected[0] * 2 if self.expected else 0.0
        rows = []
        for n in sorted(self.degeneracy_table):
            rows.append([n, self.expected[0] + n * spacing, self.degeneracy_table[n]])
        return rows


def verify_spectrum(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> SpectrumReport:
    """Check levels hbar omega (n + 1/2), each (J+1)-fold, and [H, L] = 0.

    Uses the ladder-form Hamiltonian, whose truncated eigenvalues are free
    of boundary contamination. It is real and diagonal by construction, so
    its sorted diagonal is its spectrum; an H of any other shape raises.
    Physics failures land in the report, not in an exception.
    """
    ham = build_H(cutoffs, units, form="ladder")
    ang = build_L(cutoffs, units)
    if set(ham.diagonals) != {0} or np.any(ham.diagonals[0].imag):
        raise ValueError("the ladder Hamiltonian is not a real diagonal matrix")
    eig = np.sort(ham.diagonals[0].real)

    gap = level_spacing(units)
    multiplicity = cutoffs.num_degeneracy
    expected = np.repeat(gap * (np.arange(cutoffs.num_levels) + 0.5), multiplicity)
    max_abs_error = float(np.max(np.abs(eig - expected)))

    # Assign each eigenvalue to the nearest exact level.
    nearest = np.clip(np.round(eig / gap - 0.5).astype(int), 0, cutoffs.landau_cutoff)
    table = {n: int(np.sum(nearest == n)) for n in range(cutoffs.num_levels)}

    hl_commutes = not any(np.any(v) for v in commutator(ham, ang).diagonals.values())

    ok = (
        max_abs_error <= TOLERANCE * max(1.0, gap)
        and all(count == multiplicity for count in table.values())
        and hl_commutes
    )
    return SpectrumReport(
        cutoffs=cutoffs,
        eigenvalues=[float(v) for v in eig],
        expected=[float(v) for v in expected],
        max_abs_error=max_abs_error,
        degeneracy_table=table,
        hl_commutes=hl_commutes,
        ok=ok,
    )
