"""Symmetric-gauge operators on the truncated two-mode basis.

Two independent oscillator modes carry the physics: mode ``b`` raises the
level index n (and hence the energy), mode ``a`` raises the degeneracy
index j at fixed energy. This assignment is fixed package-wide; every
constructor here builds on :func:`build_a` and :func:`build_b`, so a
transposed mode cannot creep in silently.

The planar coordinates enter through the combination ``alpha = a + b†``:

    x = sqrt(hbar c / 2 e B) (alpha + alpha†)
    y = i sqrt(hbar c / 2 e B) (alpha - alpha†)

so the coordinate commutator is -i (hbar c / e B) [alpha, alpha†] as an
exact matrix identity at every truncation. The momenta follow by inverting
the defining mode combinations

    a = (1/2) sqrt(eB/2c hbar) (x - i y) + (i/2) sqrt(2c/eB hbar) (px - i py)
    b = (1/2) sqrt(eB/2c hbar) (x + i y) + (i/2) sqrt(2c/eB hbar) (px + i py)

which gives

    px = -i sqrt(eB hbar / 8c) ((a - a†) + (b - b†))
    py =   sqrt(eB hbar / 8c) ((a + a†) - (b + b†))

The inversion is pinned down operationally by the canonical commutators
[x, px] = i hbar, [y, py] = i hbar, [x, py] = [y, px] = 0 on interior
matrix elements (see tests); away from the truncation boundary those hold
to rounding error.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import Cutoffs, OperatorMatrix, annihilation_matrix, dagger, matmul
from .units import NATURAL, PhysicalUnits, cyclotron_frequency, magnetic_length_squared

__all__ = [
    "build_a",
    "build_b",
    "build_alpha",
    "build_xy",
    "build_momenta",
    "build_H",
    "build_L",
    "quadratic_coefficients",
    "interior_slice",
]

H_FORMS = ("ladder", "quadratic")


def build_a(cutoffs: Cutoffs) -> OperatorMatrix:
    """Degeneracy-mode lowering operator: acts on j, leaves n alone; offset +1 (none if J = 0)."""
    inner = annihilation_matrix(cutoffs.num_degeneracy).diagonals.values()
    return OperatorMatrix({1: np.tile(v, cutoffs.num_levels) for v in inner}, cutoffs.dim)


def build_b(cutoffs: Cutoffs) -> OperatorMatrix:
    """Level-mode lowering operator: acts on n, leaves j alone; offset +(J+1) (none if N = 0)."""
    step = cutoffs.num_degeneracy
    outer = annihilation_matrix(cutoffs.num_levels).diagonals.values()
    return OperatorMatrix({step: np.repeat(v, step) for v in outer}, cutoffs.dim)


def build_alpha(cutoffs: Cutoffs) -> OperatorMatrix:
    """The coordinate mode alpha = a + b†."""
    return build_a(cutoffs) + dagger(build_b(cutoffs))


def build_xy(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Planar coordinate matrices (x, y); both exactly Hermitian."""
    scale = math.sqrt(magnetic_length_squared(units) / 2.0)
    alpha = build_alpha(cutoffs)
    alpha_dag = dagger(alpha)
    x = scale * (alpha + alpha_dag)
    y = (1j * scale) * (alpha - alpha_dag)
    return x, y


def build_momenta(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Canonical momentum matrices (px, py); both exactly Hermitian."""
    scale = math.sqrt(units.e * units.B * units.hbar / (8.0 * units.c))
    a = build_a(cutoffs)
    b = build_b(cutoffs)
    a_dag, b_dag = dagger(a), dagger(b)
    # Written with a - a† so the zero real parts of px stay +0, as in a dense sum.
    px = (-1j * scale) * ((a - a_dag) + (b - b_dag))
    py = scale * ((a + a_dag) - (b + b_dag))
    return px, py


def build_L(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> OperatorMatrix:
    """Planar angular momentum, diagonal with entry hbar (j - n) at (n, j)."""
    a = build_a(cutoffs)
    b = build_b(cutoffs)
    return units.hbar * (matmul(dagger(a), a) - matmul(dagger(b), b))


def build_H(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL, form: str = "ladder") -> OperatorMatrix:
    """Hamiltonian of the planar motion.

    form="ladder" returns the closed diagonal form hbar omega (b†b + 1/2),
    whose truncated spectrum is exact: levels hbar omega (n + 1/2), each
    (J+1)-fold degenerate.

    form="quadratic" assembles the same operator from the coordinate and
    momentum matrices,

        (px² + py²)/2m + m (eB/2mc)² (x² + y²)/2 - (eB/2mc) L,

    which agrees with the ladder form on matrix elements between states at
    distance >= 2 from the truncation boundary (quadratic terms shift each
    index by at most 2) but not on the boundary itself.
    """
    if form == "ladder":
        omega = cyclotron_frequency(units)
        b = build_b(cutoffs)
        half = OperatorMatrix({0: np.full(cutoffs.dim, 0.5)}, cutoffs.dim)
        return units.hbar * omega * (matmul(dagger(b), b) + half)
    if form == "quadratic":
        inverse_2m, spring, half_omega = quadratic_coefficients(units)
        x, y = build_xy(cutoffs, units)
        px, py = build_momenta(cutoffs, units)
        ang = build_L(cutoffs, units)
        kinetic = inverse_2m * (matmul(px, px) + matmul(py, py))
        potential = spring * (matmul(x, x) + matmul(y, y))
        return kinetic + potential - half_omega * ang
    raise ValueError(f"unknown Hamiltonian form {form!r}; expected one of {H_FORMS}")


def quadratic_coefficients(units: PhysicalUnits) -> tuple[float, float, float]:
    """The factors 1/2m, m (eB/2mc)²/2 and eB/2mc of the quadratic Hamiltonian.

    Raises ValueError when any of them is not finite in these units.
    """
    half_omega = units.e * units.B / (2.0 * units.m * units.c)
    factors = (1.0 / (2.0 * units.m), 0.5 * units.m * (half_omega * half_omega), half_omega)
    if not all(map(math.isfinite, factors)):
        raise ValueError("1/(2*m) or m*(e*B/(2*m*c))**2/2 overflows in these units")
    return factors


def interior_slice(cutoffs: Cutoffs, depth: int) -> list[int]:
    """Flattened positions at distance >= depth from the truncation boundary.

    ``depth`` is the maximal index shift of the operator expression under
    test: 1 for expressions linear in the modes, 2 for quadratic ones.
    Truncation artifacts propagate exactly that far inward, so matrix
    elements between two interior states are free of them.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    positions = []
    for n in range(cutoffs.num_levels - depth):
        for j in range(cutoffs.num_degeneracy - depth):
            positions.append(n * cutoffs.num_degeneracy + j)
    return positions
