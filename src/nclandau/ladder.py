"""Symmetric-gauge operators on the truncated two-mode basis.

Two independent oscillator modes carry the physics: mode ``b`` raises the
level index n (and hence the energy), mode ``a`` raises the degeneracy
index j at fixed energy. This assignment is fixed package-wide; every
constructor here lifts single-mode operators onto the composite basis
with :func:`lift`, so a transposed mode cannot creep in.

The planar coordinates enter through the combination ``alpha = a + b†``:

    x = sqrt(hbar c / 2 e B) (alpha + alpha†) = 1 ⊗ x_a + x_b ⊗ 1
    y = i sqrt(hbar c / 2 e B) (alpha - alpha†) = 1 ⊗ y_a + y_b ⊗ 1

with the pieces of :func:`build_mode_xy`, which commute across modes, so
[x, y] = 1 ⊗ [x_a, y_a] + [x_b, y_b] ⊗ 1 = -i (hbar c / e B) [alpha, alpha†]
at every truncation. The projection route commutes the pieces and
:func:`build_xy` lifts them. The momenta invert the mode combinations

    a = (1/2) sqrt(eB/2c hbar) (x - i y) + (i/2) sqrt(2c/eB hbar) (px - i py)
    b = (1/2) sqrt(eB/2c hbar) (x + i y) + (i/2) sqrt(2c/eB hbar) (px + i py)

which gives

    px = -i sqrt(hbar e B / 8c) ((a - a†) + (b - b†))
    py =   sqrt(hbar e B / 8c) ((a + a†) - (b + b†))

The tests pin the inversion down by [x, px] = [y, py] = i hbar and
[x, py] = [y, px] = 0 on interior matrix elements, away from the truncation
boundary, where those hold to rounding error.
"""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

from .fock import Cutoffs, OperatorMatrix, annihilation_matrix, dagger, matmul

__all__ = [
    "build_a",
    "build_b",
    "build_alpha",
    "build_mode_xy",
    "build_unit_xy",
    "build_xy",
    "build_unit_momenta",
    "build_momenta",
    "build_H",
    "build_L",
    "interior_slice",
]

H_FORMS = ("ladder", "quadratic")


def lift(cutoffs: Cutoffs, on_a: OperatorMatrix | None = None, on_b: OperatorMatrix | None = None) -> OperatorMatrix:
    """1 ⊗ on_a + on_b ⊗ 1: on_a (J+1 states) tiled, on_b (N+1 states) repeated. The offsets alternate
    between the modes as in alpha + alpha† = (a + b†) + (a† + b), an order later products sum in."""
    step = cutoffs.num_degeneracy
    tiled = [(k, np.tile(v, cutoffs.num_levels)) for k, v in (on_a.diagonals.items() if on_a else ())]
    repeated = [(k * step, np.repeat(v, step)) for k, v in (on_b.diagonals.items() if on_b else ())]
    return OperatorMatrix(dict(d for pair in zip_longest(tiled, repeated) for d in pair if d), cutoffs.dim)


def build_a(cutoffs: Cutoffs) -> OperatorMatrix:
    """Degeneracy-mode lowering operator: acts on j, leaves n alone; offset +1 (none if J = 0)."""
    return lift(cutoffs, on_a=annihilation_matrix(cutoffs.num_degeneracy))


def build_b(cutoffs: Cutoffs) -> OperatorMatrix:
    """Level-mode lowering operator: acts on n, leaves j alone; offset +(J+1) (none if N = 0)."""
    return lift(cutoffs, on_b=annihilation_matrix(cutoffs.num_levels))


def build_alpha(cutoffs: Cutoffs) -> OperatorMatrix:
    """The coordinate mode alpha = a + b†."""
    return build_a(cutoffs) + dagger(build_b(cutoffs))


def build_mode_xy(cutoffs: Cutoffs, scale: float = math.sqrt(0.5)) -> list[tuple[OperatorMatrix, OperatorMatrix]]:
    """The pieces [(x_a, y_a), (x_b, y_b)] of x and y on the J+1 orbits and the N+1 levels: x_a = s (a + a†),
    y_a = i s (a - a†), x_b = s (b† + b), y_b = i s (b† - b), where s = ``scale``, sqrt(1/2) at ell = 1."""
    modes = (annihilation_matrix(cutoffs.num_degeneracy), dagger(annihilation_matrix(cutoffs.num_levels)))
    return [((alpha + dagger(alpha)).scaled(scale), (1j * (alpha - dagger(alpha))).scaled(scale)) for alpha in modes]


def build_unit_xy(cutoffs: Cutoffs) -> tuple[OperatorMatrix, OperatorMatrix]:
    """alpha + alpha† and i (alpha - alpha†): x and y at unit scale, the pieces of :func:`build_mode_xy` lifted."""
    return tuple(lift(cutoffs, on_a, on_b) for on_a, on_b in zip(*build_mode_xy(cutoffs, 1.0)))


def build_xy(cutoffs: Cutoffs) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Planar coordinate matrices (x, y) at ell = 1, both exactly Hermitian: sqrt(1/2) times :func:`build_unit_xy`."""
    return tuple(op.scaled(math.sqrt(0.5)) for op in build_unit_xy(cutoffs))


def build_unit_momenta(cutoffs: Cutoffs) -> tuple[OperatorMatrix, OperatorMatrix]:
    """-i ((a - a†) + (b - b†)) and (a + a†) - (b + b†): px and py at unit scale."""
    a, b = build_a(cutoffs), build_b(cutoffs)
    a_dag, b_dag = dagger(a), dagger(b)
    # Written with a - a† and 0 - 1j (-1j is -0 - 1j) so that every zero of px is +0, as in a dense product.
    return (0 - 1j) * ((a - a_dag) + (b - b_dag)), (a + a_dag) - (b + b_dag)


def build_momenta(cutoffs: Cutoffs) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Canonical momenta (px, py) at hbar = e = B = c = 1, both exactly Hermitian: sqrt(1/8) times the unit ones."""
    return tuple(op.scaled(math.sqrt(0.125)) for op in build_unit_momenta(cutoffs))


def build_L(cutoffs: Cutoffs) -> OperatorMatrix:
    """Planar angular momentum at hbar = 1, diagonal with entry j - n at (n, j)."""
    a, b = build_a(cutoffs), build_b(cutoffs)
    return matmul(dagger(a), a) - matmul(dagger(b), b)


def build_H(cutoffs: Cutoffs, form: str = "ladder") -> OperatorMatrix:
    """Hamiltonian of the planar motion at hbar omega = 1.

    form="ladder" returns the closed diagonal form b†b + 1/2, whose
    truncated spectrum is exact: levels n + 1/2, each (J+1)-fold degenerate.

    form="quadratic" assembles the same operator from the coordinate and
    momentum matrices in natural units,

        (px² + py²)/2 + (x² + y²)/8 - L/2,

    which agrees with the ladder form on matrix elements between states at
    distance >= 2 from the truncation boundary (quadratic terms shift each
    index by at most 2) but not on the boundary itself. In any units each
    term of (px² + py²)/2m + m (eB/2mc)² (x² + y²)/2 - (eB/2mc) L is hbar
    omega times its natural-units term here.
    """
    if form == "ladder":
        b = build_b(cutoffs)
        return matmul(dagger(b), b) + OperatorMatrix({0: np.full(cutoffs.dim, 0.5)}, cutoffs.dim)
    if form == "quadratic":
        x, y = build_xy(cutoffs)
        px, py = build_momenta(cutoffs)
        kinetic = 0.5 * (matmul(px, px) + matmul(py, py))
        potential = 0.125 * (matmul(x, x) + matmul(y, y))
        return kinetic + potential - 0.5 * build_L(cutoffs)
    raise ValueError(f"unknown Hamiltonian form {form!r}; expected one of {H_FORMS}")


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
