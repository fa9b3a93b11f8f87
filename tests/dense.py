"""Dense constructions the tests compare the package against.

The package builds every operator from its diagonals; tests that compare
against a dense numpy matrix turn it into an ``OperatorMatrix`` here. The
package builds no tensor product: the ladder modes are one diagonal each,
and the grid route applies its small factors and builds no operator of
dimension (levels+1)·M. :func:`kron` and :func:`identity` build the
composite operators the tests check those against; :func:`build_landau_xy`
builds x and y on the whole grid basis, as the oracle of the grid route.
"""

import numpy as np

from nclandau.fock import OperatorMatrix, commutator
from nclandau.landau_gauge import (
    KGrid,
    delta_test_profile,
    derivative_matrix,
    oscillator_p_elements,
    oscillator_x_elements,
)
from nclandau.units import NATURAL, PhysicalUnits


def dense_operator(entries) -> OperatorMatrix:
    """The operator whose matrix is the square array ``entries``, stored by its nonzero diagonals."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {arr.shape}")
    dim = arr.shape[0]
    diagonals = {k: np.pad(np.diagonal(arr, k), (max(-k, 0), max(k, 0)))
                 for k in range(1 - dim, dim) if np.any(np.diagonal(arr, k))}
    return OperatorMatrix(diagonals=diagonals, dim=dim)


def identity(dim: int) -> OperatorMatrix:
    # np.arange takes any dim, so a bad one reaches the constructor's check.
    return OperatorMatrix(diagonals={0: np.ones_like(np.arange(dim), dtype=float)}, dim=dim)


def kron(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Tensor product with ``a`` on the outer (level) factor.

    The composite entry at ((n, j), (n', j')) is a[n, n'] * b[j, j'], which
    is consistent with the n-major flattening of ``fock.flatten``: the pair
    of offsets (ka, kb) lands on the flat offset ka * b.dim + kb. Where
    n + ka or j + kb leaves its factor's basis the factor's slot holds zero,
    so pairs that share a flat offset fill disjoint rows.
    """
    diagonals: dict = {}
    for ka, va in a.diagonals.items():
        for kb, vb in b.diagonals.items():
            k = ka * b.dim + kb
            diagonals[k] = diagonals.get(k, 0) + np.repeat(va, b.dim) * np.tile(vb, a.dim)
    return OperatorMatrix(diagonals=diagonals, dim=a.dim * b.dim)


def build_landau_xy(
    grid: KGrid, levels: int, units: PhysicalUnits = NATURAL
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Coordinate matrices (x, y) on the (level ⊗ grid) basis, levels 0..``levels``.

    x is exactly Hermitian; y is Hermitian except on the rows and columns
    touched by the one-sided end stencils. The level truncation happens by
    construction: the matrices simply have no rows beyond n = levels, which
    is the same corner cut the projection route applies explicitly.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    M = grid.size
    ratio = units.c / (units.e * units.B)
    levels_eye, grid_eye = identity(levels + 1), identity(M)
    K = OperatorMatrix(diagonals={0: grid.points}, dim=M)
    x = ratio * kron(levels_eye, K) + kron(oscillator_x_elements(levels, units), grid_eye)
    y = (1j * units.hbar) * kron(levels_eye, derivative_matrix(grid)) + ratio * kron(
        oscillator_p_elements(levels, units), grid_eye
    )
    return x, y


def landau_level_coefficients(grid: KGrid, levels: int, units: PhysicalUnits = NATURAL) -> list:
    """Per level, the mean over the grid interior of (block·f)/f, the block cut from
    [x, y] of :func:`build_landau_xy`.

    A flat offset is (level offset)·M + (grid offset) with grid offsets at most
    2, so for M >= 5 the diagonals of [x, y] with |offset| <= 2 hold exactly the
    level-diagonal blocks, and one product of them with f tiled over the levels
    gives every block·f.
    """
    comm = commutator(*build_landau_xy(grid, levels, units))
    blocks = OperatorMatrix({k: v for k, v in comm.diagonals.items() if abs(k) <= 2}, comm.dim)
    f, inner = delta_test_profile(grid), grid.interior
    g = blocks.apply(np.tile(f, levels + 1)).reshape(levels + 1, grid.size)
    return [complex(np.mean(row[inner] / f[inner])) for row in g]
