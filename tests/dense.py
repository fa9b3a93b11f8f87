"""Dense constructions the tests compare the package against.

The package builds every operator from its diagonals; tests that compare
against a dense numpy matrix turn it into an ``OperatorMatrix`` here. The
package builds no tensor product: the ladder modes are one diagonal each,
and the grid route applies its small factors and builds no operator of
dimension (levels+1)·M. :func:`kron` and :func:`identity` build the
composite operators the tests check those against; :func:`build_landau_xy`
builds x and y on the whole grid basis, as the oracle of the grid route.
The ladder route commutes single-mode pieces; :func:`dense_route_report`
commutes the composite x and y as numpy arrays and scores the kept block
entry by entry, as its oracle. Both routes return pure numbers at ell = 1;
their oracles build x and y in physical units, each with its own scale, and
:func:`physical_grid` lays the grid route's ell = 1 grid out in units.
``verify_spectrum`` builds H on the N+1 levels alone; :func:`composite_spectrum`
sorts the diagonal of H on the whole composite basis, as its oracle.
"""

import math

import numpy as np

from nclandau.fock import Cutoffs, OperatorMatrix, annihilation_matrix, commutator, dagger
from nclandau.ladder import build_H, build_xy
from nclandau.landau_gauge import KGrid, delta_test_profile, derivative_matrix
from nclandau.projection import DEFAULT_TOLERANCE, CommutatorReport
from nclandau.units import NATURAL, PhysicalUnits, cyclotron_frequency, level_spacing, magnetic_length_squared


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


def oscillator_elements(levels: int, units: PhysicalUnits = NATURAL) -> tuple[OperatorMatrix, OperatorMatrix]:
    """<n|x̃|m> = sqrt(hbar/2m omega) (a + a†) and <n|p̃|m> = i sqrt(m omega hbar/2) (a† - a) on levels
    0..``levels``: the displacement and momentum about the guiding center, in ``units``."""
    omega = cyclotron_frequency(units)
    a = annihilation_matrix(levels + 1)
    x0, p0 = math.sqrt(units.hbar / (2.0 * units.m * omega)), math.sqrt(units.m * omega * units.hbar / 2.0)
    return x0 * (a + dagger(a)), (1j * p0) * (dagger(a) - a)


def physical_grid(grid: KGrid, units: PhysicalUnits) -> KGrid:
    """The ell = 1 ``grid`` of guiding centers laid out as momenta in ``units``: every k times e B ell / c,
    formed here as sqrt(hbar e B / c)."""
    scale = math.sqrt(units.hbar * units.e * units.B / units.c)
    return KGrid(grid.size, scale * grid.k_min, scale * grid.dk)


def build_landau_xy(
    grid: KGrid, levels: int, units: PhysicalUnits = NATURAL
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Coordinate matrices (x, y) in ``units`` on the (level ⊗ grid) basis, levels 0..``levels``, with the
    momenta of the ell = 1 ``grid`` laid out in ``units`` (:func:`physical_grid`).

    x and y are exactly Hermitian: d/dk is the corner-cut central stencil,
    antisymmetric on every row. The level truncation happens by
    construction: the matrices simply have no rows beyond n = levels, which
    is the same corner cut the projection route applies explicitly.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    M, grid = grid.size, physical_grid(grid, units)
    ratio = units.c / (units.e * units.B)
    levels_eye, grid_eye = identity(levels + 1), identity(M)
    K = OperatorMatrix(diagonals={0: grid.points}, dim=M)
    x_tilde, p_tilde = oscillator_elements(levels, units)
    x = ratio * kron(levels_eye, K) + kron(x_tilde, grid_eye)
    y = (1j * units.hbar) * kron(levels_eye, derivative_matrix(grid)) + ratio * kron(p_tilde, grid_eye)
    return x, y


def landau_level_coefficients(grid: KGrid, levels: int, units: PhysicalUnits = NATURAL) -> list:
    """Per level, the mean over the grid interior of (block·f)/f, the block cut from
    [x, y] of :func:`build_landau_xy` in ``units``, over ell^2: the pure numbers the grid route reports.

    A flat offset is (level offset)·M + (grid offset) with grid offsets at most
    2, so for M >= 5 the diagonals of [x, y] with |offset| <= 2 hold exactly the
    level-diagonal blocks, and one product of them with f tiled over the levels
    gives every block·f.
    """
    comm = commutator(*build_landau_xy(grid, levels, units))
    blocks = OperatorMatrix({k: v for k, v in comm.diagonals.items() if abs(k) <= 2}, comm.dim)
    f, inner = delta_test_profile(grid), grid.interior
    g = blocks.apply(np.tile(f, levels + 1)).reshape(levels + 1, grid.size)
    ell2 = magnetic_length_squared(units)
    return [complex(np.mean(row[inner] / f[inner])) / ell2 for row in g]


def grid_mean(M: int) -> float:
    """c(M), the interior mean of e^{-r²/2} cosh(u r) with r = dk/σ = 5/(M-1) and u = (k_i - mid)/σ.

    With the central difference, k_i(Df)_i - (D(kf))_i = -(f_{i-1} + f_{i+1})/2 exactly, and for the
    Gaussian profile (f_{i-1} + f_{i+1})/2f_i = e^{-r²/2} cosh(u r). So i[K, d/dk]·f/f has the interior
    mean -c(M) times i, which depends on M alone: σ is a fixed fraction of the span. u r is
    (2i - M + 1)·12.5/(M-1)², and fsum adds the terms exactly, so c(M) is within 5 eps of exact.
    """
    half_r2 = 12.5 / (M - 1) ** 2
    ur = (2 * np.arange(2, M - 2) - (M - 1)) * half_r2
    return math.fsum(np.exp(-half_r2) * np.cosh(ur)) / (M - 4)


def closed_form_level_coefficients(M: int, levels: int) -> list:
    """Per level n = 0..``levels``, the exact coefficient of [x, y]/ell^2 read on the grid route's profile:
    the grid mean -i c(M) plus [x̂, p̂]_nn, which is i below the top level and -i·levels on it (the corner
    cut of [a, a†]). Each is within eps (levels + 6) of exact."""
    c = grid_mean(M)
    return [1j * ((1.0 if n < levels else -levels) - c) for n in range(levels + 1)]


def dense_route_report(cutoffs: Cutoffs, keep: int, units: PhysicalUnits) -> CommutatorReport:
    """The dense oracle of the ladder route: x and y built in ``units``, at
    scale sqrt(ell^2 / 2), on the kept levels (a corner
    cut is the projection), commuted as numpy arrays, and the kept block over
    ell^2 scored by :func:`score_dense_block`."""
    ell2 = magnetic_length_squared(units)
    kept = Cutoffs(keep, cutoffs.degeneracy_cutoff)
    x, y = (op.entries for op in build_xy(kept, math.sqrt(ell2 / 2.0)))
    return score_dense_block((x @ y - y @ x) / ell2, cutoffs, keep)


def score_dense_block(block: np.ndarray, cutoffs: Cutoffs, keep: int) -> CommutatorReport:
    """The report of a kept-block commutator of pure numbers, read entry by entry.

    The top coefficient is the mean of the top level's diagonal over j < J,
    the residual the largest other entry between two states with j < J, and
    the artifacts the (n, J) diagonal entries above DEFAULT_TOLERANCE; ``ok``
    is judged as the package judges it.
    """
    J = cutoffs.degeneracy_cutoff
    n, j = np.divmod(np.arange(len(block)), J + 1)
    diagonal = np.diag(block)
    top = diagonal[(n == keep) & (j < J)]
    coefficient = complex(np.mean(top))
    rounding = DEFAULT_TOLERANCE * (keep + J + 2)
    uniform = float(np.max(np.abs(top - coefficient))) <= rounding
    others = (j < J)[:, None] & (j < J)[None, :] & ~np.diag((n == keep) & (j < J))
    residual = float(np.max(np.abs(block[others]), initial=0.0))
    close = abs(coefficient + 1j * (keep + 1)) <= DEFAULT_TOLERANCE * (keep + 1)
    artifacts = [(level, z) for level, z in enumerate(diagonal[J :: J + 1].tolist()) if abs(z) > DEFAULT_TOLERANCE]
    ok = uniform and residual <= rounding and close
    return CommutatorReport(cutoffs, keep, coefficient, residual, artifacts, uniform, ok)


def composite_spectrum(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> np.ndarray:
    """hbar omega times the sorted diagonal of H = b†b + 1/2 on all (N+1)(J+1) states: its spectrum."""
    return level_spacing(units) * np.sort(build_H(cutoffs).diagonals[0].real)
