"""Landau-gauge cross-check on a discretized momentum grid.

This module recomputes the projected coordinate commutator in a different
gauge with none of the ladder-operator machinery: states are labeled by
the level n and the conserved momentum k along the translation-invariant
direction, with the guiding center at x_c = c k / eB. The coordinate
operators become, on the (level ⊗ grid) basis,

    x = (c/eB) K ⊗-wise on the grid  +  <n|x̃|m> on the levels
    y = i hbar d/dk on the grid      +  (c/eB) <n|p̃|m> on the levels

where x̃, p̃ are the oscillator displacement and momentum about the guiding
center and K is diagonal multiplication by k.

Sign conventions. Two seemingly free signs (the direction of d/dk and the
sign of the p̃ term) are fixed here by requiring agreement with the
symmetric-gauge result -i (N+1) hbar c / eB; both also follow from
evaluating y on the plane-wave factor exp(i k y / hbar), which gives
y -> +i hbar d/dk, and from differentiating the guiding-center overlap,
which gives the p̃ term the + sign used above. The tests check the second
derivation independently through quadrature.

Reading off delta coefficients. The continuum statement
<n,k|[x,y]|n',k'> = c_n δ_nn' δ(k-k') is distributional, and the discrete
commutator reproduces it weakly, not entrywise: with a central-difference
derivative, [K, D] is the negated neighbor-averaging stencil, whose strict
diagonal is zero while its action on any smooth grid function is the
identity up to O(dk²). Coefficients are therefore extracted by applying a
level-diagonal block to a smooth Gaussian test profile f and averaging
(block·f)_i / f_i over interior grid points; this converges to c_n at
second order in dk, and the deliberately curved profile keeps the O(dk²)
term visible so convergence order can be measured. (Summing rows instead
would be exact for every dk — the stencil's interior row sums are exact —
and would leave nothing to converge.)

K, d/dk and the level couplings have a few nonzero diagonals each, so
[x, y] costs O((levels+1) M) and no (levels+1)M-square array is built. A
flat offset is (level offset)·M + (grid offset) with grid offsets at most
2, so for M >= 5 the diagonals with |k| <= 2 hold exactly the
level-diagonal blocks: one product of them with f tiled over the levels
gives every block·f at once.

Grid edges use one-sided second-order stencils purely to keep matrices
square; all extracted quantities ignore points within two steps of an
edge.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .fock import MAX_DIMENSION, OperatorMatrix, annihilation_matrix, commutator, dagger, identity, kron
from .units import NATURAL, PhysicalUnits, cyclotron_frequency, magnetic_length

__all__ = [
    "KGrid",
    "GridCommutatorReport",
    "oscillator_x_elements",
    "oscillator_p_elements",
    "derivative_matrix",
    "build_landau_xy",
    "delta_test_profile",
    "projected_commutator_landau",
    "convergence_study",
    "ConvergenceRow",
]

DEFAULT_HALF_WIDTH = 8.0
# Width of the Gaussian test profile as a fraction of the grid span; small
# enough to be well resolved, curved enough that the O(dk²) term is visible.
PROFILE_WIDTH_FRACTION = 0.2


class KGrid(namedtuple("KGrid", "size k_min dk")):
    """Uniform grid of momentum labels k_i = k_min + i*dk, i = 0..size-1.

    The discrete stand-in for δ(k_i - k_j) is δ_ij / dk.
    """

    __slots__ = ()

    def __new__(cls, size: int, k_min: float, dk: float) -> "KGrid":
        self = super().__new__(cls, size, k_min, dk)
        if not isinstance(self.size, (int, np.integer)) or self.size < 3:
            raise ValueError(f"grid needs at least 3 points, got {self.size!r}")
        if not (self.dk > 0 and math.isfinite(self.dk)):
            raise ValueError(f"grid spacing must be positive, got {self.dk!r}")
        # delta_test_profile squares offsets up to span/2 and its width; both must stay normal
        half, sigma = 0.5 * self.span, PROFILE_WIDTH_FRACTION * self.span
        if not (half * half < math.inf and sigma * sigma >= sys.float_info.min):
            raise ValueError(f"grid span {self.span!r} squares outside the normal floats")
        return self

    @property
    def points(self) -> np.ndarray:
        return self.k_min + self.dk * np.arange(self.size)

    @property
    def span(self) -> float:
        return self.dk * (self.size - 1)

    @property
    def interior(self) -> slice:
        """Grid indices at distance >= 2 from either end."""
        return slice(2, self.size - 2)

    @classmethod
    def centered(
        cls, size: int, units: PhysicalUnits = NATURAL, half_width: float = DEFAULT_HALF_WIDTH
    ) -> "KGrid":
        """Symmetric grid spanning ±half_width guiding-center lengths.

        k is scaled by eB ell / c so the guiding centers x_c = c k / eB
        cover ±half_width magnetic lengths.
        """
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        scale = units.e * units.B * magnetic_length(units) / units.c
        k_max = half_width * scale
        return cls(size=size, k_min=-k_max, dk=2.0 * k_max / (size - 1))


def oscillator_x_elements(nmax: int, units: PhysicalUnits = NATURAL) -> OperatorMatrix:
    """Matrix <n|x̃|m> of the displacement about the guiding center.

    Tridiagonal: sqrt(hbar/2m omega) (sqrt(m) at (m-1, m) + sqrt(m+1) at
    (m+1, m)); real symmetric, zero diagonal by parity.
    """
    omega = cyclotron_frequency(units)
    x0 = math.sqrt(units.hbar / (2.0 * units.m * omega))
    a = annihilation_matrix(nmax + 1)
    return x0 * (a + dagger(a))


def oscillator_p_elements(nmax: int, units: PhysicalUnits = NATURAL) -> OperatorMatrix:
    """Matrix <n|p̃|m> of the oscillator momentum about the guiding center.

    Tridiagonal i sqrt(m omega hbar / 2) (sqrt(m+1) at (m+1, m) - sqrt(m)
    at (m-1, m)); purely imaginary, Hermitian, zero diagonal.
    """
    omega = cyclotron_frequency(units)
    p0 = math.sqrt(units.m * omega * units.hbar / 2.0)
    a = annihilation_matrix(nmax + 1)
    return (1j * p0) * (dagger(a) - a)


def derivative_matrix(grid: KGrid) -> OperatorMatrix:
    """Second-order d/dk on the grid: central interior, one-sided ends."""
    M, step = grid.size, 2.0 * grid.dk
    D = {k: np.zeros(M) for k in (-2, -1, 0, 1, 2)}  # D[k][i] = d/dk[i, i+k]
    D[1][1 : M - 1], D[-1][1 : M - 1] = 1.0 / step, -1.0 / step
    D[0][0], D[1][0], D[2][0] = -3.0 / step, 4.0 / step, -1.0 / step
    D[0][M - 1], D[-1][M - 1], D[-2][M - 1] = 3.0 / step, -4.0 / step, 1.0 / step
    return OperatorMatrix(diagonals=D, dim=M)


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
    dim = (levels + 1) * M
    if dim > MAX_DIMENSION:
        raise ValueError(f"composite dimension {dim} exceeds the supported maximum {MAX_DIMENSION}")
    ratio = units.c / (units.e * units.B)
    levels_eye, grid_eye = identity(levels + 1), identity(M)
    K = OperatorMatrix(diagonals={0: grid.points}, dim=M)
    x = ratio * kron(levels_eye, K) + kron(oscillator_x_elements(levels, units), grid_eye)
    y = (1j * units.hbar) * kron(levels_eye, derivative_matrix(grid)) + ratio * kron(
        oscillator_p_elements(levels, units), grid_eye
    )
    return x, y


def delta_test_profile(grid: KGrid) -> np.ndarray:
    """Smooth, strictly positive profile the delta coefficients are read with."""
    mid = grid.k_min + 0.5 * grid.span
    sigma = PROFILE_WIDTH_FRACTION * grid.span
    pts = grid.points
    return np.exp(-((pts - mid) ** 2) / (2.0 * sigma**2))


class GridCommutatorReport(NamedTuple):
    """Outcome of the momentum-grid route at one kept-level count.

    ``top_coefficient`` is the mean interior delta coefficient of [x, y] at
    n = levels; ``max_offtop_residual`` the largest mean coefficient
    magnitude over the lower levels (all vanish at the same O(dk²) order).
    """

    grid: KGrid
    levels: int
    top_coefficient: complex
    max_offtop_residual: float


def projected_commutator_landau(
    grid: KGrid, levels: int, units: PhysicalUnits = NATURAL
) -> GridCommutatorReport:
    """Commutator report with the lowest ``levels+1`` levels retained.

    The intermediate sums are truncated by construction, so no explicit
    projector appears. One product reads every level's coefficient. Callers
    judge the coefficients by their own bounds.
    """
    if grid.size < 5:
        raise ValueError("need at least 5 grid points for a nonempty interior")
    comm = commutator(*build_landau_xy(grid, levels, units))
    # The diagonals with |k| <= 2 are the level blocks (module docstring).
    blocks = OperatorMatrix({k: v for k, v in comm.diagonals.items() if abs(k) <= 2}, comm.dim)
    f = delta_test_profile(grid)
    inner = grid.interior
    g = blocks.apply(np.tile(f, levels + 1)).reshape(levels + 1, grid.size)
    per_level = [complex(np.mean(row[inner] / f[inner])) for row in g]
    top = per_level[levels]
    residual = max((abs(v) for v in per_level[:levels]), default=0.0)
    return GridCommutatorReport(
        grid=grid, levels=levels, top_coefficient=top, max_offtop_residual=float(residual)
    )


class ConvergenceRow(NamedTuple):
    """One grid refinement step of a convergence study."""

    size: int
    dk: float
    keep: int
    coefficient: complex
    abs_error: float
    observed_order: float | None

    def as_dict(self) -> dict:
        return {
            "M": self.size,
            "dk": self.dk,
            "keep": self.keep,
            "re_coeff": self.coefficient.real,
            "im_coeff": self.coefficient.imag,
            "abs_error": self.abs_error,
            "observed_order": self.observed_order,
        }

    @staticmethod
    def csv_header() -> list[str]:
        return ["M", "dk", "keep", "re_coeff", "im_coeff", "abs_error", "observed_order"]

    def csv_row(self) -> list:
        return [
            self.size,
            self.dk,
            self.keep,
            self.coefficient.real,
            self.coefficient.imag,
            self.abs_error,
            self.observed_order,
        ]


def convergence_study(
    keep: int,
    sizes: list[int],
    units: PhysicalUnits = NATURAL,
    half_width: float = DEFAULT_HALF_WIDTH,
) -> list[ConvergenceRow]:
    """Top-coefficient error versus grid resolution at fixed k-range.

    ``observed_order`` compares consecutive rows: error ratio over dk
    ratio on a log scale; None on the first row. Second-order stencils
    should show values near 2.
    """
    expected = -1j * (keep + 1) * magnetic_length(units) ** 2
    rows: list[ConvergenceRow] = []
    for size in sizes:
        grid = KGrid.centered(size, units, half_width)
        report = projected_commutator_landau(grid, keep, units)
        err = abs(report.top_coefficient - expected)
        order = None
        if rows:
            prev = rows[-1]
            if err > 0 and prev.abs_error > 0 and prev.dk != grid.dk:
                order = math.log(prev.abs_error / err) / math.log(prev.dk / grid.dk)
        rows.append(
            ConvergenceRow(
                size=size,
                dk=grid.dk,
                keep=keep,
                coefficient=report.top_coefficient,
                abs_error=err,
                observed_order=order,
            )
        )
    return rows
