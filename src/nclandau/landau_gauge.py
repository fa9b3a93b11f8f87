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

Why it agrees with [x, y]. x̃ and p̃ act on the levels, K and d/dk on the
grid, so the cross terms commute exactly and [x, y] = [(c/eB) K, i hbar d/dk]
⊗ 1 + 1 ⊗ [x̃, (c/eB) p̃]. K·d/dk is dimensionless; x̃ = ℓx̂, (c/eB) p̃ = ℓp̂
with x̂, p̂ the ℓ = 1 matrices (m cancels), so this is ℓ² = hbar c/eB times
i[K, d/dk] ⊗ 1 + 1 ⊗ [x̂, p̂], whose level factor is diagonal. The route adds
i[K, d/dk]·f to each row of [x̂, p̂]·F, F being f tiled as a (levels+1, M)
array, and reports each level's interior mean at ℓ = 1; it builds no operator
of dimension (levels+1)M. Leaving out the cross terms, which grow as the
half-width h and as 1/h, keeps the rounding free of h.

Rounding, in units of eps at an interior point i: the grid factor subtracts
two terms of at most (M-1)/4·(f_{i-1} + f_{i+1}) each (|k|/2dk <= (M-1)/4),
five roundings deep; the level factor two of at most 2(keep+1)·f_i, five deep.
Interior neighbours of f differ by less than 2x, and the mean adds log2(M) + 1
roundings of at most keep+1. So every coefficient is within 10(M-1) +
41(keep+1) <= 40(M + keep + 2) of exact.

Overflow: each block·f / f is a pure number below keep+2, as (f_{i-1} +
f_{i+1})/2f_i < 1.15 for every M and [x̂, p̂] is -i·keep on the top level and
i below. So a row's error or a relative difference's numerator stays below
2(keep+2), and times ℓ² overflows only where 2(keep+2)ℓ² does.

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

from .fock import OperatorMatrix, annihilation_matrix, dagger
from .units import NATURAL, PhysicalUnits, magnetic_length_squared

__all__ = [
    "KGrid",
    "GridCommutatorReport",
    "oscillator_x_elements",
    "oscillator_p_elements",
    "derivative_matrix",
    "delta_test_profile",
    "projected_commutator_landau",
    "convergence_study",
    "ConvergenceRow",
]

DEFAULT_HALF_WIDTH = 8.0
# Fewest grid points with a nonempty interior (two points from either end).
MIN_GRID_SIZE = 5
# A grid-route top coefficient passes within this fraction of its reference.
TOLERANCE = 0.01
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
        if not isinstance(self.size, (int, np.integer)) or self.size < MIN_GRID_SIZE:
            raise ValueError(f"a nonempty interior needs {MIN_GRID_SIZE} grid points, got {self.size!r}")
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
        scale = units.e * units.B * math.sqrt(magnetic_length_squared(units)) / units.c
        k_max = half_width * scale
        return cls(size=size, k_min=-k_max, dk=2.0 * k_max / max(size - 1, 1))  # __new__ rejects size 1


def oscillator_x_elements(nmax: int) -> OperatorMatrix:
    """Matrix <n|x̂|m> of the displacement about the guiding center at ell = 1: x̃ = ell x̂.

    Tridiagonal: sqrt(1/2) (sqrt(m) at (m-1, m) + sqrt(m+1) at (m+1, m));
    real symmetric, zero diagonal by parity.
    """
    a = annihilation_matrix(nmax + 1)
    return math.sqrt(0.5) * (a + dagger(a))


def oscillator_p_elements(nmax: int) -> OperatorMatrix:
    """Matrix <n|p̂|m> of the oscillator momentum about the guiding center at ell = 1: (c/eB) p̃ = ell p̂.

    Tridiagonal i sqrt(1/2) (sqrt(m+1) at (m+1, m) - sqrt(m) at (m-1, m));
    purely imaginary, Hermitian, zero diagonal.
    """
    a = annihilation_matrix(nmax + 1)
    return (1j * math.sqrt(0.5)) * (dagger(a) - a)


def derivative_matrix(grid: KGrid) -> OperatorMatrix:
    """Second-order d/dk on the grid: central interior, one-sided ends."""
    M, step = grid.size, 2.0 * grid.dk
    D = {k: np.zeros(M) for k in (-2, -1, 0, 1, 2)}  # D[k][i] = d/dk[i, i+k]
    D[1][1 : M - 1], D[-1][1 : M - 1] = 1.0 / step, -1.0 / step
    D[0][0], D[1][0], D[2][0] = -3.0 / step, 4.0 / step, -1.0 / step
    D[0][M - 1], D[-1][M - 1], D[-2][M - 1] = 3.0 / step, -4.0 / step, 1.0 / step
    return OperatorMatrix(diagonals=D, dim=M)


def delta_test_profile(grid: KGrid) -> np.ndarray:
    """Smooth, strictly positive profile the delta coefficients are read with."""
    mid = grid.k_min + 0.5 * grid.span
    sigma = PROFILE_WIDTH_FRACTION * grid.span
    pts = grid.points
    return np.exp(-((pts - mid) ** 2) / (2.0 * sigma**2))


class GridCommutatorReport(NamedTuple):
    """Outcome of the momentum-grid route at one kept-level count.

    ``top_coefficient`` is the mean interior delta coefficient of [x, y] at
    n = levels, at ell = 1; ``max_offtop_residual`` the largest mean
    coefficient magnitude over the lower levels (all vanish at the same
    O(dk²) order).
    """

    top_coefficient: complex
    max_offtop_residual: float


def projected_commutator_landau(grid: KGrid, levels: int) -> GridCommutatorReport:
    """Commutator report with the lowest ``levels+1`` levels retained.

    The factors are truncated by construction, so no explicit projector
    appears. Callers judge the coefficients by their own bounds.
    """
    k, D, f, inner = grid.points, derivative_matrix(grid), delta_test_profile(grid), grid.interior
    x, p, F = oscillator_x_elements(levels), oscillator_p_elements(levels), np.tile(f, (levels + 1, 1))
    # [x, y]·F / ℓ² without the cross terms (module docstring): i[K, d/dk]·f plus each row of [x̂, p̂]·F
    g = 1j * (k * D.apply(f) - D.apply(k * f)) + (x.apply(p.apply(F)) - p.apply(x.apply(F)))
    per_level = [complex(np.mean(row[inner] / f[inner])) for row in g]
    residual = max((abs(v) for v in per_level[:levels]), default=0.0)
    return GridCommutatorReport(top_coefficient=per_level[levels], max_offtop_residual=float(residual))


class ConvergenceRow(NamedTuple):
    """One grid refinement step of a convergence study: ``dk`` in these units, the rest at ell = 1."""

    size: int
    dk: float
    keep: int
    coefficient: complex
    abs_error: float
    observed_order: float | None


def convergence_study(
    keep: int,
    sizes: list[int],
    units: PhysicalUnits = NATURAL,
    half_width: float = DEFAULT_HALF_WIDTH,
) -> list[ConvergenceRow]:
    """Top-coefficient error against -i (keep+1) versus grid resolution at fixed k-range.

    ``observed_order`` compares consecutive rows: error ratio over dk
    ratio on a log scale; None on the first row. Second-order stencils
    should show values near 2.
    """
    rows: list[ConvergenceRow] = []
    for size in sizes:
        grid = KGrid.centered(size, units, half_width)
        report = projected_commutator_landau(grid, keep)
        err = abs(report.top_coefficient + 1j * (keep + 1))
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
