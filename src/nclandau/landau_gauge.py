"""Landau-gauge cross-check on a discretized momentum grid.

This module recomputes the projected coordinate commutator in a different
gauge with none of the ladder-operator machinery: states are labeled by
the level n and the conserved momentum k along the translation-invariant
direction, with the guiding center at x_c = c k / eB, which is k at ell = 1,
where the module works. The operators become, on the (level ⊗ grid) basis,

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
commutator reproduces it weakly, not entrywise: with the central difference,
[K, D] is the negated neighbour average, k_i(Df)_i - (D(kf))_i =
-(f_{i-1} + f_{i+1})/2, with a zero diagonal. So a level-diagonal block is
applied to a smooth Gaussian test profile f, and (block·f)_i / f_i averaged
over the interior, the points two or more steps from either end. For the
Gaussian (f_{i-1} + f_{i+1})/2f_i = e^{-r²/2} cosh(u_i r), with r = dk/σ =
5/(M-1) and u_i = (k_i - mid)/σ, so i[K, d/dk]·f/f averages to -i c(M), c(M)
the interior mean of e^{-r²/2} cosh(u_i r). As σ is a fixed fraction of the
span, c(M) depends on M alone: the k-range moves only dk. Its
error |1 - c(M)| ≈ 13.5/(M-1)² at large M is second order in dk, and the
curved profile keeps it visible, where summing rows would be exact for every
dk and leave nothing to converge.

Why it agrees with [x, y]. x̃ and p̃ act on the levels, K and d/dk on the
grid, so the cross terms commute exactly and [x, y] = [(c/eB) K, i hbar d/dk]
⊗ 1 + 1 ⊗ [x̃, (c/eB) p̃]. K·d/dk is dimensionless; x̃ = ℓx̂, (c/eB) p̃ = ℓp̂
with x̂, p̂ the ℓ = 1 matrices (m cancels), so this is ℓ² = hbar c/eB times
i[K, d/dk] ⊗ 1 + 1 ⊗ [x̂, p̂]. The level factor is diagonal, so level n's
coefficient is the one grid mean plus [x̂, p̂]_nn. [x̂, p̂] is the corner cut
of i[a, a†], -i·keep on the top level (a single level stores no diagonal,
and adds 0), so the top coefficient is -i(keep + c(M)). The route forms the
mean once, on the 1-D profile, adds that entry and reports the sum at ℓ = 1.
Leaving out the cross terms, which grow as the half-width h and as 1/h,
keeps the rounding free of h.

Rounding, in units of eps, each rounding at most half an eps of its value,
on a centred grid. Each k_i is within 3/4 of the span of k_min + i·dk, so
each f_i is within 31 of the Gaussian (its exponent is at most 25/8) and
each (f_{i-1} + f_{i+1})/2f_i, below 1.15, within 72 of e^{-r²/2} cosh(u_i r).
The grid factor subtracts two terms of at most (M-1)/4·(f_{i-1} + f_{i+1})
each (|k|/2dk <= (M-1)/4), each off by 3.5 times that (four roundings and
the k_i in it). Interior neighbours of f differ by less than 2x, so each
i(...)/f_i is within 7(M-1) + 74 of its closed form; numpy's blocked pairwise
mean (28 additions deep) adds 17. The level factor's top entry is the
difference of two products of magnitude keep/2, each 3.5 roundings deep:
within 4·keep. Adding the two rounds a value below keep + 2 once. So the top
coefficient is within 7(M + keep + 13) of -i(keep + c(M)).

Overflow: the top coefficient is below keep + 2 in magnitude, as c(M) < 1.15
for every M, so it and a row's error stay below 2(keep+2), and times ℓ²
overflow only where 2(keep+2)ℓ² does.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .fock import OperatorMatrix, annihilation_matrix, commutator, dagger

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
        if not isinstance(self.size, int) or self.size < MIN_GRID_SIZE:
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
    def centered(cls, size: int, half_width: float = DEFAULT_HALF_WIDTH) -> "KGrid":
        """Symmetric grid of guiding centers k at ell = 1, spanning ±half_width magnetic lengths."""
        return cls(size=size, k_min=-half_width, dk=2.0 * half_width / max(size - 1, 1))  # __new__ rejects size 1


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
    """Second-order central d/dk on the grid, ±1/(2dk) beside the diagonal, corner-cut like every operator."""
    step = np.full(grid.size, 1.0 / (2.0 * grid.dk))
    return OperatorMatrix(diagonals={-1: -step, 1: step}, dim=grid.size)


def delta_test_profile(grid: KGrid) -> np.ndarray:
    """Smooth, strictly positive profile the delta coefficients are read with."""
    mid = grid.k_min + 0.5 * grid.span
    sigma = PROFILE_WIDTH_FRACTION * grid.span
    exponents = -((grid.points - mid) ** 2) / (2.0 * sigma**2)
    return np.array([math.exp(t) for t in exponents.tolist()])  # libm, point by point: np.exp's bits vary with the CPU


class GridCommutatorReport(NamedTuple):
    """The grid route's outcome: the mean interior delta coefficient of [x, y] at n = levels, at ell = 1."""

    top_coefficient: complex


def projected_commutator_landau(grid: KGrid, levels: int) -> GridCommutatorReport:
    """Commutator report with the lowest ``levels+1`` levels retained.

    The factors are truncated by construction, so no explicit projector
    appears. Callers judge the coefficient by their own bounds.
    """
    k, D, f, inner = grid.points, derivative_matrix(grid), delta_test_profile(grid), grid.interior
    # [x, y]/ℓ² (module docstring): the one grid mean every level reads, plus the top entry of diagonal [x̂, p̂]
    grid_mean = np.mean((1j * (k * D.apply(f) - D.apply(k * f)))[inner] / f[inner])
    level = commutator(oscillator_x_elements(levels), oscillator_p_elements(levels)).diagonals.get(0, [0])[-1]
    return GridCommutatorReport(top_coefficient=complex(grid_mean + level))


class ConvergenceRow(NamedTuple):
    """One grid refinement step of a convergence study, at ell = 1."""

    size: int
    dk: float
    keep: int
    coefficient: complex
    abs_error: float
    observed_order: float | None


def convergence_study(keep: int, sizes: list[int], half_width: float = DEFAULT_HALF_WIDTH) -> list[ConvergenceRow]:
    """Top-coefficient error against -i (keep+1) versus grid resolution at fixed k-range.

    ``observed_order`` compares consecutive rows: error ratio over dk
    ratio on a log scale; None on the first row. Second-order stencils
    should show values near 2.
    """
    rows: list[ConvergenceRow] = []
    for size in sizes:
        grid = KGrid.centered(size, half_width)
        report = projected_commutator_landau(grid, keep)
        err = abs(report.top_coefficient + 1j * (keep + 1))
        order = None
        if rows:
            prev = rows[-1]
            if err > 0 and prev.abs_error > 0 and prev.dk != grid.dk:
                order = math.log(prev.abs_error / err) / math.log(prev.dk / grid.dk)
        rows.append(ConvergenceRow(size, grid.dk, keep, report.top_coefficient, err, order))
    return rows
