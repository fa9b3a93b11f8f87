"""Level projection and the projected coordinate commutator.

Projecting the planar coordinates onto the lowest ``keep+1`` levels and
commuting the projected operators produces a matrix that vanishes
everywhere except on the diagonal of the topmost kept level, where every
(interior-j) element equals -i (keep+1) hbar c / eB. On the full truncated
space the same commutator vanishes on all doubly-interior diagonal
elements: the noncommutativity lives entirely on the truncation boundary.

The projected commutator works on the operators' diagonals: the kept
levels are a leading block, so projecting is a slice and the cost is O(d).
:func:`projector` is the diagonal 0/1 operator ``dump-matrix`` prints;
:func:`project` (P.op.P, also O(d)) and :func:`full_space_scan` serve the
tests.

Tolerances. Entries of x and y are ell sqrt(m/2) with m <= max(keep, J), so
each product term in an entry of [x, y] is below (keep+J+2) ell^2 / 2 and an
entry sums at most 8 such terms: rounding leaves an error of order
4 eps (keep+J+2) ell^2, eps ~ 1.1e-16. The off-top residual and the spread
of the top diagonal are bounded by DEFAULT_TOLERANCE (keep+J+2) ell^2, about
2000 times that error and never tighter than DEFAULT_TOLERANCE ell^2; the
top coefficient is judged relative to its expected size.

The degeneracy cutoff J is a numerical necessity only: the degeneracy
direction is physically infinite. Results at j < J are exact because the
coordinate operators shift j by at most one; elements touching j = J are
truncation artifacts of the finite degeneracy and are reported separately
(``boundary_artifacts``), never asserted against physical values.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fock import BasisIndex, Cutoffs, OperatorMatrix, commutator, matmul
from .ladder import build_xy
from .units import NATURAL, PhysicalUnits, magnetic_length

__all__ = [
    "DEFAULT_TOLERANCE",
    "CommutatorReport",
    "projector",
    "project",
    "projected_commutator_xy",
    "full_space_scan",
    "sweep",
]

# Relative tolerance; absolute bounds scale it by ell^2 (see the module docstring).
DEFAULT_TOLERANCE = 1e-12


class CommutatorReport(NamedTuple):
    """Outcome of one projected-commutator computation.

    ``top_coefficient`` is the common diagonal matrix element at the top
    kept level (interior j only); it scales with ell^2 = hbar c / eB, so in
    natural units it should be -i (keep+1). ``max_offtop_residual`` is the
    largest magnitude found anywhere else in the interior of the kept
    block and should vanish. ``boundary_artifacts`` lists the degeneracy-
    boundary elements excluded from both. ``top_uniform`` is cleared when
    the top diagonal is not constant across interior j, which signals an
    indexing bug rather than physics; it is a flag rather than an
    exception so sweeps always complete and emit diagnostics.
    """

    cutoffs: Cutoffs
    keep_levels: int
    top_coefficient: complex
    max_offtop_residual: float
    boundary_artifacts: list
    top_uniform: bool = True
    ok: bool = True

    def as_dict(self) -> dict:
        return {
            "N": self.cutoffs.landau_cutoff,
            "J": self.cutoffs.degeneracy_cutoff,
            "keep": self.keep_levels,
            "top_coefficient": [self.top_coefficient.real, self.top_coefficient.imag],
            "max_offtop_residual": self.max_offtop_residual,
            "boundary_artifacts": [
                {
                    "row": [row.n, row.j],
                    "col": [col.n, col.j],
                    "value": [value.real, value.imag],
                }
                for row, col, value in self.boundary_artifacts
            ],
            "ok": self.ok,
        }

    @staticmethod
    def csv_header() -> list[str]:
        return ["keep", "re", "im", "residual"]

    def csv_row(self) -> list:
        return [
            self.keep_levels,
            self.top_coefficient.real,
            self.top_coefficient.imag,
            self.max_offtop_residual,
        ]


def projector(cutoffs: Cutoffs, keep: int) -> OperatorMatrix:
    """Diagonal 0/1 matrix selecting all states with n <= keep."""
    if not 0 <= keep <= cutoffs.landau_cutoff:
        raise ValueError(f"keep={keep} outside retained level range 0..{cutoffs.landau_cutoff}")
    diag = np.zeros(cutoffs.dim)
    diag[: (keep + 1) * cutoffs.num_degeneracy] = 1.0
    return OperatorMatrix(diagonals={0: diag}, dim=cutoffs.dim)


def project(op: OperatorMatrix, proj: OperatorMatrix) -> OperatorMatrix:
    """Compress an operator: P.op.P."""
    return matmul(proj, matmul(op, proj))


def projected_commutator_xy(
    cutoffs: Cutoffs, keep: int, units: PhysicalUnits = NATURAL
) -> CommutatorReport:
    """Commutator of the level-projected coordinates, analyzed and scored.

    Builds x and y on the full truncated basis, keeps the leading block of
    the lowest ``keep+1`` levels, and commutes the projected operators.
    Requires J >= 1 so the degeneracy interior (j <= J-1) is nonempty; J >= 2
    gives a sturdier interior. The report's ``ok`` is true when the top
    diagonal is uniform, equals -i (keep+1) ell^2 to DEFAULT_TOLERANCE
    relative, and every other interior element vanishes up to rounding.
    """
    return _kept_block_report(build_xy(cutoffs, units), cutoffs, keep, units)


def _kept_block_report(xy, cutoffs: Cutoffs, keep: int, units: PhysicalUnits) -> CommutatorReport:
    if cutoffs.degeneracy_cutoff < 1:
        raise ValueError("degeneracy cutoff must be >= 1 to have an interior in j")
    if not 0 <= keep <= cutoffs.landau_cutoff:
        raise ValueError(f"keep={keep} outside retained level range 0..{cutoffs.landau_cutoff}")
    size = (keep + 1) * cutoffs.num_degeneracy
    x, y = (op.leading(size) for op in xy)
    return analyze_projected_commutator(commutator(x, y), cutoffs, keep, units)


def analyze_projected_commutator(
    comm: OperatorMatrix, cutoffs: Cutoffs, keep: int, units: PhysicalUnits = NATURAL
) -> CommutatorReport:
    """Score the kept-block commutator built by :func:`projected_commutator_xy`.

    ``comm`` acts on the leading ``(keep+1)(J+1)`` states. Split out so a
    doctored commutator can be fed through the same analysis in tests; the
    CLI never calls this directly.
    """
    num_j = cutoffs.num_degeneracy
    J = cutoffs.degeneracy_cutoff
    ell2 = magnetic_length(units) ** 2
    rounding = DEFAULT_TOLERANCE * (keep + J + 2) * ell2
    diag = comm.diagonals[0]

    top_values = diag[keep * num_j : keep * num_j + J]
    top_coefficient = complex(np.mean(top_values))
    top_spread = float(np.max(np.abs(top_values - top_coefficient)))
    top_uniform = top_spread <= rounding

    # Elements between two interior (j < J) states, top diagonal left out.
    # Slots whose column leaves the block hold zero, so they never count.
    rows = np.arange(len(diag))
    max_offtop_residual = 0.0
    for k, values in comm.diagonals.items():
        inside = (rows % num_j < J) & ((rows + k) % num_j < J) & ((k != 0) | (rows < keep * num_j))
        max_offtop_residual = max(max_offtop_residual, float(np.max(np.abs(values[inside]), initial=0)))

    artifacts = []
    for n in range(keep + 1):
        value = complex(diag[n * num_j + J])
        if abs(value) > DEFAULT_TOLERANCE * ell2:
            artifacts.append((BasisIndex(n, J), BasisIndex(n, J), value))

    expected = -1j * (keep + 1) * ell2
    ok = (
        top_uniform
        and max_offtop_residual <= rounding
        and abs(top_coefficient - expected) <= DEFAULT_TOLERANCE * abs(expected)
    )
    return CommutatorReport(
        cutoffs=cutoffs,
        keep_levels=keep,
        top_coefficient=top_coefficient,
        max_offtop_residual=max_offtop_residual,
        boundary_artifacts=artifacts,
        top_uniform=top_uniform,
        ok=ok,
    )


def full_space_scan(
    cutoffs: Cutoffs, units: PhysicalUnits = NATURAL
) -> list[tuple[int, complex]]:
    """Unprojected [x, y] diagonal on the doubly-interior region.

    Returns, for each level n <= N-1, the largest-magnitude diagonal
    element over the interior orbits j <= J-1. All returned values vanish
    up to rounding: with no level projection the commutator is a pure
    boundary effect. Empty when N = 0 or J = 0 (no doubly-interior states).
    """
    N, J = cutoffs.landau_cutoff, cutoffs.degeneracy_cutoff
    if N == 0 or J == 0:
        return []
    diag = commutator(*build_xy(cutoffs, units)).diagonals[0]
    num_j = cutoffs.num_degeneracy
    out = []
    for n in range(N):
        values = diag[n * num_j : n * num_j + J]
        out.append((n, complex(values[np.argmax(np.abs(values))])))
    return out


def sweep(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> list[CommutatorReport]:
    """One projected-commutator report per keep = 0..N, in order; x and y are built once."""
    xy = build_xy(cutoffs, units)
    return [_kept_block_report(xy, cutoffs, keep, units) for keep in range(cutoffs.num_levels)]
