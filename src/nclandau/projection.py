"""Level projection and the projected coordinate commutator.

Projecting the planar coordinates onto the lowest ``keep+1`` levels and
commuting the projected operators produces a matrix that vanishes
everywhere except on the diagonal of the topmost kept level, where every
(interior-j) element equals -i (keep+1) hbar c / eB. On the full truncated
space the same commutator vanishes on all doubly-interior diagonal
elements: the noncommutativity lives entirely on the truncation boundary.

The projected commutator works on the operators' diagonals in O(d). x and
y are corner cuts, so their kept block is x and y built on the kept levels
alone, and :func:`sweep` scores every keep from one full-basis pass.
:func:`projector` is the diagonal 0/1 operator ``dump-matrix`` prints;
:func:`project` (P.op.P, also O(d)) and :func:`full_space_scan` serve the
tests.

Units and tolerances. [x, y] is ell^2 = hbar c / eB times its value at
ell = 1, so the routes here commute the ell = 1 matrices, score those pure
numbers against -i (keep+1) and scale each reported value by ell^2 once: no
intermediate overflows before a reported value, below (N+J+2) ell^2, does.
Each product term in an entry of [x, y] is below (keep+J+2)/2 and an entry
sums at most 8, so rounding errs by about 4 eps (keep+J+2), eps ~ 2.2e-16.
The off-top residual and the top spread are bounded by DEFAULT_TOLERANCE
(keep+J+2), an artifact is listed above DEFAULT_TOLERANCE, and the top
coefficient is judged relative to keep+1. The scaling rounds once more: a
reported r of the pure value z has |r - ell^2 z| <= (eps/2)|ell^2 z| + 2^-1075.

The degeneracy cutoff J is a numerical necessity only: the degeneracy
direction is physically infinite. Results at j < J are exact because the
coordinate operators shift j by at most one; elements touching j = J are
truncation artifacts of the finite degeneracy and are reported separately
(``boundary_artifacts``), never asserted against physical values.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fock import Cutoffs, OperatorMatrix, commutator, matmul
from .ladder import build_xy
from .units import NATURAL, PhysicalUnits, magnetic_length_squared

__all__ = [
    "DEFAULT_TOLERANCE",
    "CommutatorReport",
    "projector",
    "project",
    "projected_commutator_xy",
    "full_space_scan",
    "sweep",
]

# Tolerance on the pure numbers of [x, y] at ell = 1 (see the module docstring).
DEFAULT_TOLERANCE = 1e-12


class CommutatorReport(NamedTuple):
    """Outcome of one projected-commutator computation.

    ``top_coefficient`` is the common diagonal matrix element at the top
    kept level (interior j only); it scales with ell^2 = hbar c / eB, so in
    natural units it should be -i (keep+1). ``max_offtop_residual`` is the
    largest magnitude found anywhere else in the interior of the kept
    block and should vanish. ``boundary_artifacts`` holds ``(n, value)``
    for each (n, J) diagonal element excluded from both. ``top_uniform`` is
    cleared when the top diagonal is not constant across interior j, which
    signals an indexing bug rather than physics; it is a flag rather than
    an exception so sweeps always complete and emit diagnostics.
    """

    cutoffs: Cutoffs
    keep_levels: int
    top_coefficient: complex
    max_offtop_residual: float
    boundary_artifacts: list
    top_uniform: bool = True
    ok: bool = True


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


def projected_commutator_xy(cutoffs: Cutoffs, keep: int, units: PhysicalUnits = NATURAL) -> CommutatorReport:
    """Commutator of the level-projected coordinates, analyzed and scored.

    x and y are corner cuts, so their kept block is x and y built on the
    lowest ``keep+1`` levels alone, and these are commuted. Requires J >= 1
    so the degeneracy interior (j <= J-1) is nonempty; J >= 2 gives a
    sturdier interior. The report's ``ok`` is true when the top diagonal is
    uniform, equals -i (keep+1) ell^2 to DEFAULT_TOLERANCE relative, and
    every other interior element vanishes up to rounding.
    """
    if not 0 <= keep <= cutoffs.landau_cutoff:
        raise ValueError(f"keep={keep} outside retained level range 0..{cutoffs.landau_cutoff}")
    block = commutator(*build_xy(Cutoffs(keep, cutoffs.degeneracy_cutoff)))
    return analyze_projected_commutator(block, block, cutoffs, [keep], units)[0]


def analyze_projected_commutator(
    below: OperatorMatrix, top: OperatorMatrix, cutoffs: Cutoffs, keeps, units: PhysicalUnits = NATURAL
) -> list[CommutatorReport]:
    """Score the kept-block commutator of every keep in ``keeps`` (ascending).

    Keep k's kept block holds levels 0..k. Its commutator is read from the
    rows of ``below`` on the levels under k and from the rows of ``top`` on
    level k, in the block's columns only: :func:`sweep` passes the full
    [x, y] and the products that skip level k+1, and one kept block B scores
    as ``(B, B)``; both hold [x, y] at ell = 1, and ``units`` gives the ell^2
    the report is scaled by. Split out so a doctored commutator can be fed
    through the same analysis in tests; the CLI never calls this directly.
    """
    if cutoffs.degeneracy_cutoff < 1:
        raise ValueError("degeneracy cutoff must be >= 1 to have an interior in j")
    num_j, J, keeps = cutoffs.num_degeneracy, cutoffs.degeneracy_cutoff, list(keeps)
    j = np.arange(num_j)

    def level_rows(op, levels):
        """|op| on the rows of ``levels`` as (offset k, level, j), the offsets k and the interior (k, j)."""
        ks = np.array([*op.diagonals, 0])[:, None]  # one zero diagonal, so that every op stacks
        values = np.stack([*op.diagonals.values(), np.zeros(op.dim)]).reshape(len(ks), -1, num_j)
        return np.abs(values[:, levels]), ks, (j < J) & ((j + ks) % num_j < J)

    # Elements between two interior (j < J) states, by row level n and column
    # level n + (j + k) // num_j. One of `below` counts from keep n + max(that
    # shift, 1) on; first[k] is the largest that starts at keep k. One of `top`
    # counts at keep n if its column level is <= n, top diagonal left out.
    rows, ks, interior = level_rows(below, slice(keeps[-1]))
    start = np.where(interior, np.maximum((j + ks) // num_j, 1), 0)[:, None]
    first = np.zeros(keeps[-1] + 1)
    for s in set(start.ravel().tolist()) - {0}:
        counted = first[s:]
        np.maximum(counted, np.where(start == s, rows[:, : len(counted)], 0).max(axis=(0, 2)), out=counted)
    rows, ks, interior = level_rows(top, keeps)
    top_rest = np.where((interior & (j + ks < num_j) & (ks != 0))[:, None], rows, 0).max(axis=(0, 2))
    residuals = np.maximum(np.maximum.accumulate(first)[keeps], top_rest).tolist()

    top_diag = top.diagonals.get(0, np.zeros(top.dim))
    edges = below.diagonals.get(0, np.zeros(below.dim))[J::num_j].tolist()  # (n, J) for each n
    ell2 = magnetic_length_squared(units)
    reports = []
    for keep, residual in zip(keeps, residuals):
        top_values = top_diag[keep * num_j : keep * num_j + J]
        top_coefficient = complex(np.mean(top_values))
        rounding = DEFAULT_TOLERANCE * (keep + J + 2)
        top_uniform = float(np.max(np.abs(top_values - top_coefficient))) <= rounding
        edge = enumerate(edges[:keep] + [complex(top_diag[keep * num_j + J])])
        # complex parts scaled one by one: ell2 * z multiplies by ell2 + 0j, which can flip a zero's sign
        artifacts = [(n, complex(ell2 * z.real, ell2 * z.imag)) for n, z in edge if abs(z) > DEFAULT_TOLERANCE]
        close = abs(top_coefficient + 1j * (keep + 1)) <= DEFAULT_TOLERANCE * (keep + 1)  # -i (keep+1) at ell = 1
        ok = top_uniform and residual <= rounding and close
        top_coefficient = complex(ell2 * top_coefficient.real, ell2 * top_coefficient.imag)
        reports.append(CommutatorReport(cutoffs, keep, top_coefficient, ell2 * residual, artifacts, top_uniform, ok))
    return reports


def full_space_scan(cutoffs: Cutoffs) -> list[tuple[int, complex]]:
    """Unprojected [x, y] diagonal on the doubly-interior region, at ell = 1.

    Returns, for each level n <= N-1, the largest-magnitude diagonal
    element over the interior orbits j <= J-1. All returned values vanish
    up to rounding: with no level projection the commutator is a pure
    boundary effect. Empty when N = 0 or J = 0 (no doubly-interior states).
    """
    N, J = cutoffs.landau_cutoff, cutoffs.degeneracy_cutoff
    if N == 0 or J == 0:
        return []
    diag = commutator(*build_xy(cutoffs)).diagonals[0]
    rows = diag.reshape(N + 1, cutoffs.num_degeneracy)[:N, :J]
    return [(n, complex(row[np.argmax(np.abs(row))])) for n, row in enumerate(rows)]


def sweep(cutoffs: Cutoffs, units: PhysicalUnits = NATURAL) -> list[CommutatorReport]:
    """One projected-commutator report per keep = 0..N, in order, from one pass.

    On the rows of the levels under k, keep k's kept-block commutator is the
    full [x, y]: those rows' products stay inside levels 0..k. On the level-k
    rows it is the same products without the terms through level k+1, which
    are the terms of the left factor's +(J+1) diagonal.
    """
    x, y = build_xy(cutoffs)
    up = cutoffs.num_degeneracy
    x_in, y_in = (OperatorMatrix({k: v for k, v in op.diagonals.items() if k != up}, op.dim) for op in (x, y))
    top = matmul(x_in, y) - matmul(y_in, x)
    return analyze_projected_commutator(commutator(x, y), top, cutoffs, range(cutoffs.num_levels), units)
