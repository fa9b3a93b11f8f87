"""Level projection and the projected coordinate commutator.

Projecting the planar coordinates onto the lowest ``keep+1`` levels and
commuting the projected operators produces a matrix that vanishes
everywhere except on the diagonal of the topmost kept level, where every
(interior-j) element equals -i (keep+1) hbar c / eB. On the full truncated
space the same commutator vanishes on all doubly-interior diagonal
elements: the noncommutativity lives entirely on the truncation boundary.

The route builds no operator on the composite basis. [x, y] =
1 ⊗ [x_a, y_a] + [x_b, y_b] ⊗ 1 at every truncation (``ladder``), both
factors diagonal, u and v (v on levels 0..keep), and x and y are corner
cuts: the kept block's entry at (n, j) is u_j + v_n. The top coefficient is
their mean over j < J at n = keep, artifact n their sum at (n, J), the
residual the largest |real or imaginary part| of a sum at n < keep, j < J or
of an off-diagonal entry. numpy adds part by part and rounding is monotone,
so at each n a part peaks at u's largest or smallest part over j < J: one
factor build, O(keep + J). Real parts are ±0, so it is the largest |sum| too.

Rounding. [x, y] is ell^2 = hbar c / eB times its value at ell = 1, so the
route works at ell = 1: it scores the pieces against -i (keep+1) and reports
pure numbers, each below N+J+2. To first order in eps = 2^-52, a product
term is q_j = fl(p_j^2) = (j+1)/2 (1+σ)^2 (1+θ_j), with p_j =
fl(fl(sqrt(1/2)) fl(sqrt(j+1))) an entry of x_a, |σ| <= eps/2 and |θ_j| <=
5 eps/2. [x_a, y_a] is -2i fl(q_j - q_(j-1)), within (5j + 4) eps of -i, at
j < J and 2i q_(J-1) at J; [x_b, y_b] mirrors it, -2i q_(keep-1) on the top
level. So each entry, the residual and each artifact err by at most
5 eps (keep+J+2), the top spread by that plus the top's error, which
telescopes: the q_j cancel in the mean of [x_a, y_a] over j < J (4 eps);
the top entry adds 3.5 eps keep, each sum eps/2 (keep+1), numpy's pairwise
mean (at most 15 + log2 J additions per summand) and its division
(8 + log2(J)/2) eps (keep+1). So |top + i (keep+1)| <= (13 + log2(J)/2)
eps (keep+1), under 20 eps (keep+1) at every admitted J. DEFAULT_TOLERANCE
(keep+J+2) bounds the residual and the top spread, DEFAULT_TOLERANCE
(keep+1) the top, each over 150 times its bound; an artifact is listed
above DEFAULT_TOLERANCE.

The degeneracy cutoff J is a numerical necessity only: the degeneracy
direction is physically infinite. Results at j < J are exact because the
coordinate operators shift j by at most one; elements touching j = J are
truncation artifacts of the finite degeneracy and are reported separately
(``boundary_artifacts``), never asserted against physical values.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .fock import Cutoffs, OperatorMatrix, commutator, matmul
from .ladder import build_mode_xy

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

    Every value is a pure number at ell = 1. ``top_coefficient`` is the top
    level's diagonal over interior j, -i (keep+1); ``max_offtop_residual``
    the largest |real or imaginary part| of another interior entry, near 0;
    ``boundary_artifacts`` each (n, J) diagonal element as ``(n, value)``.
    ``top_uniform`` is cleared, so sweeps complete, when the top diagonal
    varies over j: an indexing bug.
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
    """Compress an operator: P.op.P. The tests use it."""
    return matmul(proj, matmul(op, proj))


def projected_commutator_xy(cutoffs: Cutoffs, keep: int) -> CommutatorReport:
    """Commutator of the level-projected coordinates at ell = 1, scored; requires J >= 1 for an interior in j.

    ``ok`` is true when the top diagonal is uniform, equals -i (keep+1)
    to DEFAULT_TOLERANCE relative, and every other interior element vanishes.
    """
    if not 0 <= keep <= cutoffs.landau_cutoff:
        raise ValueError(f"keep={keep} outside retained level range 0..{cutoffs.landau_cutoff}")
    return analyze_factors(*_factors(Cutoffs(keep, cutoffs.degeneracy_cutoff)), cutoffs, [keep])[0]


def _factors(cutoffs: Cutoffs) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """[x_a, y_a] on the J+1 orbits, [x_b, y_b] on the N+1 levels, and level k's top entry for each keep k.

    Below level k, keep k's [x_b, y_b] is that of all N+1 levels bit for
    bit: those rows' products stay inside levels 0..k. On level k it is the
    same products without the terms through level k+1, which are the terms
    of the left factor's +1 diagonal.
    """
    (x_a, y_a), (x_b, y_b) = build_mode_xy(cutoffs)
    x_down, y_down = (OperatorMatrix({k: w for k, w in op.diagonals.items() if k < 0}, op.dim) for op in (x_b, y_b))
    return commutator(x_a, y_a), commutator(x_b, y_b), matmul(x_down, y_b) - matmul(y_down, x_b)


def analyze_factors(on_a: OperatorMatrix, on_b: OperatorMatrix, top: OperatorMatrix, cutoffs: Cutoffs,
                    keeps) -> list[CommutatorReport]:
    """Score the kept block of every keep in ``keeps`` from [x_a, y_a] and [x_b, y_b].

    ``on_a`` and ``on_b`` hold them at ell = 1 on the J+1 orbits and on
    levels 0..K >= every keep; level k of ``top`` is keep k's top entry,
    the last one of [x_b, y_b] built on levels 0..k. An off-diagonal entry
    counts once both its orbits are below J and both its levels kept.
    Split out so that tests can score doctored factors; the CLI never does.
    """
    if cutoffs.degeneracy_cutoff < 1:
        raise ValueError("degeneracy cutoff must be >= 1 to have an interior in j")
    J = cutoffs.degeneracy_cutoff
    u, v, tops = (op.diagonals.get(0, np.zeros(op.dim, complex)) for op in (on_a, on_b, top))
    start = np.zeros(on_b.dim)  # start[k]: the largest |part| that keep k's residual is the first to count
    start[0] = max([0] + [abs(w[: J - max(k, 0)].view(float)).max(initial=0) for k, w in on_a.diagonals.items() if k])
    orbits = u[:J].view(float).reshape(J, 2)  # level n's diagonal, from keep n+1 on, at each part's extremes over j < J
    start[1:] = np.abs(v[:-1].view(float).reshape(-1, 1, 2) + [orbits.max(0), orbits.min(0)]).max(axis=(1, 2))
    for k, w in on_b.diagonals.items():
        if k:  # the entry at (n, n+k), from keep max(n, n+k) on
            counted = start[max(k, 0) :]
            np.maximum(counted, np.abs(w[: len(counted)].view(float)).reshape(-1, 2).max(axis=1), out=counted)
    residuals = np.maximum.accumulate(start)[keeps].tolist()

    flagged = [(n, z) for n, z in enumerate((u[J] + v).tolist()) if abs(z) > DEFAULT_TOLERANCE]  # (n, J) artifacts
    reports = []
    for keep, residual in zip(keeps, residuals):
        top_values = u[:J] + tops[keep]
        top_coefficient = complex(np.mean(top_values))
        rounding = DEFAULT_TOLERANCE * (keep + J + 2)
        top_uniform = float(np.max(np.abs(top_values - top_coefficient))) <= rounding
        edge = complex(u[J] + tops[keep])  # keep's own top level; the levels below share flagged's tuples
        artifacts = flagged[: bisect_left(flagged, (keep,))] + [(keep, edge)] * (abs(edge) > DEFAULT_TOLERANCE)
        close = abs(top_coefficient + 1j * (keep + 1)) <= DEFAULT_TOLERANCE * (keep + 1)
        ok = top_uniform and residual <= rounding and close
        reports.append(CommutatorReport(cutoffs, keep, top_coefficient, residual, artifacts, top_uniform, ok))
    return reports


def full_space_scan(cutoffs: Cutoffs) -> list[tuple[int, complex]]:
    """Unprojected [x, y] diagonal on the doubly-interior region, at ell = 1: for each level n < N the
    largest-magnitude [x_b, y_b][n] + [x_a, y_a][j] over j < J, all near 0. Empty when N = 0 or J = 0."""
    N, J = cutoffs.landau_cutoff, cutoffs.degeneracy_cutoff
    if N == 0 or J == 0:
        return []
    u, v = (op.diagonals[0] for op in _factors(cutoffs)[:2])
    return [(n, complex(row[np.argmax(np.abs(row))])) for n, row in enumerate(v[:N, None] + u[:J])]


def sweep(cutoffs: Cutoffs) -> list[CommutatorReport]:
    """One projected-commutator report per keep = 0..N, in order, from one pass."""
    return analyze_factors(*_factors(cutoffs), cutoffs, range(cutoffs.num_levels))
