"""Operator algebra over truncated oscillator bases.

Two truncated oscillator modes span the state space: the level index
``n = 0..N`` (energy ladder) and the degeneracy index ``j = 0..J`` (orbit
label within a level). Composite basis vectors ``(n, j)`` are flattened
n-major, so the block of all states with ``n <= keep`` is a contiguous
leading block; projections and report slicing rely on this ordering.

Operators on a truncated basis are plain corner-cut matrices: the infinite
matrix restricted to the retained rows and columns. All commutator boundary
effects computed elsewhere in the package follow from that convention.

Dense :class:`OperatorMatrix` serves ``spectrum``, ``dump-matrix``, the
momentum-grid route and the tests' reference. :class:`OffsetOperator`
keeps only nonzero diagonals, all that x, y and their products have, so
the projected commutator costs O(d) where dense products cost O(d^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "Cutoffs",
    "BasisIndex",
    "OperatorMatrix",
    "OffsetOperator",
    "flatten",
    "annihilation_matrix",
    "identity",
    "dagger",
    "matmul",
    "commutator",
    "kron",
    "to_json_dict",
]

# Dense operators (spectrum, dump-matrix) hold d*d complex entries; this cap keeps
# a product of two in memory. The offset-diagonal commutator route needs O(d).
MAX_DIMENSION = 16384

BasisLike = Union["Cutoffs", int, tuple]


@dataclass(frozen=True)
class Cutoffs:
    """Truncation parameters of the two-mode basis.

    ``landau_cutoff`` is the highest retained level index N (levels 0..N),
    ``degeneracy_cutoff`` the highest retained orbit index J (orbits 0..J).
    """

    landau_cutoff: int
    degeneracy_cutoff: int

    def __post_init__(self) -> None:
        for name in ("landau_cutoff", "degeneracy_cutoff"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.dim > MAX_DIMENSION:
            raise ValueError(
                f"composite dimension {self.dim} exceeds the supported maximum {MAX_DIMENSION}"
            )

    @property
    def num_levels(self) -> int:
        return self.landau_cutoff + 1

    @property
    def num_degeneracy(self) -> int:
        return self.degeneracy_cutoff + 1

    @property
    def dim(self) -> int:
        return self.num_levels * self.num_degeneracy


@dataclass(frozen=True)
class BasisIndex:
    """A single composite basis label (n, j)."""

    n: int
    j: int


def flatten(idx: BasisIndex, cutoffs: Cutoffs) -> int:
    """Map (n, j) to its position in the n-major flattened basis."""
    if not 0 <= idx.n <= cutoffs.landau_cutoff:
        raise ValueError(
            f"level index n={idx.n} outside retained range 0..{cutoffs.landau_cutoff}"
        )
    if not 0 <= idx.j <= cutoffs.degeneracy_cutoff:
        raise ValueError(
            f"degeneracy index j={idx.j} outside retained range 0..{cutoffs.degeneracy_cutoff}"
        )
    return idx.n * cutoffs.num_degeneracy + idx.j


class OperatorMatrix:
    """A square complex matrix tied to the basis it acts on.

    Instances are immutable; every algebraic operation returns a new matrix.
    Construction rejects non-square shapes and non-finite entries, so any
    NaN/Inf produced by a bug surfaces immediately instead of propagating.
    """

    __slots__ = ("entries", "basis")

    def __init__(self, entries, basis: Optional[BasisLike] = None):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {arr.shape}")
        if arr.shape[0] > MAX_DIMENSION:
            raise ValueError(
                f"dimension {arr.shape[0]} exceeds the supported maximum {MAX_DIMENSION}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator matrix contains non-finite entries")
        if basis is not None:
            expected = _basis_dim(basis)
            if expected != arr.shape[0]:
                raise ValueError(
                    f"matrix dimension {arr.shape[0]} does not match basis dimension {expected}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"OperatorMatrix(dim={self.dim}, basis={self.basis!r})"

    # -- arithmetic sugar used by the operator constructors ---------------

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.entries + other.entries, _merge_basis(self, other))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.entries - other.entries, _merge_basis(self, other))

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(-self.entries, self.basis)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.entries * scalar, self.basis)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return matmul(self, other)


def _basis_dim(basis: BasisLike) -> int:
    if isinstance(basis, Cutoffs):
        return basis.dim
    if isinstance(basis, (int, np.integer)):
        return int(basis)
    if isinstance(basis, tuple):
        out = 1
        for factor in basis:
            out *= _basis_dim(factor)
        return out
    raise TypeError(f"unsupported basis descriptor {basis!r}")


def _merge_basis(a: OperatorMatrix, b: OperatorMatrix) -> Optional[BasisLike]:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.basis is None:
        return b.basis
    if b.basis is None or a.basis == b.basis:
        return a.basis
    raise ValueError(f"basis mismatch: {a.basis!r} vs {b.basis!r}")


def annihilation_matrix(dim: int, basis: Optional[BasisLike] = None) -> OperatorMatrix:
    """Single-mode lowering operator truncated to ``dim`` states.

    Entry sqrt(m+1) sits at (m, m+1) for m = 0..dim-2. The corner cut shows
    up in the commutator with its dagger: diag(1, ..., 1, -(dim-1)) instead
    of the identity, which is exactly the boundary effect the projected
    coordinate commutator is made of.
    """
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    entries = np.zeros((dim, dim), dtype=complex)
    if dim > 1:
        entries[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return OperatorMatrix(entries, basis if basis is not None else int(dim))


def identity(dim: int, basis: Optional[BasisLike] = None) -> OperatorMatrix:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return OperatorMatrix(np.eye(dim, dtype=complex), basis if basis is not None else int(dim))


def dagger(op: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose."""
    return OperatorMatrix(op.entries.conj().T, op.basis)


def matmul(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Matrix product a.b."""
    return OperatorMatrix(a.entries @ b.entries, _merge_basis(a, b))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a.b - b.a."""
    basis = _merge_basis(a, b)
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries, basis)


def kron(a: OperatorMatrix, b: OperatorMatrix, basis: Optional[BasisLike] = None) -> OperatorMatrix:
    """Tensor product with ``a`` on the outer (level) factor.

    The composite entry at ((n, j), (n', j')) is a[n, n'] * b[j, j'], which
    is consistent with the n-major flattening used by :func:`flatten`.
    """
    return OperatorMatrix(np.kron(a.entries, b.entries), basis)


class OffsetOperator(dict):
    """A square operator stored by its nonzero diagonals: flat offset k maps
    to v with v[i] = op[i, i+k]; entries whose i+k leaves the basis are never
    read. Shifting j by one is offset ±1, shifting n by one is offset ±(J+1).
    Non-finite entries are rejected on construction, as in OperatorMatrix.
    """

    def __init__(self, diagonals=()):
        super().__init__(diagonals)
        if not all(np.all(np.isfinite(v)) for v in self.values()):
            raise ValueError("operator matrix contains non-finite entries")

    def __add__(self, other: "OffsetOperator") -> "OffsetOperator":
        out = OffsetOperator(self)
        for k, v in other.items():
            out[k] = out[k] + v if k in out else v
        return out

    def __sub__(self, other: "OffsetOperator") -> "OffsetOperator":
        return self + -1 * other

    def __mul__(self, scalar: complex) -> "OffsetOperator":
        return OffsetOperator({k: scalar * v for k, v in self.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "OffsetOperator") -> "OffsetOperator":
        """Product: op[i, i+k1] * other[i+k1, i+k1+k2] lands on offset k1+k2."""
        out = OffsetOperator()
        for k1, v1 in self.items():
            for k2, v2 in other.items():
                if abs(k1 + k2) < len(v1):
                    out += OffsetOperator({k1 + k2: v1 * _shift(v2, k1)})
        return out

    def leading(self, size: int) -> "OffsetOperator":
        """The operator restricted to the first ``size`` basis states."""
        return OffsetOperator({k: v[:size] for k, v in self.items() if abs(k) < size})


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """w with w[i] = v[i+k], zero where i+k falls outside v."""
    w = np.zeros_like(v)
    if abs(k) < len(v):
        w[max(-k, 0) : len(v) - max(k, 0)] = v[max(k, 0) : len(v) + min(k, 0)]
    return w


def to_json_dict(op: OperatorMatrix) -> dict:
    """Serialize to ``{dim, entries}`` with row-major [re, im] pairs."""
    flat = op.entries.ravel()
    return {
        "dim": op.dim,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }
