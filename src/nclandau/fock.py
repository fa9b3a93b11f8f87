"""Operator algebra over truncated oscillator bases.

Two truncated oscillator modes span the state space: the level index
``n = 0..N`` (energy ladder) and the degeneracy index ``j = 0..J`` (orbit
label within a level). Composite basis vectors ``(n, j)`` are flattened
n-major, so the block of all states with ``n <= keep`` is a contiguous
leading block, and each level's states are one row of a (levels, J+1) array.

Operators on a truncated basis are plain corner-cut matrices: the infinite
matrix restricted to the retained rows and columns. All commutator boundary
effects computed elsewhere in the package follow from that convention.

Every operator the package needs shifts each index by at most one or two,
so :class:`OperatorMatrix` stores only its few nonzero diagonals: sums,
products, daggers and matrix-vector products all cost O(d) per diagonal
pair where dense products cost O(d^3). The dense matrix is built only on
request (``entries``), for the tests; ``dump-matrix`` writes its JSON
entries straight from the diagonals (:func:`to_json_dict`).
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "Cutoffs",
    "BasisIndex",
    "OperatorMatrix",
    "flatten",
    "annihilation_matrix",
    "dagger",
    "matmul",
    "commutator",
    "to_json_dict",
]


class Cutoffs(namedtuple("Cutoffs", "landau_cutoff degeneracy_cutoff")):
    """Truncation parameters of the two-mode basis.

    ``landau_cutoff`` is the highest retained level index N (levels 0..N),
    ``degeneracy_cutoff`` the highest retained orbit index J (orbits 0..J).
    """

    __slots__ = ()

    def __new__(cls, landau_cutoff: int, degeneracy_cutoff: int) -> "Cutoffs":
        self = super().__new__(cls, landau_cutoff, degeneracy_cutoff)
        for name, value in zip(cls._fields, self):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        return self

    @property
    def num_levels(self) -> int:
        return self.landau_cutoff + 1

    @property
    def num_degeneracy(self) -> int:
        return self.degeneracy_cutoff + 1

    @property
    def dim(self) -> int:
        return self.num_levels * self.num_degeneracy


class BasisIndex(NamedTuple):
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
    """A square complex ``dim``×``dim`` operator stored by its nonzero
    diagonals: offset k maps to a length-``dim`` vector v with
    v[i] = op[i, i+k]. Shifting j by one is offset ±1, shifting n by one is
    offset ±(J+1). Slots whose column i+k leaves the basis hold zero.

    ``OperatorMatrix(diagonals, dim)`` is the one constructor. Instances are
    immutable; every algebraic operation returns a new operator. Construction
    rejects a ``dim`` that is not a positive integer and non-finite entries,
    so a NaN/Inf produced by a bug surfaces at once instead of propagating.
    """

    __slots__ = ("diagonals", "dim")

    def __init__(self, diagonals: dict, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        stored = {}
        for k, v in diagonals.items():
            v = np.array(v, dtype=complex)
            if not abs(k) < dim or v.shape != (dim,):
                raise ValueError(f"diagonal {k} of shape {v.shape} does not fit dimension {dim}")
            if not np.all(np.isfinite(v)):
                raise ValueError("operator matrix contains non-finite entries")
            v[: max(-k, 0)] = v[dim - max(k, 0) :] = 0
            v.setflags(write=False)
            stored[k] = v
        object.__setattr__(self, "diagonals", stored)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    @property
    def entries(self) -> np.ndarray:
        """The dense d×d matrix, built on demand and read-only; no command uses it."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k, v in self.diagonals.items():
            rows = np.arange(max(-k, 0), self.dim - max(k, 0))
            out[rows, rows + k] = v[rows]
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"OperatorMatrix(dim={self.dim})"

    # -- arithmetic sugar used by the operator constructors ---------------
    # A diagonal missing from one operand counts as +0, as a dense zero would.
    # Offsets keep first-appearance order, which fixes later summation order.

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return _entrywise(np.add, self, other)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return _entrywise(np.subtract, self, other)

    def __neg__(self) -> "OperatorMatrix":
        diagonals = {k: -v for k, v in self.diagonals.items()}
        return OperatorMatrix(diagonals=diagonals, dim=self.dim)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        diagonals = {k: v * scalar for k, v in self.diagonals.items()}
        return OperatorMatrix(diagonals=diagonals, dim=self.dim)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return matmul(self, other)

    def scaled(self, scale: float) -> "OperatorMatrix":
        """``scale`` times each real and imaginary part; the complex ``scale * op`` can flip a zero's sign."""
        return OperatorMatrix({k: (v.view(float) * scale).view(complex) for k, v in self.diagonals.items()}, self.dim)

    def largest_part(self) -> float:
        """The largest |real or imaginary part| of an entry: ``scaled(s)`` is finite when ``s`` times this is."""
        return max((float(np.abs(v.view(float)).max()) for v in self.diagonals.values()), default=0.0)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """The product op·vector of a 1-D ``vector``."""
        out = np.zeros(len(vector), dtype=complex)
        for k, v in self.diagonals.items():
            out += v * _shift(vector, k)
        return out


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """w with w[i] = v[i+k], zero where i+k falls outside v."""
    w = np.zeros_like(v)
    if abs(k) < len(v):
        w[max(-k, 0) : len(v) - max(k, 0)] = v[max(k, 0) : len(v) + min(k, 0)]
    return w


def _entrywise(op, a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    offsets = dict.fromkeys([*a.diagonals, *b.diagonals])
    diagonals = {k: op(a.diagonals.get(k, 0), b.diagonals.get(k, 0)) for k in offsets}
    return OperatorMatrix(diagonals=diagonals, dim=a.dim)


def annihilation_matrix(dim: int) -> OperatorMatrix:
    """Single-mode lowering operator truncated to ``dim`` states.

    Entry sqrt(m+1) sits at (m, m+1) for m = 0..dim-2. The corner cut shows
    up in the commutator with its dagger: diag(1, ..., 1, -(dim-1)) instead
    of the identity, which is exactly the boundary effect the projected
    coordinate commutator is made of.
    """
    diagonals = {1: np.sqrt(np.arange(1, dim + 1))} if dim > 1 else {}
    return OperatorMatrix(diagonals=diagonals, dim=dim)


def dagger(op: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose: offset k becomes offset -k."""
    diagonals = {-k: _shift(v, -k).conj() for k, v in op.diagonals.items()}
    return OperatorMatrix(diagonals=diagonals, dim=op.dim)


def matmul(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Matrix product a.b: a[i, i+k1] * b[i+k1, i+k1+k2] lands on offset k1+k2."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diagonals: dict = {}
    for k1, v1 in a.diagonals.items():
        for k2, v2 in b.diagonals.items():
            if abs(k1 + k2) < a.dim:
                diagonals[k1 + k2] = diagonals.get(k1 + k2, 0) + v1 * _shift(v2, k1)
    return OperatorMatrix(diagonals=diagonals, dim=a.dim)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a.b - b.a."""
    return matmul(a, b) - matmul(b, a)


def to_json_dict(op: OperatorMatrix) -> dict:
    """``{dim, entries}``; ``entries`` is the JSON text of the d² row-major [re, im] pairs.

    The text is written from the stored slots alone, in flat row-major order: each
    slot is formatted from its own bits (so -0.0 prints -0), and each run of absent
    entries is one repeated "[0, 0], " string, so formatting costs O(nnz).
    """
    from .serialize import Verbatim, format_float  # kept off the package root's imports

    d = op.dim
    slots = sorted(
        (i * (d + 1) + k, z)
        for k, v in op.diagonals.items()
        for i, z in enumerate(v.tolist())
        if 0 <= i + k < d
    )
    runs: dict = {}

    def zeros(count: int) -> str:
        if count not in runs:
            runs[count] = "[0, 0], " * count
        return runs[count]

    parts, end = ["["], 0  # end: flat position after the last entry written
    for pos, z in slots:
        parts += (zeros(pos - end), f"[{format_float(z.real)}, {format_float(z.imag)}], ")
        end = pos + 1
    # The last entry takes no separator.
    if end < d * d:
        parts += (zeros(d * d - end - 1), "[0, 0]]")
    else:
        parts[-1] = parts[-1][:-2] + "]"
    return {"dim": d, "entries": Verbatim(parts)}
