"""Dense arrays as operators, for tests that state a matrix entry by entry.

The package builds every operator from its diagonals; tests that compare
against a dense numpy matrix turn it into an ``OperatorMatrix`` here.
"""

import numpy as np

from nclandau.fock import OperatorMatrix


def dense_operator(entries) -> OperatorMatrix:
    """The operator whose matrix is the square array ``entries``, stored by its nonzero diagonals."""
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {arr.shape}")
    dim = arr.shape[0]
    diagonals = {k: np.pad(np.diagonal(arr, k), (max(-k, 0), max(k, 0)))
                 for k in range(1 - dim, dim) if np.any(np.diagonal(arr, k))}
    return OperatorMatrix(diagonals=diagonals, dim=dim)
