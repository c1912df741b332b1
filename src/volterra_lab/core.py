"""Dense symmetric linear algebra kernels.

Matrices are square numpy arrays of float64.  Nothing in this module knows
about lattices; it provides the commutator, the trace inner product
tr(X Y^T), matrix powers, a small-norm matrix exponential, and a validated
LAPACK eigensolver for symmetric input.  All functions are pure and never
mutate their arguments, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "EigenDecomposition",
    "NotSymmetricError",
    "commutator",
    "expm_small",
    "frobenius_inner",
    "symmetric_eigen",
    "trace_power",
]

# How asymmetric an input may be before symmetric_eigen refuses it.
SYMMETRY_RTOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands do not have compatible square shapes (a caller bug)."""


class NotSymmetricError(ValueError):
    """Input of symmetric_eigen is not symmetric to working tolerance."""


def _all_in_open(x: np.ndarray, lo: float, hi: float) -> bool:
    # Every entry of the nonempty array x lies strictly between lo and hi.
    # Two reductions cost less than a boolean temporary and .all() on short
    # vectors, and the ufunc reductions skip the x.min()/x.max() wrappers;
    # NaN propagates through both and fails both comparisons.
    return bool(lo < np.minimum.reduce(x, None) and np.maximum.reduce(x, None) < hi)


def _as_square(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be square, got shape {x.shape}")
    return x


def _as_same_square(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = _as_square(x, "first operand")
    y = _as_square(y, "second operand")
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"operands must share one dimension, got {x.shape} and {y.shape}"
        )
    return x, y


def commutator(x, y) -> np.ndarray:
    """Return [X, Y] = XY - YX for square matrices of equal dimension."""
    x, y = _as_same_square(x, y)
    return x @ y - y @ x


def frobenius_inner(x, y) -> float:
    """Trace inner product <X, Y> = tr(X Y^T), the entrywise dot product."""
    x, y = _as_same_square(x, y)
    return float(np.sum(x * y))


def trace_power(x, k: int) -> float:
    """Return tr(X^k) for integer k >= 1 by repeated multiplication."""
    x = _as_square(x, "operand")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"power must be an integer >= 1, got {k!r}")
    p = x
    for _ in range(k - 1):
        p = p @ x
    return float(np.trace(p))


def expm_small(m) -> np.ndarray:
    """Exponential of a small-norm matrix by its Taylor series.

    Intended for curve generators with Frobenius norm well below one, where
    the series converges to machine precision in a handful of terms.  Larger
    input is refused rather than computed badly.
    """
    m = _as_square(m, "generator")
    norm = float(np.linalg.norm(m))
    if norm > 0.5:
        raise ValueError(f"expm_small needs a small generator, got norm {norm:.3g}")
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for j in range(1, 60):
        term = term @ m / j
        acc = acc + term
        if np.abs(term).max() <= 1e-18 * max(1.0, np.abs(acc).max()):
            break
    return acc


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with the matching orthonormal basis.

    Column i of ``basis`` is the eigenvector of ``eigenvalues[i]``.  Ties
    keep the order in which LAPACK returns them, so equal input always
    yields identical output on one machine and numpy/LAPACK build.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def symmetric_eigen(s) -> EigenDecomposition:
    """Diagonalize a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    The input is symmetrized as (S + S^T) / 2, which leaves exactly
    symmetric input unchanged.  Eigenvalues come back in ascending order.

    Raises NotSymmetricError when ||S - S^T|| exceeds SYMMETRY_RTOL times
    ||S||, and ValueError for non-finite entries.
    """
    s = _as_square(s, "matrix")
    if not _all_in_open(s, -np.inf, np.inf):
        raise ValueError("matrix entries must be finite")
    asym = float(np.linalg.norm(s - s.T))
    if asym > SYMMETRY_RTOL * float(np.linalg.norm(s)):
        raise NotSymmetricError(f"matrix is not symmetric: ||S - S^T|| = {asym:.3g}")
    eigenvalues, basis = np.linalg.eigh(0.5 * (s + s.T))
    eigenvalues.flags.writeable = False
    basis.flags.writeable = False
    return EigenDecomposition(eigenvalues=eigenvalues, basis=basis)
