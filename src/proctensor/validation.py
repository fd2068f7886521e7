"""Input validation helpers shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_square",
    "hermitian_part",
    "check_unitary",
    "check_density_matrix",
    "check_normalized",
    "qubit_count",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex matrix or stack of matrices (..., rows, cols) with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"bad-dims: {name} must be a matrix or a stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite: {name} contains NaN or Inf entries")
    return a


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Coerce to one square complex matrix with finite entries."""
    a = as_matrix(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"bad-dims: {name} must be a square matrix, got shape {a.shape}")
    return a


def hermitian_part(m, tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    """Return (m + m†)/2 of a matrix or a stack (..., n, n).

    Rejects the input if its anti-Hermitian part exceeds tol entrywise.
    """
    a = as_matrix(m, name)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"bad-dims: {name} must be square, got shape {a.shape}")
    ah = a.conj().swapaxes(-1, -2)
    asym = float(np.abs(a - ah).max(initial=0.0))
    if asym > tol:
        raise ValueError(f"not-hermitian: {name} deviates from Hermiticity by {asym:.3e}")
    return (a + ah) / 2


def check_unitary(u, tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    a = as_square(u, name)
    dev = float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())
    if dev > tol:
        raise ValueError(f"not-unitary: {name} deviates from unitarity by {dev:.3e}")
    return a


def check_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, positivity and trace of a (possibly subnormalized) state."""
    a = hermitian_part(as_square(rho, name), 1e-8, name)
    w = np.linalg.eigvalsh(a)
    if w.min() < -1e-8:
        raise ValueError(f"not-psd: {name} has eigenvalue {w.min():.3e}")
    tr = float(np.trace(a).real)
    if tr < -1e-8 or tr > 1 + 1e-8:
        raise ValueError(f"bad-trace: {name} has trace {tr:.6f}")
    return a


def check_normalized(rho, tol: float = 1e-6, name: str = "state") -> np.ndarray:
    a = as_square(rho, name)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"not-normalized: {name} has trace {tr:.8f}")
    return a


def qubit_count(dim: int, name: str = "matrix") -> int:
    if dim == 2:
        return 1
    if dim == 4:
        return 2
    raise ValueError(f"bad-dims: {name} must act on 1 or 2 qubits, got dimension {dim}")
