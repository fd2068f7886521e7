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


def as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to one square complex matrix with finite entries, or with
    stack=True to a stack (..., n, n) of them."""
    a = as_matrix(m, name)
    if (a.ndim != 2 and not stack) or a.shape[-1] != a.shape[-2]:
        kind = "square matrices" if stack else "a square matrix"
        raise ValueError(f"bad-dims: {name} must be {kind}, got shape {a.shape}")
    return a


def hermitian_part(m, name: str = "matrix") -> np.ndarray:
    """Return (m + m†)/2 of a matrix or a stack (..., n, n).

    Rejects the input if its anti-Hermitian part exceeds 1e-8 entrywise.
    """
    a = as_square(m, name, stack=True)
    ah = a.conj().swapaxes(-1, -2)
    asym = float(np.abs(a - ah).max(initial=0.0))
    if asym > 1e-8:
        raise ValueError(f"not-hermitian: {name} deviates from Hermiticity by {asym:.3e}")
    return (a + ah) / 2


def check_two_steps(steps, name: str = "interventions"):
    """Return steps if it holds one entry per step of the two-step process."""
    if len(steps) != 2:
        raise ValueError(f"bad-sequence: {len(steps)} {name}, the process has 2 steps")
    return steps


def check_unitary(u, name: str = "matrix") -> np.ndarray:
    """Coerce a square matrix that is unitary within 1e-8 entrywise."""
    a = as_square(u, name)
    dev = float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())
    if dev > 1e-8:
        raise ValueError(f"not-unitary: {name} deviates from unitarity by {dev:.3e}")
    return a


def check_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, positivity and trace of a (possibly subnormalized) state."""
    a = hermitian_part(as_square(rho, name), name)
    w = np.linalg.eigvalsh(a)
    if w.min() < -1e-8:
        raise ValueError(f"not-psd: {name} has eigenvalue {w.min():.3e}")
    tr = float(np.trace(a).real)
    if tr < -1e-8 or tr > 1 + 1e-8:
        raise ValueError(f"bad-trace: {name} has trace {tr:.6f}")
    return a


def check_normalized(rho, name: str = "state") -> np.ndarray:
    """Coerce a square matrix or a stack (..., n, n) whose traces are all 1 within 1e-6."""
    a = as_square(rho, name, stack=True)
    tr = np.trace(a, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > 1e-6
    if bad.any():
        raise ValueError(f"not-normalized: {name} has trace {tr[bad][0]:.8f}")
    return a


def qubit_count(dim: int, name: str = "matrix") -> int:
    if dim == 2:
        return 1
    if dim == 4:
        return 2
    raise ValueError(f"bad-dims: {name} must act on 1 or 2 qubits, got dimension {dim}")
