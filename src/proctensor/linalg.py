"""Dense complex linear-algebra kernel.

Kronecker products, partial traces, Hermitian eigendecomposition, PSD-safe
matrix functions, PSD projection and column-stacking vectorization. All
functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import as_matrix, as_square, hermitian_part

__all__ = [
    "HermEigen",
    "kron",
    "partial_trace",
    "herm_eig",
    "mat_sqrt_psd",
    "mat_log_psd",
    "project_psd",
    "vec",
    "unvec",
]


@dataclass(frozen=True)
class HermEigen:
    """Spectral decomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product a ⊗ b."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def partial_trace(m, dim_a: int, dim_b: int, keep) -> np.ndarray:
    """Trace out one factor of a (dim_a*dim_b)-dimensional square matrix.

    keep selects the surviving subsystem: "a"/0 for the first factor,
    "b"/1 for the second.
    """
    a = as_square(m, "m")
    if a.shape[0] != dim_a * dim_b:
        raise ValueError(
            f"bad-dims: side {a.shape[0]} does not factor as {dim_a}*{dim_b}"
        )
    t = a.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep in ("a", "A", 0):
        return np.einsum("ijkj->ik", t)
    if keep in ("b", "B", 1):
        return np.einsum("ijik->jk", t)
    raise ValueError(f"bad-dims: keep must be 'a' or 'b', got {keep!r}")


def herm_eig(m, tol: float = 1e-8) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    h = hermitian_part(m, tol, "m")
    w, v = np.linalg.eigh(h)
    return HermEigen(w[::-1].copy(), np.ascontiguousarray(v[:, ::-1]))


def _spectral(m, fn) -> np.ndarray:
    """Hermitian matrix function V fn(w) V† on the descending eigenpairs of m."""
    e = herm_eig(m)
    v = e.eigenvectors
    out = (v * fn(e.eigenvalues)) @ v.conj().T
    return (out + out.conj().T) / 2


def mat_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root; negative eigenvalues are clipped to zero."""
    return _spectral(m, lambda w: np.sqrt(np.clip(w, 0.0, None)))


def mat_log_psd(m, floor: float = 1e-12) -> np.ndarray:
    """Matrix logarithm with eigenvalues floored at `floor` (must be > 0)."""
    if not floor > 0:
        raise ValueError(f"bad-floor: floor must be positive, got {floor}")
    return _spectral(m, lambda w: np.log(np.maximum(w, floor)))


def project_psd(m) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    return _spectral(m, lambda w: np.clip(w, 0.0, None))


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return as_matrix(m, "m").reshape(-1, order="F")


def unvec(v, rows: int = 2, cols: int = 2) -> np.ndarray:
    """Inverse of vec for a rows x cols matrix."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size != rows * cols:
        raise ValueError(f"bad-dims: length {a.size} does not match {rows}x{cols}")
    return a.reshape((rows, cols), order="F")
