"""Dense complex linear-algebra kernel.

Stacked Kronecker products, Hermitian eigendecomposition, PSD projection and
column-stacking vectorization. All functions are pure and operate on plain
numpy arrays. The spectral functions, vec_stack and unvec also take stacks
(..., n, n) and treat each matrix as they treat a single one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import as_matrix, hermitian_part

__all__ = [
    "HermEigen",
    "kron_stack",
    "herm_eig",
    "project_psd",
    "normalized_psd",
    "clip_divided_differences",
    "vec",
    "vec_stack",
    "unvec",
]


@dataclass(frozen=True)
class HermEigen:
    """Spectral decomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Hermitian matrix function V fn(w) V† of the decomposed matrix or stack."""
        v = self.eigenvectors
        out = (v * fn(self.eigenvalues)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return (out + out.conj().swapaxes(-1, -2)) / 2


def kron_stack(a, b) -> np.ndarray:
    """Kronecker product matrix by matrix of two stacks (..., r, c) that
    broadcast; each product equals np.kron of its two matrices."""
    a, b = np.asarray(a), np.asarray(b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def herm_eig(m) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix or stack, eigenvalues
    descending; an anti-Hermitian part above 1e-8 entrywise is rejected."""
    h = hermitian_part(m, 1e-8, "m")
    w, v = np.linalg.eigh(h)
    return HermEigen(w[..., ::-1].copy(), np.ascontiguousarray(v[..., ::-1]))


def project_psd(m) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    return herm_eig(m).apply(lambda w: np.clip(w, 0.0, None))


def normalized_psd(m, cutoff: float):
    """Unit-trace PSD projections of a matrix or stack, with the traces before projection.

    Matrices whose trace is below cutoff become the maximally mixed state.
    Returns (states (..., n, n), traces (...)).
    """
    a = as_matrix(m, "m")
    tr = np.trace(a, axis1=-2, axis2=-1).real
    mixed = np.eye(a.shape[-1]) / a.shape[-1]
    rho = project_psd(np.where((tr >= cutoff)[..., None, None], a, mixed))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None], tr


def clip_divided_differences(eigenvalues) -> np.ndarray:
    """Divided differences of eigenvalue clipping, the Jacobian of project_psd.

    Returns Omega_ij = (max(w_i, 0) - max(w_j, 0)) / (w_i - w_j), read as 1
    when w_i and w_j are both positive and 0 when neither is. At a Hermitian
    matrix V diag(w) V† the (generalized) Jacobian of project_psd is
    H -> V (Omega o V† H V) V†; its entries lie in [0, 1].
    """
    w = np.asarray(eigenvalues, dtype=float)
    pos = w > 0
    omega = (pos[:, None] & pos[None, :]).astype(float)
    mixed = pos[:, None] != pos[None, :]
    p = np.clip(w, 0.0, None)
    omega[mixed] = (p[:, None] - p[None, :])[mixed] / (w[:, None] - w[None, :])[mixed]
    return omega


def vec(m) -> np.ndarray:
    """Column-stacking vectorization of one matrix."""
    a = as_matrix(m, "m")
    if a.ndim != 2:
        raise ValueError(f"bad-dims: vec takes one matrix, got shape {a.shape}")
    return vec_stack(a)


def vec_stack(m) -> np.ndarray:
    """Column-stacking vectorization of each matrix of a stack (..., rows, cols)."""
    a = as_matrix(m, "m")
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def unvec(v, rows: int = 2, cols: int = 2) -> np.ndarray:
    """Inverse of vec for a rows x cols matrix, or of vec_stack for a stack (..., rows*cols)."""
    a = np.asarray(v, dtype=complex)
    if a.ndim == 0 or a.shape[-1] != rows * cols:
        raise ValueError(f"bad-dims: shape {a.shape} does not end in {rows}*{cols}")
    return a.reshape(a.shape[:-1] + (cols, rows)).swapaxes(-1, -2)
