"""Dense complex linear-algebra kernel.

Stacked Kronecker products, Hermitian eigendecomposition, PSD projection and
column-stacking vectorization. All functions are pure and operate on plain
numpy arrays. The spectral functions, vec_stack and unvec also take stacks
(..., n, n) and treat each matrix as they treat a single one.
one_blas_thread runs a body with OpenBLAS on one thread.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .validation import as_matrix, hermitian_part

__all__ = [
    "BRANCH_CUTOFF",
    "kron_stack",
    "herm_eig",
    "spectral_function",
    "project_psd",
    "normalized_psd",
    "clip_divided_differences",
    "vec",
    "vec_stack",
    "unvec",
    "one_blas_thread",
]


def kron_stack(a, b) -> np.ndarray:
    """Kronecker product matrix by matrix of two stacks (..., r, c) that
    broadcast; each product equals np.kron of its two matrices."""
    a, b = np.asarray(a), np.asarray(b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def herm_eig(m):
    """Eigendecomposition (w, v) of a Hermitian matrix or stack, eigenvalues w
    descending, eigenvectors the columns of v; an anti-Hermitian part above
    1e-8 entrywise is rejected."""
    h = hermitian_part(m, "m")
    w, v = np.linalg.eigh(h)
    return w[..., ::-1].copy(), np.ascontiguousarray(v[..., ::-1])


def spectral_function(w, v, fn) -> np.ndarray:
    """Hermitian matrix function V fn(w) V† of a matrix or stack from its
    eigendecomposition (w, v), averaged with its conjugate transpose."""
    out = (v * fn(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def project_psd(m) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    return spectral_function(*herm_eig(m), lambda w: np.clip(w, 0.0, None))


#: Probability below which a branch or a trajectory has vanished: nothing is
#: conditioned on it, and no state is reported for it.
BRANCH_CUTOFF = 1e-9


def normalized_psd(m):
    """Unit-trace PSD projections of a matrix or stack, with the traces before projection.

    Matrices whose trace is below BRANCH_CUTOFF become the maximally mixed
    state. Returns (states (..., n, n), traces (...) clipped at 0).
    """
    a = as_matrix(m, "m")
    tr = np.trace(a, axis1=-2, axis2=-1).real
    mixed = np.eye(a.shape[-1]) / a.shape[-1]
    rho = project_psd(np.where((tr >= BRANCH_CUTOFF)[..., None, None], a, mixed))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None], np.maximum(tr, 0.0)


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


def unvec(v) -> np.ndarray:
    """Inverse of vec for a 2 x 2 matrix, or of vec_stack for a stack (..., 4)."""
    a = np.asarray(v, dtype=complex)
    if a.ndim == 0 or a.shape[-1] != 4:
        raise ValueError(f"bad-dims: shape {a.shape} does not end in 4")
    return a.reshape(a.shape[:-1] + (2, 2)).swapaxes(-1, -2)


#: The names of OpenBLAS's thread-count pair, "{}" for get or set: the
#: scipy-openblas builds of numpy 2 (ILP64, then LP64), the ILP64 OpenBLAS of
#: numpy 1.24 wheels and a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                            "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS mapped into this
    process, numpy's among them; empty where none is found (MKL, Accelerate,
    no /proc/self/maps). Looked up on first use, once per process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = (getattr(lib, symbol.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS of the process set to one thread, and
    restore each one's thread count on exit, after an exception too.

    The CLI's and the PSD refit's kernels are small enough that a second
    thread saves no time, yet it spin-waits between calls and rounds gemm and
    LAPACK differently: on one thread, results do not depend on
    OPENBLAS_NUM_THREADS. Nested use restores the outer count. Where no
    OpenBLAS is found, the body runs unchanged. The count is process-wide,
    so bodies running in several threads at once share it.
    """
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
