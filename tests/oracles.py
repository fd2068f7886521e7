"""Per-matrix reference implementations that the tests compare the package against.

None of these is on a program path: the package computes the same things
stacked, or not at all. Each stays here as an independent oracle, with the
arithmetic and checks it had in the package, and its own tests pin it. The
seeded random states and unitaries that the tests draw their inputs from are
here too.
"""

import hashlib
import math
import struct

import numpy as np

from proctensor.channels import _pauli_pairs, reduced_superop, superop_to_chi
from proctensor.linalg import clip_divided_differences, herm_eig, project_psd, spectral_function, vec
from proctensor.qubit import ID2, PAULIS, SX, SY, named_projector
from proctensor.validation import as_square, qubit_count


# -------------------------------------------------------------- random inputs

def random_unitary(seed, dim=2):
    """Haar-random dim x dim unitary of the seeded generator."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(seed, dim=2):
    """Random full-rank dim x dim density matrix of the seeded generator."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ------------------------------------------------------------- linear algebra

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


def reconstruct(w, v) -> np.ndarray:
    """V diag(w) V† of an eigendecomposition (w, v), without symmetrizing."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def mat_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root; negative eigenvalues are clipped to zero."""
    return spectral_function(*herm_eig(m), lambda w: np.sqrt(np.clip(w, 0.0, None)))


def mat_log_psd(m, floor: float = 1e-12) -> np.ndarray:
    """Matrix logarithm with eigenvalues floored at `floor` (must be > 0)."""
    if not floor > 0:
        raise ValueError(f"bad-floor: floor must be positive, got {floor}")
    return spectral_function(*herm_eig(m), lambda w: np.log(np.maximum(w, floor)))


# ----------------------------------------------------------------- one qubit

def rotation_gate(theta: float, phi: float) -> np.ndarray:
    """Rotation by theta about the in-plane axis with azimuth phi + pi/2.

    Maps |0⟩ to cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩, so a z-axis projection
    sandwiched between this gate and its inverse realizes projector(θ, φ).
    """
    alpha = phi + math.pi / 2
    axis = math.cos(alpha) * SX + math.sin(alpha) * SY
    return math.cos(theta / 2) * ID2 - 1j * math.sin(theta / 2) * axis


def antipode(theta: float, phi: float) -> tuple[float, float]:
    """Bloch angles of the opposite direction of (theta, phi)."""
    return math.pi - theta, phi + math.pi


def apply_projector(rho, p, target: int = 0):
    """Apply (P ⊗ I) rho (P ⊗ I) on the target qubit.

    Returns the subnormalized post-measurement state and the outcome
    probability Tr[(P ⊗ I) rho].
    """
    a = as_square(rho, "rho")
    n = qubit_count(a.shape[0], "rho")
    if not 0 <= target < n:
        raise ValueError(f"bad-target: qubit {target} out of range for {n} qubit(s)")
    if n == 1:
        op = p
    elif target == 0:
        op = np.kron(p, ID2)
    else:
        op = np.kron(ID2, p)
    sub = op @ a @ op.conj().T
    prob = float(np.trace(op @ a).real)
    return sub, prob


def six_axis_probabilities(rho) -> list[float]:
    """Exact axis-projection probabilities of a state, ordered as qst_six_axis."""
    a = as_square(rho, "rho")
    out = []
    for axis in ("x", "y", "z"):
        for sign in ("+", "-"):
            out.append(float(np.trace(named_projector(axis + sign) @ a).real))
    return out


# ---------------------------------------------------------------- chi maps

def chi_to_superop(chi) -> np.ndarray:
    c = as_square(chi, "chi")
    n = qubit_count(int(round(np.sqrt(c.shape[0]))), "chi")
    return np.einsum("mn,mnij->ij", c, _pauli_pairs(n))


def apply_chi(chi, rho) -> np.ndarray:
    """Evaluate Λ(ρ) = Σ_mn χ_mn E_m ρ E_n†."""
    c = as_square(chi, "chi")
    r = as_square(rho, "rho")
    d = r.shape[0]
    if c.shape[0] != d * d:
        raise ValueError(f"bad-dims: chi side {c.shape[0]} does not match state dim {d}")
    return (chi_to_superop(c) @ vec(r)).reshape(d, d).T


def chi_is_trace_preserving(chi, tol: float = 1e-6) -> bool:
    """Check Σ_mn χ_mn E_n† E_m = I, i.e. vec(I)† S = vec(I)† for the superoperator S."""
    s = chi_to_superop(chi)
    v = vec(np.eye(int(round(np.sqrt(s.shape[0])))))
    return bool(np.abs(v @ s - v).max() <= tol)


def reduced_step_maps(spec) -> list[np.ndarray]:
    """Per-step reduced chi matrices conditioned on the environment staying in |0⟩."""
    ground = np.diag([1.0, 0.0])
    return [superop_to_chi(reduced_superop(u, ground, spec.noise)) for u in spec.interactions]


# ------------------------------------------------------------- sample streams

def derived_rng(seed: int, *parts) -> np.random.Generator:
    """A fresh generator for one keyed stream.

    Key: SHA-256 of the seed's 8 unsigned little-endian bytes, then each
    part's bytes in order (an array's own bytes, a string's UTF-8, an
    integer's 8 signed little-endian bytes). Stream: Philox keyed on the
    digest's first 16 bytes, read as two little-endian 64-bit words, with
    its counter at 0.
    """
    h = hashlib.sha256(struct.pack("<Q", seed))
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(struct.pack("<q", part))
    key = np.array(struct.unpack("<2Q", h.digest()[:16]), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --------------------------------------------------------------- tomography

def eigen_qst_six_axis(probabilities) -> np.ndarray:
    """One-state linear inversion, PSD-projected by eigenvalue clipping and
    renormalized: the eigen route of the closed-form qst_six_axis."""
    p = np.asarray(probabilities, dtype=float)
    r = [p[0] - p[1], p[2] - p[3], p[4] - p[5]]
    rho = 0.5 * (PAULIS[0] + r[0] * PAULIS[1] + r[1] * PAULIS[2] + r[2] * PAULIS[3])
    rho = project_psd(rho)
    return rho / float(np.trace(rho).real)


# ------------------------------------------------------------ fit constants

def fit_basis_constants(basis_vecs):
    """From the basis action vecs B (9, 16): B+ as each fit once formed it,
    and (16, 9) orthonormal columns spanning the rows of B, an independent
    form of the span check's projection."""
    nb = len(basis_vecs)
    u, svals, vh = np.linalg.svd(basis_vecs)
    row = vh[:nb]
    pinv = (row.conj().T / svals) @ u.conj().T
    return pinv, row.T


# -------------------------------------------------------------- PSD refit

def newton_matrix(problem, sigma, w, v):
    """I + sigma A J A* of a _PairGridLeastSquares problem, with the rows
    formed unconjugated from a conjugated copy of every factor product and
    the Gram scaled into a new array."""
    pos = w > 0
    omega = clip_divided_differences(w)[pos]
    omega[:, ~pos] *= 2
    g = (problem._factors @ v.conj()).transpose(0, 2, 3, 1)
    rows = (g[:, :, pos] * problem._factor_weights[:, :, None]) @ g.conj().swapaxes(-1, -2)
    rows *= np.sqrt(omega)
    x = rows.reshape(problem.b_coords.size, -1).view(float)
    h = sigma * (x @ x.T)
    h[np.diag_indices_from(h)] += 1
    return h
