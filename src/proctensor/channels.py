"""CP maps in chi-matrix, superoperator and Choi representations.

The chi matrix expresses a map Λ(ρ) = Σ_mn χ_mn E_m ρ E_n† in the Pauli
product basis. Superoperators act on column-stacked vec(ρ), so the action
ρ ↦ A ρ B† has matrix conj(B) ⊗ A.

This module alone fixes the Choi leg order. A k-step map sends the
column-stacked vec of its intervention actions (step k-1 first in the Kronecker
product, step 0 last) to vec of the output state. Its Choi state is
Σ Λ(ρ ↦ A_{k-1} ρ B_{k-1}†, …, ρ ↦ A_0 ρ B_0†) ⊗ |A_{k-1}⟩⟩⟨⟨B_{k-1}| ⊗ … ⊗
|A_0⟩⟩⟨⟨B_0| over unit matrices A, B, with |A⟩⟩ the row-major vectorization.
Its legs are therefore: output qubit, then per step from last to first the
action's output side followed by its input side. The Choi state of a
superoperator is Σ_ij Λ(E_ij) ⊗ E_ij, output legs first. Both are index
reshuffles of the map (:func:`map_to_choi`, :func:`superop_to_choi`).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .linalg import kron, partial_trace, project_psd, unvec, vec
from .qubit import PAULIS, NoiseSpec, apply_noise
from .validation import as_square, check_unitary, qubit_count

__all__ = [
    "pauli_basis",
    "action_superop",
    "action_dual",
    "chi_of_operator",
    "chi_from_process",
    "apply_chi",
    "chi_fidelity",
    "chi_is_trace_preserving",
    "chi_to_superop",
    "superop_to_chi",
    "superop_to_choi",
    "map_to_choi",
    "choi_to_map",
    "reduced_superop",
    "reduced_map",
]


def pauli_basis(nqubits: int) -> list[np.ndarray]:
    """Pauli product basis ordered (I, X, Y, Z)^⊗n."""
    if nqubits == 1:
        return list(PAULIS)
    return [kron(a, b) for a, b in itertools.product(PAULIS, PAULIS)]


@functools.cache
def _pauli_pairs(nqubits: int) -> np.ndarray:
    """Read-only tensor P[m, n] = conj(E_n) ⊗ E_m, the superoperator of ρ ↦ E_m ρ E_n†."""
    basis = pauli_basis(nqubits)
    pairs = np.array([[np.kron(en.conj(), em) for en in basis] for em in basis])
    pairs.setflags(write=False)
    return pairs


#: Choi leg permutation of a k-step map reshaped to 2x...x2 (see module docstring).
_CHOI_LEGS = {1: (1, 5, 3, 0, 4, 2), 2: (1, 5, 3, 9, 7, 0, 4, 2, 8, 6)}


def map_to_choi(m, steps: int) -> np.ndarray:
    """Choi state of a (4, 16**steps) map over intervention actions."""
    legs = _CHOI_LEGS[steps]
    side = 2 ** (len(legs) // 2)
    return np.asarray(m).reshape((2,) * len(legs)).transpose(legs).reshape(side, side)


def choi_to_map(choi, steps: int) -> np.ndarray:
    """Inverse of :func:`map_to_choi`."""
    legs = _CHOI_LEGS[steps]
    t = np.asarray(choi).reshape((2,) * len(legs)).transpose(np.argsort(legs))
    return t.reshape(4, 16**steps)


def action_superop(k) -> np.ndarray:
    """Superoperator of rho -> K rho K† on vec(rho)."""
    a = as_square(k, "k")
    return np.kron(a.conj(), a)


def action_dual(superop) -> np.ndarray:
    """Reshuffle an action superoperator into its contraction dual.

    For a single-qubit action M the dual B satisfies
    B[2k+l, 2i+j] = M[2k+i, 2l+j]; contracting a process Choi state against
    I ⊗ B evaluates the process on the operation M represents.
    """
    m = as_square(superop, "superop")
    if m.shape[0] != 4:
        raise ValueError(f"bad-dims: expected a 4x4 superoperator, got {m.shape}")
    return m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def chi_of_operator(k) -> np.ndarray:
    """Exact chi matrix of the (not necessarily trace-preserving) map K rho K†."""
    a = as_square(k, "k")
    n = qubit_count(a.shape[0], "k")
    basis = pauli_basis(n)
    d = a.shape[0]
    c = np.array([np.trace(e.conj().T @ a) / d for e in basis])
    return np.outer(c, c.conj())


def chi_from_process(prepared_inputs, measured_outputs, psd: bool = False) -> np.ndarray:
    """Least-squares chi matrix from input/output state pairs.

    The inputs must span the operator space of the qubit register; outputs may
    be subnormalized (probability-weighted), which is how non-trace-preserving
    measurement operators are characterized.
    """
    inputs = [as_square(r, "input") for r in prepared_inputs]
    outputs = [as_square(r, "output") for r in measured_outputs]
    if len(inputs) != len(outputs) or not inputs:
        raise ValueError("insufficient-basis: need matching, nonempty input/output lists")
    d = inputs[0].shape[0]
    n = qubit_count(d, "input")
    in_mat = np.array([vec(r) for r in inputs])
    if np.linalg.matrix_rank(in_mat, tol=1e-9) < d * d:
        raise ValueError("insufficient-basis: inputs do not span the operator space")
    pairs = _pauli_pairs(n)
    nb = pairs.shape[0]
    # design: vec(out) = sum_mn chi_mn (conj(E_n) ⊗ E_m) vec(in)
    flat = pairs.reshape(nb * nb, d * d, d * d)
    design = np.vstack([(flat @ vin).T for vin in in_mat])
    y = np.concatenate([vec(r) for r in outputs])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    chi = sol.reshape(nb, nb)
    chi = (chi + chi.conj().T) / 2
    if psd:
        chi = project_psd(chi)
    return chi


def apply_chi(chi, rho) -> np.ndarray:
    """Evaluate Λ(ρ) = Σ_mn χ_mn E_m ρ E_n†."""
    c = as_square(chi, "chi")
    r = as_square(rho, "rho")
    d = r.shape[0]
    if c.shape[0] != d * d:
        raise ValueError(f"bad-dims: chi side {c.shape[0]} does not match state dim {d}")
    return unvec(chi_to_superop(c) @ vec(r), d, d)


def chi_fidelity(chi, chi_ideal) -> float:
    """Tr[chi_ideal chi] with both matrices normalized to unit trace."""
    a = as_square(chi, "chi")
    b = as_square(chi_ideal, "chi_ideal")
    if a.shape != b.shape:
        raise ValueError(f"bad-dims: shapes {a.shape} and {b.shape} differ")
    ta = float(np.trace(a).real)
    tb = float(np.trace(b).real)
    return float(np.trace(b @ a).real) / (ta * tb)


def chi_is_trace_preserving(chi, tol: float = 1e-6) -> bool:
    """Check Σ_mn χ_mn E_n† E_m = I, i.e. vec(I)† S = vec(I)† for the superoperator S."""
    s = chi_to_superop(chi)
    v = vec(np.eye(int(round(np.sqrt(s.shape[0])))))
    return bool(np.abs(v @ s - v).max() <= tol)


def chi_to_superop(chi) -> np.ndarray:
    c = as_square(chi, "chi")
    n = qubit_count(int(round(np.sqrt(c.shape[0]))), "chi")
    return np.einsum("mn,mnij->ij", c, _pauli_pairs(n))


def superop_to_chi(superop) -> np.ndarray:
    s = as_square(superop, "superop")
    n = qubit_count(int(round(np.sqrt(s.shape[0]))), "superop")
    pairs = _pauli_pairs(n)
    chi = np.trace(pairs.conj().swapaxes(-2, -1) @ s, axis1=-2, axis2=-1) / s.shape[0]
    return (chi + chi.conj().T) / 2


def superop_to_choi(superop) -> np.ndarray:
    """Choi matrix Σ_ij Λ(E_ij) ⊗ E_ij with output legs first."""
    s = as_square(superop, "superop")
    d = int(round(np.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def reduced_superop(u, rho_env, noise: NoiseSpec | None = None) -> np.ndarray:
    """Superoperator of rho_S -> Tr_E[U (rho_S ⊗ rho_env) U†] (noise optional)."""
    uu = check_unitary(u, 1e-8, "u")
    if uu.shape[0] != 4:
        raise ValueError(f"bad-dims: expected a two-qubit unitary, got {uu.shape}")
    env = as_square(rho_env, "rho_env")
    s = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for i in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            joint = uu @ kron(e, env) @ uu.conj().T
            if noise is not None:
                joint = apply_noise(joint, noise)
            s[:, 2 * j + i] = vec(partial_trace(joint, 2, 2, keep="a"))
    return s


def reduced_map(u, rho_env, noise: NoiseSpec | None = None) -> np.ndarray:
    """Chi matrix of the environment-conditioned reduced map of a joint unitary."""
    return superop_to_chi(reduced_superop(u, rho_env, noise))
