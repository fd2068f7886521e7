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

from .linalg import kron_stack, project_psd, unvec, vec_stack
from .qubit import PAULIS, NoiseSpec, apply_noise
from .validation import as_matrix, as_square, check_unitary, qubit_count

__all__ = [
    "pauli_basis",
    "action_superop",
    "action_dual",
    "chi_of_operator",
    "chi_from_process",
    "chi_fidelity",
    "superop_to_chi",
    "superop_to_choi",
    "map_to_choi",
    "choi_to_map",
    "step_choi_factor",
    "reduced_superop",
    "reduced_map",
]


def pauli_basis(nqubits: int) -> list[np.ndarray]:
    """Pauli product basis ordered (I, X, Y, Z)^⊗n, n = 1 or 2."""
    if nqubits == 1:
        return list(PAULIS)
    if nqubits != 2:
        raise ValueError(f"bad-dims: Pauli basis of {nqubits} qubits, not 1 or 2")
    return [np.kron(a, b) for a, b in itertools.product(PAULIS, PAULIS)]


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
    """Choi state of a (4, 16**steps) map over intervention actions, or of
    each map of a stack (..., 4, 16**steps)."""
    m = np.asarray(m)
    lead, legs, n = m.shape[:-2], _CHOI_LEGS[steps], m.ndim - 2
    side = 2 ** (len(legs) // 2)
    t = m.reshape(lead + (2,) * len(legs))
    return t.transpose(*range(n), *(n + leg for leg in legs)).reshape(lead + (side, side))


def choi_to_map(choi, steps: int) -> np.ndarray:
    """Inverse of :func:`map_to_choi`."""
    legs = _CHOI_LEGS[steps]
    t = np.asarray(choi).reshape((2,) * len(legs)).transpose(np.argsort(legs))
    return t.reshape(4, 16**steps)


def step_choi_factor(x) -> np.ndarray:
    """4x4 factor of one step in the Choi state of a product map.

    The legs of each step stay together in :func:`map_to_choi`, so the map
    sending x_{k-1} ⊗ … ⊗ x_0 to vec(O) has the Choi state
    kron(O, F(x_{k-1}), …, F(x_0)) with F(x) this reshuffle of the 16-vector
    x. Works on stacks (..., 16).
    """
    x = np.asarray(x)
    return x.reshape(x.shape[:-1] + (2, 2, 2, 2)).swapaxes(-1, -4).reshape(x.shape[:-1] + (4, 4))


def action_superop(k) -> np.ndarray:
    """Superoperator conj(K) ⊗ K of rho -> K rho K† on vec(rho), or a stack of them."""
    a = as_square(k, "k", stack=True)
    d = a.shape[-1]
    prod = a.conj()[..., :, None, :, None] * a[..., None, :, None, :]
    return prod.reshape(a.shape[:-2] + (d * d, d * d))


def action_dual(superop) -> np.ndarray:
    """Reshuffle an action superoperator, or a stack of them, into its contraction dual.

    For a single-qubit action M the dual B satisfies
    B[2k+l, 2i+j] = M[2k+i, 2l+j]; contracting a process Choi state against
    I ⊗ B evaluates the process on the operation M represents.
    """
    m = as_square(superop, "superop", stack=True)
    if m.shape[-1] != 4:
        raise ValueError(f"bad-dims: expected a 4x4 superoperator, got {m.shape}")
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(m.shape)


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
    measurement operators are characterized. measured_outputs is a stack
    (R, k, d, d) of R repetitions measured on the same k inputs (R = 1 for
    one repetition); it gives R chi matrices (R, d², d²) from one design,
    one least-squares solve with R right-hand sides and one stacked
    projection. For one qubit each matrix equals the one-repetition result
    bit for bit; on the larger two-qubit design LAPACK may round the
    many-column solve differently (measured: within 3e-15 relative).
    """
    inputs = as_matrix(prepared_inputs, "input")
    outputs = as_matrix(measured_outputs, "output")
    if inputs.ndim != 3 or inputs.shape[1] != inputs.shape[2]:
        raise ValueError(f"bad-dims: inputs must be square matrices, got shape {inputs.shape}")
    if not len(inputs) or outputs.ndim != 4 or outputs.shape[1:] != inputs.shape:
        raise ValueError("insufficient-basis: need nonempty inputs (k, d, d) and outputs "
                         "(R, k, d, d) measured on them")
    k, d = inputs.shape[:2]
    n = qubit_count(d, "input")
    # vec(r) is column-stacking: the transpose read row by row
    in_mat = inputs.swapaxes(-1, -2).reshape(k, d * d)
    if np.linalg.matrix_rank(in_mat, tol=1e-9) < d * d:
        raise ValueError("insufficient-basis: inputs do not span the operator space")
    pairs = _pauli_pairs(n)
    nb = pairs.shape[0]
    # design: vec(out) = sum_mn chi_mn (conj(E_n) ⊗ E_m) vec(in)
    flat = pairs.reshape(nb * nb, d * d, d * d)
    design = np.vstack([(flat @ vin).T for vin in in_mat])
    y = outputs.swapaxes(-1, -2).reshape(len(outputs), k * d * d).T
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    chi = sol.T.reshape(-1, nb, nb)
    chi = (chi + chi.conj().swapaxes(-1, -2)) / 2
    if psd:
        chi = project_psd(chi)
    return chi


def chi_fidelity(chi, chi_ideal) -> float:
    """Tr[chi_ideal chi] with both matrices normalized to unit trace."""
    a = as_square(chi, "chi")
    b = as_square(chi_ideal, "chi_ideal")
    if a.shape != b.shape:
        raise ValueError(f"bad-dims: shapes {a.shape} and {b.shape} differ")
    ta = float(np.trace(a).real)
    tb = float(np.trace(b).real)
    return float(np.trace(b @ a).real) / (ta * tb)


def superop_to_chi(superop) -> np.ndarray:
    s = as_square(superop, "superop")
    n = qubit_count(int(round(np.sqrt(s.shape[0]))), "superop")
    pairs = _pauli_pairs(n)
    chi = np.trace(pairs.conj().swapaxes(-2, -1) @ s, axis1=-2, axis2=-1) / s.shape[0]
    return (chi + chi.conj().T) / 2


def superop_to_choi(superop) -> np.ndarray:
    """Choi matrix Σ_ij Λ(E_ij) ⊗ E_ij with output legs first, of one
    superoperator or of each of a stack (..., d², d²)."""
    s = as_square(superop, "superop", stack=True)
    d = int(round(np.sqrt(s.shape[-1])))
    n = s.ndim - 2
    t = s.reshape(s.shape[:-2] + (d, d, d, d))
    return t.transpose(*range(n), n + 1, n + 3, n, n + 2).reshape(s.shape[:-2] + (d * d, d * d))


def reduced_superop(u, rho_env, noise: NoiseSpec | None = None) -> np.ndarray:
    """Superoperator of rho_S -> Tr_E[U (rho_S ⊗ rho_env) U†] (noise optional);
    a stack (..., 2, 2) of environment states gives a stack (..., 4, 4)."""
    uu = check_unitary(u, "u")
    if uu.shape[0] != 4:
        raise ValueError(f"bad-dims: expected a two-qubit unitary, got {uu.shape}")
    env = as_square(rho_env, "rho_env", stack=True)
    # column 2j + i is the image of the unit matrix E_ij, whose vec is that unit vector
    joint = uu @ kron_stack(unvec(np.eye(4)), env[..., None, :, :]) @ uu.conj().T
    if noise is not None:
        joint = apply_noise(joint, noise)
    reduced = np.einsum("...nijkj->...nik", joint.reshape(joint.shape[:-2] + (2, 2, 2, 2)))
    return vec_stack(reduced).swapaxes(-1, -2)


def reduced_map(u, rho_env, noise: NoiseSpec | None = None) -> np.ndarray:
    """Chi matrix of the environment-conditioned reduced map of a joint unitary."""
    return superop_to_chi(reduced_superop(u, rho_env, noise))
