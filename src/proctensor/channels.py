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
reshuffles of the map (:func:`map_to_choi`, :func:`superop_to_choi`), and
:func:`choi_to_map` inverts the first. The memoryless one-step map applying
an intervention to a state ρ, then a superoperator S, thus has the Choi state
kron(superop_to_choi(S), ρ), as nonmarkov.uncorrelated_choi builds it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import kron_stack, project_psd, unvec, vec_stack
from .qubit import PAULIS, NoiseSpec, apply_noise
from .validation import as_matrix, as_square, check_broadcast, check_unitary, qubit_count

__all__ = [
    "pauli_basis",
    "action_superop",
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


@functools.cache
def pauli_basis(nqubits: int) -> np.ndarray:
    """Read-only Pauli product basis (4**n, 2**n, 2**n) ordered (I, X, Y, Z)^⊗n, n = 1 or 2."""
    if nqubits not in (1, 2):
        raise ValueError(f"bad-dims: Pauli basis of {nqubits} qubits, not 1 or 2")
    basis = PAULIS if nqubits == 1 else kron_stack(PAULIS[:, None], PAULIS[None]).reshape(16, 4, 4)
    basis.setflags(write=False)
    return basis


@functools.cache
def _pauli_pairs(nqubits: int) -> np.ndarray:
    """Read-only tensor P[m, n] = conj(E_n) ⊗ E_m, the superoperator of ρ ↦ E_m ρ E_n†."""
    basis = pauli_basis(nqubits)
    pairs = kron_stack(basis.conj()[None, :], basis[:, None])
    pairs.setflags(write=False)
    return pairs


#: Choi leg permutation of a k-step map reshaped to 2x...x2 (see module docstring).
_CHOI_LEGS = {1: (1, 5, 3, 0, 4, 2), 2: (1, 5, 3, 9, 7, 0, 4, 2, 8, 6)}


def _reshuffle(a, legs, shape) -> np.ndarray:
    """Permute the size-2 legs of each matrix of a stack (..., r, c) and reshape it to shape."""
    a = np.asarray(a)
    n = a.ndim - 2
    t = a.reshape(a.shape[:n] + (2,) * len(legs)).transpose(*range(n), *(n + i for i in legs))
    return t.reshape(a.shape[:n] + shape)


def map_to_choi(m, steps: int) -> np.ndarray:
    """Choi state of a (4, 16**steps) map over intervention actions, or of
    each map of a stack (..., 4, 16**steps)."""
    return _reshuffle(m, _CHOI_LEGS[steps], (2 * 4**steps, 2 * 4**steps))


def choi_to_map(choi, steps: int) -> np.ndarray:
    """Inverse of :func:`map_to_choi`, on one Choi state or a stack of them."""
    return _reshuffle(choi, np.argsort(_CHOI_LEGS[steps]), (4, 16**steps))


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
    a = as_square(k, "k")
    return kron_stack(a.conj(), a)


def chi_of_operator(k) -> np.ndarray:
    """Exact chi matrix of the (not necessarily trace-preserving) map K rho K†,
    or of each of a stack (..., d, d)."""
    a = as_square(k, "k")
    d = a.shape[-1]
    basis = pauli_basis(qubit_count(d, "k"))
    c = np.trace(basis.conj().swapaxes(-1, -2) @ a[..., None, :, :], axis1=-2, axis2=-1) / d
    return c[..., :, None] * c[..., None, :].conj()


def chi_from_process(prepared_inputs, measured_outputs, psd: bool = False) -> np.ndarray:
    """Least-squares chi matrices from input/output state pairs.

    The inputs must span the operator space of the qubit register; outputs may
    be subnormalized (probability-weighted), which is how non-trace-preserving
    measurement operators are characterized. measured_outputs is a stack
    (..., k, d, d), at least one leading axis, of output sets measured on the
    same k inputs; it gives chi matrices (..., d², d²) from one design, one
    least-squares solve with a column per set and one stacked projection.
    For one qubit each matrix equals its one-set result bit for bit (measured
    on the 360 sets of characterize-povm at 100 and 3000 shots, 1 and 2 BLAS
    threads); the two-qubit solve may round differently (within 3e-15 relative).
    """
    inputs = as_matrix(prepared_inputs, "input")
    outputs = as_matrix(measured_outputs, "output")
    if inputs.ndim != 3 or inputs.shape[1] != inputs.shape[2]:
        raise ValueError(f"bad-dims: inputs must be square matrices, got shape {inputs.shape}")
    if not len(inputs) or outputs.ndim < 4 or outputs.shape[-3:] != inputs.shape:
        raise ValueError("insufficient-basis: need nonempty inputs (k, d, d) and outputs "
                         "(..., k, d, d) measured on them")
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
    design = (flat @ in_mat.T).transpose(2, 1, 0).reshape(k * d * d, nb * nb)
    lead = outputs.shape[:-3]
    y = outputs.swapaxes(-1, -2).reshape(-1, k * d * d).T
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    chi = sol.T.reshape(lead + (nb, nb))
    chi = (chi + chi.conj().swapaxes(-1, -2)) / 2
    if psd:
        chi = project_psd(chi)
    return chi


def chi_fidelity(chi, chi_ideal) -> np.ndarray:
    """Tr[chi_ideal chi] with both matrices normalized to unit trace; stacks
    (..., n, n) broadcast. Stacks whose leading axes do not broadcast raise
    "bad-dims", a trace <= 0 "bad-trace"."""
    # in C order each trace sums its diagonal as one matrix's trace does
    a = np.ascontiguousarray(as_square(chi, "chi"))
    b = np.ascontiguousarray(as_square(chi_ideal, "chi_ideal"))
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"bad-dims: shapes {a.shape} and {b.shape} differ")
    check_broadcast([a, b])
    ta = np.trace(a, axis1=-2, axis2=-1).real
    tb = np.trace(b, axis1=-2, axis2=-1).real
    if not ((ta > 0).all() and (tb > 0).all()):
        raise ValueError(f"bad-trace: traces {ta.min(initial=np.inf):.3e} and "
                         f"{tb.min(initial=np.inf):.3e} must be positive")
    return np.trace(b @ a, axis1=-2, axis2=-1).real / (ta * tb)


def _as_superop(superop):
    """Coerce a stack (..., d², d²) of one- or two-qubit superoperators; returns (stack, d)."""
    s = as_square(superop, "superop")
    if s.shape[-1] not in (4, 16):
        raise ValueError(f"bad-dims: superop must act on 1 or 2 qubits, got shape {s.shape}")
    return s, math.isqrt(s.shape[-1])


def superop_to_chi(superop) -> np.ndarray:
    """Chi matrix of a superoperator, or of each of a stack (..., d², d²)."""
    s, d = _as_superop(superop)
    pairs = _pauli_pairs(qubit_count(d, "superop"))
    chi = np.trace(pairs.conj().swapaxes(-2, -1) @ s[..., None, None, :, :],
                   axis1=-2, axis2=-1) / (d * d)
    return (chi + chi.conj().swapaxes(-1, -2)) / 2


def superop_to_choi(superop) -> np.ndarray:
    """Choi matrix Σ_ij Λ(E_ij) ⊗ E_ij with output legs first, of one
    superoperator or of each of a stack (..., d², d²)."""
    s, d = _as_superop(superop)
    n = s.ndim - 2
    t = s.reshape(s.shape[:-2] + (d, d, d, d))
    return t.transpose(*range(n), n + 1, n + 3, n, n + 2).reshape(s.shape[:-2] + (d * d, d * d))


def reduced_superop(u, rho_env, noise: NoiseSpec | None = None) -> np.ndarray:
    """Superoperator of rho_S -> Tr_E[U (rho_S ⊗ rho_env) U†] (noise optional);
    a stack (..., 2, 2) of environment states gives a stack (..., 4, 4)."""
    uu = check_unitary(u, "u")
    if uu.shape[0] != 4:
        raise ValueError(f"bad-dims: expected a two-qubit unitary, got {uu.shape}")
    env = as_square(rho_env, "rho_env")
    # column 2j + i is the image of the unit matrix E_ij, whose vec is that unit vector
    joint = uu @ kron_stack(unvec(np.eye(4)), env[..., None, :, :]) @ uu.conj().T
    if noise is not None:
        joint = apply_noise(joint, noise)
    reduced = np.einsum("...nijkj->...nik", joint.reshape(joint.shape[:-2] + (2, 2, 2, 2)))
    return vec_stack(reduced).swapaxes(-1, -2)


def reduced_map(u, rho_env, noise: NoiseSpec | None = None) -> np.ndarray:
    """Chi matrices (..., 4, 4) of the reduced maps of a joint unitary, one per
    environment state of a stack (..., 2, 2)."""
    return superop_to_chi(reduced_superop(u, rho_env, noise))
