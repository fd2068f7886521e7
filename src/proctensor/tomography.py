"""State, process and multi-step process-tensor estimators.

The central object is :class:`RestrictedProcessTensor`, a fit/predict
estimator mapping two-step projective intervention sequences to output
states. A sequence is represented by the Kronecker product of the two
vectorized intervention actions, so the fitted tensor is one linear map and
multilinearity in the intervention expansion holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import action_superop, chi_from_process, choi_to_map, map_to_choi
from .linalg import project_psd, unvec, vec
from .qubit import FIT_BASIS_LABELS, PAULIS, Projector, named_projector
from .validation import as_square, check_density_matrix

__all__ = [
    "TomoRecord",
    "qst_six_axis",
    "six_axis_probabilities",
    "qpt_chi",
    "action_matrix",
    "sequence_vector",
    "RestrictedProcessTensor",
    "fit_restricted_tensor",
    "records_to_text",
    "records_from_text",
]

#: Pair-sum slack accepted by the six-axis estimator (finite-shot data).
PAIR_SUM_SLACK = 0.1


@dataclass(frozen=True)
class TomoRecord:
    """One tomography record: basis pair, state estimate, joint probability."""

    basis_indices: tuple[int, int]
    rho_measured: np.ndarray
    p_joint: float

    def __post_init__(self):
        i0, i1 = self.basis_indices
        nb = len(FIT_BASIS_LABELS)
        if not (0 <= i0 < nb and 0 <= i1 < nb):
            raise ValueError(f"bad-dims: basis indices {self.basis_indices} out of range")
        if not -1e-9 <= self.p_joint <= 1 + 1e-9:
            raise ValueError(f"bad-probability: p_joint={self.p_joint}")
        object.__setattr__(self, "rho_measured", check_density_matrix(self.rho_measured))

    @property
    def labels(self) -> tuple[str, str]:
        return (FIT_BASIS_LABELS[self.basis_indices[0]],
                FIT_BASIS_LABELS[self.basis_indices[1]])


def qst_six_axis(probabilities) -> np.ndarray:
    """Linear-inversion state estimate from six axis-projection probabilities.

    probabilities is ordered (x+, x-, y+, y-, z+, z-) along its last axis; a
    stack (..., 6) gives one state per row, (..., 2, 2). Opposite-axis pairs
    must sum to one within the finite-shot slack. The linear inverse is
    PSD-projected and renormalized.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 6:
        raise ValueError(f"bad-dims: expected 6 probabilities, got shape {p.shape}")
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValueError("inconsistent-probs: probabilities outside [0, 1]")
    sums = p[..., 0::2] + p[..., 1::2]
    bad = np.argwhere(np.abs(sums - 1.0) > PAIR_SUM_SLACK)
    if len(bad):
        *row, k = bad[0]
        raise ValueError(
            f"inconsistent-probs: {'xyz'[k]}-axis pair sums to {sums[(*row, k)]:.4f}"
        )
    x, y, z = (p[..., 2 * k, None, None] - p[..., 2 * k + 1, None, None] for k in range(3))
    rho = 0.5 * (PAULIS[0] + x * PAULIS[1] + y * PAULIS[2] + z * PAULIS[3])
    rho = project_psd(rho)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def six_axis_probabilities(rho) -> list[float]:
    """Exact axis-projection probabilities of a state, ordered as qst_six_axis."""
    a = as_square(rho, "rho")
    out = []
    for axis in ("x", "y", "z"):
        for sign in ("+", "-"):
            out.append(float(np.trace(named_projector(axis + sign).mat @ a).real))
    return out


def qpt_chi(prepared_inputs, measured_outputs, psd: bool = False) -> np.ndarray:
    """Least-squares chi matrix from state-tomography input/output pairs.

    A stack of outputs (R, k, d, d) gives R chi matrices; see chi_from_process.
    """
    return chi_from_process(prepared_inputs, measured_outputs, psd=psd)


def action_matrix(op) -> np.ndarray:
    """4x4 superoperator of an intervention.

    Accepts a Projector, a 2x2 operator K (interpreted as rho -> K rho K†),
    or a precomputed 4x4 action superoperator (useful for affine combinations
    of operations).
    """
    if isinstance(op, Projector):
        return action_superop(op.mat)
    a = np.asarray(op, dtype=complex)
    if a.shape == (2, 2):
        return action_superop(a)
    if a.shape == (4, 4):
        return a
    raise ValueError(f"bad-dims: cannot interpret operation of shape {a.shape}")


def sequence_vector(ops) -> np.ndarray:
    """256-vector of a two-step sequence: vec(action(A1)) ⊗ vec(action(A0))."""
    if len(ops) != 2:
        raise ValueError(f"bad-sequence: expected 2 operations, got {len(ops)}")
    x0 = vec(action_matrix(ops[0]))
    x1 = vec(action_matrix(ops[1]))
    return np.kron(x1, x0)


def _basis_action_vectors() -> np.ndarray:
    return np.array(
        [vec(action_superop(named_projector(l).mat)) for l in FIT_BASIS_LABELS]
    )


#: Relative-step stop of the PSD refit and its iteration cap.
REFIT_TOL = 1e-6
REFIT_MAX_ITER = 20000


def _psd_refit_choi(map0, design, targets, weights):
    """Weighted least-squares refit of the two-step Choi onto the PSD cone.

    Minimizes sum_r w_r ||M d_r - t_r||^2 over maps M whose two-step Choi
    state Y is PSD, by accelerated projected gradient (FISTA with gradient
    restart, eigenvalue clipping as the projection). The Choi reshuffle is a
    permutation, so the map-space gradient and its Lipschitz constant carry
    over to Y unchanged. Starts from the clipped Choi state of map0 and stops
    when the relative step falls below REFIT_TOL.

    Returns the Choi state and (iterations, converged).
    """
    gram = (design.T * weights) @ design.conj()
    rhs = (targets.T * weights) @ design.conj()
    step = 1.0 / np.linalg.eigvalsh(gram)[-1]
    y = project_psd(map_to_choi(map0, 2))
    z, t = y, 1.0
    for it in range(1, REFIT_MAX_ITER + 1):
        g = map_to_choi(choi_to_map(z, 2) @ gram - rhs, 2)
        y_next = project_psd(z - step * (g + g.conj().T) / 2)
        dy = y_next - y
        if np.vdot(z - y_next, dy).real > 0:
            t = 1.0
        t_next = (1 + np.sqrt(1 + 4 * t * t)) / 2
        z = y_next + ((t - 1) / t_next) * dy
        done = np.linalg.norm(dy) < REFIT_TOL * max(1.0, np.linalg.norm(y))
        y, t = y_next, t_next
        if done:
            return y, (it, True)
    return y, (REFIT_MAX_ITER, False)


class RestrictedProcessTensor:
    """Two-step process tensor fitted from projective-intervention records.

    The linear solve is the SVD minimum-norm least-squares solution, which
    keeps contraction and direct sub-fits consistent to machine precision.

    Parameters
    ----------
    psd:
        When True, the least-squares tensor is refined so that its two-step
        Choi state is positive semidefinite, trading a little training
        residual for physicality. Recommended for sampled (finite-shot) data.

    Fitted attributes
    -----------------
    map_ : (4, 256) array mapping sequence vectors to vec of the
        subnormalized output state.
    kernel_basis_ : (k, 256) array spanning the directions left unconstrained
        by the projective records.
    basis_labels_ : the nine projector labels of the fit basis.
    residual_ : worst training-record residual of map_.
    choi_ : 32x32 PSD Choi state of the refined tensor (only when psd=True).
    refit_info_ : (iterations, converged) of the PSD refit, or None when
        psd=False.
    """

    def __init__(self, psd: bool = False):
        self.psd = psd

    # -- sklearn-style parameter plumbing -------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {"psd": self.psd}

    def set_params(self, **params) -> "RestrictedProcessTensor":
        for key, value in params.items():
            if key != "psd":
                raise ValueError(f"bad-param: unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        return f"RestrictedProcessTensor(psd={self.psd!r})"

    # -- fitting ---------------------------------------------------------
    def fit(self, records) -> "RestrictedProcessTensor":
        records = list(records)
        nb = len(FIT_BASIS_LABELS)
        seen = {r.basis_indices for r in records}
        missing = [
            (i0, i1)
            for i0, i1 in itertools.product(range(nb), range(nb))
            if (i0, i1) not in seen
        ]
        if missing:
            raise ValueError(
                f"incomplete-records: {len(missing)} basis combinations missing, "
                f"first {missing[0]}"
            )
        basis = [named_projector(l) for l in FIT_BASIS_LABELS]
        design = np.empty((len(records), 256), dtype=complex)
        targets = np.empty((len(records), 4), dtype=complex)
        for row, rec in enumerate(records):
            i0, i1 = rec.basis_indices
            design[row] = sequence_vector([basis[i0], basis[i1]])
            targets[row] = rec.p_joint * vec(rec.rho_measured)
        u, svals, vh = np.linalg.svd(design)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        coef = (u[:, :rank].conj().T @ targets) / svals[:rank, None]
        self.map_ = coef.T @ vh[:rank].conj()
        self.kernel_basis_ = vh[rank:].conj().copy()
        self.basis_labels_ = tuple(FIT_BASIS_LABELS)
        self._basis_vecs = _basis_action_vectors()
        q, _ = np.linalg.qr(self._basis_vecs.T)
        self._span_q = q
        if self.psd:
            p = np.array([rec.p_joint for rec in records])
            weights = 1.0 / np.sqrt(np.maximum(p, 0.05**2))
            self.choi_, self.refit_info_ = _psd_refit_choi(self.map_, design, targets, weights)
            self.map_ = choi_to_map(self.choi_, 2)
        else:
            self.choi_ = None
            self.refit_info_ = None
        self.residual_ = float(np.abs(design @ self.map_.T - targets).max())
        return self

    def _require_fitted(self):
        if not hasattr(self, "map_"):
            raise ValueError("not-fitted: call fit(records) first")

    def _checked_action_vec(self, op, span_tol: float):
        x = vec(action_matrix(op))
        resid = float(np.linalg.norm(x - self._span_q @ (self._span_q.conj().T @ x)))
        if resid > span_tol:
            raise ValueError(
                f"outside-span: operation expansion residual {resid:.3e} > {span_tol:g}"
            )
        return x

    # -- prediction ------------------------------------------------------
    def predict(self, ops, span_tol: float = 1e-8):
        """Predict (rho_out, p_joint) for a two-operation sequence.

        Each operation must lie in the span of the projector-action basis
        (all rank-1 projectors do). The state is reported None when the
        predicted trajectory probability is below the cutoff.
        """
        self._require_fitted()
        if len(ops) != 2:
            raise ValueError(f"bad-sequence: expected 2 operations, got {len(ops)}")
        x0 = self._checked_action_vec(ops[0], span_tol)
        x1 = self._checked_action_vec(ops[1], span_tol)
        raw = unvec(self.map_ @ np.kron(x1, x0))
        p = float(np.trace(raw).real)
        if p < 1e-12:
            return None, max(p, 0.0)
        rho = project_psd(raw)
        tr = float(np.trace(rho).real)
        if tr <= 0.0:
            return None, max(p, 0.0)
        return rho / tr, p

    def contract_first_step(self, op, span_tol: float = 1e-8) -> np.ndarray:
        """One-step map over the remaining intervention, first step fixed.

        Returns the (4, 16) matrix sending a vectorized step-1 action to the
        vec of the (subnormalized) output state.
        """
        self._require_fitted()
        x0 = self._checked_action_vec(op, span_tol)
        t3 = self.map_.reshape(4, 16, 16)
        return np.einsum("kab,b->ka", t3, x0)


def fit_restricted_tensor(records, psd: bool = False):
    """Convenience constructor returning a fitted RestrictedProcessTensor."""
    return RestrictedProcessTensor(psd=psd).fit(records)


# -- record serialization -------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def records_to_text(records) -> str:
    """One record per line: labels, p_joint, then row-major re/im state entries."""
    lines = []
    for rec in records:
        l0, l1 = rec.labels
        parts = [l0, l1, _fmt(rec.p_joint)]
        for entry in np.asarray(rec.rho_measured).reshape(-1):
            parts.append(_fmt(entry.real))
            parts.append(_fmt(entry.imag))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def records_from_text(text: str) -> list[TomoRecord]:
    records = []
    label_index = {l: i for i, l in enumerate(FIT_BASIS_LABELS)}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 11:
            raise ValueError(f"bad-record: expected 11 fields, got {len(parts)}")
        l0, l1 = parts[0], parts[1]
        if l0 not in label_index or l1 not in label_index:
            raise ValueError(f"bad-label: unknown basis labels {l0!r}, {l1!r}")
        p = float(parts[2])
        vals = [float(v) for v in parts[3:]]
        rho = np.array(
            [
                [vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]],
                [vals[4] + 1j * vals[5], vals[6] + 1j * vals[7]],
            ]
        )
        records.append(TomoRecord((label_index[l0], label_index[l1]), rho, p))
    return records
