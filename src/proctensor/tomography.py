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
from scipy.optimize import minimize as _scipy_minimize

from .channels import action_dual, action_superop, chi_from_process, choi_to_map, map_to_choi
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

    probabilities is ordered (x+, x-, y+, y-, z+, z-). Opposite-axis pairs
    must sum to one within the finite-shot slack. The linear inverse is
    PSD-projected and renormalized.
    """
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size != 6:
        raise ValueError(f"bad-dims: expected 6 probabilities, got {p.size}")
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValueError("inconsistent-probs: probabilities outside [0, 1]")
    for k, axis in enumerate("xyz"):
        s = p[2 * k] + p[2 * k + 1]
        if abs(s - 1.0) > PAIR_SUM_SLACK:
            raise ValueError(
                f"inconsistent-probs: {axis}-axis pair sums to {s:.4f}"
            )
    r = [p[0] - p[1], p[2] - p[3], p[4] - p[5]]
    rho = 0.5 * (PAULIS[0] + r[0] * PAULIS[1] + r[1] * PAULIS[2] + r[2] * PAULIS[3])
    rho = project_psd(rho)
    return rho / float(np.trace(rho).real)


def six_axis_probabilities(rho) -> list[float]:
    """Exact axis-projection probabilities of a state, ordered as qst_six_axis."""
    a = as_square(rho, "rho")
    out = []
    for axis in ("x", "y", "z"):
        for sign in ("+", "-"):
            out.append(float(np.trace(named_projector(axis + sign).mat @ a).real))
    return out


def qpt_chi(prepared_inputs, measured_outputs, psd: bool = False) -> np.ndarray:
    """Least-squares chi matrix from state-tomography input/output pairs."""
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


def _psd_refit_choi(choi0, duals, targets, weights, max_iter=800):
    """Weighted least-squares refit of the two-step Choi with a PSD penalty.

    Minimizes sum_r w_r ||pred_r(Y) - y_r||_F^2 + mu ||negpart(Y)||_F^2 over
    Hermitian Y with an increasing penalty schedule, then projects the result
    onto the PSD cone.
    """
    n = choi0.shape[0]
    b = np.stack(duals)
    tgt = np.stack(targets)
    w = np.asarray(weights, dtype=float)

    def unpack(x):
        re = x[: n * n].reshape(n, n)
        im = x[n * n :].reshape(n, n)
        return (re + re.T) / 2 + 1j * (im - im.T) / 2

    def fun(x, mu):
        y = unpack(x)
        y6 = y.reshape(2, 16, 2, 16)
        pred = np.einsum("oapc,rca->rop", y6, b)
        r = pred - tgt
        val = float(np.sum(w * np.sum(np.abs(r) ** 2, axis=(1, 2))))
        g6 = np.einsum("r,rop,rca->oapc", w, r.conj(), b)
        grad = g6.reshape(n, n).conj()
        ev, vv = np.linalg.eigh(y)
        neg = np.minimum(ev, 0.0)
        val += mu * float(np.sum(neg**2))
        grad = grad + (vv * (2 * mu * neg)) @ vv.conj().T
        m = (grad + grad.conj().T) / 2
        return val, np.concatenate([np.real(m).reshape(-1), np.imag(m).reshape(-1)])

    x = np.concatenate([choi0.real.reshape(-1), choi0.imag.reshape(-1)])
    for mu in (1e2, 1e4, 1e6):
        res = _scipy_minimize(
            fun, x, args=(mu,), jac=True, method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 1e-15, "gtol": 1e-12},
        )
        x = res.x
    return project_psd(unpack(x))


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
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        self.map_ = solution.T.copy()
        _, svals, vh = np.linalg.svd(design)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        self.kernel_basis_ = vh[rank:].conj().copy()
        self.basis_labels_ = tuple(FIT_BASIS_LABELS)
        self._basis_vecs = _basis_action_vectors()
        q, _ = np.linalg.qr(self._basis_vecs.T)
        self._span_q = q
        if self.psd:
            choi0 = map_to_choi(self.map_, 2)
            choi0 = (choi0 + choi0.conj().T) / 2
            duals, tgt, wts = [], [], []
            for rec in records:
                i0, i1 = rec.basis_indices
                duals.append(
                    np.kron(
                        action_dual(action_superop(basis[i1].mat)),
                        action_dual(action_superop(basis[i0].mat)),
                    )
                )
                tgt.append(rec.p_joint * rec.rho_measured)
                wts.append(1.0 / max(np.sqrt(rec.p_joint), 0.05))
            self.choi_ = _psd_refit_choi(choi0, duals, tgt, wts)
            self.map_ = choi_to_map(self.choi_, 2)
        else:
            self.choi_ = None
        resid = 0.0
        for row, rec in enumerate(records):
            resid = max(resid, float(np.abs(self.map_ @ design[row] - targets[row]).max()))
        self.residual_ = resid
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
