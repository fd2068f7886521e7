"""Memory quantification for the conditioned last-step process.

Fixing the first intervention at angle theta contracts the fitted two-step
tensor to a one-step map whose Choi state is only pinned by projective data
on a nine-dimensional functional span; everything orthogonal is free. The
non-Markovianity is the minimum relative entropy between a PSD member of that
affine family and the uncorrelated product reference, normalized per the
first-step branch probability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .channels import action_dual, action_superop, map_to_choi, reduced_superop, superop_to_choi
from .linalg import mat_log_psd, project_psd, unvec, vec
from .process import ProcessSpec, first_step_env_marginal
from .qubit import FIT_BASIS_LABELS, Projector, named_projector, zy_projector, bloch_vector
from .tomography import RestrictedProcessTensor, fit_restricted_tensor
from .validation import hermitian_part

__all__ = [
    "ChoiState",
    "ChoiFamily",
    "MinimizeResult",
    "SupportMismatchError",
    "condition_family",
    "uncorrelated_choi",
    "family_predict",
    "relative_entropy",
    "minimize_nonmarkovianity",
    "sweep_theta",
    "default_theta_grid",
    "bloch_volume",
]

LOG_FLOOR = 1e-12
SUPPORT_WEIGHT_TOL = 1e-6


class SupportMismatchError(ValueError):
    """First argument of the relative entropy has weight outside the
    support of the second."""


@dataclass(frozen=True)
class ChoiState:
    """8x8 conditioned Choi state and the branch probability divided out."""

    mat: np.ndarray
    normalization: float


@dataclass(frozen=True)
class ChoiFamily:
    """Affine family of data-consistent conditioned Choi states."""

    base: ChoiState
    directions: tuple
    theta: float


@dataclass(frozen=True)
class MinimizeResult:
    n_value: float
    optimizer: ChoiState
    converged: bool
    iterations: int


def _as_fit(records_or_fit) -> RestrictedProcessTensor:
    if isinstance(records_or_fit, RestrictedProcessTensor):
        records_or_fit._require_fitted()
        return records_or_fit
    return fit_restricted_tensor(records_or_fit)


def family_predict(choi, op) -> np.ndarray:
    """Contract a conditioned Choi state against one intervention."""
    c = np.asarray(choi.mat if isinstance(choi, ChoiState) else choi, dtype=complex)
    if isinstance(op, Projector):
        sup = action_superop(op.mat)
    else:
        sup = np.asarray(op, dtype=complex)
        if sup.shape == (2, 2):
            sup = action_superop(sup)
    b = action_dual(sup)
    y6 = c.reshape(2, 4, 2, 4)
    return np.einsum("oapc,ca->op", y6, b)


def _herm_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of Hermitian n x n matrices (Frobenius inner product)."""
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1 / math.sqrt(2)
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / math.sqrt(2)
            m[j, i] = 1j / math.sqrt(2)
            basis.append(m)
    return basis


@functools.cache
def _kernel_directions() -> np.ndarray:
    """Hermitian directions annihilating all nine basis-projector functionals.

    These span the conditioned-Choi degrees of freedom that projective records
    cannot fix. The (module-constant) fit basis fixes them, so the read-only
    result is computed once.
    """
    hb = _herm_basis(8)
    rows = []
    for g in hb:
        cons = []
        for label in FIT_BASIS_LABELS:
            m = family_predict(g, named_projector(label))
            cons.extend([m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag])
        rows.append(cons)
    constraint = np.array(rows).T
    _, svals, vh = np.linalg.svd(constraint)
    rank = int(np.sum(svals > 1e-10))
    null = vh[rank:]
    dirs = np.stack([sum(c * b for c, b in zip(row, hb)) for row in null])
    dirs.setflags(write=False)
    return dirs


def _conditioned_map(fit: RestrictedProcessTensor, theta: float):
    """(normalized one-step map, branch probability) at first-step angle theta."""
    op = zy_projector(theta)
    t1 = fit.contract_first_step(op)
    p_branch = 0.0
    for label in ("z+", "z-"):
        out = unvec(t1 @ vec(action_superop(named_projector(label).mat)))
        p_branch += float(np.trace(out).real)
    if p_branch < 1e-9:
        raise ValueError(f"vanishing-branch: first-step probability {p_branch:.3e}")
    return t1 / p_branch, p_branch


def condition_family(records_or_fit, theta: float) -> ChoiFamily:
    """Affine family of conditioned Choi states consistent with the records.

    The returned base is the minimum-norm solution shifted along the kernel
    so that its trace equals 2, the value every branch-normalized physical
    process carries; the trace functional itself is not fixed by projective
    records, so this choice picks a representative without changing the
    family as a set.
    """
    fit = _as_fit(records_or_fit)
    t1, p_branch = _conditioned_map(fit, theta)
    base = hermitian_part(map_to_choi(t1, 1), tol=np.inf)
    dirs = _kernel_directions()
    traces = np.array([float(np.trace(d).real) for d in dirs])
    norm2 = float(traces @ traces)
    if norm2 > 1e-12:
        gap = 2.0 - float(np.trace(base).real)
        base = base + np.einsum("k,kij->ij", gap * traces / norm2, dirs)
    return ChoiFamily(ChoiState(base, p_branch), tuple(dirs), float(theta))


def _avg_state_after_first(t1: np.ndarray) -> np.ndarray:
    """System marginal entering the second intervention, from data alone.

    Inverts the nine basis-projection probabilities encoded in the
    conditioned map (least squares, PSD projection, unit trace).
    """
    rows, probs = [], []
    for label in FIT_BASIS_LABELS:
        p = named_projector(label)
        out = unvec(t1 @ vec(action_superop(p.mat)))
        probs.append(float(np.trace(out).real))
        rows.append(vec(p.mat).conj())
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(probs), rcond=None)
    rho = project_psd(unvec(sol))
    tr = float(np.trace(rho).real)
    if tr <= 0:
        raise ValueError("vanishing-branch: degenerate intermediate state")
    return rho / tr


def uncorrelated_choi(records_or_fit, theta: float, process: ProcessSpec) -> ChoiState:
    """Product reference: reduced last-step channel ⊗ average intermediate state.

    The channel is conditioned on the environment marginal of the first-step
    branch, which projective system records cannot identify; the process
    definition supplies it. The trace equals that of the family base (both
    are 2 for a branch-normalized trace-preserving step).
    """
    fit = _as_fit(records_or_fit)
    t1, p_branch = _conditioned_map(fit, theta)
    rho1 = _avg_state_after_first(t1)
    env, _ = first_step_env_marginal(process, zy_projector(theta))
    sup = reduced_superop(process.interactions[1], env, process.step_noise(1))
    return ChoiState(np.kron(superop_to_choi(sup), rho1), p_branch)


def _choi_mat(x) -> np.ndarray:
    return np.asarray(x.mat if isinstance(x, ChoiState) else x, dtype=complex)


def relative_entropy(a, b, floor: float = LOG_FLOOR) -> float:
    """Tr[a (ln a - ln b)] with both arguments normalized to unit trace.

    Weight of `a` on the floored subspace of `b` beyond the tolerance raises
    SupportMismatchError rather than being silently regularized.
    """
    am = hermitian_part(_choi_mat(a), 1e-8, "a")
    bm = hermitian_part(_choi_mat(b), 1e-8, "b")
    if am.shape != bm.shape:
        raise ValueError(f"bad-dims: shapes {am.shape} and {bm.shape} differ")
    am = am / float(np.trace(am).real)
    bm = bm / float(np.trace(bm).real)
    wb, vb = np.linalg.eigh(bm)
    floor_vecs = vb[:, wb < floor]
    if floor_vecs.shape[1]:
        weight = float(np.real(np.einsum("ik,ij,jk->", floor_vecs.conj(), am, floor_vecs)))
        if weight > SUPPORT_WEIGHT_TOL:
            raise SupportMismatchError(
                f"support-mismatch: weight {weight:.3e} outside reference support"
            )
    log_b = (vb * np.log(np.maximum(wb, floor))) @ vb.conj().T
    wa, va = np.linalg.eigh(am)
    pos = np.clip(wa, 0.0, None)
    ent = float(np.sum(pos * np.log(np.maximum(wa, floor))))
    cross = float(np.real(np.trace(am @ log_b)))
    return max(ent - cross, 0.0)


def _objective_terms(y: np.ndarray, log_ref: np.ndarray, floor: float):
    """Floored relative entropy of the positive part of y, trace-normalized."""
    w, v = np.linalg.eigh(y)
    pos = np.clip(w, 0.0, None)
    tau = float(pos.sum())
    if tau < 1e-9:
        return 1e6
    s = pos / tau
    ent = float(np.sum(s * np.log(np.maximum(s, floor))))
    yn = (v * s) @ v.conj().T
    return ent - float(np.real(np.trace(yn @ log_ref)))


def _penalized_value_grad(c, base, dirs, log_ref, mu, floor):
    """Value and gradient of the floored objective plus PSD penalty.

    The gradient treats the eigenvalue clipping, the trace normalization and
    the eigenvector rotations exactly (divided-difference term for the
    positive-part spectral map).
    """
    y = base + np.einsum("k,kij->ij", c, dirs)
    w, v = np.linalg.eigh(y)
    q = np.clip(w, 0.0, None)
    qp = (w > 0).astype(float)
    neg = np.minimum(w, 0.0)
    tau = float(q.sum())
    if tau < 1e-9:
        return 1e6, np.zeros(len(c))
    s = q / tau
    lnf = np.log(np.maximum(s, floor))
    etap = np.where(s > floor, lnf + 1.0, math.log(floor))
    big_l = v.conj().T @ log_ref @ v
    ld = big_l.diagonal().real
    cross = float(np.sum(s * ld))
    val = float(np.sum(s * lnf)) - cross + mu * float(np.sum(neg**2))

    wd = w[:, None] - w[None, :]
    qd = q[:, None] - q[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        q1 = np.where(np.abs(wd) > 1e-12, qd / wd, 0.0)
    q1 = np.where(np.abs(wd) <= 1e-12, (qp[:, None] + qp[None, :]) / 2.0, q1)
    diag = (
        etap * qp / tau
        - float(np.sum(etap * s)) * qp / tau
        + cross * qp / tau
        + 2.0 * mu * neg
    )
    mt = -(q1 * big_l) / tau + np.diag(diag.astype(complex))
    grad_mat = v @ mt @ v.conj().T
    grad_mat = (grad_mat + grad_mat.conj().T) / 2
    grad = np.einsum("kij,ji->k", dirs, grad_mat).real
    return val, grad


def minimize_nonmarkovianity(fam: ChoiFamily, ref: ChoiState,
                             max_iter: int = 60000, tol: float = 1e-10) -> MinimizeResult:
    """Minimum relative entropy to the reference over the PSD family members.

    Penalty continuation over the family coefficients with analytic
    gradients; the PSD constraint enters through an increasing quadratic
    penalty on negative eigenvalues and the final iterate is projected onto
    the cone. max_iter is the total quasi-Newton budget across the penalty
    stages; boundary-pinned minima need a few thousand iterations at the
    stiffest penalty. Deterministic for fixed inputs.
    """
    base = _choi_mat(fam.base)
    dirs = np.stack([np.asarray(d, dtype=complex) for d in fam.directions])
    refn = _choi_mat(ref)
    refn = hermitian_part(refn, 1e-8, "ref") / float(np.trace(refn).real)
    log_ref = mat_log_psd(refn, LOG_FLOOR)

    schedule = (1e2, 1e4, 1e6, 1e8, 1e10, 1e12)
    per_stage = max(max_iter // len(schedule), 10)
    c = np.zeros(len(dirs))
    iterations = 0
    exhausted = False
    for mu in schedule:
        res = _scipy_minimize(
            _penalized_value_grad,
            c,
            args=(base, dirs, log_ref, mu, LOG_FLOOR),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": per_stage, "ftol": tol * 1e-3, "gtol": 1e-11},
        )
        c = res.x
        iterations += int(res.nit)
        exhausted = res.status == 1
    y = base + np.einsum("k,kij->ij", c, dirs)
    min_eig = float(np.linalg.eigvalsh(y).min())
    optimizer = project_psd(y)
    value = max(_objective_terms(optimizer, log_ref, LOG_FLOOR), 0.0)
    start = max(_objective_terms(project_psd(base), log_ref, LOG_FLOOR), 0.0)
    if float(np.linalg.eigvalsh(base).min()) > -1e-10 and start < value:
        value, optimizer = start, project_psd(base)
    converged = (not exhausted) and min_eig > -1e-6
    return MinimizeResult(
        n_value=value,
        optimizer=ChoiState(optimizer, fam.base.normalization),
        converged=converged,
        iterations=iterations,
    )


def default_theta_grid(points: int = 13) -> np.ndarray:
    """Uniform grid on [0, 11π/12]; θ = π is excluded since the first-step
    branch probability vanishes there."""
    return np.linspace(0.0, 11 * math.pi / 12, points)


def sweep_theta(records_or_fit, thetas=None, *, process: ProcessSpec,
                max_iter: int = 60000):
    """Non-Markovianity versus first-step angle.

    Returns a list of (theta, n_value, converged, iterations); angles whose
    first-step branch vanishes are reported as (theta, None, False, 0).
    """
    fit = _as_fit(records_or_fit)
    if thetas is None:
        thetas = default_theta_grid()
    rows = []
    for theta in thetas:
        try:
            fam = condition_family(fit, theta)
            ref = uncorrelated_choi(fit, theta, process)
        except ValueError as exc:
            if "vanishing-branch" in str(exc):
                rows.append((float(theta), None, False, 0))
                continue
            raise
        res = minimize_nonmarkovianity(fam, ref, max_iter=max_iter)
        rows.append((float(theta), res.n_value, res.converged, res.iterations))
    return rows


def _fibonacci_sphere(n: int) -> list[tuple[float, float]]:
    """Deterministic, nearly uniform (theta, phi) sampling of the sphere."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(n):
        z = 1.0 - (2.0 * i + 1.0) / n
        theta = math.acos(min(max(z, -1.0), 1.0))
        phi = math.fmod(golden * i, 2 * math.pi)
        out.append((theta, phi))
    return out


def bloch_volume(map_kind: str, records_or_fit, theta: float, n_samples: int = 200,
                 *, process: ProcessSpec | None = None) -> np.ndarray:
    """Accessible output states under the chosen last-step description.

    Samples second interventions on a Fibonacci lattice and pushes each
    through either the conditioned process tensor or the uncorrelated
    (memoryless) channel. Rows are (theta_a1, phi_a1, bx, by, bz); vanishing
    trajectories are skipped.
    """
    if n_samples < 1:
        raise ValueError(f"bad-samples: n_samples must be >= 1, got {n_samples}")
    fit = _as_fit(records_or_fit)
    if map_kind == "process-tensor":
        t1, _ = _conditioned_map(fit, theta)

        def push(op: Projector):
            return unvec(t1 @ vec(action_superop(op.mat)))

    elif map_kind == "markov-map":
        if process is None:
            raise ValueError("bad-map-kind: markov-map requires the process spec")
        env, _ = first_step_env_marginal(process, zy_projector(theta))
        sup = reduced_superop(process.interactions[1], env, process.step_noise(1))

        def push(op: Projector):
            return unvec(sup @ vec(op.mat))

    else:
        raise ValueError(f"bad-map-kind: {map_kind!r}")
    rows = []
    for th, ph in _fibonacci_sphere(n_samples):
        out = push(Projector(th, ph))
        p = float(np.trace(out).real)
        if p < 1e-9:
            continue
        rho = project_psd(out)
        rho = rho / float(np.trace(rho).real)
        b = bloch_vector(rho)
        rows.append((th, ph, b[0], b[1], b[2]))
    return np.array(rows)
