"""Memory quantification for the conditioned last-step process.

Fixing the first intervention at angle theta contracts the fitted two-step
tensor to a one-step map whose Choi state is only pinned by projective data
on a nine-dimensional functional span; everything orthogonal is free. The
non-Markovianity is the minimum relative entropy between a PSD member of that
affine family and the uncorrelated product reference, normalized per the
first-step branch probability.

The relative entropy is finite only for members inside the support of the
reference, a linear condition on the family coefficients. The minimiser
solves it first: exact records of both gate orders pin every coefficient,
so N is a single evaluation; exact records with local noise leave a few
coefficients for the penalty loop; sampled records leave no member inside
the support, and the loop runs over the full family with weight outside the
support priced at -ln LOG_FLOOR (about 27.6 nat) per unit. relative_entropy,
the loop's objective and the final N share one floored-entropy evaluation.
scipy is needed only by the penalty loop, which imports it on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import action_dual, action_superop, map_to_choi, reduced_superop, superop_to_choi
from .linalg import clip_divided_differences, mat_log_psd, normalized_psd, project_psd, unvec, vec_stack
from .process import ProcessSpec, first_step_env_marginal
from .qubit import FIT_BASIS_LABELS, bloch_vector, named_projector, zy_projector
from .tomography import RestrictedProcessTensor, action_matrix, fit_restricted_tensor
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
    """Minimiser outcome. free_directions counts the family coefficients
    left after the support restriction (all of them when it does not apply);
    min_eig is the minimum eigenvalue of the final member before it is
    projected onto the PSD cone."""

    n_value: float
    optimizer: ChoiState
    converged: bool
    iterations: int
    free_directions: int
    min_eig: float


def _as_fit(records_or_fit) -> RestrictedProcessTensor:
    if isinstance(records_or_fit, RestrictedProcessTensor):
        records_or_fit._require_fitted()
        return records_or_fit
    return fit_restricted_tensor(records_or_fit)


def family_predict(choi, op) -> np.ndarray:
    """Contract a conditioned Choi state against one intervention; stacks of
    states (..., 8, 8) and of operations broadcast and give (..., 2, 2)."""
    c = np.asarray(choi.mat if isinstance(choi, ChoiState) else choi, dtype=complex)
    b = action_dual(action_matrix(op))
    y6 = c.reshape(c.shape[:-2] + (2, 4, 2, 4))
    return np.einsum("...oapc,...ca->...op", y6, b)


def _herm_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n*n, n, n) of Hermitian n x n matrices (Frobenius
    inner product): the diagonal units, then per pair i < j its symmetric and
    antisymmetric units."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    d = np.arange(n)
    basis[d, d, d] = 1.0
    i, j = np.triu_indices(n, 1)
    k = n + 2 * np.arange(len(i))
    basis[k, i, j] = basis[k, j, i] = 1 / math.sqrt(2)
    basis[k + 1, i, j] = -1j / math.sqrt(2)
    basis[k + 1, j, i] = 1j / math.sqrt(2)
    return basis


@functools.cache
def _kernel_directions() -> np.ndarray:
    """Hermitian directions annihilating all nine basis-projector functionals.

    These span the conditioned-Choi degrees of freedom that projective records
    cannot fix. The (module-constant) fit basis fixes them, so the read-only
    result is computed once.
    """
    hb = _herm_basis(8)
    basis = np.array([named_projector(label).mat for label in FIT_BASIS_LABELS])
    m = family_predict(hb[:, None], basis[None])
    cons = np.stack([m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1].real, m[..., 0, 1].imag],
                    axis=-1)
    _, svals, vh = np.linalg.svd(cons.reshape(len(hb), -1).T)
    rank = int(np.sum(svals > 1e-10))
    dirs = np.einsum("kg,gij->kij", vh[rank:], hb)
    dirs.setflags(write=False)
    return dirs


def _push(t1: np.ndarray, mats) -> np.ndarray:
    """Outputs (..., 2, 2) of a one-step map (4, 16) on a stack of operators
    (..., 2, 2), one matrix-vector product each, as for a single operator."""
    return unvec((t1 @ vec_stack(action_superop(mats))[..., None])[..., 0])


def _conditioned_map(fit: RestrictedProcessTensor, theta: float):
    """(normalized one-step map, branch probability) at first-step angle theta."""
    op = zy_projector(theta)
    t1 = fit.contract_first_step(op)
    outs = _push(t1, np.array([named_projector(label).mat for label in ("z+", "z-")]))
    p_branch = float(np.trace(outs, axis1=-2, axis2=-1).real.sum())
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
    t1, p_branch = _conditioned_map(_as_fit(records_or_fit), theta)
    return _family_of_map(t1, p_branch, theta)


def _family_of_map(t1: np.ndarray, p_branch: float, theta: float) -> ChoiFamily:
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
    mats = np.array([named_projector(label).mat for label in FIT_BASIS_LABELS])
    probs = np.trace(_push(t1, mats), axis1=-2, axis2=-1).real
    sol, *_ = np.linalg.lstsq(vec_stack(mats).conj(), probs, rcond=None)
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
    t1, p_branch = _conditioned_map(_as_fit(records_or_fit), theta)
    return _reference_of_map(t1, p_branch, theta, process)


def _reference_of_map(t1: np.ndarray, p_branch: float, theta: float,
                      process: ProcessSpec) -> ChoiState:
    rho1 = _avg_state_after_first(t1)
    env, _ = first_step_env_marginal(process, zy_projector(theta))
    sup = reduced_superop(process.interactions[1], env, process.step_noise(1))
    return ChoiState(np.kron(superop_to_choi(sup), rho1), p_branch)


def _choi_mat(x) -> np.ndarray:
    return np.asarray(x.mat if isinstance(x, ChoiState) else x, dtype=complex)


def _support_null(refn: np.ndarray) -> np.ndarray:
    """Eigenvectors of the normalized reference below LOG_FLOOR: its null space."""
    w, v = np.linalg.eigh(refn)
    return v[:, w < LOG_FLOOR]


def _floored_entropy(y: np.ndarray, log_ref: np.ndarray):
    """Floored relative entropy of the trace-normalized positive part of y:
    from one eigh y = V diag(w) V†, with s the clipped spectrum over its sum
    tau, sum s ln max(s, LOG_FLOOR) minus the cross term sum s diag(V† log_ref V).

    Returns (value, (w, v, tau, s, ln max(s, LOG_FLOOR), V† log_ref V, cross)),
    or (1e6, None) when tau is below 1e-9."""
    w, v = np.linalg.eigh(y)
    q = np.clip(w, 0.0, None)
    tau = float(q.sum())
    if tau < 1e-9:
        return 1e6, None
    s = q / tau
    lnf = np.log(np.maximum(s, LOG_FLOOR))
    big_l = v.conj().T @ log_ref @ v
    cross = float(np.sum(s * big_l.diagonal().real))
    return float(np.sum(s * lnf)) - cross, (w, v, tau, s, lnf, big_l, cross)


def relative_entropy(a, b) -> float:
    """Tr[a (ln a - ln b)] with the positive part of `a` and `b` itself
    normalized to unit trace, eigenvalues floored at LOG_FLOOR in the logs.

    Weight of `a` on the floored subspace of `b` beyond SUPPORT_WEIGHT_TOL
    raises SupportMismatchError rather than being silently regularized.
    """
    am = hermitian_part(_choi_mat(a), 1e-8, "a")
    bm = hermitian_part(_choi_mat(b), 1e-8, "b")
    if am.shape != bm.shape:
        raise ValueError(f"bad-dims: shapes {am.shape} and {bm.shape} differ")
    bm = bm / float(np.trace(bm).real)
    null = _support_null(bm)
    weight = float(np.real(np.einsum("ik,ij,jk->", null.conj(), am / np.trace(am).real, null)))
    if weight > SUPPORT_WEIGHT_TOL:
        raise SupportMismatchError(
            f"support-mismatch: weight {weight:.3e} outside reference support")
    return max(_floored_entropy(am, mat_log_psd(bm, LOG_FLOOR))[0], 0.0)


def _penalized_value_grad(c, base, dirs, log_ref, mu):
    """Value and gradient of the floored objective plus PSD penalty.

    The gradient treats the eigenvalue clipping, the trace normalization and
    the eigenvector rotations exactly (divided-difference term for the
    positive-part spectral map).
    """
    val, terms = _floored_entropy(base + np.einsum("k,kij->ij", c, dirs), log_ref)
    if terms is None:
        return val, np.zeros(len(c))
    w, v, tau, s, lnf, big_l, cross = terms
    qp = (w > 0).astype(float)
    neg = np.minimum(w, 0.0)
    val += mu * float(np.sum(neg**2))
    etap = np.where(s > LOG_FLOOR, lnf + 1.0, math.log(LOG_FLOOR))
    diag = (etap * qp / tau - float(np.sum(etap * s)) * qp / tau + cross * qp / tau
            + 2.0 * mu * neg)
    mt = -(clip_divided_differences(w) * big_l) / tau + np.diag(diag.astype(complex))
    grad_mat = v @ mt @ v.conj().T
    grad_mat = (grad_mat + grad_mat.conj().T) / 2
    return val, np.einsum("kij,ji->k", dirs, grad_mat).real


def _restrict_to_support(base, dirs, refn):
    """Members of base + sum_k c_k dirs_k lying inside the support of refn.

    A PSD member Y lies in supp(refn) exactly when N† Y = 0, N spanning
    _support_null(refn), the rule relative_entropy applies too.
    That is linear in c; one SVD gives c = c0 + K z with orthonormal K, and
    the member base + sum c0_k dirs_k with the directions K^T dirs is
    returned. When even the least-squares c0 leaves an off-support block
    ||N† Y(c0)||_F above SUPPORT_WEIGHT_TOL times tr(base), no member lies in
    the support and (base, dirs) are returned unchanged.
    """
    null = _support_null(refn)
    if not null.shape[1]:
        return base, dirs
    nb = null.conj().T @ base
    nd = np.einsum("ai,kab->kib", null.conj(), dirs)
    a = np.concatenate([nd.real, nd.imag], axis=1).reshape(len(dirs), -1).T
    b = np.concatenate([nb.real, nb.imag]).reshape(-1)
    u, svals, vh = np.linalg.svd(a)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    c0 = -vh[:rank].T @ ((u[:, :rank].T @ b) / svals[:rank])
    if np.linalg.norm(a @ c0 + b) > SUPPORT_WEIGHT_TOL * abs(np.trace(base).real):
        return base, dirs
    base = base + np.einsum("k,kij->ij", c0, dirs)
    return base, np.einsum("jk,kab->jab", vh[rank:], dirs)


def minimize_nonmarkovianity(fam: ChoiFamily, ref: ChoiState,
                             max_iter: int = 60000) -> MinimizeResult:
    """Minimum relative entropy to the reference over the PSD family members.

    The relative entropy is finite only for members inside the support of
    the reference, so the family is first restricted to them (a linear
    condition on the coefficients, solved once). Three outcomes follow:

    * no free direction is left (every exact point of the two gate orders):
      N is one evaluation of that member, with 0 iterations, and converged
      means its minimum eigenvalue is above -1e-6;
    * some directions are left (exact records with local noise): the penalty
      loop below runs over those only;
    * no member lies in the support within SUPPORT_WEIGHT_TOL (sampled
      records): the loop runs over the full family, and weight outside the
      support is priced at -ln LOG_FLOOR per unit.

    The loop is penalty continuation with analytic gradients; the PSD
    constraint enters through an increasing quadratic penalty on negative
    eigenvalues and the final iterate is projected onto the cone. max_iter
    is the total quasi-Newton budget across the penalty stages. N is the
    loop's objective without its penalty at that projection, or at the
    projected start when that is PSD and lower. Deterministic for fixed inputs.
    """
    base = _choi_mat(fam.base)
    dirs = np.stack([np.asarray(d, dtype=complex) for d in fam.directions])
    refn = _choi_mat(ref)
    refn = hermitian_part(refn, 1e-8, "ref") / float(np.trace(refn).real)
    log_ref = mat_log_psd(refn, LOG_FLOOR)
    base, dirs = _restrict_to_support(base, dirs, refn)

    schedule = (1e2, 1e4, 1e6, 1e8, 1e10, 1e12)
    per_stage = max(max_iter // len(schedule), 10)
    c = np.zeros(len(dirs))
    iterations = 0
    exhausted = False
    # L-BFGS-B rejects an empty coefficient vector: a pinned member needs no
    # loop. Only the loop needs scipy, so it is imported here, on first use.
    if len(dirs):
        from scipy.optimize import minimize
        for mu in schedule:
            res = minimize(
                _penalized_value_grad,
                c,
                args=(base, dirs, log_ref, mu),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": per_stage, "ftol": 1e-13, "gtol": 1e-11},
            )
            c = res.x
            iterations += int(res.nit)
            exhausted = res.status == 1
    y = base + np.einsum("k,kij->ij", c, dirs)
    min_eig = float(np.linalg.eigvalsh(y).min())
    optimizer = project_psd(y)
    value = max(_floored_entropy(optimizer, log_ref)[0], 0.0)
    # a pinned member is its own start, so only the loop can end above it
    if len(dirs) and float(np.linalg.eigvalsh(base).min()) > -1e-10:
        start = max(_floored_entropy(project_psd(base), log_ref)[0], 0.0)
        if start < value:
            value, optimizer = start, project_psd(base)
    converged = (not exhausted) and min_eig > -1e-6
    return MinimizeResult(
        n_value=value,
        optimizer=ChoiState(optimizer, fam.base.normalization),
        converged=converged,
        iterations=iterations,
        free_directions=len(dirs),
        min_eig=min_eig,
    )


def default_theta_grid(points: int = 13) -> np.ndarray:
    """Uniform grid on [0, 11π/12]; θ = π is excluded since the first-step
    branch probability vanishes there."""
    return np.linspace(0.0, 11 * math.pi / 12, points)


def sweep_theta(records_or_fit, thetas=None, *, process: ProcessSpec):
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
            # one conditioned map per angle, shared by the family and the reference
            t1, p_branch = _conditioned_map(fit, theta)
            fam = _family_of_map(t1, p_branch, theta)
            ref = _reference_of_map(t1, p_branch, theta, process)
        except ValueError as exc:
            if "vanishing-branch" in str(exc):
                rows.append((float(theta), None, False, 0))
                continue
            raise
        res = minimize_nonmarkovianity(fam, ref)
        rows.append((float(theta), res.n_value, res.converged, res.iterations))
    return rows


def bloch_volume(map_kind: str, records_or_fit, theta: float, n_samples: int = 200,
                 *, process: ProcessSpec | None = None) -> np.ndarray:
    """Accessible output states under the chosen last-step description.

    Samples second interventions on a Fibonacci lattice and pushes the whole
    cloud through either the conditioned process tensor or the uncorrelated
    (memoryless) channel as one stack. Rows are (theta_a1, phi_a1, bx, by,
    bz); vanishing trajectories are skipped.
    """
    if n_samples < 1:
        raise ValueError(f"bad-samples: n_samples must be >= 1, got {n_samples}")
    fit = _as_fit(records_or_fit)
    # Fibonacci lattice: deterministic and nearly uniform over the sphere
    i = np.arange(n_samples)
    th = np.arccos(np.clip(1.0 - (2.0 * i + 1.0) / n_samples, -1.0, 1.0))
    ph = np.fmod(math.pi * (3.0 - math.sqrt(5.0)) * i, 2 * math.pi)
    kets = np.stack([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)], axis=-1)
    mats = kets[:, :, None] * kets[:, None, :].conj()
    if map_kind == "process-tensor":
        t1, _ = _conditioned_map(fit, theta)
        out = _push(t1, mats)
    elif map_kind == "markov-map":
        if process is None:
            raise ValueError("bad-map-kind: markov-map requires the process spec")
        env, _ = first_step_env_marginal(process, zy_projector(theta))
        sup = reduced_superop(process.interactions[1], env, process.step_noise(1))
        out = unvec(vec_stack(mats) @ sup.T)
    else:
        raise ValueError(f"bad-map-kind: {map_kind!r}")
    states, p = normalized_psd(out, 1e-9)
    keep = p >= 1e-9
    return np.column_stack([th, ph, bloch_vector(states)])[keep]
