"""Memory quantification for the conditioned last-step process.

Fixing the first intervention at angle theta contracts the fitted two-step
tensor to a one-step map whose Choi state is only pinned by projective data
on a nine-dimensional functional span; everything orthogonal is free. The
non-Markovianity is the minimum relative entropy between a PSD member of that
affine family and the uncorrelated product reference, normalized per the
first-step branch probability.

The relative entropy is finite only for members inside the support of the
reference, a linear condition on the family coefficients. The minimiser
solves it first, in the least-squares sense, and works on that support from
then on. Records without noise pin every coefficient, so N is a single
evaluation. Records with local noise leave a few coefficients, and damped
Newton on the Lagrange dual of the convex problem finds the minimum.
Sampled records leave the least-squares member partly outside the support,
and it is compressed onto it. Only numpy is needed. relative_entropy and
the final N share one floored-entropy evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import action_dual, action_superop, map_to_choi, reduced_superop, superop_to_choi
from .linalg import herm_eig, normalized_psd, project_psd, unvec, vec_stack
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
NEWTON_TOL = 1e-15
NEWTON_STEPS = 100


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
    """Minimiser outcome. iterations counts Newton steps and free_directions
    the coefficients left after the support restriction; min_eig is the
    minimum eigenvalue of the final member before its PSD projection;
    off_support is ||N† Y(c0)||_F / tr Y(c0) for the least-squares member, N
    spanning the null space of the reference; optimality is the last half
    squared Newton decrement, an estimate of the distance to the minimum."""

    n_value: float
    optimizer: ChoiState
    converged: bool
    iterations: int
    free_directions: int
    min_eig: float
    off_support: float
    optimality: float


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


def _reference_spectrum(refn: np.ndarray):
    """One eigendecomposition of a normalized reference gives ln refn with
    eigenvalues floored at LOG_FLOOR, the eigenvectors spanning its support
    and its null space (eigenvalues below LOG_FLOOR), and the logarithms of
    the support eigenvalues. Returns (log_ref, support, null, log_w)."""
    e = herm_eig(refn)
    keep = e.eigenvalues >= LOG_FLOOR
    # ascending, as np.linalg.eigh gives them: the pinned members keep their bits
    null = e.eigenvectors[:, ~keep][:, ::-1]
    log_ref = e.apply(lambda w: np.log(np.maximum(w, LOG_FLOOR)))
    return log_ref, e.eigenvectors[:, keep], null, np.log(e.eigenvalues[keep])


def _floored_entropy(y: np.ndarray, log_ref: np.ndarray) -> float:
    """Floored relative entropy of the trace-normalized positive part of y:
    from one eigh y = V diag(w) V†, with s the clipped spectrum over its sum,
    sum s ln max(s, LOG_FLOOR) minus the cross term sum s diag(V† log_ref V).
    Returns 1e6 when the positive part has trace below 1e-9."""
    w, v = np.linalg.eigh(y)
    q = np.clip(w, 0.0, None)
    tau = float(q.sum())
    if tau < 1e-9:
        return 1e6
    s = q / tau
    cross = float(np.sum(s * (v.conj().T @ log_ref @ v).diagonal().real))
    return float(np.sum(s * np.log(np.maximum(s, LOG_FLOOR)))) - cross


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
    log_b, _, null, _ = _reference_spectrum(bm / float(np.trace(bm).real))
    weight = float(np.real(np.einsum("ik,ij,jk->", null.conj(), am / np.trace(am).real, null)))
    if weight > SUPPORT_WEIGHT_TOL:
        raise SupportMismatchError(
            f"support-mismatch: weight {weight:.3e} outside reference support")
    return max(_floored_entropy(am, log_b), 0.0)


def _restrict_to_support(base, dirs, null):
    """The least-squares member for the support condition, and the
    directions that leave it unchanged.

    A PSD member Y lies in the support of the reference exactly when
    N† Y = 0, N spanning its null space (the rule relative_entropy applies
    too). That is linear in c; one SVD gives the least-squares c = c0 + K z
    with orthonormal K. Returns the member Y(c0) = base + sum c0_k dirs_k,
    the directions K^T dirs and the relative off-support residual
    ||N† Y(c0)||_F / tr Y(c0).
    """
    if not null.shape[1]:
        return base, dirs, 0.0
    nb = null.conj().T @ base
    nd = np.einsum("ai,kab->kib", null.conj(), dirs)
    a = np.concatenate([nd.real, nd.imag], axis=1).reshape(len(dirs), -1).T
    b = np.concatenate([nb.real, nb.imag]).reshape(-1)
    u, svals, vh = np.linalg.svd(a)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    c0 = -vh[:rank].T @ ((u[:, :rank].T @ b) / svals[:rank])
    base = base + np.einsum("k,kij->ij", c0, dirs)
    off_support = float(np.linalg.norm(a @ c0 + b)) / abs(float(np.trace(base).real))
    return base, np.einsum("jk,kab->jab", vh[rank:], dirs), off_support


def _dual_terms(y, log_w, g):
    """psi(y) = ln tr exp(H), H = diag(log_w) + sum_i y_i g_i, with its
    gradient and Hessian, and the state exp(H) / tr exp(H).

    The Hessian takes the divided differences of exp on the spectrum of H
    (Daleckii-Krein), each written with the larger exponent of its pair so
    that no term overflows.
    """
    theta, v = np.linalg.eigh(np.diag(log_w) + np.einsum("i,iab->ab", y, g))
    e = np.exp(theta - theta[-1])
    z = float(e.sum())
    gt = v.conj().T @ g @ v
    grad = np.einsum("jaa,a->j", gt, e).real / z
    d = np.abs(theta[:, None] - theta[None, :])
    with np.errstate(invalid="ignore"):
        gamma = np.maximum(e[:, None], e[None, :]) * np.where(d > 0, -np.expm1(-d) / d, 1.0)
    flat = gt.reshape(len(g), len(theta) ** 2)
    hess = ((flat.conj() * gamma.reshape(-1)) @ flat.T).real / z - np.outer(grad, grad)
    return float(theta[-1] + math.log(z)), grad, hess, (v * (e / z)) @ v.conj().T


def _dual_newton(z0, zk, log_w):
    """Minimum relative entropy to R = diag(exp(log_w)) over the unit-trace
    states of span{z0, zk}, by damped Newton on the Lagrange dual.

    The unit-trace states t z0 + sum_k d_k zk_k form an affine slice, on
    which S(rho||R) is convex. With g spanning the Hermitian matrices
    orthogonal to the span, the minimiser is exp(H) / tr exp(H) at the
    minimum of the convex psi(y) = ln tr exp(ln R + sum_i y_i g_i), and
    S = -psi there. Every dual point gives a positive definite state, so the
    PSD bound needs neither a start inside the cone nor a penalty. As every
    state has S(rho||R) <= -min(log_w), psi < min(log_w) proves that the
    slice holds no PSD state.

    Returns (c, steps, converged, optimality): c = d / t at the minimiser
    (zeros for a slice without PSD state, or when Newton stops short), the
    Newton steps, whether the half squared Newton decrement reached
    NEWTON_TOL or the slice was proved empty, and the last half squared
    decrement.
    """
    hb = _herm_basis(len(log_w))
    span = np.einsum("gab,kba->kg", hb, np.concatenate([z0[None], zk])).real
    _, svals, vh = np.linalg.svd(span)
    g = np.einsum("ig,gab->iab", vh[int(np.sum(svals > 1e-10 * svals[0])):], hb)
    y = np.zeros(len(g))
    value, grad, hess, rho = _dual_terms(y, log_w, g)
    for step in range(NEWTON_STEPS + 1):
        direction = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        half_decrement = float(-grad @ direction) / 2
        if value < log_w.min():
            return np.zeros(len(zk)), step, True, half_decrement
        if half_decrement <= NEWTON_TOL or step == NEWTON_STEPS:
            break
        for t in 0.5 ** np.arange(40):
            trial = _dual_terms(y + t * direction, log_w, g)
            if trial[0] <= value - t * half_decrement / 2:
                break
        else:
            break
        y = y + t * direction
        value, grad, hess, rho = trial
    coef = np.linalg.lstsq(span.T, np.einsum("gab,ba->g", hb, rho).real, rcond=None)[0]
    if half_decrement > NEWTON_TOL or coef[0] <= 0:
        return np.zeros(len(zk)), step, False, half_decrement
    return coef[1:] / coef[0], step, True, half_decrement


def minimize_nonmarkovianity(fam: ChoiFamily, ref: ChoiState) -> MinimizeResult:
    """Minimum relative entropy to the reference over the PSD family members.

    The relative entropy is finite only for members inside the support of
    the reference, so the family is first restricted to them (a linear
    condition on the coefficients, solved once in the least-squares sense).
    When no direction is left (records without noise, exact or sampled), N
    is one evaluation of that member, with 0 iterations. Otherwise damped
    Newton (_dual_newton) minimises over the normalized members on the
    support of the reference.

    Exact records leave the least-squares member inside the support, within
    SUPPORT_WEIGHT_TOL of its trace. Sampled records leave it partly
    outside; the member and its directions are then compressed onto the
    support (P Y P, P the support projector). N is the floored relative
    entropy of the PSD projection of the final member, the value
    relative_entropy gives it.

    converged means that Newton reached its stop, or proved that the
    compressed members hold no PSD state (the least-squares member is then
    evaluated), and, for a member inside the support, that its minimum
    eigenvalue is above -1e-6. A compressed member of sampled records may
    keep a negative eigenvalue from shot noise: min_eig reports it, and it
    does not count as non-convergence. Deterministic for fixed inputs.
    """
    dirs = np.stack([np.asarray(d, dtype=complex) for d in fam.directions])
    refn = hermitian_part(_choi_mat(ref), 1e-8, "ref")
    log_ref, support, null, log_w = _reference_spectrum(refn / float(np.trace(refn).real))
    base, dirs, off_support = _restrict_to_support(_choi_mat(fam.base), dirs, null)
    c, iterations, converged, optimality = np.zeros(len(dirs)), 0, True, 0.0
    if len(dirs):
        on_support = support.conj().T @ np.concatenate([base[None], dirs]) @ support
        c, iterations, converged, optimality = _dual_newton(on_support[0], on_support[1:], log_w)
    y = base + np.einsum("k,kij->ij", c, dirs)
    compressed = off_support > SUPPORT_WEIGHT_TOL
    if compressed:
        y = support @ (support.conj().T @ y @ support) @ support.conj().T
    min_eig = float(np.linalg.eigvalsh(y).min())
    optimizer = project_psd(y)
    return MinimizeResult(
        n_value=max(_floored_entropy(optimizer, log_ref), 0.0),
        optimizer=ChoiState(optimizer, fam.base.normalization),
        converged=converged and (compressed or min_eig > -1e-6),
        iterations=iterations,
        free_directions=len(dirs),
        min_eig=min_eig,
        off_support=off_support,
        optimality=optimality,
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
