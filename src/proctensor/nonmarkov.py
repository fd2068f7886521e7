"""Memory quantification for the conditioned last-step process.

Fixing the first intervention at angle theta contracts the fitted two-step
tensor to a one-step map whose Choi state is only pinned by projective data
on a nine-dimensional functional span; everything orthogonal is free. The
non-Markovianity is the minimum relative entropy between a PSD member of that
affine family and the uncorrelated product reference, normalized per the
first-step branch probability.

Each layer takes a stack of angles and runs once on it: condition_family
gives the families of a stack, uncorrelated_choi their references and
minimize_nonmarkovianity one result per point; sweep_theta is the three
composed. One rule marks a point absent (None): the fit's branch
probability is below BRANCH_CUTOFF, or its reference is the zero matrix,
which it is where the process's branch vanishes or the fit leaves no
intermediate state. Only bloch_volume, which has no absent cloud, raises
VanishingBranchError.

The relative entropy is finite only for members inside the support of the
reference, a linear condition on the family coefficients. The minimiser
solves it first, in the least-squares sense, and works on that support from
then on. A stacked QR factors the condition of every point; where its
triangular factor proves the condition well posed (singular values within a
factor 1e10, the rule that decides which directions are free), that QR
solves it. Records without noise pin every coefficient this way, so N is a
single evaluation. Records with local noise leave a few coefficients: their
points take a thin SVD, which names the free directions, and damped Newton
on the Lagrange dual of the convex problem finds the minimum. Sampled
records leave the least-squares member partly outside the support, and it is
compressed onto it. One eigendecomposition of each final member gives its
smallest eigenvalue, its PSD projection and N. Only numpy is needed.
relative_entropy and the final N share one floored-entropy evaluation.

condition_family, sweep_theta and bloch_volume take a fitted
RestrictedProcessTensor; contracting an unfitted one raises "not-fitted".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import action_dual, action_superop, map_to_choi, superop_to_choi
from .linalg import herm_eig, kron_stack, normalized_psd, project_psd, unvec, vec_stack
from .process import BRANCH_CUTOFF, ProcessSpec, VanishingBranchError, last_step_superops
from .qubit import FIT_BASIS, bloch_vector, named_projector, projector, zy_projector
from .tomography import RestrictedProcessTensor, action_matrix
from .validation import check_angles, hermitian_part

__all__ = [
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
#: Second interventions sampled by bloch_volume.
VOLUME_SAMPLES = 200


class SupportMismatchError(ValueError):
    """First argument of the relative entropy has weight outside the
    support of the second."""


@dataclass(frozen=True)
class ChoiFamily:
    """Affine families of data-consistent conditioned Choi states, one per
    first-step angle of thetas (T,): base (T, 8, 8) plus any real
    combination of the directions (K, 8, 8), which every point shares.
    normalization (T,) holds the first-step branch probabilities divided out
    of the bases, and intermediate (T, 2, 2) the system states entering the
    last step, which every member of a family predicts alike (the zero
    matrix where the fit leaves none)."""

    thetas: np.ndarray
    base: np.ndarray
    directions: np.ndarray
    normalization: np.ndarray
    intermediate: np.ndarray


@dataclass(frozen=True)
class MinimizeResult:
    """Minimiser outcome. iterations counts Newton steps and free_directions
    the coefficients left after the support restriction; min_eig is the
    minimum eigenvalue of the final member before its PSD projection;
    off_support is ||N† Y(c0)||_F / tr Y(c0) for the least-squares member, N
    spanning the null space of the reference; optimality is the last half
    squared Newton decrement, an estimate of the distance to the minimum."""

    n_value: float
    optimizer: np.ndarray
    converged: bool
    iterations: int
    free_directions: int
    min_eig: float
    off_support: float
    optimality: float


def family_predict(choi, op) -> np.ndarray:
    """Contract a conditioned Choi state against one intervention; stacks of
    states (..., 8, 8) and of operations broadcast and give (..., 2, 2)."""
    c = np.asarray(choi, dtype=complex)
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
    m = family_predict(hb[:, None], FIT_BASIS[None])
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


@functools.cache
def _fit_basis_pinv() -> np.ndarray:
    """Read-only pseudo-inverse (4, 9) of the map vec(rho) -> tr(P_k rho),
    P_k the fit basis projectors."""
    pinv = np.linalg.pinv(vec_stack(FIT_BASIS).conj())
    pinv.setflags(write=False)
    return pinv


def _conditioned_maps(fit: RestrictedProcessTensor, mats: np.ndarray):
    """One-step maps (T, 4, 16) conditioned on a stack (T, 2, 2) of
    first-step projectors, each divided by its branch probability, and the
    branch probabilities (T,). A map whose branch is below BRANCH_CUTOFF is
    left undivided."""
    t1 = fit.contract_first_step(mats)
    z_pm = np.array([named_projector(label) for label in ("z+", "z-")])
    p_branch = np.trace(_push(t1[:, None], z_pm), axis1=-2, axis2=-1).real.sum(axis=-1)
    return t1 / np.where(p_branch >= BRANCH_CUTOFF, p_branch, 1.0)[:, None, None], p_branch


def condition_family(fit: RestrictedProcessTensor, thetas) -> ChoiFamily:
    """Affine families of conditioned Choi states consistent with the fit's
    records, one per first-step angle of thetas, a 1-D stack of finite
    angles (bad-dims, non-finite).

    Each base is the minimum-norm solution shifted along the kernel so that
    its trace equals 2, the value every branch-normalized physical process
    carries; the trace functional itself is not fixed by projective records,
    so this choice picks a representative without changing the family as a
    set. A map whose branch is below BRANCH_CUTOFF is left undivided, and
    the minimiser leaves that point absent.
    """
    thetas = check_angles(thetas, 1, "thetas")
    t1, p_branch = _conditioned_maps(fit, zy_projector(thetas))
    choi = map_to_choi(t1, 1)
    base = (choi + choi.conj().swapaxes(-1, -2)) / 2
    # projective records leave the trace free: the kernel combination of
    # unit trace and least norm moves it without leaving the family
    dirs = _kernel_directions()
    traces = np.trace(dirs, axis1=-2, axis2=-1).real
    shift = np.einsum("k,kij->ij", traces / (traces @ traces), dirs)
    base = base + (2.0 - np.trace(base, axis1=-2, axis2=-1).real)[:, None, None] * shift
    return ChoiFamily(thetas, base, dirs, p_branch, _intermediate_states(t1))


def _intermediate_states(t1: np.ndarray) -> np.ndarray:
    """System marginals (T, 2, 2) entering the second intervention, from
    data alone.

    Inverts the nine basis-projection probabilities encoded in each
    conditioned map (one pseudo-inverse, PSD projection, unit trace); a
    marginal of trace <= 0 is the zero matrix.
    """
    probs = np.trace(_push(t1[:, None], FIT_BASIS), axis1=-2, axis2=-1).real
    rho = project_psd(unvec((_fit_basis_pinv() @ probs[..., None])[..., 0]))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    return np.where((tr > 0)[:, None, None], rho, 0.0) / np.where(tr > 0, tr, 1.0)[:, None, None]


def uncorrelated_choi(fam: ChoiFamily, process: ProcessSpec) -> np.ndarray:
    """Product references (T, 8, 8) of a family stack: reduced last-step
    channel ⊗ intermediate state, per first-step angle.

    The channel is conditioned on the environment marginal of the first-step
    branch, which projective system records cannot identify; the process
    definition supplies it. The trace equals that of the family base (both
    are 2 for a branch-normalized trace-preserving step). A reference is the
    zero matrix where the process's branch is below BRANCH_CUTOFF, and where
    the family's intermediate state is.
    """
    sup, p_env = last_step_superops(process, zy_projector(fam.thetas))
    refs = kron_stack(superop_to_choi(sup), fam.intermediate)
    refs[p_env < BRANCH_CUTOFF] = 0.0
    return refs


def _reference_spectrum(refn: np.ndarray):
    """One eigendecomposition of a normalized reference, or of each of a
    stack (..., n, n), gives ln refn with eigenvalues floored at LOG_FLOOR,
    and the eigenvalues and eigenvectors, descending, with the mask keep of
    those at or above LOG_FLOOR. The kept eigenvectors span the support,
    the others the null space. Returns (log_ref, w, v, keep)."""
    e = herm_eig(refn)
    log_ref = e.apply(lambda w: np.log(np.maximum(w, LOG_FLOOR)))
    return log_ref, e.eigenvalues, e.eigenvectors, e.eigenvalues >= LOG_FLOOR


def _floored_entropy(w: np.ndarray, v: np.ndarray, log_ref: np.ndarray):
    """Floored relative entropy of the trace-normalized positive part of
    y = V diag(w) V†, or of each of a stack, from that eigendecomposition:
    with s the clipped spectrum over its sum, sum s ln max(s, LOG_FLOOR)
    minus the cross term sum s diag(V† log_ref V). Gives 1e6 where the
    positive part has trace below 1e-9."""
    q = np.clip(w, 0.0, None)
    tau = q.sum(axis=-1)
    empty = tau < 1e-9
    s = q / np.where(empty, 1.0, tau)[..., None]
    cross = np.sum(s * (v.conj().swapaxes(-1, -2) @ log_ref @ v).diagonal(0, -2, -1).real, axis=-1)
    return np.where(empty, 1e6, np.sum(s * np.log(np.maximum(s, LOG_FLOOR)), axis=-1) - cross)


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[a (ln a - ln b)] with the positive part of `a` and `b` itself
    normalized to unit trace, eigenvalues floored at LOG_FLOOR in the logs.

    Weight of `a` on the floored subspace of `b` beyond SUPPORT_WEIGHT_TOL
    raises SupportMismatchError rather than being silently regularized. A
    trace <= 0 raises "bad-trace", an eigenvalue of the normalized `b` below
    -1e-8 "not-psd".
    """
    am = hermitian_part(a, "a")
    bm = hermitian_part(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"bad-dims: shapes {am.shape} and {bm.shape} differ")
    tr_a, tr_b = float(np.trace(am).real), float(np.trace(bm).real)
    if not (tr_a > 0 and tr_b > 0):
        raise ValueError(f"bad-trace: traces {tr_a:.3e} and {tr_b:.3e} must be positive")
    log_b, w, v, keep = _reference_spectrum(bm / tr_b)
    if w[-1] < -1e-8:
        raise ValueError(f"not-psd: reference has eigenvalue {w[-1]:.3e}")
    null = v * ~keep
    weight = float(np.real(np.einsum("ik,ij,jk->", null.conj(), am / tr_a, null)))
    if weight > SUPPORT_WEIGHT_TOL:
        raise SupportMismatchError(
            f"support-mismatch: weight {weight:.3e} outside reference support")
    return max(float(_floored_entropy(*np.linalg.eigh(am), log_b)), 0.0)


def _restrict_to_support(base, dirs, null):
    """The least-squares members for the support condition, and the
    directions that leave them unchanged, for a stack of points.

    A PSD member Y lies in the support of the reference exactly when
    N† Y = 0, N spanning its null space (the rule relative_entropy applies
    too). That is linear in c, a c = -b; the least-squares solution is
    c = c0 + K z with orthonormal K spanning the directions that a cannot
    see, those of singular value at most 1e-10 times the largest. base is a
    stack (T, n, n), dirs (K, n, n) are shared by the points, and null
    (T, n, n) holds each null space zero-padded to n columns, so that points
    of every null size share one stacked factorization.

    A stacked QR of the augmented [a | b] gives R, the triangular factor
    of a, and Q† b. Where ||R||_F ||R^-1||_F < 1e10, which bounds the ratio
    of the largest to the smallest singular value of a, no direction is free
    and c0 = -R^-1 Q† b. The other points (a zero column, a null space too
    small to pin every coefficient, as with noisy records) take one stacked
    thin SVD: c0 is the minimum-norm solution, and its right singular
    vectors vh with the mask free of those at most 1e-10 times the largest
    give K; a boolean mask picks those points (np.setdiff1d would import
    numpy.ma). Returns the members Y(c0) = base + sum c0_k dirs_k, vh
    (T, K, K) (the identity at a point the bound clears) with free (T, K)
    (point i keeps the directions vh[i][free[i]] @ dirs), and the relative
    off-support residuals ||N† Y(c0)||_F / tr Y(c0).
    """
    # N† acts on the stacked real and imaginary parts [Re X; Im X] of a
    # matrix X as the real block matrix [[Re N†, -Im N†], [Im N†, Re N†]]
    t, k, n = len(base), len(dirs), base.shape[-1]
    nh = null.conj().swapaxes(-1, -2)
    real_nh = np.block([[nh.real, -nh.imag], [nh.imag, nh.real]])
    # the columns of the augmented [a | b], each a real (2n, n) block
    ab = np.empty((t, k + 1, 2 * n, n))
    np.matmul(real_nh[:, None], np.concatenate([dirs.real, dirs.imag], axis=-2), out=ab[:, :k])
    np.matmul(real_nh, np.concatenate([base.real, base.imag], axis=-2), out=ab[:, k])
    ab = ab.reshape(t, k + 1, 2 * n * n).swapaxes(1, 2)
    a, b = ab[..., :k], ab[..., k]
    # the QR in two calls, one per half of the points, changes no byte. It is
    # tuned to glibc's dynamic trim threshold at the default and bench grids
    # (T = 13, 14), not required by the algorithm: np.linalg.qr copies its
    # input, and in one call the stack and its copy outgrew the threshold, so
    # the heap was trimmed after every sweep and its pages faulted back in on
    # the next. At T = 60 the halves outgrow it as well
    r = np.concatenate([np.linalg.qr(half, mode="r") for half in np.array_split(ab, 2)])
    r_a, qb = r[:, :k, :k], r[:, :k, k]
    # a triangular R has sigma_min <= min |r_ii| and sigma_max >= max |r_ii|,
    # so a point whose diagonal spans more than the rule fails the bound;
    # only the others are inverted, and their pivots are nonzero
    diag = np.abs(np.diagonal(r_a, axis1=-2, axis2=-1))
    tried = np.flatnonzero(diag.min(axis=-1) > 1e-10 * diag.max(axis=-1))
    r_inv = np.linalg.inv(r_a[tried])
    ok = np.linalg.norm(r_a[tried], axis=(-2, -1)) * np.linalg.norm(r_inv, axis=(-2, -1)) < 1e10
    proved = tried[ok]
    c0 = np.empty((t, k))
    c0[proved] = -(r_inv[ok] @ qb[proved][..., None])[..., 0]
    vh = np.broadcast_to(np.eye(k), (t, k, k)).copy()
    free = np.zeros((t, k), dtype=bool)
    rest = np.ones(t, dtype=bool)
    rest[proved] = False
    if rest.any():
        u, svals, vh[rest] = np.linalg.svd(a[rest], full_matrices=False)
        free[rest] = ~(svals > 1e-10 * svals[:, :1])
        proj = (b[rest][:, None] @ u)[:, 0]
        c0[rest] = -(np.where(free[rest], 0.0, proj / np.where(free[rest], 1.0, svals))[:, None]
                     @ vh[rest])[:, 0]
    members = base + np.einsum("tk,kij->tij", c0, dirs)
    resid = np.linalg.norm(nh @ members, axis=(-2, -1))
    return members, vh, free, resid / np.abs(np.trace(members, axis1=-2, axis2=-1).real)


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


def minimize_nonmarkovianity(fam: ChoiFamily, refs) -> list[MinimizeResult | None]:
    """Minimum relative entropy to its reference over the PSD members of
    each family of a stack: one result per point of fam, refs (T, 8, 8)
    holding the references, or None where the point is absent.

    A point is absent where the fit's branch probability (fam.normalization)
    is below BRANCH_CUTOFF or its reference is the zero matrix, which
    uncorrelated_choi gives where the process's branch vanishes.

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
    does not count as non-convergence. Deterministic for fixed inputs; a
    point's result does not depend on the points stacked with it.
    """
    return _minimize_stack(fam, refs)


def _minimize_stack(fam: ChoiFamily, refs) -> list[MinimizeResult | None]:
    """The body of minimize_nonmarkovianity. Every step but the Newton solve
    of a point with free directions runs once on the stack of the points
    that are not absent: one eigh of the references, a QR of the support
    conditions (an SVD only for the points that its bound does not clear,
    see _restrict_to_support) and one eigh of the final members, which
    gives min_eig, the optimizer and N."""
    refs = hermitian_part(refs, "ref")
    if refs.shape != fam.base.shape:
        raise ValueError(f"bad-dims: references of shape {refs.shape} for bases of shape "
                         f"{fam.base.shape}")
    live = (fam.normalization >= BRANCH_CUTOFF) & refs.any(axis=(-2, -1))
    dirs = fam.directions
    refn = refs[live]
    refn = refn / np.trace(refn, axis1=-2, axis2=-1).real[:, None, None]
    log_ref, w, v, keep = _reference_spectrum(refn)
    y, vh, free, off_support = _restrict_to_support(fam.base[live], dirs,
                                                    v * ~keep[:, None, :])
    iterations = np.zeros(len(y), dtype=int)
    converged = np.ones(len(y), dtype=bool)
    optimality = np.zeros(len(y))
    for i in np.flatnonzero(free.any(axis=-1)):
        free_dirs = np.einsum("jk,kab->jab", vh[i][free[i]], dirs)
        support = v[i][:, keep[i]]
        on_support = support.conj().T @ np.concatenate([y[i][None], free_dirs]) @ support
        c, iterations[i], converged[i], optimality[i] = _dual_newton(
            on_support[0], on_support[1:], np.log(w[i][keep[i]]))
        y[i] = y[i] + np.einsum("k,kij->ij", c, free_dirs)
    compressed = off_support > SUPPORT_WEIGHT_TOL
    support = v[compressed] * keep[compressed][:, None, :]
    support_h = support.conj().swapaxes(-1, -2)
    y[compressed] = support @ (support_h @ y[compressed] @ support) @ support_h
    e = herm_eig(y)
    min_eig = e.eigenvalues[:, -1]
    optimizer = e.apply(lambda w: np.clip(w, 0.0, None))
    n_value = np.maximum(_floored_entropy(e.eigenvalues, e.eigenvectors, log_ref), 0.0)
    results = [None] * len(live)
    for i, point in enumerate(np.flatnonzero(live)):
        results[point] = MinimizeResult(
            n_value=float(n_value[i]),
            optimizer=optimizer[i],
            converged=bool(converged[i] and (compressed[i] or min_eig[i] > -1e-6)),
            iterations=int(iterations[i]),
            free_directions=int(free[i].sum()),
            min_eig=float(min_eig[i]),
            off_support=float(off_support[i]),
            optimality=float(optimality[i]),
        )
    return results


def default_theta_grid() -> np.ndarray:
    """13-point uniform grid on [0, 11π/12]; θ = π is excluded since the
    first-step branch probability vanishes there."""
    return np.linspace(0.0, 11 * math.pi / 12, 13)


def sweep_theta(fit: RestrictedProcessTensor, thetas, *,
                process: ProcessSpec) -> list[MinimizeResult | None]:
    """Non-Markovianity versus first-step angle: the results of
    minimize_nonmarkovianity(fam, uncorrelated_choi(fam, process)) for the
    families fam = condition_family(fit, thetas), one per angle, None where
    the point is absent. Each layer runs once on the stack of angles; only
    the points that keep free directions (records with noise) run their own
    Newton solve.
    """
    fam = condition_family(fit, thetas)
    # the minimiser's private body: the bench tracer's hook on
    # minimize_nonmarkovianity reads the fields of one result, not of a list
    return _minimize_stack(fam, uncorrelated_choi(fam, process))


def bloch_volume(fit: RestrictedProcessTensor, thetas,
                 process: ProcessSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Accessible output states of the conditioned process tensor and of the
    uncorrelated (memoryless) channel, one pair (tensor, markov) per
    first-step angle of thetas.

    Samples VOLUME_SAMPLES second interventions on a Fibonacci lattice and
    pushes the whole cloud through each description of every angle as one
    stack. Rows are (theta_a1, phi_a1, bx, by, bz); vanishing trajectories
    are skipped. thetas must be a 1-D stack of finite angles (bad-dims,
    non-finite). A vanishing first-step branch raises VanishingBranchError
    naming the first such angle.
    """
    thetas = check_angles(thetas, 1, "thetas")
    # Fibonacci lattice: deterministic and nearly uniform over the sphere
    i = np.arange(VOLUME_SAMPLES)
    th = np.arccos(np.clip(1.0 - (2.0 * i + 1.0) / VOLUME_SAMPLES, -1.0, 1.0))
    ph = np.fmod(math.pi * (3.0 - math.sqrt(5.0)) * i, 2 * math.pi)
    mats = projector(th, ph)
    first = zy_projector(thetas)
    t1, p_branch = _conditioned_maps(fit, first)
    sup, p_env = last_step_superops(process, first)
    # the fit's branch probability is checked first, then the process's
    p = np.where(p_branch < BRANCH_CUTOFF, p_branch, p_env)
    if (p < BRANCH_CUTOFF).any():
        k = np.argmax(p < BRANCH_CUTOFF)  # the first vanishing angle
        raise VanishingBranchError(f"vanishing-branch: first-step probability {p[k]:.3e} "
                                   f"at theta {float(thetas[k])!r}")
    clouds = []
    for out in (_push(t1[:, None], mats), unvec(vec_stack(mats) @ sup.swapaxes(-1, -2))):
        states, p_out = normalized_psd(out, BRANCH_CUTOFF)
        clouds.append([np.column_stack([th, ph, b])[keep]
                       for b, keep in zip(bloch_vector(states), p_out >= BRANCH_CUTOFF)])
    return list(zip(*clouds))
