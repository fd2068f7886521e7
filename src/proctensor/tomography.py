"""State, process and multi-step process-tensor estimators.

The central object is :class:`RestrictedProcessTensor`, a fit/predict
estimator mapping two-step projective intervention sequences to output
states. A sequence is represented by the Kronecker product of the two
vectorized intervention actions, so the fitted tensor is one linear map and
multilinearity in the intervention expansion holds by construction.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .channels import (
    action_superop,
    choi_to_map,
    map_to_choi,
    step_choi_factor,
)
from .fileio import format_rows
from .linalg import (
    clip_divided_differences,
    normalized_psd,
    one_blas_thread,
    project_psd,
    unvec,
    vec,
    vec_stack,
)
from .qubit import FIT_BASIS, FIT_BASIS_LABELS, PAULIS
from .validation import check_broadcast, check_two_steps, hermitian_part

__all__ = [
    "records_from_arrays",
    "qst_six_axis",
    "action_matrix",
    "sequence_vector",
    "RestrictedProcessTensor",
    "RefitInfo",
    "records_to_text",
    "records_from_text",
]

#: Pair-sum slack accepted by the six-axis estimator (finite-shot data).
PAIR_SUM_SLACK = 0.1
#: Largest residual of an operation's action outside the fit basis span.
SPAN_TOL = 1e-8


#: Fields of a record array: the basis pair (i0, i1) as indices into
#: FIT_BASIS_LABELS, the state estimate and the pair's joint probability.
_RECORD_DTYPE = np.dtype([
    ("basis_indices", np.intp, (2,)),
    ("rho_measured", complex, (2, 2)),
    ("p_joint", float),
])


def _reject_first(bad, message):
    """Raise ValueError(message(r)) for the first record r flagged in bad."""
    if bad.any():
        raise ValueError(message(int(np.argmax(bad))))


def records_from_arrays(basis_indices, rho_measured, p_joint) -> np.recarray:
    """Record array (R,) of _RECORD_DTYPE, checked as one stack.

    basis_indices (R, 2) holds integer indices into FIT_BASIS_LABELS,
    rho_measured (R, 2, 2) the state estimates and p_joint (R,) the joint
    probabilities, each in [0, 1]. Each state must be finite, Hermitian, PSD
    and of trace in [0, 1], all within 1e-8; its Hermitian part (a + a†)/2
    is stored. The checks run in that order over the whole stack.
    """
    idx, p = np.asarray(basis_indices), np.asarray(p_joint, dtype=float)
    rho, nb = np.asarray(rho_measured, dtype=complex), len(FIT_BASIS_LABELS)
    if (p.ndim != 1 or idx.shape != (len(p), 2) or rho.shape != (len(p), 2, 2)
            or not np.issubdtype(idx.dtype, np.integer)):
        raise ValueError(f"bad-dims: need integer basis indices (R, 2), states (R, 2, 2) and "
                         f"p_joint (R,), got {idx.dtype} {idx.shape}, {rho.shape} and {p.shape}")
    _reject_first(((idx < 0) | (idx >= nb)).any(axis=1), lambda r: (
        f"bad-dims: basis indices {tuple(idx[r].tolist())} of record {r} are not in [0, {nb})"))
    _reject_first(~((p >= -1e-9) & (p <= 1 + 1e-9)),
                  lambda r: f"bad-probability: p_joint={p[r]} of record {r}")
    rho = hermitian_part(rho, "state")
    low = np.linalg.eigvalsh(rho)[:, 0]
    _reject_first(low < -1e-8,
                  lambda r: f"not-psd: state of record {r} has eigenvalue {low[r]:.3e}")
    tr = np.trace(rho, axis1=1, axis2=2).real
    _reject_first((tr < -1e-8) | (tr > 1 + 1e-8),
                  lambda r: f"bad-trace: state of record {r} has trace {tr[r]:.6f}")
    records = np.recarray(len(p), dtype=_RECORD_DTYPE)
    records.basis_indices, records.rho_measured, records.p_joint = idx, rho, p
    return records


def qst_six_axis(probabilities) -> np.ndarray:
    """Linear-inversion state estimate from six axis-projection probabilities.

    probabilities is ordered (x+, x-, y+, y-, z+, z-) along its last axis; a
    stack (..., 6) gives one state per row, (..., 2, 2). Opposite-axis pairs
    must sum to one within the finite-shot slack. The state is ½(I + r·σ /
    max(1, |r|)) for the raw Bloch vector r: the linear inverse, moved
    radially onto the Bloch ball where it lies outside, which is its PSD
    projection, renormalized.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim == 0 or p.shape[-1] != 6:
        raise ValueError(f"bad-dims: expected 6 probabilities, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("non-finite: probabilities contain NaN or Inf")
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
    scale = np.maximum(1.0, np.sqrt(x * x + y * y + z * z))
    return 0.5 * (PAULIS[0] + (x / scale) * PAULIS[1] + (y / scale) * PAULIS[2]
                  + (z / scale) * PAULIS[3])


def action_matrix(op) -> np.ndarray:
    """4x4 superoperator of an intervention, or a stack (..., 4, 4) of them.

    Accepts 2x2 operators K (interpreted as rho -> K rho K†) or precomputed
    4x4 action superoperators (useful for affine combinations of
    operations), singly or as a stack (..., 2, 2) or (..., 4, 4).
    """
    a = np.asarray(op, dtype=complex)
    if a.shape[-2:] == (2, 2):
        return action_superop(a)
    if a.shape[-2:] == (4, 4):
        return a
    raise ValueError(f"bad-dims: cannot interpret operation of shape {a.shape}")


def sequence_vector(ops) -> np.ndarray:
    """256-vector of a two-step sequence: vec(action(A1)) ⊗ vec(action(A0))."""
    check_two_steps(ops, "operations")
    x0 = vec(action_matrix(ops[0]))
    x1 = vec(action_matrix(ops[1]))
    return np.kron(x1, x0)


#: Read-only vec of the fit basis actions (9, 16), the B of the fit.
_BASIS_VECS = vec_stack(action_superop(FIT_BASIS))
_BASIS_VECS.setflags(write=False)


@functools.cache
def _basis_pinv() -> np.ndarray:
    """B+ (16, 9) of the fit basis, from one SVD of B; computed on first use
    and shared, read-only, by every fit and span check."""
    u, svals, vh = np.linalg.svd(_BASIS_VECS)
    pinv = (vh[:len(svals)].conj().T / svals) @ u.conj().T
    pinv.setflags(write=False)
    return pinv


#: Stop of the PSD refit: projected-gradient fixed-point residual of the
#: Choi state, relative to its norm.
REFIT_TOL = 1e-10
#: Proximal parameter of the refit: first value, growth per outer step, cap.
SIGMA_START, SIGMA_GROWTH, SIGMA_MAX = 1e3, 5.0, 1e7
#: Safeguards of the refit; hitting one ends it with converged=False.
NEWTON_MAX_STEPS = 200
LINE_SEARCH_MIN_STEP = 1e-8

#: vec(Pauli)/sqrt(2): an orthonormal basis, in the real inner product, of
#: the vec of Hermitian 2x2 matrices.
_HERM_VECS = vec_stack(PAULIS).T / np.sqrt(2)


class RefitInfo(NamedTuple):
    """Diagnostics of the PSD refit.

    iterations: Newton steps over all proximal subproblems. converged: the
    fixed-point residual fell below REFIT_TOL before a safeguard (Newton step
    cap, line-search floor) was hit. objective: the weighted least squares
    sum_r w_r ||M d_r - t_r||^2 of the returned state. optimality:
    ||Y - P(Y - grad/L)||_F / ||Y||_F, P the PSD projection and L the largest
    eigenvalue of the weighted Gram matrix.
    """

    iterations: int
    converged: bool
    objective: float
    optimality: float


def _cell_means(cells, weights, targets):
    """Weighted totals (nb*nb,) and means (4, nb, nb) of the targets per basis
    pair, nb the size of the fit basis.

    cells[r] = i1 * nb + i0 is record r's basis pair; every pair must occur.
    """
    nb = len(_BASIS_VECS)
    w = np.bincount(cells, weights, nb * nb)
    t = np.zeros((nb * nb, 4), dtype=complex)
    np.add.at(t, cells, weights[:, None] * targets)
    return w, (t / w[:, None]).T.reshape(4, nb, nb)


class _PairGridLeastSquares:
    """The refit objective 1/2 ||A(Y) - b||^2 on the 9x9 grid of basis pairs.

    A record's design row is kron(x1, x0) of two basis action vectors, so a
    map's predictions on the whole grid are B M_k B^T for each output entry k
    (B the 9x16 basis actions, M_k the map's row k as 16x16). Records
    sharing a cell merge into their weighted mean, which changes the
    objective only by the constant `offset`. A sends Hermitian Y to
    Hermitian output entries, so the dual variable has real coordinates
    c (4, 81) on _HERM_VECS in each cell.
    """

    def __init__(self, cells, weights, targets):
        nb = len(_BASIS_VECS)
        w, mean = _cell_means(cells, weights, targets)
        self.sqrt_w = np.sqrt(w).reshape(nb, nb)
        self.b = mean * self.sqrt_w
        self.b_coords = self.to_coords(self.b)
        self.offset = float(np.sum(weights * np.sum(np.abs(targets) ** 2, axis=1))
                            - np.sum(np.abs(self.b) ** 2))
        self._bvh, self._bvc = _BASIS_VECS.conj().T, _BASIS_VECS.conj()
        bb = _BASIS_VECS @ self._bvh
        gram = np.kron(bb, bb) * np.outer(self.sqrt_w, self.sqrt_w)
        self.lipschitz = float(np.linalg.eigvalsh(gram)[-1])
        # A* of the coordinate (mu, cell) is sqrt(w) kron(P_mu, F_i1, F_i0),
        # P_mu = Pauli/sqrt(2) = sum_p d_p u_p u_p† and F_i = f_i f_i† the
        # rank-1 step factors of the conjugate basis actions. They depend on
        # the basis alone but are formed per refit: cached for the life of
        # the process, they left glibc trimming the heap after every Newton
        # step (15 times the page faults, a refit about 20% slower)
        d, u = np.linalg.eigh(np.array(PAULIS) / np.sqrt(2))
        fw, fv = np.linalg.eigh(step_choi_factor(self._bvc))
        f = fv[:, :, -1] * np.sqrt(fw[:, -1:])
        self._factors = np.einsum("map,ib,jc->mpijabc", u, f, f).reshape(4, 2, nb * nb, 32)
        self._factor_weights = (d[:, :, None] * self.sqrt_w.reshape(1, 1, -1)).transpose(0, 2, 1)

    def to_coords(self, lam):
        return (_HERM_VECS.conj().T @ lam.reshape(4, -1)).real

    def from_coords(self, c):
        return (_HERM_VECS @ c).reshape(self.b.shape)

    def forward(self, y):
        """A(Y): weighted grid predictions of the two-step Choi state Y."""
        return (_BASIS_VECS @ choi_to_map(y, 2).reshape(4, 16, 16) @ _BASIS_VECS.T) * self.sqrt_w

    def adjoint(self, lam):
        """A*(lam), Hermitian part (A acts on Hermitian Y)."""
        g = map_to_choi((self._bvh @ (lam * self.sqrt_w) @ self._bvc).reshape(4, 256), 2)
        return (g + g.conj().T) / 2

    def objective(self, y) -> float:
        return float(np.sum(np.abs(self.forward(y) - self.b) ** 2)) + self.offset

    def optimality(self, y) -> float:
        g = self.adjoint(self.forward(y) - self.b)
        moved = project_psd(y - g / self.lipschitz)
        return float(np.linalg.norm(y - moved) / (np.linalg.norm(y) or 1.0))

    def newton_matrix(self, sigma, w, v):
        """I + sigma A J A* in dual coordinates, J the Jacobian of project_psd at V diag(w) V†.

        Entry (i, j) of A J A* is <V† A*(e_i) V, Omega o V† A*(e_j) V>. Omega
        vanishes outside the rows and columns of the positive eigenvalues, so
        only those rows are formed, the mirrored columns counted twice. They
        are formed conjugated, conj(g_pos w) g^T, so that only g_pos is
        copied, not all of g; x x^T multiplies the imaginary parts in pairs,
        so H has the same bytes either way.
        """
        pos = w > 0
        omega = clip_divided_differences(w)[pos]
        omega[:, ~pos] *= 2
        g = (self._factors @ v.conj()).transpose(0, 2, 3, 1)
        rows = g[:, :, pos] * self._factor_weights[:, :, None]
        rows = np.conjugate(rows, out=rows) @ g.swapaxes(-1, -2)
        del g
        rows *= np.sqrt(omega)
        x = rows.reshape(self.b_coords.size, -1).view(float)
        h = x @ x.T
        h *= sigma
        h[np.diag_indices_from(h)] += 1
        return h


def _proximal_dual(problem, y_k, sigma, c):
    """Smooth dual of one proximal subproblem of the refit, at coordinates c.

    The subproblem min_{Y psd} 1/2 ||A(Y) - b||^2 + ||Y - Y_k||^2 / (2 sigma)
    has the dual phi(lam) = 1/2 ||lam||^2 + <lam, b> + ||P(Z)||^2 / (2 sigma),
    Z = Y_k - sigma A*(lam), with gradient lam + b - A(P(Z)) and generalized
    Hessian I + sigma A J A*, J the Jacobian of the PSD projection P at Z. At
    its minimum lam is the weighted residual of Y = P(Z).

    Returns (phi, gradient, Y, eigenvalues of Z, eigenvectors of Z).
    """
    w, v = np.linalg.eigh(y_k - sigma * problem.adjoint(problem.from_coords(c)))
    keep = w > 0
    y = (v[:, keep] * w[keep]) @ v[:, keep].conj().T
    phi = (0.5 * np.sum(c * c) + np.sum(c * problem.b_coords)
           + 0.5 / sigma * float(np.sum(w[keep] ** 2)))
    grad = c + problem.b_coords - problem.to_coords(problem.forward(y))
    return phi, grad, y, w, v


@one_blas_thread()
def _psd_refit_choi(map0, cells, weights, targets):
    """Weighted least-squares refit of the two-step Choi onto the PSD cone.

    Minimizes 1/2 ||A(Y) - b||^2 over PSD Choi states Y, with A(Y) the map's
    predictions on the records' design rows scaled by sqrt(w) and b the
    targets scaled alike, by a proximal point method (Zhao, Sun & Toh, SIAM
    J. Optim. 20, 1737 (2010)). Each outer step adds ||Y - Y_k||^2 /
    (2 sigma) and solves the subproblem through its smooth dual by
    semismooth Newton (Qi & Sun, SIAM J. Matrix Anal. Appl. 28, 360 (2006)),
    warm-started at the previous dual point. The 324x324 Newton system is
    formed and solved directly: a truncated iterative solve leaves rounding
    differences that the ill-conditioned objective turns into
    thread-count-dependent results. A subproblem counts as solved once its
    dual gradient is at most the centre's fixed-point residual times ||b||;
    only then does its primal become the next centre Y_k, and sigma grow
    from SIGMA_START by SIGMA_GROWTH up to SIGMA_MAX. The centres start at
    the clipped Choi state of map0; the refit stops when a centre's
    fixed-point residual falls below REFIT_TOL, or at a safeguard. It runs on
    one BLAS thread, where its 324x324 Gram and solve take as long as on two
    and round alike at any OPENBLAS_NUM_THREADS.

    cells[r] = i1 * 9 + i0 is record r's basis pair. Returns the last centre
    and its RefitInfo.
    """
    problem = _PairGridLeastSquares(cells, weights, targets)
    y = project_psd(map_to_choi(map0, 2))
    c = problem.to_coords(problem.forward(y) - problem.b)
    optimality, sigma, steps, point = problem.optimality(y), SIGMA_START, 0, None
    while optimality >= REFIT_TOL:
        if point is None:  # a new subproblem, centred at y
            gtol = optimality * np.linalg.norm(problem.b)
            point = _proximal_dual(problem, y, sigma, c)
        phi, grad, primal, w, v = point
        if np.linalg.norm(grad) <= gtol:
            y, point, optimality = primal, None, problem.optimality(primal)
            sigma = min(SIGMA_GROWTH * sigma, SIGMA_MAX)
            continue
        if steps == NEWTON_MAX_STEPS:
            break
        d = np.linalg.solve(problem.newton_matrix(sigma, w, v), -grad.reshape(-1)).reshape(c.shape)
        slope = np.sum(grad * d)
        step = 1.0
        while step >= LINE_SEARCH_MIN_STEP:
            trial = _proximal_dual(problem, y, sigma, c + step * d)
            if trial[0] <= phi + 1e-4 * step * slope:
                break
            # phi's decrease is below its rounding: accept a smaller gradient
            if (-step * slope < 1e-13 * abs(phi)
                    and np.linalg.norm(trial[1]) < np.linalg.norm(grad)):
                break
            step /= 2
        else:  # no step accepted above the line-search floor
            break
        c, point, steps = c + step * d, trial, steps + 1
    return y, RefitInfo(steps, bool(optimality < REFIT_TOL), problem.objective(y), optimality)


class RestrictedProcessTensor:
    """Two-step process tensor fitted from projective-intervention records.

    The linear solve is the minimum-norm least-squares solution. The distinct
    design rows of a complete record set are kron(B, B), B the 9x16 basis
    actions of full row rank, so that solution fits each basis pair's mean
    target exactly and takes the closed form M_k = B+ G_k B+^T per output
    entry k, with B+ from one SVD of B and G_k the 9x9 grid of cell means.
    The 175 sequence directions that kron(B, B) annihilates are left free by
    the records; the minimum-norm solution has no component along them, and
    no basis of them is formed.

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
    residual_ : worst training-record residual of map_.
    choi_ : 32x32 PSD Choi state of the refined tensor (only when psd=True).
    refit_info_ : RefitInfo of the PSD refit (Newton steps, converged,
        weighted objective, fixed-point residual), or None when psd=False.
    """

    def __init__(self, psd: bool = False):
        self.psd = psd

    # -- fitting ---------------------------------------------------------
    def fit(self, records) -> "RestrictedProcessTensor":
        """Fit to a record array of records_from_arrays holding every basis pair."""
        nb = len(FIT_BASIS_LABELS)
        i0, i1 = records.basis_indices.T
        cells = i1 * nb + i0
        # the pairs (i0, i1) no record holds, in row-major order
        missing = np.argwhere(np.bincount(cells, minlength=nb * nb).reshape(nb, nb).T == 0)
        if len(missing):
            raise ValueError(
                f"incomplete-records: {len(missing)} basis combinations missing, "
                f"first {tuple(missing[0].tolist())}"
            )
        # record r's design row is kron(B[i1], B[i0]); the closed form of the
        # class docstring needs only B+
        p = records.p_joint
        targets = p[:, None] * vec_stack(records.rho_measured)
        pinv = _basis_pinv()
        _, grid = _cell_means(cells, np.ones(len(records)), targets)
        self.map_ = (pinv @ grid @ pinv.T).reshape(4, 256)
        if self.psd:
            weights = 1.0 / np.sqrt(np.maximum(p, 0.05**2))
            self.choi_, self.refit_info_ = _psd_refit_choi(self.map_, cells, weights, targets)
            self.map_ = choi_to_map(self.choi_, 2)
        else:
            self.choi_ = None
            self.refit_info_ = None
        predicted = _BASIS_VECS @ self.map_.reshape(4, 16, 16) @ _BASIS_VECS.T
        self.residual_ = float(np.abs(predicted[:, i1, i0].T - targets).max())
        return self

    def _require_fitted(self):
        if not hasattr(self, "map_"):
            raise ValueError("not-fitted: call fit(records) first")

    def _checked_action_vecs(self, op):
        """vec of each operation's action, checked to lie in the span of the
        basis actions: x B+ B is its orthogonal projection onto that span."""
        x = vec_stack(action_matrix(op))
        resid = np.linalg.norm(x - (x @ _basis_pinv()) @ _BASIS_VECS, axis=-1)
        worst = float(np.max(resid, initial=0.0))
        if worst > SPAN_TOL:
            raise ValueError(
                f"outside-span: operation expansion residual {worst:.3e} > {SPAN_TOL:g}"
            )
        return x

    # -- prediction ------------------------------------------------------
    def predict(self, steps):
        """Predict (states, p_joint) for one two-operation sequence or a stack of them.

        steps holds one operation or a stack of them per step, in any form
        action_matrix takes; the stacks broadcast as in process.run_process,
        and stacks that do not raise "bad-dims". Each operation must lie in
        the span of the projector-action basis (all rank-1 projectors do).
        The states are PSD-projected and unit-trace, maximally mixed where
        p_joint is below linalg.BRANCH_CUTOFF; p_joint is clipped at 0.
        """
        self._require_fitted()
        ops = check_broadcast(check_two_steps(steps, "operations"), "operations")
        x0, x1 = (self._checked_action_vecs(op) for op in ops)
        raw = np.einsum("kab,...a,...b->...k", self.map_.reshape(4, 16, 16), x1, x0)
        return normalized_psd(unvec(raw))

    def contract_first_step(self, op) -> np.ndarray:
        """One-step map over the remaining intervention, first step fixed.

        Returns the (4, 16) matrix sending a vectorized step-1 action to the
        vec of the (subnormalized) output state; a stack of first-step
        operations gives a stack (..., 4, 16).
        """
        self._require_fitted()
        x0 = self._checked_action_vecs(op)
        t3 = self.map_.reshape(4, 16, 16)
        return np.einsum("kab,...b->...ka", t3, x0)


# -- record serialization -------------------------------------------------

def records_to_text(records) -> str:
    """One record per line: labels, p_joint, then row-major re/im state entries."""
    states = np.ascontiguousarray(records.rho_measured).reshape(-1, 4).view(float)
    rows = ((FIT_BASIS_LABELS[i0], FIT_BASIS_LABELS[i1], p, *state)
            for (i0, i1), p, state in zip(records.basis_indices, records.p_joint, states))
    return format_rows([], rows, " ")


def records_from_text(text: str) -> np.recarray:
    """Records of records_to_text's format; blank lines and # comments are skipped."""
    label_index = {l: i for i, l in enumerate(FIT_BASIS_LABELS)}
    indices, values = [], []
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
        try:
            values.append([float(v) for v in parts[2:]])
        except ValueError:
            raise ValueError(f"bad-record: non-numeric field in {line!r}") from None
        indices.append((label_index[l0], label_index[l1]))
    v = np.array(values, dtype=float).reshape(-1, 9)
    rho = (v[:, 1::2] + 1j * v[:, 2::2]).reshape(-1, 2, 2)
    return records_from_arrays(np.array(indices, dtype=np.intp).reshape(-1, 2), rho, v[:, 0])
