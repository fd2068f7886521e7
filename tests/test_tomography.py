import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eigen_qst_six_axis,
    fit_basis_constants,
    newton_matrix,
    random_density,
    six_axis_probabilities,
)
from proctensor.channels import (
    action_superop,
    chi_from_process,
    chi_of_operator,
    choi_to_map,
    map_to_choi,
)
from proctensor.linalg import BRANCH_CUTOFF, project_psd, vec
from proctensor.process import (
    ShotConfig,
    intervention_qpt_data,
    markov_predict,
    run_process,
)
from proctensor.qubit import (
    FIT_BASIS_LABELS,
    OVERCOMPLETE_LABELS,
    PROJECTOR_ANGLES,
    named_projector,
    projector,
    state_fidelity,
)
from proctensor.tomography import (
    RestrictedProcessTensor,
    qst_six_axis,
    records_from_arrays,
    records_from_text,
    records_to_text,
    sequence_vector,
)


# ------------------------------------------------------------------ QST

def test_qst_ground_state():
    rho = qst_six_axis([0.5, 0.5, 0.5, 0.5, 1.0, 0.0])
    assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12


def test_qst_plus_state():
    rho = qst_six_axis([1.0, 0.0, 0.5, 0.5, 0.5, 0.5])
    assert np.abs(rho - np.array([[0.5, 0.5], [0.5, 0.5]])).max() < 1e-12


def test_qst_exact_inversion():
    target = np.array([[0.7, 0.15], [0.15, 0.3]], dtype=complex)  # (I + .3x + .4z)/2
    rho = qst_six_axis(six_axis_probabilities(target))
    assert np.abs(rho - target).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_qst_round_trip_random_states(seed):
    rho = random_density(seed)
    back = qst_six_axis(six_axis_probabilities(rho))
    assert np.abs(back - rho).max() < 1e-10


def test_qst_rejects_inconsistent_pairs():
    with pytest.raises(ValueError, match="inconsistent-probs"):
        qst_six_axis([0.9, 0.3, 0.5, 0.5, 0.5, 0.5])


def test_qst_rejects_bad_range():
    with pytest.raises(ValueError, match="inconsistent-probs"):
        qst_six_axis([1.2, -0.2, 0.5, 0.5, 0.5, 0.5])


@pytest.mark.parametrize("probs", [[np.nan] * 6, [0.5, 0.5, np.nan, 0.5, 1.0, 0.0],
                                   [[0.5] * 6, [0.5, 0.5, 0.5, 0.5, np.inf, 0.0]]])
def test_qst_rejects_non_finite(probs):
    # every range and pair-sum test reads False on NaN, so without this
    # check a NaN entry gave a NaN state
    with pytest.raises(ValueError, match="^non-finite"):
        qst_six_axis(probs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                          st.floats(-0.05, 0.05)), min_size=0, max_size=6))
def test_stacked_qst_equals_per_state(rows):
    probs = np.array([
        [x, 1 - x, y, 1 - y, min(max(z + e, 0.0), 1.0), 1 - z] for x, y, z, e in rows
    ]).reshape(-1, 6)
    out = qst_six_axis(probs)
    assert out.shape == (len(probs), 2, 2)
    for p, got in zip(probs, out):
        assert np.array_equal(got, qst_six_axis(list(p)))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.floats(0, 1)] * 3), st.floats(-0.05, 0.05))
def test_closed_form_qst_equals_eigen_route(bloch, slack):
    # the closed form ½(I + r·σ / max(1, |r|)) is the clipped and renormalized
    # linear inverse, inside the Bloch ball and outside it (|r| up to √3)
    x, y, z = bloch
    p = [x, 1 - x, y, 1 - y, min(max(z + slack, 0.0), 1.0), 1 - z]
    rho = qst_six_axis(p)
    assert np.abs(rho - eigen_qst_six_axis(p)).max() <= 1e-14
    assert np.abs(rho - rho.conj().T).max() == 0.0
    assert np.linalg.eigvalsh(rho)[0] >= -1e-15
    assert abs(np.trace(rho).real - 1.0) <= 1e-15


def test_stacked_qst_checks_every_row():
    good = [0.5, 0.5, 0.5, 0.5, 1.0, 0.0]
    with pytest.raises(ValueError, match="inconsistent-probs: y-axis pair sums to 1.3000"):
        qst_six_axis([good, [0.5, 0.5, 0.9, 0.4, 0.5, 0.5]])
    with pytest.raises(ValueError, match="outside"):
        qst_six_axis([[good, good], [good, [1.2, -0.2, 0.5, 0.5, 0.5, 0.5]]])
    with pytest.raises(ValueError, match="bad-dims"):
        qst_six_axis(np.zeros((2, 5)))


# ------------------------------------------------------------------ QPT

def test_qpt_identity_process():
    inputs, _ = intervention_qpt_data([PROJECTOR_ANGLES["z+"]])
    # replace with identity-process data
    chi = chi_from_process(inputs, inputs[None])[0]
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(chi - expected).max() < 1e-10


def test_qpt_ideal_y_minus():
    inputs, outputs = intervention_qpt_data([PROJECTOR_ANGLES["y-"]])
    chi = chi_from_process(inputs, outputs)[0, 0]
    assert np.abs(chi - chi_of_operator(named_projector("y-"))).max() < 1e-10


# ------------------------------------------------------------- records

def one_record(indices=(0, 0), rho=np.eye(2) / 2, p=0.5):
    """records_from_arrays of the single record (indices, rho, p)."""
    return records_from_arrays([indices], [rho], [p])


def test_record_validation():
    with pytest.raises(ValueError, match="bad-dims"):
        one_record(indices=(0, 99))
    with pytest.raises(ValueError, match="bad-probability"):
        one_record(p=1.5)
    with pytest.raises(ValueError, match="not-psd"):
        one_record(rho=np.diag([1.0, -0.4]))
    # a stack is checked as a whole: the first failing record is named, and
    # an earlier check fails first wherever its record sits
    indices, p = np.zeros((5, 2), dtype=int), np.full(5, 0.5)
    states = np.tile(np.eye(2) / 2, (5, 1, 1))
    states[3] = np.diag([1.0, -0.4])
    with pytest.raises(ValueError, match="^not-psd: state of record 3 "):
        records_from_arrays(indices, states, p)
    p[4] = 1.5
    with pytest.raises(ValueError, match="^bad-probability: p_joint=1.5 of record 4$"):
        records_from_arrays(indices, states, p)


def test_record_rejects_non_qubit_state_and_non_integer_indices():
    # either would construct, then fail in the fit or not read back from text
    with pytest.raises(ValueError, match="bad-dims"):
        one_record(rho=np.eye(4) / 4)
    for indices in ((0.5, 1), (0, 1.0), (0,), (0, 1, 2)):
        with pytest.raises(ValueError, match="bad-dims"):
            one_record(indices=indices)
    rec = one_record(indices=(np.int64(2), 3))
    assert np.array_equal(rec.basis_indices, [[2, 3]])
    assert records_to_text(rec).split()[:2] == [FIT_BASIS_LABELS[2], FIT_BASIS_LABELS[3]]


def test_records_serialization_round_trip(cnot_cz_records):
    text = records_to_text(cnot_cz_records)
    back = records_from_text(text)
    assert len(back) == len(cnot_cz_records)
    for a, b in zip(cnot_cz_records, back):
        assert np.array_equal(a.basis_indices, b.basis_indices)
        assert a.p_joint == b.p_joint
        assert np.array_equal(a.rho_measured, b.rho_measured)


def test_records_text_ignores_comments(cnot_cz_records):
    text = "# comment\n\n" + records_to_text(cnot_cz_records[:2])
    assert len(records_from_text(text)) == 2


def test_records_text_rejects_malformed_lines(cnot_cz_records):
    good = records_to_text(cnot_cz_records[:1]).split()
    cases = {
        "bad-record": " ".join(good[:-1]),                 # ten fields
        "bad-label": " ".join(["w+"] + good[1:]),          # unknown label
        "bad-record: non-numeric": " ".join(good[:3] + ["one"] + good[4:]),
        "not-psd": " ".join(good[:3] + ["-0.4"] + good[4:]),           # first diagonal entry
        "bad-probability": " ".join(good[:2] + ["1.5"] + good[3:]),
        "non-finite": " ".join(good[:4] + ["nan"] + good[5:]),         # imaginary part of entry 0
    }
    for prefix, line in cases.items():
        with pytest.raises(ValueError, match=f"^{prefix}"):
            records_from_text(line + "\n")


# ------------------------------------------------------------- fitting

def test_fit_requires_all_combinations(cnot_cz_records):
    with pytest.raises(ValueError, match="incomplete-records"):
        RestrictedProcessTensor().fit(cnot_cz_records[:-1])


def test_fit_training_residual(cnot_cz_fit):
    assert cnot_cz_fit.residual_ <= 1e-8


def test_fit_reproduces_training_records(cnot_cz_fit, cnot_cz_records):
    for rec in cnot_cz_records[::7]:
        ops = [named_projector(FIT_BASIS_LABELS[i]) for i in rec.basis_indices]
        rho, p = cnot_cz_fit.predict(ops)
        assert abs(p - rec.p_joint) < 1e-9
        if p >= BRANCH_CUTOFF and rec.p_joint > 1e-9:
            assert state_fidelity(rho, rec.rho_measured) >= 1 - 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 40))
def test_grid_fit_equals_explicit_least_squares(seed, duplicates):
    # a complete record set in shuffled order, some cells repeated with other
    # states: the Kronecker closed form against lstsq on the explicit design
    rng = np.random.default_rng(seed)
    nb = len(FIT_BASIS_LABELS)
    cells = np.concatenate([np.arange(nb * nb), rng.integers(0, nb * nb, duplicates)])
    indices, states, p = [], [], []
    for cell in rng.permutation(cells):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        indices.append((cell % nb, cell // nb))
        states.append(rho / np.trace(rho).real)
        p.append(rng.random())
    records = records_from_arrays(indices, states, p)
    fit = RestrictedProcessTensor().fit(records)
    design, targets, _ = _refit_problem(records)
    ref = np.linalg.lstsq(design, targets, rcond=None)[0].T
    # lstsq's solution is the minimum-norm one
    assert np.linalg.norm(fit.map_ - ref) <= 1e-12 * np.linalg.norm(ref)
    assert abs(fit.residual_ - np.abs(design @ ref.T - targets).max()) < 1e-12


def test_fit_basis_constants_are_shared_and_read_only(cnot_cz_spec):
    # B+ depends on the basis alone and is formed once, read-only, with the
    # bytes the per-fit formula gives; x B+ B, the span check's projection,
    # is the orthogonal projection onto orthonormal columns spanning B's rows
    from proctensor.process import generate_records
    from proctensor.tomography import _BASIS_VECS, _basis_pinv

    pinv = _basis_pinv()
    RestrictedProcessTensor().fit(generate_records(cnot_cz_spec, ShotConfig(shots=400, seed=2)))
    assert _basis_pinv() is pinv
    ref, span_q = fit_basis_constants(_BASIS_VECS)
    assert pinv.shape == ref.shape and pinv.tobytes() == ref.tobytes()
    assert not pinv.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pinv[...] = 0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 16)) + 1j * rng.normal(size=(20, 16))
    projected = (x @ span_q.conj()) @ span_q.T
    assert np.abs((x @ pinv) @ _BASIS_VECS - projected).max() < 1e-13


def test_predict_requires_fit():
    with pytest.raises(ValueError, match="not-fitted"):
        RestrictedProcessTensor().predict([named_projector("z+")] * 2)


# ---------------------------------------------------------- prediction

def test_oracle_equivalence_cnot_cz(cnot_cz_spec, cnot_cz_fit):
    for l0 in OVERCOMPLETE_LABELS:
        for l1 in OVERCOMPLETE_LABELS:
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(cnot_cz_spec, ops)
            if p < 1e-9:
                continue
            rho, p_hat = cnot_cz_fit.predict(ops)
            assert state_fidelity(truth, rho) >= 1 - 1e-6, (l0, l1)
            assert abs(p_hat - p) < 1e-8


def test_oracle_equivalence_and_markov_cz_cnot(cz_cnot_spec, cz_cnot_fit):
    for l0 in OVERCOMPLETE_LABELS[::3]:
        for l1 in OVERCOMPLETE_LABELS[::3]:
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(cz_cnot_spec, ops)
            if p < 1e-9:
                continue
            rho, _ = cz_cnot_fit.predict(ops)
            assert state_fidelity(truth, rho) >= 1 - 1e-6, (l0, l1)
            baseline, _ = markov_predict(cz_cnot_spec, ops)
            assert state_fidelity(truth, baseline) >= 1 - 1e-6, (l0, l1)


def test_forbidden_pair_prediction(cnot_cz_fit):
    rho, p = cnot_cz_fit.predict([named_projector("z+"), named_projector("z-")])
    assert p <= 1e-9
    assert p < BRANCH_CUTOFF and np.array_equal(rho, np.eye(2) / 2)


def test_outside_span_rejected(cnot_cz_fit):
    # discard-and-reprepare is not in the projector-action span
    trash = np.outer(vec(np.diag([1.0, 0.0])), vec(np.eye(2)).conj())
    with pytest.raises(ValueError, match="outside-span"):
        cnot_cz_fit.predict([trash, named_projector("z+")])


def test_multilinearity_on_subnormalized_outputs(cnot_cz_fit):
    a = action_superop(named_projector("xz+"))
    b = action_superop(named_projector("y-"))
    fixed = named_projector("x+")
    alpha, beta = 0.3, 1.1

    def raw(step_op):
        x = sequence_vector([step_op, fixed])
        return cnot_cz_fit.map_ @ x

    combo = raw(alpha * a + beta * b)
    split = alpha * raw(a) + beta * raw(b)
    assert np.abs(combo - split).max() < 1e-9


def test_containment_property(cnot_cz_spec, cnot_cz_fit):
    # fixing the first step inside the two-step fit matches a direct
    # one-step fit over the matching record subset
    for l0 in FIT_BASIS_LABELS[::2]:
        p0 = named_projector(l0)
        contracted = cnot_cz_fit.contract_first_step(p0)
        rows, targets = [], []
        for l1 in FIT_BASIS_LABELS:
            rho, p = run_process(cnot_cz_spec, [p0, named_projector(l1)])
            rows.append(vec(action_superop(named_projector(l1))))
            targets.append(p * vec(rho))
        direct, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
        assert np.abs(contracted - direct.T).max() < 1e-8, l0


def test_psd_refit_keeps_choi_positive(cnot_cz_spec):
    cfg = ShotConfig(shots=500, seed=3)
    from proctensor.process import generate_records

    records = generate_records(cnot_cz_spec, cfg)
    fit = RestrictedProcessTensor(psd=True).fit(records)
    assert fit.choi_ is not None
    w = np.linalg.eigvalsh(fit.choi_)
    assert w.min() > -1e-10


#: Weighted objective of the projected-gradient (FISTA) refit this solver
#: replaced, on the 500-shot seed-3 cnot-cz records.
FISTA_OBJECTIVE_500_3 = 0.0414345902


def _refit_problem(records):
    """Design, targets and weights of the refit, built from the records directly."""
    basis = [named_projector(l) for l in FIT_BASIS_LABELS]
    design = np.array(
        [sequence_vector([basis[r.basis_indices[0]], basis[r.basis_indices[1]]]) for r in records]
    )
    targets = np.array([r.p_joint * vec(r.rho_measured) for r in records])
    w = np.array([1.0 / max(np.sqrt(r.p_joint), 0.05) for r in records])
    return design, targets, w


def test_psd_refit_is_optimal(cnot_cz_spec, cnot_cz_fit):
    # projected-gradient fixed point of the weighted least squares on the PSD cone
    from proctensor.process import generate_records

    records = generate_records(cnot_cz_spec, ShotConfig(shots=500, seed=3))
    fit = RestrictedProcessTensor(psd=True).fit(records)
    info = fit.refit_info_
    assert info.converged and info.iterations > 0
    design, targets, w = _refit_problem(records)
    gram = (design.T * w) @ design.conj()
    rhs = (targets.T * w) @ design.conj()
    y = fit.choi_
    g = map_to_choi(choi_to_map(y, 2) @ gram - rhs, 2)
    step = 1.0 / np.linalg.eigvalsh(gram)[-1]
    moved = project_psd(y - step * (g + g.conj().T) / 2)
    residual = np.linalg.norm(y - moved) / np.linalg.norm(y)
    assert residual < 1e-8
    assert info.optimality < 1e-8 and abs(info.optimality - residual) < 1e-12
    objective = float(np.sum(w * np.sum(np.abs(design @ fit.map_.T - targets) ** 2, axis=1)))
    assert abs(info.objective - objective) <= 1e-12 * objective
    assert abs(fit.residual_ - np.abs(design @ fit.map_.T - targets).max()) < 1e-12
    assert info.objective <= FISTA_OBJECTIVE_500_3
    assert cnot_cz_fit.refit_info_ is None


def test_refit_newton_matrix_matches_operator(cnot_cz_spec):
    # the directly formed Newton matrix equals I + sigma A J A* applied
    # matrix-free, with J from the divided differences of eigenvalue clipping
    from proctensor.linalg import clip_divided_differences
    from proctensor.process import generate_records
    from proctensor.tomography import _PairGridLeastSquares

    records = generate_records(cnot_cz_spec, ShotConfig(shots=400, seed=2))
    design, targets, w = _refit_problem(records)
    cells = np.array([i1 * 9 + i0 for i0, i1 in (r.basis_indices for r in records)])
    problem = _PairGridLeastSquares(cells, w, targets)
    rng = np.random.default_rng(5)
    # forward/adjoint: the record predictions, and adjoint in the real inner product
    m = rng.normal(size=(4, 256)) + 1j * rng.normal(size=(4, 256))
    y = map_to_choi(m, 2)
    y = (y + y.conj().T) / 2
    pred = (choi_to_map(y, 2) @ design.T) * np.sqrt(w)
    grid = problem.forward(y).reshape(4, 81)[:, cells]
    assert np.abs(grid - pred).max() < 1e-12
    c = rng.normal(size=(4, 81))
    lam = problem.from_coords(c)
    assert abs(np.vdot(problem.forward(y), lam).real - np.vdot(y, problem.adjoint(lam)).real) < 1e-10
    vals, vecs = np.linalg.eigh(y)
    omega = clip_divided_differences(vals)
    sigma = 7.0

    def apply(coords):
        h = problem.adjoint(problem.from_coords(coords))
        jh = vecs @ (omega * (vecs.conj().T @ h @ vecs)) @ vecs.conj().T
        return coords + sigma * problem.to_coords(problem.forward(jh))

    newton = problem.newton_matrix(sigma, vals, vecs)
    scale = np.abs(newton).max()
    for d in rng.normal(size=(3, 4, 81)):
        assert np.abs(newton @ d.reshape(-1) - apply(d).reshape(-1)).max() < 1e-12 * scale
    assert np.allclose(newton, newton.T, rtol=0, atol=1e-12 * scale)


def test_refit_newton_matrix_keeps_its_bytes(cnot_cz_spec):
    # the rows are formed conjugated and the Gram scaled in place; the matrix
    # keeps the bytes of the unconjugated formula, at the refit's own points
    # (a partial positive set) and at fully positive and fully clipped ones
    from proctensor.process import generate_records
    from proctensor.tomography import _PairGridLeastSquares

    records = generate_records(cnot_cz_spec, ShotConfig(shots=400, seed=2))
    design, targets, w = _refit_problem(records)
    cells = np.array([i1 * 9 + i0 for i0, i1 in (r.basis_indices for r in records)])
    problem = _PairGridLeastSquares(cells, w, targets)
    y0 = map_to_choi(RestrictedProcessTensor().fit(records).map_, 2)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    points = [(y0 + y0.conj().T) / 2, a @ a.conj().T, -a @ a.conj().T]
    for sigma, y in zip((1e3, 5e3, 1e5), points):
        vals, vecs = np.linalg.eigh(y)
        newton = problem.newton_matrix(sigma, vals, vecs)
        ref = newton_matrix(problem, sigma, vals, vecs)
        assert newton.tobytes() == ref.tobytes()


def test_refit_converges_on_high_shot_records(cnot_cz_spec, cz_cnot_spec):
    # records of 3e4 shots: the refit reaches REFIT_TOL inside the step cap
    from proctensor.process import generate_records
    from proctensor.tomography import REFIT_TOL

    records = generate_records(cnot_cz_spec, ShotConfig(shots=30_000, seed=1))
    info = RestrictedProcessTensor(psd=True).fit(records).refit_info_
    assert info.converged
    assert info.optimality < REFIT_TOL
    # and of 3e5 shots, where a proximal weight capped at 1e5 stopped the
    # refit at its step cap
    records = generate_records(cz_cnot_spec, ShotConfig(shots=300_000, seed=1))
    info = RestrictedProcessTensor(psd=True).fit(records).refit_info_
    assert info.converged
    assert info.optimality < REFIT_TOL


#: Newton steps of the four 3000-shot refits below (36 + 35 + 35 + 37), at 1
#: and at 2 BLAS threads; a change that makes the refit take more fails here.
REFIT_STEPS_3000 = 143


def test_refit_newton_steps_stay_within_budget(cnot_cz_spec, cz_cnot_spec):
    # the shot-refit benchmark's records: both orders at 3000 shots, seeds 0 and 1
    from proctensor.process import generate_records

    infos = [RestrictedProcessTensor(psd=True).fit(
                 generate_records(spec, ShotConfig(shots=3000, seed=seed))).refit_info_
             for spec in (cnot_cz_spec, cz_cnot_spec) for seed in (0, 1)]
    assert all(info.converged for info in infos), infos
    assert sum(info.iterations for info in infos) <= REFIT_STEPS_3000, infos


def test_refit_step_cap_reports_unconverged(cnot_cz_spec, monkeypatch):
    # each safeguard ends the refit unconverged at its last proximal centre:
    # the Newton step cap after 1-3 steps, and a line-search floor of 0.75 at
    # the first step, whose Armijo test fails at the full step. No subproblem
    # is solved by then, so the centre is the clipped start (objective 6.05),
    # not the zero primal of the unsolved subproblem (objective 13.73)
    from proctensor import tomography
    from proctensor.process import generate_records

    records = generate_records(cnot_cz_spec, ShotConfig(shots=400, seed=2))
    linear_fit = RestrictedProcessTensor().fit(records)
    start = project_psd(map_to_choi(linear_fit.map_, 2))
    design, targets, w = _refit_problem(records)
    residuals = design @ choi_to_map(start, 2).T - targets
    start_objective = float(np.sum(w * np.sum(np.abs(residuals) ** 2, axis=1)))
    assert abs(start_objective - 6.0502) < 1e-4

    def capped_fit(name, value):
        with monkeypatch.context() as patch:
            patch.setattr(tomography, name, value)
            return RestrictedProcessTensor(psd=True).fit(records)

    for name, value, iterations in (("NEWTON_MAX_STEPS", 1, 1), ("NEWTON_MAX_STEPS", 2, 2),
                                    ("NEWTON_MAX_STEPS", 3, 3), ("LINE_SEARCH_MIN_STEP", 0.75, 0)):
        fit = capped_fit(name, value)
        info = fit.refit_info_
        assert info.iterations == iterations and not info.converged, (name, value)
        assert info.optimality > tomography.REFIT_TOL, (name, value)
        assert fit.choi_.tobytes() == start.tobytes(), (name, value)
        assert abs(info.objective - start_objective) <= 1e-12 * start_objective, (name, value)
    # a later cap returns a later centre: never above the start, never rising
    objectives = [capped_fit("NEWTON_MAX_STEPS", cap).refit_info_.objective
                  for cap in (10, 20, 30, 45)]
    assert max(objectives) <= start_objective
    assert all(b <= a for a, b in zip(objectives, objectives[1:])), objectives


def test_sequence_vector_shape():
    ops = [named_projector("z+"), named_projector("x+")]
    assert sequence_vector(ops).shape == (256,)
    with pytest.raises(ValueError, match="bad-sequence"):
        sequence_vector([named_projector("z+")])
