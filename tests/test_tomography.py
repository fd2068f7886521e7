import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctensor.channels import action_superop, chi_fidelity, chi_of_operator
from proctensor.linalg import vec
from proctensor.process import (
    ShotConfig,
    intervention_qpt_data,
    markov_predict,
    reduced_step_maps,
    run_process,
)
from proctensor.qubit import (
    FIT_BASIS_LABELS,
    OVERCOMPLETE_LABELS,
    named_projector,
    projector,
    state_fidelity,
)
from proctensor.tomography import (
    RestrictedProcessTensor,
    TomoRecord,
    fit_restricted_tensor,
    qpt_chi,
    qst_six_axis,
    records_from_text,
    records_to_text,
    sequence_vector,
    six_axis_probabilities,
)


def random_density(seed, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


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


# ------------------------------------------------------------------ QPT

def test_qpt_identity_process():
    inputs, outputs = intervention_qpt_data(named_projector("z+"))
    # replace with identity-process data
    ident = [r.copy() for r in inputs]
    chi = qpt_chi(inputs, ident)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(chi - expected).max() < 1e-10


def test_qpt_ideal_y_minus():
    op = named_projector("y-")
    inputs, outputs = intervention_qpt_data(op)
    chi = qpt_chi(inputs, outputs)
    assert np.abs(chi - chi_of_operator(op.mat)).max() < 1e-10


def test_qpt_sampled_fidelity_band():
    cfg = ShotConfig(shots=3000, seed=7)
    for run_tag, label in enumerate(FIT_BASIS_LABELS):
        op = named_projector(label)
        inputs, outputs = intervention_qpt_data(op, cfg, run_tag=run_tag)
        chi = qpt_chi(inputs, outputs, psd=True)
        fid = chi_fidelity(chi, chi_of_operator(op.mat))
        assert 0.95 <= fid <= 1.0, (label, fid)


# ------------------------------------------------------------- records

def test_record_validation():
    with pytest.raises(ValueError, match="bad-dims"):
        TomoRecord((0, 99), np.eye(2) / 2, 0.5)
    with pytest.raises(ValueError, match="bad-probability"):
        TomoRecord((0, 0), np.eye(2) / 2, 1.5)
    with pytest.raises(ValueError, match="not-psd"):
        TomoRecord((0, 0), np.diag([1.0, -0.4]), 0.5)


def test_records_serialization_round_trip(cnot_cz_records):
    text = records_to_text(cnot_cz_records)
    back = records_from_text(text)
    assert len(back) == len(cnot_cz_records)
    for a, b in zip(cnot_cz_records, back):
        assert a.basis_indices == b.basis_indices
        assert a.p_joint == b.p_joint
        assert np.array_equal(a.rho_measured, b.rho_measured)


def test_records_text_ignores_comments(cnot_cz_records):
    text = "# comment\n\n" + records_to_text(cnot_cz_records[:2])
    assert len(records_from_text(text)) == 2


# ------------------------------------------------------------- fitting

def test_fit_requires_all_combinations(cnot_cz_records):
    with pytest.raises(ValueError, match="incomplete-records"):
        fit_restricted_tensor(cnot_cz_records[:-1])


def test_fit_training_residual(cnot_cz_fit):
    assert cnot_cz_fit.residual_ <= 1e-8


def test_fit_kernel_dimensions(cnot_cz_fit):
    assert cnot_cz_fit.kernel_basis_.shape == (175, 256)
    basis = [named_projector(l) for l in FIT_BASIS_LABELS]
    for i0 in (0, 4):
        for i1 in (2, 8):
            x = sequence_vector([basis[i0], basis[i1]])
            prods = cnot_cz_fit.kernel_basis_ @ x
            assert np.abs(prods).max() < 1e-8


def test_fit_reproduces_training_records(cnot_cz_fit, cnot_cz_records):
    for rec in cnot_cz_records[::7]:
        ops = [named_projector(l) for l in rec.labels]
        rho, p = cnot_cz_fit.predict(ops)
        assert abs(p - rec.p_joint) < 1e-9
        if rho is not None and rec.p_joint > 1e-9:
            assert state_fidelity(rho, rec.rho_measured) >= 1 - 1e-8


def test_estimator_params_round_trip():
    est = RestrictedProcessTensor(psd=True)
    assert est.get_params() == {"psd": True}
    est.set_params(psd=False)
    assert est.get_params() == {"psd": False}
    with pytest.raises(ValueError, match="bad-param"):
        est.set_params(unknown=1)


def test_predict_requires_fit():
    with pytest.raises(ValueError, match="not-fitted"):
        RestrictedProcessTensor().predict([named_projector("z+")] * 2)


# ---------------------------------------------------------- prediction

def test_oracle_equivalence_cnot_cz(cnot_cz_spec, cnot_cz_fit):
    for l0 in OVERCOMPLETE_LABELS:
        for l1 in OVERCOMPLETE_LABELS:
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(cnot_cz_spec, ops)
            if truth is None or p < 1e-9:
                continue
            rho, p_hat = cnot_cz_fit.predict(ops)
            assert state_fidelity(truth, rho) >= 1 - 1e-6, (l0, l1)
            assert abs(p_hat - p) < 1e-8


def test_oracle_equivalence_and_markov_cz_cnot(cz_cnot_spec, cz_cnot_fit):
    reduced = reduced_step_maps(cz_cnot_spec)
    for l0 in OVERCOMPLETE_LABELS[::3]:
        for l1 in OVERCOMPLETE_LABELS[::3]:
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(cz_cnot_spec, ops)
            if truth is None or p < 1e-9:
                continue
            rho, _ = cz_cnot_fit.predict(ops)
            assert state_fidelity(truth, rho) >= 1 - 1e-6, (l0, l1)
            baseline = markov_predict(cz_cnot_spec, ops, reduced)
            assert state_fidelity(truth, baseline) >= 1 - 1e-6, (l0, l1)


def test_forbidden_pair_prediction(cnot_cz_fit):
    rho, p = cnot_cz_fit.predict([named_projector("z+"), named_projector("z-")])
    assert p <= 1e-9
    assert rho is None


def test_outside_span_rejected(cnot_cz_fit):
    # discard-and-reprepare is not in the projector-action span
    trash = np.outer(vec(np.diag([1.0, 0.0])), vec(np.eye(2)).conj())
    with pytest.raises(ValueError, match="outside-span"):
        cnot_cz_fit.predict([trash, named_projector("z+")])


def test_multilinearity_on_subnormalized_outputs(cnot_cz_fit):
    a = action_superop(named_projector("xz+").mat)
    b = action_superop(named_projector("y-").mat)
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
            ops = [p0, named_projector(l1)]
            rho, p = run_process(cnot_cz_spec, ops)
            rows.append(vec(action_superop(named_projector(l1).mat)))
            targets.append(p * vec(rho if rho is not None else np.eye(2) / 2))
        direct, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
        assert np.abs(contracted - direct.T).max() < 1e-8, l0


def test_psd_refit_keeps_choi_positive(cnot_cz_spec):
    cfg = ShotConfig(shots=500, seed=3)
    from proctensor.process import generate_records

    records = generate_records(cnot_cz_spec, cfg)
    fit = fit_restricted_tensor(records, psd=True)
    assert fit.choi_ is not None
    w = np.linalg.eigvalsh(fit.choi_)
    assert w.min() > -1e-10


def test_sequence_vector_shape():
    ops = [named_projector("z+"), named_projector("x+")]
    assert sequence_vector(ops).shape == (256,)
    with pytest.raises(ValueError, match="bad-sequence"):
        sequence_vector([named_projector("z+")])
