import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctensor.linalg import kron, partial_trace
from proctensor.process import (
    MAX_SHOTS,
    ProcessSpec,
    ShotConfig,
    _derived_rng,
    _sampled_states,
    _stage_probabilities,
    _staged_counts,
    cnot_cz_process,
    cz_cnot_process,
    first_step_env_marginal,
    generate_records,
    intervention_qpt_data,
    markov_predict,
    reduced_step_maps,
    run_process,
)
from proctensor.qubit import (
    CNOT,
    CZ,
    FIT_BASIS_LABELS,
    ID2,
    QST_AXES,
    SX,
    SY,
    SZ,
    NoiseSpec,
    apply_noise,
    named_projector,
    projector,
    state_fidelity,
)
from proctensor.tomography import P_JOINT_CUTOFF, qst_six_axis

angles = st.floats(0.05, math.pi - 0.05, allow_nan=False)
phases = st.floats(-math.pi, math.pi, allow_nan=False)


# ------------------------------------------------------------- validation

def test_spec_rejects_nonunitary():
    with pytest.raises(ValueError, match="not-unitary"):
        ProcessSpec(interactions=(np.eye(4) * 2,))


def test_spec_rejects_unnormalized_initial_state():
    with pytest.raises(ValueError, match="not-normalized"):
        ProcessSpec(interactions=(CZ,), initial_state=np.eye(4))


def test_spec_noise_list_length():
    with pytest.raises(ValueError, match="bad-sequence"):
        ProcessSpec(interactions=(CZ, CNOT), noise=[NoiseSpec()])


def test_shot_config_validation():
    with pytest.raises(ValueError, match="bad-shots"):
        ShotConfig(shots=0)
    with pytest.raises(ValueError, match="bad-seed"):
        ShotConfig(seed=-1)


def test_shot_config_rejects_shots_above_bound():
    # rejected at construction, before anything is drawn
    for shots in (MAX_SHOTS + 1, 10**10):
        with pytest.raises(ValueError, match="bad-shots"):
            ShotConfig(shots=shots)
    assert ShotConfig(shots=MAX_SHOTS).shots == MAX_SHOTS


def test_shot_config_rejects_seed_beyond_64_bits():
    with pytest.raises(ValueError, match="bad-seed"):
        ShotConfig(seed=2**64)
    # the largest accepted seed still keys a stream
    cfg = ShotConfig(shots=10, seed=2**64 - 1)
    _, p_joint = _sampled_states(np.ones((1, 3, 2)), [("largest",)], cfg)
    assert p_joint.tolist() == [1.0]


def test_run_process_length_mismatch():
    with pytest.raises(ValueError, match="bad-sequence"):
        run_process(cnot_cz_process(), [named_projector("z+")])


# ------------------------------------------------------------ exact runs

def test_first_intervention_creates_max_entanglement():
    # after projecting onto -y and the CNOT, the joint state is
    # (|00> - i|11>)/sqrt(2)
    spec = cnot_cz_process()
    env, p = first_step_env_marginal(spec, named_projector("y-"))
    assert abs(p - 0.5) < 1e-12
    assert np.abs(env - np.eye(2) / 2).max() < 1e-12  # MES marginal

    op = kron(named_projector("y-").mat, np.eye(2))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    joint = CNOT @ (op @ rho @ op.conj().T) @ CNOT.conj().T
    phi = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    assert np.abs(joint / np.trace(joint) - np.outer(phi, phi.conj())).max() < 1e-12


def test_forbidden_trajectory():
    spec = cnot_cz_process()
    rho, p = run_process(spec, [named_projector("z+"), named_projector("z-")])
    assert rho is None
    assert p <= 1e-9


def test_ground_branch_passes_everything_through():
    # with the first projection on z+, the environment never leaves |0> and
    # the output is exactly the second projector's target state
    spec = cnot_cz_process()
    for label in ("x+", "y-", "xz+", "zy-"):
        op = named_projector(label)
        rho, p = run_process(spec, [named_projector("z+"), op])
        assert np.abs(rho - op.mat).max() < 1e-10, label


def test_memory_trajectory_oracle():
    # statevector oracle gives I/2 for the (y-, x+) trajectory
    spec = cnot_cz_process()
    rho, p = run_process(spec, [named_projector("y-"), named_projector("x+")])
    assert abs(p - 0.25) < 1e-12
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(angles, phases, angles, phases)
def test_probability_conservation(theta0, phi0, theta1, phi1):
    # complementary second projections exhaust the first-step branch
    spec = cnot_cz_process()
    a0 = projector(theta0, phi0)
    a1 = projector(theta1, phi1)
    _, p_plus = run_process(spec, [a0, a1])
    _, p_minus = run_process(spec, [a0, a1.antipode()])
    _, p_branch = first_step_env_marginal(spec, a0)
    assert abs((p_plus + p_minus) - p_branch) < 1e-10


def test_all_diagonal_ground_trajectory_keeps_unit_probability():
    spec = cz_cnot_process()
    rho, p = run_process(spec, [named_projector("z+"), named_projector("z+")])
    assert abs(p - 1.0) < 1e-12


def test_noise_lowers_purity():
    noisy = cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05))
    rho, p = run_process(noisy, [named_projector("y-"), named_projector("x+")])
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10


# -------------------------------------------------------- markov baseline

def test_reduced_step_maps_cnot_cz():
    chis = reduced_step_maps(cnot_cz_process())
    deph = np.zeros((4, 4)); deph[0, 0] = 0.5; deph[3, 3] = 0.5
    ident = np.zeros((4, 4)); ident[0, 0] = 1.0
    assert np.abs(chis[0] - deph).max() < 1e-10
    assert np.abs(chis[1] - ident).max() < 1e-10


def test_markov_matches_oracle_for_cz_cnot():
    spec = cz_cnot_process()
    reduced = reduced_step_maps(spec)
    for l0 in ("z+", "y-", "xz+"):
        for l1 in ("x+", "zy-", "y+"):
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(spec, ops)
            if truth is None:
                continue
            predicted = markov_predict(spec, ops, reduced)
            assert state_fidelity(truth, predicted) >= 1 - 1e-9, (l0, l1)


def test_markov_fails_on_memory_trajectory():
    spec = cnot_cz_process()
    reduced = reduced_step_maps(spec)
    ops = [named_projector("y-"), named_projector("x+")]
    predicted = markov_predict(spec, ops, reduced)
    # the baseline predicts the pure x+ state while the process outputs I/2
    assert np.abs(predicted - named_projector("x+").mat).max() < 1e-9
    truth, _ = run_process(spec, ops)
    assert abs(state_fidelity(truth, predicted) - 0.5) < 1e-6


def test_markov_agrees_when_environment_stays_put():
    spec = cnot_cz_process()
    reduced = reduced_step_maps(spec)
    ops = [named_projector("z+"), named_projector("x+")]
    truth, _ = run_process(spec, ops)
    predicted = markov_predict(spec, ops, reduced)
    assert state_fidelity(truth, predicted) >= 1 - 1e-12


def test_markov_reduced_map_count_check():
    spec = cnot_cz_process()
    with pytest.raises(ValueError, match="bad-sequence"):
        markov_predict(spec, [named_projector("z+")] * 2, [np.eye(4)])


# ------------------------------------------------------------- sampling

def pure_state(bloch):
    n = np.asarray(bloch, dtype=float) / np.linalg.norm(bloch)
    return 0.5 * (ID2 + sum(c * p for c, p in zip(n, (SX, SY, SZ))))


def test_counts_certain_and_impossible():
    # stage probabilities (item, axis, stage): certain stages draw every
    # shot whatever the seed, impossible ones none
    probs = np.array([[[1.0, 1.0]] * 3, [[1.0, 0.0]] * 3, [[0.0, 0.5]] * 3])
    for seed in (3, 4):
        states, p_joint = _sampled_states(probs, [("a",), ("b",), ("c",)],
                                          ShotConfig(shots=500, seed=seed))
        assert p_joint.tolist() == [1.0, 1.0, 0.0]
        # every readout passes: (1, 1, 1) is PSD-projected onto the sphere
        assert np.abs(states[0] - pure_state([1, 1, 1])).max() < 1e-12
        assert np.abs(states[1] - pure_state([-1, -1, -1])).max() < 1e-12
        # a blocked earlier stage post-selects nothing: the maximally mixed state
        assert np.array_equal(states[2], ID2 / 2)


def test_counts_binomial_band():
    # every readout probability is exactly 1/2; 5 sigma of Bin(3000, 1/2) is
    # 137, so each Bloch component 2 npass / 3000 - 1 lies within 2 * 137 / 3000
    states, p_joint = _sampled_states(np.full((40, 3, 2), [1.0, 0.5]),
                                      [(k,) for k in range(40)], ShotConfig(shots=3000, seed=11))
    assert np.array_equal(p_joint, np.ones(40))
    for pauli in (SX, SY, SZ):
        assert np.abs(np.trace(states @ pauli, axis1=1, axis2=2)).max() <= 2 * 137 / 3000


def test_counts_deterministic_per_seed(cnot_cz_spec):
    a, b, c = (generate_records(cnot_cz_spec, ShotConfig(shots=2000, seed=seed))
               for seed in (5, 5, 6))
    assert all(np.array_equal(ra.rho_measured, rb.rho_measured) and ra.p_joint == rb.p_joint
               for ra, rb in zip(a, b))
    assert any(not np.array_equal(ra.rho_measured, rc.rho_measured) for ra, rc in zip(a, c))


def test_counts_independent_of_batch_order():
    # each item draws from the generator keyed on its own key, wherever it sits
    cfg = ShotConfig(shots=1000, seed=9)
    probs = np.array([[[0.7, 0.4]] * 3, [[0.5, 0.9]] * 3, [[0.9, 0.2]] * 3])
    keys = [("y-", "x+"), ("z+", "y+"), ("x+", "x+")]
    forward = _sampled_states(probs, keys, cfg)
    backward = _sampled_states(probs[::-1], keys[::-1], cfg)
    assert np.array_equal(forward[0], backward[0][::-1])
    assert np.array_equal(forward[1], backward[1][::-1])
    alone = _sampled_states(probs[1:2], keys[1:2], cfg)
    assert np.array_equal(alone[0][0], forward[0][1]) and alone[1][0] == forward[1][1]


STAGES = [[0.7, 0.4, 0.3], [0.5, 1.0, 0.8], [1.0, 0.05, 0.6], [0.2, 0.9, 1.0]]


def test_staged_counts_follow_the_staged_bernoulli_law():
    # Each shot passes the earlier stages with P = prod(earlier) and then the
    # last with q: total ~ Bin(n, P) and npass ~ Bin(n, Pq) marginally, with
    # cov(npass, total) = n Pq (1 - P). Sample moments over 2000 derived
    # seeds must sit within 5 standard errors of these.
    n, draws = 400, 2000
    cfg = ShotConfig(shots=n)
    counts = np.array([
        _staged_counts(STAGES, cfg, _derived_rng(seed, "law")) for seed in range(draws)
    ])  # (draws, 2, rows)
    npass, total = counts[:, 0].astype(float), counts[:, 1].astype(float)
    for row, stages in enumerate(STAGES):
        big_p = math.prod(stages[:-1])
        for x, p in ((total[:, row], big_p), (npass[:, row], big_p * stages[-1])):
            var = n * p * (1 - p)
            mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))  # binomial 4th central moment
            assert abs(x.mean() - n * p) <= 5 * math.sqrt(var / draws), (row, p)
            assert abs(x.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var**2) / draws), (row, p)
        # standard error of a sample covariance, normal approximation
        pq = big_p * stages[-1]
        cov = n * pq * (1 - big_p)
        se = math.sqrt((n * pq * (1 - pq) * n * big_p * (1 - big_p) + cov**2) / draws)
        assert abs(np.cov(npass[:, row], total[:, row])[0, 1] - cov) <= 5 * se, row


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_SHOTS), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
       st.integers(0, 2**64 - 1), st.data())
def test_staged_counts_properties(shots, stages, seed, data):
    blocked = list(stages)
    blocked[data.draw(st.integers(0, len(stages) - 2))] = 0.0
    cfg = ShotConfig(shots=shots, seed=seed)
    npass, total = _staged_counts([stages, blocked, [1.0] * len(stages)], cfg,
                                  _derived_rng(seed, "properties"))
    assert 0 <= npass[0] <= total[0] <= shots
    # a stage that never passes stops every shot; stages that always pass keep all
    assert (npass[1], total[1]) == (0, 0)
    assert (npass[2], total[2]) == (shots, shots)


# -------------------------------------------------------------- records

def test_exact_records_match_oracle(cnot_cz_spec, cnot_cz_records):
    assert len(cnot_cz_records) == 81
    for rec in cnot_cz_records:
        ops = [named_projector(l) for l in rec.labels]
        truth, p = run_process(cnot_cz_spec, ops)
        assert abs(rec.p_joint - p) < 1e-12
        if truth is not None:
            assert np.abs(rec.rho_measured - truth).max() < 1e-10


def test_sampled_records_reproducible(cnot_cz_spec):
    cfg = ShotConfig(shots=300, seed=21)
    a = generate_records(cnot_cz_spec, cfg)
    b = generate_records(cnot_cz_spec, cfg)
    for ra, rb in zip(a, b):
        assert ra.p_joint == rb.p_joint
        assert np.array_equal(ra.rho_measured, rb.rho_measured)


def test_sampled_records_close_to_exact(cnot_cz_spec, cnot_cz_records):
    cfg = ShotConfig(shots=3000, seed=2)
    sampled = generate_records(cnot_cz_spec, cfg)
    for exact, noisy in zip(cnot_cz_records, sampled):
        assert abs(exact.p_joint - noisy.p_joint) < 0.06
        if exact.p_joint > 0.2:
            assert state_fidelity(exact.rho_measured, noisy.rho_measured) > 0.95


def test_qpt_data_exact_mode():
    op = named_projector("y-")
    inputs, outputs = intervention_qpt_data(op)
    assert len(inputs) == len(outputs[0]) == 6
    for rin, rout in zip(inputs, outputs[0]):
        assert np.abs(op.mat @ rin @ op.mat - rout).max() < 1e-12


# -------------------------------------------- per-state sampling reference

def loop_stage_probabilities(spec, ops, readouts):
    """Stage probabilities of one sequence from its own normalized chain.

    The per-sequence form the stacked _stage_probabilities replaced; both
    must give the same bits, since the binomial draws can depend on every
    bit of the probabilities.
    """
    probs = []
    rho = spec.initial_state.copy()
    for step, (u, op) in enumerate(zip(spec.interactions, ops)):
        a = kron(op.mat, ID2)
        sub = a @ rho @ a.conj().T
        p = float(np.trace(sub).real)
        probs.append(min(max(p, 0.0), 1.0))
        rho = sub / p if p > P_JOINT_CUTOFF else np.zeros_like(sub)
        rho = u @ rho @ u.conj().T
        noise = spec.step_noise(step)
        if noise is not None:
            rho = apply_noise(rho, noise)
    out = partial_trace(rho, 2, 2, keep="a")
    return [
        probs + [min(max(float(np.trace(r.mat @ out).real), 0.0), 1.0)] for r in readouts
    ]


SPECS = [
    cnot_cz_process, cz_cnot_process,
    lambda: cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05)),
]


@pytest.mark.parametrize("make_spec", SPECS)
def test_stacked_stage_probabilities_equal_per_sequence_chain(make_spec):
    spec = make_spec()
    basis = [named_projector(label) for label in FIT_BASIS_LABELS]
    readouts = [named_projector(axis + "+") for axis in QST_AXES]
    mats = np.array([op.mat for op in basis])
    stacked = _stage_probabilities(spec, [mats[:, None], mats[None, :]],
                                   np.array([r.mat for r in readouts]))
    assert stacked.shape == (9, 9, 3, 3)
    for i, first in enumerate(basis):
        for j, second in enumerate(basis):
            ref = np.array(loop_stage_probabilities(spec, [first, second], readouts))
            assert np.array_equal(stacked[i, j], ref), (FIT_BASIS_LABELS[i], FIT_BASIS_LABELS[j])
    # one sequence and one readout
    single = _stage_probabilities(spec, [basis[2].mat, basis[7].mat], readouts[1].mat[None])
    ref = loop_stage_probabilities(spec, [basis[2], basis[7]], readouts[1:2])
    assert np.array_equal(single, np.array(ref))


def loop_sampled_state(stage_fn, cfg, rng_parts):
    """Three-axis QST of one state, drawn on its own.

    The state's generator draws the three axes' totals, then their passes,
    as whole-array binomials; the stacked sampler must give the same bytes.
    """
    probs = np.array([stage_fn(named_projector(axis + "+")) for axis in QST_AXES])
    rng = _derived_rng(cfg.seed, *rng_parts)
    total = rng.binomial(cfg.shots, np.prod(probs[:, :-1], axis=-1))
    npass = rng.binomial(total, probs[:, -1])
    totals = [int(t) / cfg.shots for t in total]
    p_joint = float(np.mean(totals))
    if min(totals) <= 0.0:
        return ID2 / 2, p_joint
    plus = [int(n) / int(t) for n, t in zip(npass, total)]
    return qst_six_axis([q for p in plus for q in (p, 1 - p)]), p_joint


@pytest.mark.parametrize("shots,seed", [(300, 0), (3000, 7)])
@pytest.mark.parametrize("make_spec", SPECS)
def test_sampled_records_equal_per_stream_loop(make_spec, shots, seed):
    spec = make_spec()
    cfg = ShotConfig(shots=shots, seed=seed)
    records = generate_records(spec, cfg)
    assert len(records) == 81
    for rec in records:
        ops = [named_projector(label) for label in rec.labels]
        rho, p = loop_sampled_state(
            lambda ax: loop_stage_probabilities(spec, ops, [ax])[0], cfg,
            (spec.initial_state, *ops),
        )
        assert rec.p_joint == p, rec.labels
        assert np.array_equal(rec.rho_measured, rho), rec.labels


@pytest.mark.parametrize("label", ["x+", "y-", "z+", "zy-", "xz+"])
def test_qpt_data_equals_per_stream_loop(label):
    op = named_projector(label)
    cfg = ShotConfig(shots=500, seed=4)
    tags = [0, 3, 17, 359]
    inputs, outputs = intervention_qpt_data(op, cfg, tags)
    assert outputs.shape == (len(tags), 6, 2, 2)
    for rep, tag in enumerate(tags):
        for k, axis_label in enumerate(("x+", "x-", "y+", "y-", "z+", "z-")):
            rin = named_projector(axis_label).mat
            assert np.array_equal(inputs[k], rin)
            p_pass = min(max(float(np.trace(op.mat @ rin).real), 0.0), 1.0)

            def stages(readout, _p=p_pass):
                q = float(np.trace(readout.mat @ op.mat).real)
                return [_p, min(max(q, 0.0), 1.0)]

            rho, p_hat = loop_sampled_state(stages, cfg, (tag, op, axis_label))
            assert np.array_equal(outputs[rep, k], p_hat * rho), (tag, axis_label)


def test_qpt_data_repetitions_are_independent_streams():
    cfg = ShotConfig(shots=500, seed=4)
    op = named_projector("x+")
    _, both = intervention_qpt_data(op, cfg, [5, 6])
    _, alone = intervention_qpt_data(op, cfg, [6])
    assert np.array_equal(both[1], alone[0])
    assert not np.array_equal(both[0], both[1])


def test_per_step_noise_list():
    quiet = NoiseSpec()
    loud = NoiseSpec(gamma_amp=0.3, lambda_phase=0.3)
    spec_first = ProcessSpec(interactions=(CNOT, CZ), noise=[loud, quiet])
    spec_second = ProcessSpec(interactions=(CNOT, CZ), noise=[quiet, loud])
    ops = [named_projector("y-"), named_projector("xz+")]
    rho_a, p_a = run_process(spec_first, ops)
    rho_b, p_b = run_process(spec_second, ops)
    # noise before the second post-selection shifts the branch probability
    # (damping raises the ground population of the entangled marginal);
    # noise placed after it instead reshapes the output state
    assert abs(p_b - 0.25) < 1e-12
    assert abs(p_a - 0.25) > 1e-2
    assert np.abs(rho_a - rho_b).max() > 1e-2
