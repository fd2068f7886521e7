import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import antipode, partial_trace, reduced_step_maps
from proctensor.process import (
    MAX_SHOTS,
    ProcessSpec,
    ShotConfig,
    _derived_rng,
    _sampled_states,
    _staged_counts,
    cnot_cz_process,
    cz_cnot_process,
    first_step_env_marginals,
    generate_records,
    intervention_qpt_data,
    markov_predict,
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
    bloch_vector,
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
        ProcessSpec(interactions=(CZ, np.eye(4) * 2))


@pytest.mark.parametrize("interactions", [(CZ,), (CZ, CNOT, CZ)])
def test_spec_takes_two_interactions(interactions):
    with pytest.raises(ValueError, match="bad-sequence"):
        ProcessSpec(interactions=interactions)


def test_spec_rejects_noise_list():
    with pytest.raises(ValueError, match="bad-noise"):
        ProcessSpec(interactions=(CZ, CNOT), noise=[NoiseSpec(), NoiseSpec()])


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
    _, p_joint = _sampled_states(np.ones(1), np.ones((1, 3)), [("largest",)], cfg)
    assert p_joint.tolist() == [1.0]


def test_run_process_length_mismatch():
    with pytest.raises(ValueError, match="bad-sequence"):
        run_process(cnot_cz_process(), [named_projector("z+").mat])


# ------------------------------------------------------------ exact runs

def test_first_intervention_creates_max_entanglement():
    # after projecting onto -y and the CNOT, the joint state is
    # (|00> - i|11>)/sqrt(2)
    spec = cnot_cz_process()
    env, p = first_step_env_marginals(spec, named_projector("y-").mat)
    assert abs(p - 0.5) < 1e-12
    assert np.abs(env - np.eye(2) / 2).max() < 1e-12  # MES marginal

    op = np.kron(named_projector("y-").mat, np.eye(2))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    joint = CNOT @ (op @ rho @ op.conj().T) @ CNOT.conj().T
    phi = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    assert np.abs(joint / np.trace(joint) - np.outer(phi, phi.conj())).max() < 1e-12


def test_forbidden_trajectory():
    spec = cnot_cz_process()
    rho, p = run_process(spec, [named_projector("z+").mat, named_projector("z-").mat])
    assert p < P_JOINT_CUTOFF and np.array_equal(rho, ID2 / 2)
    assert p <= 1e-9


def test_ground_branch_passes_everything_through():
    # with the first projection on z+, the environment never leaves |0> and
    # the output is exactly the second projector's target state
    spec = cnot_cz_process()
    for label in ("x+", "y-", "xz+", "zy-"):
        op = named_projector(label)
        rho, p = run_process(spec, [named_projector("z+").mat, op.mat])
        assert np.abs(rho - op.mat).max() < 1e-10, label


def test_memory_trajectory_oracle():
    # statevector oracle gives I/2 for the (y-, x+) trajectory
    spec = cnot_cz_process()
    rho, p = run_process(spec, [named_projector("y-").mat, named_projector("x+").mat])
    assert abs(p - 0.25) < 1e-12
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(angles, phases, angles, phases)
def test_probability_conservation(theta0, phi0, theta1, phi1):
    # complementary second projections exhaust the first-step branch
    spec = cnot_cz_process()
    a0 = projector(theta0, phi0)
    a1 = projector(theta1, phi1)
    _, p_plus = run_process(spec, [a0.mat, a1.mat])
    _, p_minus = run_process(spec, [a0.mat, antipode(a1).mat])
    _, p_branch = first_step_env_marginals(spec, a0.mat)
    assert abs((p_plus + p_minus) - p_branch) < 1e-10


def test_all_diagonal_ground_trajectory_keeps_unit_probability():
    spec = cz_cnot_process()
    rho, p = run_process(spec, [named_projector("z+").mat, named_projector("z+").mat])
    assert abs(p - 1.0) < 1e-12


def test_noise_lowers_purity():
    noisy = cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05))
    rho, p = run_process(noisy, [named_projector("y-").mat, named_projector("x+").mat])
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
    for l0 in ("z+", "y-", "xz+"):
        for l1 in ("x+", "zy-", "y+"):
            ops = [named_projector(l0).mat, named_projector(l1).mat]
            truth, p = run_process(spec, ops)
            if p < P_JOINT_CUTOFF:
                continue
            predicted, _ = markov_predict(spec, ops)
            assert state_fidelity(truth, predicted) >= 1 - 1e-9, (l0, l1)


def test_markov_fails_on_memory_trajectory():
    spec = cnot_cz_process()
    ops = [named_projector("y-").mat, named_projector("x+").mat]
    predicted, _ = markov_predict(spec, ops)
    # the baseline predicts the pure x+ state while the process outputs I/2
    assert np.abs(predicted - named_projector("x+").mat).max() < 1e-9
    truth, _ = run_process(spec, ops)
    assert abs(state_fidelity(truth, predicted) - 0.5) < 1e-6


def test_markov_agrees_when_environment_stays_put():
    spec = cnot_cz_process()
    ops = [named_projector("z+").mat, named_projector("x+").mat]
    truth, _ = run_process(spec, ops)
    predicted, _ = markov_predict(spec, ops)
    assert state_fidelity(truth, predicted) >= 1 - 1e-12


# ------------------------------------------------------------- sampling

def pure_state(bloch):
    n = np.asarray(bloch, dtype=float) / np.linalg.norm(bloch)
    return 0.5 * (ID2 + sum(c * p for c, p in zip(n, (SX, SY, SZ))))


def test_counts_certain_and_impossible():
    # certain probabilities draw every shot whatever the seed, impossible ones none
    passed = np.array([1.0, 1.0, 0.0])
    readout = np.array([[1.0] * 3, [0.0] * 3, [0.5] * 3])
    for seed in (3, 4):
        states, p_joint = _sampled_states(passed, readout, [("a",), ("b",), ("c",)],
                                          ShotConfig(shots=500, seed=seed))
        assert p_joint.tolist() == [1.0, 1.0, 0.0]
        # every readout passes: (1, 1, 1) is PSD-projected onto the sphere
        assert np.abs(states[0] - pure_state([1, 1, 1])).max() < 1e-12
        assert np.abs(states[1] - pure_state([-1, -1, -1])).max() < 1e-12
        # a blocked post-selection keeps nothing: the maximally mixed state
        assert np.array_equal(states[2], ID2 / 2)


def test_counts_binomial_band():
    # every readout probability is exactly 1/2; 5 sigma of Bin(3000, 1/2) is
    # 137, so each Bloch component 2 npass / 3000 - 1 lies within 2 * 137 / 3000
    states, p_joint = _sampled_states(np.ones(40), np.full((40, 3), 0.5),
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
    passed = np.array([0.7, 0.5, 0.9])
    readout = np.array([[0.4, 0.6, 0.1], [0.9, 0.5, 0.3], [0.2, 0.8, 0.7]])
    keys = [("y-", "x+"), ("z+", "y+"), ("x+", "x+")]
    forward = _sampled_states(passed, readout, keys, cfg)
    backward = _sampled_states(passed[::-1], readout[::-1], keys[::-1], cfg)
    assert np.array_equal(forward[0], backward[0][::-1])
    assert np.array_equal(forward[1], backward[1][::-1])
    alone = _sampled_states(passed[1:2], readout[1:2], keys[1:2], cfg)
    assert np.array_equal(alone[0][0], forward[0][1]) and alone[1][0] == forward[1][1]


#: (post-selection probability, readout probability per axis) of each law case
LAW_CASES = [(0.28, [0.3, 0.8, 0.6]), (0.5, [0.8, 1.0, 0.05]),
             (0.05, [0.6, 0.3, 0.5]), (0.18, [1.0, 0.4, 0.9])]


def test_staged_counts_follow_the_staged_bernoulli_law():
    # Each shot is post-selected with P and then reads "+" on axis a with
    # q_a: total_a ~ Bin(n, P) and npass_a ~ Bin(n, P q_a) marginally, with
    # cov(npass_a, total_a) = n P q_a (1 - P), and the axes are independent
    # runs. Sample moments over 2000 derived seeds must sit within 5
    # standard errors of these.
    n, draws = 400, 2000
    cfg = ShotConfig(shots=n)
    for case, (big_p, readout) in enumerate(LAW_CASES):
        counts = np.array([
            _staged_counts(big_p, readout, cfg, _derived_rng(seed, "law", case))
            for seed in range(draws)
        ])  # (draws, 2, axes)
        npass, total = counts[:, 0].astype(float), counts[:, 1].astype(float)
        for axis, q in enumerate(readout):
            for x, p in ((total[:, axis], big_p), (npass[:, axis], big_p * q)):
                var = n * p * (1 - p)
                mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))  # binomial 4th central moment
                assert abs(x.mean() - n * p) <= 5 * math.sqrt(var / draws), (case, axis, p)
                assert abs(x.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var**2) / draws), \
                    (case, axis, p)
            # standard error of a sample covariance, normal approximation
            pq = big_p * q
            cov = n * pq * (1 - big_p)
            se = math.sqrt((n * pq * (1 - pq) * n * big_p * (1 - big_p) + cov**2) / draws)
            assert abs(np.cov(npass[:, axis], total[:, axis])[0, 1] - cov) <= 5 * se, (case, axis)
        # totals of different axes are uncorrelated
        var = n * big_p * (1 - big_p)
        assert abs(np.cov(total[:, 0], total[:, 1])[0, 1]) <= 5 * var / math.sqrt(draws), case


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_SHOTS), st.floats(0.0, 1.0),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), st.integers(0, 2**64 - 1))
def test_staged_counts_properties(shots, passed, readout, seed):
    cfg = ShotConfig(shots=shots, seed=seed)
    rng = _derived_rng(seed, "properties")
    npass, total = _staged_counts(passed, readout, cfg, rng)
    assert all(0 <= k <= t <= shots for k, t in zip(npass, total))
    # a blocked post-selection stops every shot; certain stages keep all
    axes = len(readout)
    assert _staged_counts(0.0, readout, cfg, rng) == ([0] * axes, [0] * axes)
    assert _staged_counts(1.0, [1.0] * axes, cfg, rng) == ([shots] * axes, [shots] * axes)
    # a readout that never reads "+" passes nothing on its axis
    assert _staged_counts(passed, [0.0] * axes, cfg, rng)[0] == [0] * axes


# -------------------------------------------------------------- records

def test_exact_records_match_oracle(cnot_cz_spec, cnot_cz_records):
    assert len(cnot_cz_records) == 81
    for rec in cnot_cz_records:
        truth, p = run_process(cnot_cz_spec, [named_projector(l).mat for l in rec.labels])
        assert abs(rec.p_joint - p) < 1e-12
        if p >= P_JOINT_CUTOFF:
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


@pytest.mark.parametrize("shots", [3000, 300_000, MAX_SHOTS])
def test_sampled_records_within_binomial_errors(cnot_cz_spec, cnot_cz_records, shots):
    # Each axis post-selects total_a ~ Bin(n, p) shots, so the mean rate has
    # standard error sqrt(p (1 - p) / 3n), and at 5 of them every total is at
    # least t = n p - 5 sqrt(n p (1 - p)). Given its total, the raw Bloch
    # component 2 npass_a / total_a - 1 has standard error at most
    # se_a = 2 sqrt(q_a (1 - q_a) / t), with q_a the exact "+" probability.
    # qst_six_axis moves the raw vector radially onto the Bloch ball, which
    # brings it no farther from the exact vector inside the ball, so with each
    # raw component within 5 se_a every reported component lies within
    # 5 |se| of the exact one.
    cfg = ShotConfig(shots=shots, seed=0)
    for exact, rec in zip(cnot_cz_records, generate_records(cnot_cz_spec, cfg)):
        p = exact.p_joint
        assert abs(rec.p_joint - p) <= 5 * math.sqrt(p * (1 - p) / (3 * shots)) + 1e-12, \
            rec.labels
        t = shots * p - 5 * math.sqrt(shots * p * (1 - p))
        if t < 1:
            continue
        r = bloch_vector(exact.rho_measured)
        q = np.clip((1 + r) / 2, 0.0, 1.0)
        bound = 5 * np.linalg.norm(2 * np.sqrt(q * (1 - q) / t)) + 1e-12
        assert np.abs(bloch_vector(rec.rho_measured) - r).max() <= bound, rec.labels


def test_qpt_data_exact_mode():
    op = named_projector("y-")
    inputs, outputs = intervention_qpt_data(op)
    assert len(inputs) == len(outputs[0]) == 6
    for rin, rout in zip(inputs, outputs[0]):
        assert np.abs(op.mat @ rin @ op.mat - rout).max() < 1e-12


# -------------------------------------------- per-state sampling reference

def loop_exact_record(spec, ops):
    """Normalized system output and joint probability of one sequence from
    its own chain, started in |00⟩.

    A loop form of run_process on one sequence; both must give the same
    bits, since the binomial draws can depend on every bit of the
    probabilities.
    """
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    for u, op in zip(spec.interactions, ops):
        a = np.kron(op.mat, ID2)
        rho = a @ rho @ a.conj().T
        rho = u @ rho @ u.conj().T
        if spec.noise is not None:
            rho = apply_noise(rho, spec.noise)
    p = max(float(np.trace(rho).real), 0.0)
    if p < P_JOINT_CUTOFF:
        return ID2 / 2, p
    return partial_trace(rho, 2, 2, keep="a") / p, p


def clipped(p):
    return min(max(float(p), 0.0), 1.0)


SPECS = [
    cnot_cz_process, cz_cnot_process,
    lambda: cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05)),
]


def loop_sampled_state(passed, readout_fn, cfg, rng_parts):
    """Three-axis QST of one state, drawn on its own.

    passed is the state's post-selection probability and readout_fn gives
    its "+" probability for a readout projector. The state's generator draws
    the three axes' totals, then their passes, as whole-array binomials; the
    stacked sampler must give the same bytes.
    """
    readout = [clipped(readout_fn(named_projector(axis + "+"))) for axis in QST_AXES]
    rng = _derived_rng(cfg.seed, *rng_parts)
    total = rng.binomial(cfg.shots, np.full(len(QST_AXES), clipped(passed)))
    npass = rng.binomial(total, readout)
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
    # every record's generator is keyed on the |00⟩ state, then the sequence
    ground = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    for rec in records:
        ops = [named_projector(label) for label in rec.labels]
        out, p_joint = loop_exact_record(spec, ops)
        rho, p = loop_sampled_state(
            p_joint, lambda r: np.trace(r.mat @ out).real, cfg, (ground, *ops),
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
            rho, p_hat = loop_sampled_state(
                np.trace(op.mat @ rin).real, lambda r: np.trace(r.mat @ op.mat).real, cfg,
                (tag, op, axis_label),
            )
            assert np.array_equal(outputs[rep, k], p_hat * rho), (tag, axis_label)


def test_qpt_data_repetitions_are_independent_streams():
    cfg = ShotConfig(shots=500, seed=4)
    op = named_projector("x+")
    _, both = intervention_qpt_data(op, cfg, [5, 6])
    _, alone = intervention_qpt_data(op, cfg, [6])
    assert np.array_equal(both[1], alone[0])
    assert not np.array_equal(both[0], both[1])


def test_noise_acts_before_the_second_projection():
    ops = [named_projector("y-").mat, named_projector("xz+").mat]
    _, p_clean = run_process(cnot_cz_process(), ops)
    _, p_noisy = run_process(cnot_cz_process(NoiseSpec(gamma_amp=0.3, lambda_phase=0.3)), ops)
    # after y- and CNOT the system marginal is I/2 with weight 1/2; damping
    # moves it to diag(1 + γ, 1 - γ)/2 before xz+ (cos²(π/8), sin²(π/8))
    # reads it, so p = (1 + γ cos(π/4))/4. Noise only after the second
    # projection would leave p at 1/4.
    assert abs(p_clean - 0.25) < 1e-12
    assert abs(p_noisy - (1 + 0.3 * math.cos(math.pi / 4)) / 4) < 1e-12
