import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import antipode, derived_rng, partial_trace, reduced_step_maps
from proctensor import process
from proctensor.linalg import BRANCH_CUTOFF
from proctensor.process import (
    MAX_SHOTS,
    ProcessSpec,
    ShotConfig,
    _GROUND2,
    _sampled_states,
    _staged_counts,
    _stream_states,
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
    PROJECTOR_ANGLES,
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
from proctensor.tomography import qst_six_axis

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


def test_shot_config_takes_integers_only():
    # 2.5 shots would draw 2 and divide by 2.5, seed 1.5 would draw seed
    # 1's streams, and True would run one shot
    for shots in (2.5, 3000.0, True, np.float64(100)):
        with pytest.raises(ValueError, match="^bad-shots"):
            ShotConfig(shots=shots)
    for seed in (1.5, 0.0, False):
        with pytest.raises(ValueError, match="^bad-seed"):
            ShotConfig(seed=seed)
    cfg = ShotConfig(shots=np.int64(100), seed=np.uint64(2**64 - 1))
    assert (cfg.shots, cfg.seed) == (100, 2**64 - 1)


def test_run_process_length_mismatch():
    with pytest.raises(ValueError, match="bad-sequence"):
        run_process(cnot_cz_process(), [named_projector("z+")])


LAYERS = ("run_process", "markov_predict", "predict")


def prediction_layer(layer, fit):
    """The states and probabilities of a two-step sequence from one layer."""
    return {"run_process": lambda s: run_process(cnot_cz_process(), s),
            "markov_predict": lambda s: markov_predict(cnot_cz_process(), s),
            "predict": fit.predict}[layer]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_process_rejects_non_finite_steps(bad, cnot_cz_fit):
    # as the baseline and the fitted prediction do, before any arithmetic
    # can warn; with RuntimeWarning an error, a warning fails the test too
    steps = [np.stack([named_projector("x+"), np.full((2, 2), bad)]), named_projector("z+")]
    for predict in (prediction_layer(layer, cnot_cz_fit) for layer in LAYERS):
        with pytest.raises(ValueError, match="^non-finite"):
            predict(steps)
        with pytest.raises(ValueError, match="^non-finite"):
            predict(steps[::-1])


@pytest.mark.parametrize("layer", LAYERS)
def test_malformed_steps_raise_bad_dims(layer, cnot_cz_fit):
    # rejected before any arithmetic, not by numpy's matmul or broadcasting
    predict = prediction_layer(layer, cnot_cz_fit)
    x, z = named_projector("x+"), named_projector("z+")
    for steps in ([np.ones((2, 3)), z], [z, np.ones((2, 3))],
                  [np.stack([x] * 3), np.stack([z] * 4)]):
        with pytest.raises(ValueError, match="^bad-dims"):
            predict(steps)


@pytest.mark.parametrize("layer", LAYERS)
def test_one_cutoff_for_reported_states(layer, cnot_cz_fit):
    # a trajectory below BRANCH_CUTOFF reports the maximally mixed state in
    # every layer; 5e-10 lies above the 1e-12 a second cutoff once used
    predict = prediction_layer(layer, cnot_cz_fit)
    steps = [named_projector("x+"), named_projector("z+")]
    rho, p = predict(steps)
    assert p > 0.1 and not np.allclose(rho, ID2 / 2)
    scale = math.sqrt(5e-10 / p)
    rho, p = predict([steps[0] * scale, steps[1]])
    assert abs(p - 5e-10) < 1e-15 and p < BRANCH_CUTOFF
    assert np.array_equal(rho, ID2 / 2)


# ------------------------------------------------------------ exact runs

def test_first_intervention_creates_max_entanglement():
    # after projecting onto -y and the CNOT, the joint state is
    # (|00> - i|11>)/sqrt(2)
    spec = cnot_cz_process()
    env, p = first_step_env_marginals(spec, named_projector("y-"))
    assert abs(p - 0.5) < 1e-12
    assert np.abs(env - np.eye(2) / 2).max() < 1e-12  # MES marginal

    op = np.kron(named_projector("y-"), np.eye(2))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    joint = CNOT @ (op @ rho @ op.conj().T) @ CNOT.conj().T
    phi = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    assert np.abs(joint / np.trace(joint) - np.outer(phi, phi.conj())).max() < 1e-12


def test_forbidden_trajectory():
    spec = cnot_cz_process()
    rho, p = run_process(spec, [named_projector("z+"), named_projector("z-")])
    assert p < BRANCH_CUTOFF and np.array_equal(rho, ID2 / 2)
    assert p <= 1e-9


def test_ground_branch_passes_everything_through():
    # with the first projection on z+, the environment never leaves |0> and
    # the output is exactly the second projector's target state
    spec = cnot_cz_process()
    for label in ("x+", "y-", "xz+", "zy-"):
        op = named_projector(label)
        rho, p = run_process(spec, [named_projector("z+"), op])
        assert np.abs(rho - op).max() < 1e-10, label


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
    _, p_plus = run_process(spec, [a0, projector(theta1, phi1)])
    _, p_minus = run_process(spec, [a0, projector(*antipode(theta1, phi1))])
    _, p_branch = first_step_env_marginals(spec, a0)
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
    for l0 in ("z+", "y-", "xz+"):
        for l1 in ("x+", "zy-", "y+"):
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(spec, ops)
            if p < BRANCH_CUTOFF:
                continue
            predicted, _ = markov_predict(spec, ops)
            assert state_fidelity(truth, predicted) >= 1 - 1e-9, (l0, l1)


def test_markov_fails_on_memory_trajectory():
    spec = cnot_cz_process()
    ops = [named_projector("y-"), named_projector("x+")]
    predicted, _ = markov_predict(spec, ops)
    # the baseline predicts the pure x+ state while the process outputs I/2
    assert np.abs(predicted - named_projector("x+")).max() < 1e-9
    truth, _ = run_process(spec, ops)
    assert abs(state_fidelity(truth, predicted) - 0.5) < 1e-6


def test_markov_agrees_when_environment_stays_put():
    spec = cnot_cz_process()
    ops = [named_projector("z+"), named_projector("x+")]
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
            _staged_counts(big_p, readout, cfg, derived_rng(seed, "law", case))
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
    rng = derived_rng(seed, "properties")
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
        ops = [named_projector(FIT_BASIS_LABELS[i]) for i in rec.basis_indices]
        truth, p = run_process(cnot_cz_spec, ops)
        assert abs(rec.p_joint - p) < 1e-12
        if p >= BRANCH_CUTOFF:
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
            rec.basis_indices
        t = shots * p - 5 * math.sqrt(shots * p * (1 - p))
        if t < 1:
            continue
        r = bloch_vector(exact.rho_measured)
        q = np.clip((1 + r) / 2, 0.0, 1.0)
        bound = 5 * np.linalg.norm(2 * np.sqrt(q * (1 - q) / t)) + 1e-12
        assert np.abs(bloch_vector(rec.rho_measured) - r).max() <= bound, rec.basis_indices


def test_qpt_data_exact_mode():
    labels = ["y-", *PROJECTOR_ANGLES]
    inputs, outputs = intervention_qpt_data([PROJECTOR_ANGLES[label] for label in labels])
    assert len(inputs) == 6 and outputs.shape == (len(labels), 1, 6, 2, 2)
    op = named_projector("y-")
    for rin, rout in zip(inputs, outputs[0, 0]):
        assert np.abs(op @ rin @ op - rout).max() < 1e-12
    # each label's row of the stack is its own one-label stack, bit for bit
    for label, row in zip(labels, outputs):
        assert np.array_equal(row, intervention_qpt_data([PROJECTOR_ANGLES[label]])[1][0]), label
    # the angles are a stack (L, 2), also for one projector
    with pytest.raises(ValueError, match="^bad-dims"):
        intervention_qpt_data(PROJECTOR_ANGLES["y-"])


@pytest.mark.parametrize("cfg", [None, ShotConfig(shots=3000, seed=0)], ids=["exact", "shots"])
def test_qpt_data_rejects_non_finite_angles(cfg):
    # checked before any trigonometry: an infinite angle reached cos, and a
    # NaN one gave NaN outputs when exact and failed in binomial when sampled
    for bad in ([math.inf, 0.0], [0.3, -math.inf], [math.nan, 0.0], [0.3, math.nan]):
        with pytest.raises(ValueError, match="^non-finite: angles"):
            intervention_qpt_data([PROJECTOR_ANGLES["x+"], bad], cfg)


def test_qpt_data_rejects_tags_that_do_not_broadcast():
    # a (2, 2) tag stack cannot tag one projector's repetitions
    cfg = ShotConfig(shots=100, seed=1)
    for tags in ([[0, 1], [2, 3]], [[[0, 1]]], 7):
        with pytest.raises(ValueError, match="^bad-dims"):
            intervention_qpt_data([PROJECTOR_ANGLES["x+"]], cfg, tags)


def test_qpt_data_rejects_tags_that_are_not_integers():
    # a tag of 0.5 would key the stream of tag 0
    cfg = ShotConfig(shots=100, seed=1)
    for tags in ([[0.5]], [[True]], np.array([[2**63]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^bad-dims"):
            intervention_qpt_data([PROJECTOR_ANGLES["x+"]], cfg, tags)


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
        a = np.kron(op, ID2)
        rho = a @ rho @ a.conj().T
        rho = u @ rho @ u.conj().T
        if spec.noise is not None:
            rho = apply_noise(rho, spec.noise)
    p = max(float(np.trace(rho).real), 0.0)
    if p < BRANCH_CUTOFF:
        return ID2 / 2, p
    return partial_trace(rho, 2, 2, keep="a") / p, p


def snapped(p):
    """p clipped to [0, 1] and rounded to a multiple of 2**-40, as the
    sampler draws it."""
    return round(min(max(float(p), 0.0), 1.0) * 2**40) / 2**40


SPECS = [
    cnot_cz_process, cz_cnot_process,
    lambda: cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05)),
]


def loop_counts(passed, readout, cfg, rng_parts):
    """Counts (npass, total) of one state from a fresh generator of its
    stream: the three axes' totals, then their passes, as whole-array
    binomials."""
    rng = derived_rng(cfg.seed, *rng_parts)
    total = rng.binomial(cfg.shots, np.full(len(readout), snapped(passed)))
    return rng.binomial(total, [snapped(q) for q in readout]), total


def loop_sampled_state(passed, readout_fn, cfg, rng_parts):
    """Three-axis QST of one state, drawn on its own.

    passed is the state's post-selection probability and readout_fn gives
    its "+" probability for a readout projector. The counts are loop_counts;
    the stacked sampler must give the same bytes.
    """
    readout = [readout_fn(named_projector(axis + "+")) for axis in QST_AXES]
    return state_from_counts(*loop_counts(passed, readout, cfg, rng_parts), cfg.shots)


def state_from_counts(npass, total, shots):
    """(state, p_joint) of one state's counts: three-axis QST of the pass
    ratios, with the mean post-selection rate."""
    totals = [int(t) / shots for t in total]
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
    # every record's generator is keyed on the |00⟩ state, then the
    # float64 angles of each step
    ground = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    for rec in records:
        labels = [FIT_BASIS_LABELS[i] for i in rec.basis_indices]
        angles = [np.array(PROJECTOR_ANGLES[label], dtype=np.float64) for label in labels]
        out, p_joint = loop_exact_record(spec, [projector(*a) for a in angles])
        rho, p = loop_sampled_state(
            p_joint, lambda r: np.trace(r @ out).real, cfg, (ground, *angles),
        )
        assert rec.p_joint == p, labels
        assert np.array_equal(rec.rho_measured, rho), labels


QPT_LABELS = ["x+", "y-", "z+", "zy-", "xz+"]


@pytest.mark.parametrize("label", QPT_LABELS)
def test_qpt_data_equals_per_stream_loop(label):
    angles = np.array(PROJECTOR_ANGLES[label], dtype=np.float64)
    op = projector(*angles)
    cfg = ShotConfig(shots=500, seed=4)
    tags = [0, 3, 17, 359]
    _, [outputs] = intervention_qpt_data([PROJECTOR_ANGLES[label]], cfg, [tags])
    assert outputs.shape == (len(tags), 6, 2, 2)
    # the label's row of a stack over every label, each with its own tags,
    # is its own one-label stack: each stream keeps its key
    offsets = 1000 * np.arange(len(QPT_LABELS))[:, None]
    inputs, stacked = intervention_qpt_data([PROJECTOR_ANGLES[lbl] for lbl in QPT_LABELS], cfg,
                                            offsets + tags)
    assert stacked.shape == (len(QPT_LABELS), len(tags), 6, 2, 2)
    row = QPT_LABELS.index(label)
    _, [shifted] = intervention_qpt_data([angles], cfg, [[t + 1000 * row for t in tags]])
    assert np.array_equal(stacked[row], shifted)
    for rep, tag in enumerate(tags):
        for k, axis_label in enumerate(("x+", "x-", "y+", "y-", "z+", "z-")):
            rin = named_projector(axis_label)
            assert np.array_equal(inputs[k], rin)
            rho, p_hat = loop_sampled_state(
                np.trace(op @ rin).real, lambda r: np.trace(r @ op).real, cfg,
                (tag, angles, axis_label),
            )
            assert np.array_equal(outputs[rep, k], p_hat * rho), (tag, axis_label)


def test_stream_keys_are_sha256_of_their_parts():
    # the key format, pinned apart from the package's key code: SHA-256 of the
    # seed's 8 unsigned little-endian bytes, then each part's bytes in order;
    # the digest's bytes 0-15, two little-endian 64-bit words, key Philox
    def expected(seed, *blobs):
        digest = hashlib.sha256(seed.to_bytes(8, "little") + b"".join(blobs)).digest()
        return list(struct.unpack("<2Q", digest[:16]))

    seed = 2**64 - 5
    a_i, a_j = (np.array(PROJECTOR_ANGLES[label], dtype=np.float64) for label in ("xz+", "y-"))
    ground = struct.pack("<32d", 1.0, *[0.0] * 31)  # complex128 |00><00|, row-major
    keys = _stream_states(seed, [(_GROUND2, a_i, a_j), (359, a_j, "z-")])
    assert keys.shape == (2, 2) and keys.dtype == np.uint64
    assert keys[0].tolist() == expected(seed, ground, struct.pack("<2d", math.pi / 4, 0.0),
                                        struct.pack("<2d", math.pi / 2, -math.pi / 2))
    assert keys[1].tolist() == expected(seed, (359).to_bytes(8, "little", signed=True),
                                        struct.pack("<2d", math.pi / 2, -math.pi / 2), b"z-")
    # a stream is Philox at its key with the counter at 0
    state = np.random.Philox(key=keys[1]).state["state"]
    assert state["counter"].tolist() == [0] * 4 and state["key"].tolist() == keys[1].tolist()
    assert _stream_states(seed, []).shape == (0, 2)


@pytest.mark.parametrize("shots", [100, 3000])
def test_reused_generator_draws_each_streams_fresh_counts(shots):
    # _sampled_states sets one generator to each stream's key in turn; every
    # binomial case must draw what a fresh Philox generator of that stream draws
    near_one = 1 - 1e-5
    items = [
        (0.0, [0.3, 0.6, 0.9]),  # p = 0 draws nothing
        (1.0, [1.0, 0.0, 1.0]),  # p = 1, and p = 0 on an axis
        (0.8, [0.7, 0.95, 0.6]),  # p > 1/2: numpy draws the complement
        (0.005, [0.2, 0.05, 0.5]),  # n p < 30: inversion
        (0.3, [0.4, 0.5, 0.2]),  # n p > 30 at 3000 shots: BTPE
        (0.3, [0.4, 0.5, 0.2]),  # consecutive streams with the same (n, p)
        (near_one, [0.5, 0.5, near_one]),  # when every shot passes, the last draw is
        (near_one, [0.5, 0.5, near_one]),  # Bin(n, near_one), this stream's first: cached
    ]
    cfg = ShotConfig(shots=shots, seed=12)
    keys = [("reuse", k) for k in range(len(items))]
    states, p_joint = _sampled_states(np.array([p for p, _ in items]),
                                      np.array([q for _, q in items]), keys, cfg)
    fresh = [loop_counts(p, q, cfg, key) for (p, q), key in zip(items, keys)]
    # the cached setup is reached: all shots pass on the last axis before it
    assert fresh[-2][1][-1] == shots
    for k, (npass, total) in enumerate(fresh):
        rho, p_hat = state_from_counts(npass, total, shots)
        assert p_joint[k] == p_hat and np.array_equal(states[k], rho), items[k]


def nudged(a, rng):
    """a with each entry moved by 1 to 4 ulp, up or down at random."""
    steps = rng.integers(1, 5, a.shape)
    toward = np.where(rng.random(a.shape) < 0.5, -np.inf, np.inf)
    for k in range(4):
        a = np.where(k < steps, np.nextafter(a, toward), a)
    return a


@pytest.mark.parametrize("shots", [100, 3000, MAX_SHOTS])
@pytest.mark.parametrize("make_spec", [cnot_cz_process, cz_cnot_process])
def test_sampled_counts_ignore_the_last_bits_of_a_probability(monkeypatch, make_spec, shots):
    # every record's exact post-selection and readout probabilities, moved by
    # 1-4 ulp either way, draw the same counts and states: an exact readout
    # of 1/2 keeps numpy's branch for p > 1/2 and BTPE's mode floor((n+1) p)
    cfg = ShotConfig(shots=shots, seed=0)
    inputs = []
    monkeypatch.setattr(process, "_sampled_states",
                        lambda *args: inputs.append(args) or _sampled_states(*args))
    records = generate_records(make_spec(), cfg)
    [(passed, readout, keys, _)] = inputs
    assert np.any(readout == 0.5)

    def sampled(passed, readout):
        counts = []
        monkeypatch.setattr(process, "_staged_counts",
                            lambda *args: counts.append(_staged_counts(*args)) or counts[-1])
        return counts, *_sampled_states(passed, readout, keys, cfg)

    counts, states, p_joint = sampled(passed, readout)
    assert len(counts) == 81
    assert np.array_equal(states, records.rho_measured)
    assert np.array_equal(p_joint, records.p_joint)
    rng = np.random.default_rng(shots)
    for _ in range(3):
        moved_counts, moved_states, moved_p = sampled(nudged(passed, rng), nudged(readout, rng))
        assert moved_counts == counts
        assert np.array_equal(moved_states, states) and np.array_equal(moved_p, p_joint)


def test_qpt_data_repetitions_are_independent_streams():
    cfg = ShotConfig(shots=500, seed=4)
    angles = PROJECTOR_ANGLES["x+"]
    _, [both] = intervention_qpt_data([angles], cfg, [[5, 6]])
    _, [alone] = intervention_qpt_data([angles], cfg, [[6]])
    assert np.array_equal(both[1], alone[0])
    assert not np.array_equal(both[0], both[1])


def test_noise_acts_before_the_second_projection():
    ops = [named_projector("y-"), named_projector("xz+")]
    _, p_clean = run_process(cnot_cz_process(), ops)
    _, p_noisy = run_process(cnot_cz_process(NoiseSpec(gamma_amp=0.3, lambda_phase=0.3)), ops)
    # after y- and CNOT the system marginal is I/2 with weight 1/2; damping
    # moves it to diag(1 + γ, 1 - γ)/2 before xz+ (cos²(π/8), sin²(π/8))
    # reads it, so p = (1 + γ cos(π/4))/4. Noise only after the second
    # projection would leave p at 1/4.
    assert abs(p_clean - 0.25) < 1e-12
    assert abs(p_noisy - (1 + 0.3 * math.cos(math.pi / 4)) / 4) < 1e-12
