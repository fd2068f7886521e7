"""The stacked evaluation layer against the per-sequence loops it replaced.

The reference functions below are the per-pair implementations that
`tomo-predict` and `bloch_volume` ran before the layer was stacked: one chain
contraction, one prediction, one memoryless baseline and two Uhlmann
fidelities per pair, and one push per Bloch-cloud sample.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_chi, mat_sqrt_psd, partial_trace, reduced_step_maps
from proctensor.channels import (
    action_superop,
    chi_fidelity,
    chi_of_operator,
    map_to_choi,
    reduced_map,
    reduced_superop,
    superop_to_chi,
    superop_to_choi,
)
from proctensor.cli import main
from proctensor.linalg import (
    kron_stack,
    project_psd,
    unvec,
    vec,
    vec_stack,
)
from proctensor.nonmarkov import _conditioned_maps, _herm_basis, bloch_volume
from proctensor.process import (
    PROCESS_NAMES,
    ShotConfig,
    first_step_env_marginals,
    generate_records,
    last_step_superops,
    markov_predict,
    run_process,
)
from proctensor.qubit import (
    ID2,
    OVERCOMPLETE_LABELS,
    SX,
    SY,
    SZ,
    NoiseSpec,
    apply_noise,
    named_projector,
    projector,
    state_fidelity,
    zy_projector,
)
from proctensor.tomography import action_matrix, fit_restricted_tensor

NOISE = NoiseSpec(gamma_amp=0.05, lambda_phase=0.05)
LABELS = OVERCOMPLETE_LABELS


# ------------------------------------------------------ per-pair references

def ref_run_process(spec, ops):
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    for u, op in zip(spec.interactions, ops):
        a = np.kron(op, ID2)
        rho = a @ rho @ a.conj().T
        rho = u @ rho @ u.conj().T
        if spec.noise is not None:
            rho = apply_noise(rho, spec.noise)
    p_joint = float(np.trace(rho).real)
    if p_joint < 1e-12:
        return None, max(p_joint, 0.0)
    return partial_trace(rho, 2, 2, keep="a") / p_joint, p_joint


def ref_predict(fit, ops):
    x0, x1 = (vec(action_matrix(op)) for op in ops)
    raw = unvec(fit.map_ @ np.kron(x1, x0))
    if float(np.trace(raw).real) < 1e-12:
        return None
    rho = project_psd(raw)
    return rho / float(np.trace(rho).real)


def ref_markov_predict(ops, reduced_maps):
    rho = np.diag([1.0, 0.0]).astype(complex)
    for op, chi in zip(ops, reduced_maps):
        rho = op @ rho @ op.conj().T
        rho = apply_chi(chi, rho)
    p = float(np.trace(rho).real)
    if p < 1e-12:
        return None
    rho = project_psd(rho / p)
    return rho / float(np.trace(rho).real)


def ref_fidelity(rho, sigma):
    sr = mat_sqrt_psd(rho)
    f = float(np.trace(mat_sqrt_psd(sr @ sigma @ sr)).real) ** 2
    return min(max(f, 0.0), 1.0)


def ref_tomo_predict(spec, fit):
    """The per-pair tomo-predict loop: every grid array indexed [a0, a1].

    Missing states are None; rows are the predictions.csv rows.
    """
    reduced = reduced_step_maps(spec)
    n = len(LABELS)
    out = {key: np.empty((n, n), dtype=object) for key in ("truth", "pred", "base")}
    p_true = np.empty((n, n))
    rows = []
    for a, l0 in enumerate(LABELS):
        for b, l1 in enumerate(LABELS):
            ops = [named_projector(l0), named_projector(l1)]
            truth, p_true[a, b] = ref_run_process(spec, ops)
            predicted = ref_predict(fit, ops)
            baseline = ref_markov_predict(ops, reduced)
            out["truth"][a, b], out["pred"][a, b], out["base"][a, b] = truth, predicted, baseline
            if truth is None or p_true[a, b] < 1e-9:
                continue
            fid_tensor = ref_fidelity(truth, predicted) if predicted is not None else 0.0
            fid_markov = ref_fidelity(truth, baseline) if baseline is not None else 0.0
            rows.append((l0, l1, p_true[a, b], fid_tensor, fid_markov))
    return out, p_true, rows


# -------------------------------------------------------- the pair grid

CASES = {
    f"{name}-{kind}": (name, kind)
    for name in ("cnot-cz", "cz-cnot")
    for kind in ("exact", "noisy", "shots")
}


@pytest.fixture(scope="module", params=sorted(CASES))
def grid_case(request):
    name, kind = CASES[request.param]
    spec = PROCESS_NAMES[name](NOISE if kind == "noisy" else None)
    cfg = ShotConfig(shots=3000, seed=0) if kind == "shots" else None
    fit = fit_restricted_tensor(generate_records(spec, cfg), psd=cfg is not None)
    return name, kind, spec, fit, ref_tomo_predict(spec, fit)


def _filled(states):
    """Reference states with the maximally mixed state standing in for None."""
    return np.array([ID2 / 2 if s is None else s for s in states.ravel()]).reshape(
        states.shape + (2, 2))


def test_grid_matches_per_pair_loop(grid_case):
    _, _, spec, fit, (ref, ref_p_true, _) = grid_case
    mats = np.array([named_projector(label) for label in LABELS])
    steps = (mats[:, None], mats[None, :])
    layers = {
        "truth": lambda s: run_process(spec, s),
        "pred": fit.predict,
        "base": lambda s: markov_predict(spec, s),
    }
    grids = {key: layer(steps) for key, layer in layers.items()}
    (truth, p_true), (predicted, p_pred), (baseline, p_base) = grids.values()
    for key, (states, p) in grids.items():
        assert (p >= 0).all(), key
        # each sequence alone gives the bits of its grid entry
        for a, b in np.ndindex(p.shape):
            one, p_one = layers[key]([mats[a], mats[b]])
            assert np.array_equal(one, states[a, b]) and np.array_equal(p_one, p[a, b]), \
                (key, LABELS[a], LABELS[b])
    # the chain does the same products in the same order: bit for bit
    assert np.array_equal(p_true, ref_p_true)
    assert np.array_equal(truth, _filled(ref["truth"]))
    # the same skipped pairs and the same pairs without a prediction
    assert np.array_equal(p_true < 1e-9, ref_p_true < 1e-9)
    for states, p, key in ((predicted, p_pred, "pred"), (baseline, p_base, "base")):
        missing = np.vectorize(lambda s: s is None, otypes=[bool])(ref[key])
        assert np.array_equal(p < 1e-12, missing), key
        # The loop and the stack sum the terms of each unnormalized state (trace
        # p) in different orders. Those terms are O(1) whatever p is, so the two
        # agree to a few eps in absolute terms, and dividing by p makes that
        # ~eps / p in the states: ~1e-14 for the p ~ 1e-3 pairs of a 3000-shot
        # fit. The largest |difference| * p / eps seen is 3.9, over seeds 0-9
        # of both processes' 3000-shot fits at 1 and 2 BLAS threads; 16 gives
        # a 4x margin.
        err = np.abs(states - _filled(ref[key])).max(axis=(-2, -1))
        assert (err <= 16 * np.finfo(float).eps / np.maximum(p, 1e-12)).all(), key


def test_tomo_predict_table_matches_per_pair_loop(grid_case, tmp_path):
    name, kind, _, _, (_, _, ref_rows) = grid_case
    args = ["tomo-predict", "--process", name, "--out", str(tmp_path)]
    if kind == "noisy":
        args += ["--noise-gamma", "0.05", "--noise-lambda", "0.05"]
    if kind == "shots":
        args += ["--shots", "3000", "--seed", "0"]
    assert main(args) == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    assert [r[:2] for r in rows] == [list(r[:2]) for r in ref_rows]
    for row, ref in zip(rows, ref_rows):
        assert row[2] == format(ref[2], ".17g")
        # the per-pair Uhlmann fidelity resolves F only to about 1.5e-8
        assert abs(float(row[3]) - ref[3]) <= 3e-8, (row, ref)
        assert abs(float(row[4]) - ref[4]) <= 3e-8, (row, ref)


def test_predict_checks_every_operation(cnot_cz_fit):
    mats = np.array([named_projector(label) for label in LABELS[:3]])
    trash = np.outer(vec(np.diag([1.0, 0.0])), vec(np.eye(2)).conj())
    stacked = np.array([action_superop(mats[0]), trash])
    with pytest.raises(ValueError, match="outside-span"):
        cnot_cz_fit.predict((mats, stacked[:, None]))
    states, p = cnot_cz_fit.predict((mats[:, None], mats[None, :]))
    assert states.shape == (3, 3, 2, 2) and p.shape == (3, 3)


# ------------------------------------------------------ closed-form fidelity

def _qubit_state(seed, low):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return (q * [low, 1.0 - low]) @ q.conj().T


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000),
       st.floats(1e-3, 0.5), st.floats(1e-3, 0.5))
def test_closed_form_fidelity_equals_uhlmann(s1, s2, low1, low2):
    rho, sigma = _qubit_state(s1, low1), _qubit_state(s2, low2)
    assert abs(state_fidelity(rho, sigma) - ref_fidelity(rho, sigma)) <= 1e-10


def test_fidelity_of_stacks_is_per_matrix():
    rho = np.array([_qubit_state(s, 0.1 * s) for s in range(6)])
    sigma = np.array([_qubit_state(s + 50, 0.05 * s) for s in range(6)])
    f = state_fidelity(rho, sigma)
    assert f.shape == (6,)
    assert np.array_equal(f, [state_fidelity(a, b) for a, b in zip(rho, sigma)])
    grid = state_fidelity(rho[:, None], sigma[None, :])
    assert grid.shape == (6, 6) and np.array_equal(np.diagonal(grid), f)


def test_fidelity_rejects_unnormalized_member_and_non_qubit_states():
    rho = np.array([np.eye(2) / 2, np.eye(2)])
    with pytest.raises(ValueError, match="not-normalized"):
        state_fidelity(rho, np.eye(2) / 2)
    with pytest.raises(ValueError, match="bad-dims"):
        state_fidelity(np.eye(4) / 4, np.eye(4) / 4)


# ------------------------------------------------------- stacked primitives

def test_action_superop_stack_is_per_matrix_kron():
    mats = np.array([named_projector(label) for label in LABELS])
    assert np.array_equal(action_superop(mats), [np.kron(m.conj(), m) for m in mats])


def test_vec_stack_round_trip():
    mats = np.arange(24).reshape(2, 3, 2, 2) + 1j
    flat = vec_stack(mats)
    assert np.array_equal(flat[1, 2], vec(mats[1, 2]))
    assert np.array_equal(unvec(flat), mats)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_choi_reshuffles_and_kron_of_stacks_are_per_matrix(seed, count):
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    maps, sups = complex_normal(count, 4, 16), complex_normal(count, 4, 4)
    a, b = complex_normal(count, 4, 4), complex_normal(count, 2, 2)
    # chi matrices of operators have positive traces, as chi_fidelity asks
    chi_a, chi_b = chi_of_operator(a), chi_of_operator(b)
    fid = chi_fidelity(chi_b, chi_b[::-1])
    for i in range(count):
        one = slice(i, i + 1)
        assert np.array_equal(map_to_choi(maps, 1)[i], map_to_choi(maps[i], 1))
        assert np.array_equal(superop_to_choi(sups)[i], superop_to_choi(sups[i]))
        assert np.array_equal(kron_stack(a, b)[i], np.kron(a[i], b[i]))
        assert np.array_equal(kron_stack(a[i], b)[i], np.kron(a[i], b[i]))
        assert np.array_equal(chi_a[i], chi_of_operator(a[one])[0])
        assert np.array_equal(chi_b[i], chi_of_operator(b[one])[0])
        assert np.array_equal(superop_to_chi(sups)[i], superop_to_chi(sups[one])[0])
        assert np.array_equal(superop_to_chi(a)[i], superop_to_chi(a[one])[0])
        assert fid[i] == chi_fidelity(chi_b[one], chi_b[::-1][one])[0]


@pytest.mark.parametrize("noisy", [False, True])
def test_env_marginals_and_reduced_channels_of_stacks_are_per_angle(noisy):
    spec = PROCESS_NAMES["cnot-cz"](NOISE if noisy else None)
    thetas = [0.0, 0.4, math.pi / 2, 2.9]
    mats = zy_projector(thetas)
    env, p = first_step_env_marginals(spec, mats)
    sups, p_sups = last_step_superops(spec, mats)
    assert np.array_equal(p_sups, p)
    chis = reduced_map(spec.interactions[1], env, spec.noise)
    for i, theta in enumerate(thetas):
        lone_env, lone_p = first_step_env_marginals(spec, zy_projector(theta))
        assert np.array_equal(env[i], lone_env) and p[i] == lone_p
        assert np.array_equal(sups[i], reduced_superop(spec.interactions[1], lone_env,
                                                       spec.noise))
        assert np.array_equal(chis[i], reduced_map(spec.interactions[1], env[i:i + 1],
                                                   spec.noise)[0])


def test_herm_basis_keeps_the_loop_order():
    n = 4
    loop = [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1 / math.sqrt(2)
            loop.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = -1j / math.sqrt(2), 1j / math.sqrt(2)
            loop.append(m)
    assert np.array_equal(_herm_basis(n), loop)


# ------------------------------------------------------------ Bloch clouds

def ref_bloch_volume(kind, fit, theta, n, process):
    if kind == "process-tensor":
        t1 = _conditioned_maps(fit, zy_projector([theta]))[0][0]

        def push(op):
            return unvec(t1 @ vec(action_superop(op)))
    else:
        env, _ = first_step_env_marginals(process, zy_projector(theta))
        sup = reduced_superop(process.interactions[1], env, process.noise)

        def push(op):
            return unvec(sup @ vec(op))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    rows = []
    for i in range(n):
        th = math.acos(min(max(1.0 - (2.0 * i + 1.0) / n, -1.0), 1.0))
        ph = math.fmod(golden * i, 2 * math.pi)
        out = push(projector(th, ph))
        if float(np.trace(out).real) < 1e-9:
            continue
        rho = project_psd(out)
        rho = rho / float(np.trace(rho).real)
        rows.append((th, ph, *(float(np.trace(rho @ s).real) for s in (SX, SY, SZ))))
    return np.array(rows)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("kind", ["process-tensor", "markov-map"])
def test_bloch_volume_matches_per_sample_loop(kind, noisy):
    # one call gives both clouds of every angle, the tensor's first
    spec = PROCESS_NAMES["cnot-cz"](NOISE if noisy else None)
    fit = fit_restricted_tensor(generate_records(spec))
    thetas = (0.0, math.pi / 4, math.pi / 2, 0.3, 2.9)
    stacked = bloch_volume(fit, thetas, spec)
    assert len(stacked) == len(thetas)
    for theta, clouds in zip(thetas, stacked):
        assert len(clouds) == 2
        cloud = clouds[("process-tensor", "markov-map").index(kind)]
        ref = ref_bloch_volume(kind, fit, theta, 200, spec)
        assert cloud.shape == ref.shape
        assert np.abs(cloud - ref).max() <= 1e-12
        # an angle alone gives the bits of its row in the stack
        [alone] = bloch_volume(fit, [theta], spec)
        assert all(np.array_equal(a, b) for a, b in zip(alone, clouds)), theta
