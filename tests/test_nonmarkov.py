import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mat_log_psd, random_unitary
from proctensor import (
    NoiseSpec,
    RestrictedProcessTensor,
    ShotConfig,
    cnot_cz_process,
    cz_cnot_process,
    generate_records,
)
from proctensor.channels import action_superop
from proctensor.linalg import BRANCH_CUTOFF, herm_eig, project_psd, spectral_function, unvec, vec
from proctensor.nonmarkov import (
    LOG_FLOOR,
    RANK_RTOL,
    SUPPORT_WEIGHT_TOL,
    ChoiFamily,
    MinimizeResult,
    _dual_newton,
    _dual_terms,
    _floored_entropy,
    _herm_basis,
    _intermediate_states,
    _kernel_directions,
    _reference_spectrum,
    _restrict_to_support,
    bloch_volume,
    condition_family,
    default_theta_grid,
    family_predict,
    minimize_nonmarkovianity,
    relative_entropy,
    sweep_theta,
    uncorrelated_choi,
)
from proctensor.qubit import FIT_BASIS, named_projector, zy_projector

LN2 = math.log(2)


def random_full_rank_state(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + 0.05 * np.eye(dim)
    return rho / np.trace(rho).real


def one_angle(fit, theta, spec):
    """The family, the reference (8, 8) and the result at one angle, each
    layer called on a one-element stack."""
    fam = condition_family(fit, [theta])
    ref = uncorrelated_choi(fam, spec)
    [res] = minimize_nonmarkovianity(fam, ref)
    return fam, ref[0], res


# ---------------------------------------------------- relative entropy

def test_relative_entropy_self():
    rho = random_full_rank_state(1)
    assert relative_entropy(rho, rho) <= 1e-12


def test_relative_entropy_classical():
    assert abs(relative_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) - LN2) < 1e-12


def test_relative_entropy_max_entangled_vs_mixed():
    phi = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    mes = np.outer(phi, phi.conj())
    assert abs(relative_entropy(mes, np.eye(4) / 4) - math.log(4)) < 1e-10


def test_relative_entropy_support_mismatch():
    # a library refusal is a ValueError whose message starts with its tag
    with pytest.raises(ValueError, match="^support-mismatch: "):
        relative_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("a, b", [
    (np.zeros((8, 8)), np.eye(8) / 8),
    (-np.eye(8) / 8, np.eye(8) / 8),
    (np.diag([1.0, -1.0, 0, 0, 0, 0, 0, 0]), np.eye(8) / 8),
    (np.eye(8) / 8, -np.eye(8) / 8),
    (np.eye(8) / 8, np.zeros((8, 8))),
], ids=["zero-a", "negative-a", "traceless-a", "negative-b", "zero-b"])
def test_relative_entropy_rejects_nonpositive_trace(a, b):
    with pytest.raises(ValueError, match="bad-trace"):
        relative_entropy(a, b)


def test_relative_entropy_rejects_reference_that_is_not_psd():
    with pytest.raises(ValueError, match="not-psd"):
        relative_entropy(np.eye(8) / 8, np.diag([0.6, 0.5, -0.1, 0, 0, 0, 0, 0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 100_000))
def test_relative_entropy_nonnegative(seed_a, seed_b):
    a = random_full_rank_state(seed_a)
    b = random_full_rank_state(seed_b)
    d = relative_entropy(a, b)
    assert d >= 0.0
    if d < 1e-8:
        assert np.abs(a - b).max() < 1e-3


def test_relative_entropy_unitary_invariance():
    a = random_full_rank_state(5)
    b = random_full_rank_state(6)
    u = random_unitary(7, dim=4)
    d1 = relative_entropy(a, b)
    d2 = relative_entropy(u @ a @ u.conj().T, u @ b @ u.conj().T)
    assert abs(d1 - d2) < 1e-9


# ------------------------------------------------------ family building

def test_family_shape_and_consistency(cnot_cz_fit):
    fam = condition_family(cnot_cz_fit, [math.pi / 2])
    assert fam.thetas.tolist() == [math.pi / 2]
    assert fam.base.shape == (1, 8, 8)
    assert fam.directions.shape == (28, 8, 8)
    assert fam.normalization.shape == (1,)
    assert fam.intermediate.shape == (1, 2, 2)
    assert abs(fam.normalization[0] - 0.5) < 1e-9
    # base reproduces the conditioned one-step data
    t1 = cnot_cz_fit.contract_first_step(zy_projector(math.pi / 2))
    t1 = t1 / fam.normalization[0]
    for label in ("x+", "y-", "z+", "yz+"):
        p = named_projector(label)
        direct = unvec(t1 @ vec(action_superop(p)))
        assert np.abs(family_predict(fam.base[0], p) - direct).max() < 1e-9


def test_family_predict_refuses_a_non_finite_operation(cnot_cz_fit):
    fam = condition_family(cnot_cz_fit, [math.pi / 2])
    for op in (np.full((2, 2), math.nan), np.full((4, 4), math.inf)):
        with pytest.raises(ValueError, match="^non-finite"):
            family_predict(fam.base[0], op)


def test_family_predict_stacks_equal_per_item_results():
    # a stack of Choi states (3, 1) against a stack of operations (1, 4), as
    # 2x2 operators and as their 4x4 actions, gives each item's own bytes
    rng = np.random.default_rng(8)
    chois = rng.normal(size=(3, 1, 8, 8)) + 1j * rng.normal(size=(3, 1, 8, 8))
    ops = rng.normal(size=(1, 4, 2, 2)) + 1j * rng.normal(size=(1, 4, 2, 2))
    for form in (ops, action_superop(ops)):
        out = family_predict(chois, form)
        assert out.shape == (3, 4, 2, 2)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(out[i, j], family_predict(chois[i, 0], form[0, j])), (i, j)


def test_kernel_directions_are_the_free_span_of_the_fit_basis():
    # 28 read-only Hermitian 8x8 directions, orthonormal, that all nine
    # fit-basis functionals annihilate; the bytes are those of the stacked
    # family_predict construction, its SVD and the rows past its rank
    dirs = _kernel_directions()
    assert dirs.shape == (28, 8, 8) and not dirs.flags.writeable
    assert np.array_equal(dirs, dirs.conj().swapaxes(-1, -2))
    gram = np.einsum("kij,lij->kl", dirs.conj(), dirs)
    assert np.abs(gram - np.eye(28)).max() < 1e-13
    assert np.abs(family_predict(dirs[:, None], FIT_BASIS[None])).max() <= 1e-13
    hb = _herm_basis(8)
    m = family_predict(hb[:, None], FIT_BASIS[None])
    cons = np.stack([m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1].real, m[..., 0, 1].imag],
                    axis=-1)
    _, svals, vh = np.linalg.svd(cons.reshape(len(hb), -1).T)
    rank = int(np.sum(svals > RANK_RTOL * svals[0]))
    assert dirs.tobytes() == np.einsum("kg,gij->kij", vh[rank:], hb).tobytes()


def test_family_directions_annihilate_data(cnot_cz_fit):
    fam = condition_family(cnot_cz_fit, [math.pi / 4])
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=len(fam.directions))
    shifted = fam.base[0] + sum(c * d for c, d in zip(coeffs, fam.directions))
    for label in ("x+", "x-", "y+", "y-", "z+", "z-", "xy+", "xz+", "yz+"):
        p = named_projector(label)
        a = family_predict(shifted, p)
        b = family_predict(fam.base[0], p)
        assert np.abs(a - b).max() < 1e-8, label


def test_family_base_trace(cnot_cz_fit):
    # the trace functional is outside the projective span; the base is the
    # representative shifted to the physical value of 2
    for theta in (0.0, 0.3, math.pi / 2):
        fam = condition_family(cnot_cz_fit, [theta])
        assert abs(np.trace(fam.base[0]).real - 2.0) < 1e-8


def test_memory_measure_requires_fitted_tensor(cnot_cz_spec):
    unfitted = RestrictedProcessTensor()
    calls = (
        lambda: condition_family(unfitted, [0.3]),
        lambda: condition_family(unfitted, []),
        lambda: sweep_theta(unfitted, [0.0, 0.3], process=cnot_cz_spec),
        lambda: sweep_theta(unfitted, [], process=cnot_cz_spec),
        lambda: bloch_volume(unfitted, [0.3], cnot_cz_spec),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^not-fitted"):
            call()


@pytest.fixture(scope="module")
def sampled_cnot_cz_fit(cnot_cz_spec):
    return sampled_fit(cnot_cz_spec, 3000, 0)


@pytest.mark.parametrize("kind", ["exact", "shots"])
def test_one_vanishing_rule(kind, cnot_cz_fit, cnot_cz_spec, sampled_cnot_cz_fit):
    # a point is absent where the fit's branch is below the cutoff or its
    # reference is zero; the reference is zero where the process's branch
    # vanishes. At pi the exact fit's branch vanishes; the sampled fit's
    # reads 3.56e-3, and the process's is 0
    fit = {"exact": cnot_cz_fit, "shots": sampled_cnot_cz_fit}[kind]
    fam = condition_family(fit, [0.3, math.pi])
    refs = uncorrelated_choi(fam, cnot_cz_spec)
    if kind == "exact":
        assert fam.normalization[1] < BRANCH_CUTOFF
    else:
        assert abs(fam.normalization[1] - 3.56e-3) < 5e-5
        assert np.array_equal(refs[1], np.zeros((8, 8)))
    assert refs[0].any()
    results = minimize_nonmarkovianity(fam, refs)
    assert results[1] is None and isinstance(results[0], MinimizeResult)
    with pytest.raises(ValueError, match="^bad-dims"):
        minimize_nonmarkovianity(fam, refs[:1])
    swept = sweep_theta(fit, [0.3, math.pi], process=cnot_cz_spec)
    assert swept[1] is None
    assert_same_result(swept[0], results[0], 0.3)
    # the Bloch clouds apply the branch half of the rule: the same point is
    # absent, and the other's clouds do not depend on the points beside it
    volumes = bloch_volume(fit, [0.3, math.pi], cnot_cz_spec)
    assert volumes[1] is None
    (alone,) = bloch_volume(fit, [0.3], cnot_cz_spec)
    for stacked, single in zip(volumes[0], alone, strict=True):
        assert stacked.shape == single.shape and stacked.tobytes() == single.tobytes()


def test_bloch_volume_checks_its_angles(cnot_cz_fit, cnot_cz_spec):
    # every vanishing angle is absent, and every other one gives clouds: at
    # 3.1415 and 3.1417 the fit's branch lies just above the cutoff, and the
    # rounding that dividing by it lifts once raised "not-hermitian". An
    # empty stack gives no volumes
    thetas = np.array([0.3, 3.1415, 3.1417, math.pi, 3.14159265358979])
    volumes = bloch_volume(cnot_cz_fit, thetas, cnot_cz_spec)
    assert all(pair is not None for pair in volumes[:3]) and volumes[3:] == [None, None]
    assert bloch_volume(cnot_cz_fit, [], cnot_cz_spec) == []


@pytest.mark.parametrize("entry", ["sweep_theta", "bloch_volume", "condition_family",
                                   "uncorrelated_choi"])
def test_angles_are_checked_before_any_trig(cnot_cz_fit, cnot_cz_spec, entry):
    # every entry point takes a 1-D stack of finite angles, the reference
    # through its family; an infinite angle must not reach cos
    call = {
        "sweep_theta": lambda t: sweep_theta(cnot_cz_fit, t, process=cnot_cz_spec),
        "bloch_volume": lambda t: bloch_volume(cnot_cz_fit, t, cnot_cz_spec),
        "condition_family": lambda t: condition_family(cnot_cz_fit, t),
        "uncorrelated_choi": lambda t: uncorrelated_choi(condition_family(cnot_cz_fit, t),
                                                         cnot_cz_spec),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for thetas in (0.3, [[0.1, 0.2]]):
            with pytest.raises(ValueError, match="^bad-dims"):
                call(thetas)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^non-finite"):
                call([0.3, bad])
        call([0.3])


def test_degenerate_intermediate_state_is_masked():
    # a map without any output leaves no intermediate state: it is the zero
    # matrix, so that the point's reference is zero and the point absent
    rho = _intermediate_states(np.zeros((2, 4, 16), dtype=complex))
    assert np.array_equal(rho, np.zeros((2, 2, 2)))


# ------------------------------------------------- uncorrelated reference

def test_uncorrelated_theta_zero(cnot_cz_fit, cnot_cz_spec):
    ref = uncorrelated_choi(condition_family(cnot_cz_fit, [0.0]), cnot_cz_spec)[0]
    # identity channel Choi ⊗ ground state
    omega = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            omega[2 * i + i, 2 * j + j] = 1.0
    expected = np.kron(omega, np.diag([1.0, 0.0]))
    assert np.abs(ref - expected).max() < 1e-8


def test_uncorrelated_theta_half_pi(cnot_cz_fit, cnot_cz_spec):
    # the environment marginal is maximally mixed, so the reduced step is a
    # complete dephasing channel and the average state is maximally mixed
    ref = uncorrelated_choi(condition_family(cnot_cz_fit, [math.pi / 2]), cnot_cz_spec)[0]
    deph = np.zeros((4, 4), dtype=complex)
    deph[0, 0] = deph[3, 3] = 1.0
    expected = np.kron(deph, np.eye(2) / 2)
    assert np.abs(ref - expected).max() < 1e-8


def test_uncorrelated_trace_matches_family(cnot_cz_fit, cnot_cz_spec):
    for theta in (0.0, 0.4, math.pi / 2):
        fam = condition_family(cnot_cz_fit, [theta])
        [ref] = uncorrelated_choi(fam, cnot_cz_spec)
        assert abs(np.trace(ref).real - np.trace(fam.base[0]).real) < 1e-6


def test_uncorrelated_equals_family_on_product_branch(cz_cnot_fit, cz_cnot_spec):
    # CZ first leaves the joint state product for any first projection, so
    # the data-consistent family contains the reference itself
    fam = condition_family(cz_cnot_fit, [math.pi / 3])
    [ref] = uncorrelated_choi(fam, cz_cnot_spec)
    for label in ("x+", "y-", "z+", "xz+"):
        p = named_projector(label)
        a = family_predict(ref, p)
        b = family_predict(fam.base[0], p)
        assert np.abs(a - b).max() < 1e-8


# ----------------------------------------------------------- minimizer

def test_minimize_memoryless_branch(cnot_cz_fit, cnot_cz_spec):
    _, _, res = one_angle(cnot_cz_fit, 0.0, cnot_cz_spec)
    assert res.n_value <= 0.02
    assert res.converged


def test_minimize_memory_peak(cnot_cz_fit, cnot_cz_spec):
    fam, _, res = one_angle(cnot_cz_fit, math.pi / 2, cnot_cz_spec)
    assert abs(res.n_value - LN2) <= 0.02
    # optimizer output is PSD and data-consistent
    w = np.linalg.eigvalsh(res.optimizer)
    assert w.min() > -1e-8
    for label in ("x+", "y-", "z+", "yz+"):
        p = named_projector(label)
        a = family_predict(res.optimizer, p)
        b = family_predict(fam.base[0], p)
        assert np.abs(a - b).max() < 1e-6, label


def test_minimize_never_exceeds_psd_start(cnot_cz_fit, cnot_cz_spec):
    # floored evaluation of the starting point dominates the optimum
    for theta in (0.4, 0.7, math.pi / 2):
        fam, ref, res = one_angle(cnot_cz_fit, theta, cnot_cz_spec)
        b = project_psd(fam.base[0])
        b = b / np.trace(b).real
        r = ref / np.trace(ref).real
        start = np.trace(b @ (mat_log_psd(b) - mat_log_psd(r))).real
        assert res.n_value <= start + 1e-9, theta


def test_minimize_unitary_covariance(cnot_cz_fit, cnot_cz_spec):
    fam = condition_family(cnot_cz_fit, [math.pi / 2])
    ref = uncorrelated_choi(fam, cnot_cz_spec)
    u = random_unitary(3, dim=8)
    fam_u = ChoiFamily(fam.thetas, u @ fam.base @ u.conj().T, u @ fam.directions @ u.conj().T,
                       fam.normalization, fam.intermediate)
    ref_u = u @ ref @ u.conj().T
    [res] = minimize_nonmarkovianity(fam, ref)
    [res_u] = minimize_nonmarkovianity(fam_u, ref_u)
    assert abs(res.n_value - res_u.n_value) < 1e-10


def test_minimize_exact_peak_needs_no_iterations(cnot_cz_fit, cnot_cz_spec):
    # the support condition pins every coefficient, so N is one evaluation
    _, _, res = one_angle(cnot_cz_fit, math.pi / 2, cnot_cz_spec)
    assert abs(res.n_value - LN2) < 1e-10
    assert res.iterations == 0
    assert res.free_directions == 0
    assert res.converged and res.min_eig > -1e-12


def test_minimize_exact_memoryless_order_is_zero(cz_cnot_fit, cz_cnot_spec):
    for theta in default_theta_grid():
        _, _, res = one_angle(cz_cnot_fit, theta, cz_cnot_spec)
        assert res.n_value <= 1e-12, theta
        assert res.converged and res.iterations == 0, theta


@pytest.fixture(scope="module")
def noisy_cnot_cz():
    spec = cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05))
    return spec, RestrictedProcessTensor().fit(generate_records(spec))


@pytest.mark.parametrize("noisy", [False, True])
def test_minimize_value_is_relative_entropy_of_optimizer(noisy, cnot_cz_fit, cnot_cz_spec,
                                                         noisy_cnot_cz):
    spec, fit = noisy_cnot_cz if noisy else (cnot_cz_spec, cnot_cz_fit)
    for theta in default_theta_grid():
        _, ref, res = one_angle(fit, theta, spec)
        assert abs(relative_entropy(res.optimizer, ref) - res.n_value) < 1e-12, theta
        assert res.converged, theta
        if noisy:
            # the reference is rank-deficient, so the support restriction applies
            assert res.free_directions < 28, theta
            assert res.iterations <= 100, (theta, res.iterations)


def sampled_fit(spec, shots, seed):
    return RestrictedProcessTensor(psd=True).fit(generate_records(spec, ShotConfig(shots=shots, seed=seed)))


@pytest.mark.parametrize("seed", [0, 1])
def test_minimize_sampled_memory_falls_with_shots(seed, cnot_cz_spec, cz_cnot_spec):
    # sampled records pin every coefficient, with the least-squares member
    # partly outside the reference support: it is compressed onto it, and
    # the estimate approaches the exact one as the shots grow
    cz_first_max, peak_error = [], []
    for shots in (3000, 30000):
        fit = sampled_fit(cz_cnot_spec, shots, seed)
        results = [one_angle(fit, theta, cz_cnot_spec)[2] for theta in default_theta_grid()]
        fit = sampled_fit(cnot_cz_spec, shots, seed)
        results.append(one_angle(fit, math.pi / 2, cnot_cz_spec)[2])
        for res in results:
            assert res.converged and res.iterations == 0 and res.free_directions == 0
            assert SUPPORT_WEIGHT_TOL < res.off_support < 0.5
        cz_first_max.append(max(res.n_value for res in results[:-1]))
        peak_error.append(abs(results[-1].n_value - LN2))
    assert cz_first_max[1] < cz_first_max[0], cz_first_max
    assert peak_error[1] < peak_error[0], peak_error


def test_sampled_noisy_slice_proved_empty_is_not_converged():
    # noise and 3000 shots (cnot-cz, seed 7): at theta = 0 and 11 pi / 12 the
    # dual proves that no compressed member is PSD, so the least-squares
    # member is evaluated. That member is no minimum, and the point says so.
    spec = cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05))
    grid = default_theta_grid()
    results = sweep_theta(sampled_fit(spec, 3000, 7), grid, process=spec)
    assert [res.converged for res in results] == [False] + [True] * 11 + [False]
    for res in (results[0], results[-1]):
        assert res.free_directions > 0 and res.optimality > 1.0 and res.min_eig < 0


# --------------------------------------------------------------- sweeps

def test_sweep_peak_location(cnot_cz_fit, cnot_cz_spec):
    grid = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    results = sweep_theta(cnot_cz_fit, grid, process=cnot_cz_spec)
    values = {theta: res.n_value for theta, res in zip(grid, results)}
    peak = values[math.pi / 2]
    for theta, n in values.items():
        if theta != math.pi / 2:
            assert peak > n, (theta, n, peak)


def test_sweep_reports_vanishing_branch(cnot_cz_fit, cnot_cz_spec):
    assert sweep_theta(cnot_cz_fit, [math.pi], process=cnot_cz_spec) == [None]


def test_sweep_empty_and_all_vanishing_grids(cnot_cz_fit, cnot_cz_spec):
    assert sweep_theta(cnot_cz_fit, [], process=cnot_cz_spec) == []
    assert sweep_theta(cnot_cz_fit, [math.pi, math.pi], process=cnot_cz_spec) == [None, None]


def test_default_grid():
    grid = default_theta_grid()
    assert len(grid) == 13
    assert grid[0] == 0.0
    assert abs(grid[-1] - 11 * math.pi / 12) < 1e-15


# --------------------------------------------------------------- volumes

def test_volume_identity_branch(cnot_cz_fit, cnot_cz_spec):
    [(_, cloud)] = bloch_volume(cnot_cz_fit, [0.0], cnot_cz_spec)
    # reduced step is the identity: outputs coincide with the sampled inputs
    for theta_a1, phi_a1, bx, by, bz in cloud:
        direction = np.array(
            [
                math.sin(theta_a1) * math.cos(phi_a1),
                math.sin(theta_a1) * math.sin(phi_a1),
                math.cos(theta_a1),
            ]
        )
        assert np.abs(np.array([bx, by, bz]) - direction).max() < 1e-8


def test_volume_markov_collapses_to_z_axis(cnot_cz_fit, cnot_cz_spec):
    [(_, cloud)] = bloch_volume(cnot_cz_fit, [math.pi / 2], cnot_cz_spec)
    assert np.abs(cloud[:, 2:4]).max() < 1e-8  # bx, by vanish


def test_volume_tensor_keeps_off_axis_structure(cnot_cz_fit, cnot_cz_spec):
    [(cloud, _)] = bloch_volume(cnot_cz_fit, [math.pi / 2], cnot_cz_spec)
    planar = np.hypot(cloud[:, 2], cloud[:, 3])
    assert planar.max() > 0.4


def test_volume_deterministic(cnot_cz_fit, cnot_cz_spec):
    [a] = bloch_volume(cnot_cz_fit, [0.3], cnot_cz_spec)
    [b] = bloch_volume(cnot_cz_fit, [0.3], cnot_cz_spec)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_family_contains_memory_choi(cnot_cz_fit):
    # the physically constructed memory state for the maximally entangled
    # branch is data-consistent with the fitted family
    fam = condition_family(cnot_cz_fit, [math.pi / 2])
    base = fam.base[0]
    omega_p = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    omega_m = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    memory = (np.kron(np.outer(omega_p, omega_p.conj()), e00)
              + np.kron(np.outer(omega_m, omega_m.conj()), e11))
    for label in ("x+", "y-", "z+", "xz+", "yz+"):
        p = named_projector(label)
        a = family_predict(memory, p)
        b = family_predict(base, p)
        assert np.abs(a - b).max() < 1e-8, label
    # and it lies in the affine family: base plus a kernel combination
    resid = memory - base
    coeffs = np.array([np.trace(d @ resid).real for d in fam.directions])
    recon = base + sum(c * d for c, d in zip(coeffs, fam.directions))
    assert np.abs(recon - memory).max() < 1e-8


def test_sweep_converges_at_intermediate_angles(cnot_cz_fit, cnot_cz_spec):
    # points away from the peak must terminate cleanly with a value inside
    # the memory band
    grid = [0.72, 2.16]
    for theta, res in zip(grid, sweep_theta(cnot_cz_fit, grid, process=cnot_cz_spec)):
        assert res.converged, (theta, res.iterations)
        assert 0.3 < res.n_value < 0.6


# ------------------------------------- one floored-entropy evaluation
# The evaluations the shared one replaced, kept as references; the reference
# copy of relative_entropy also decomposes b twice, where the shared
# spectrum decomposes it once.

def ref_objective_terms(y, log_ref, floor):
    w, v = np.linalg.eigh(y)
    pos = np.clip(w, 0.0, None)
    tau = float(pos.sum())
    if tau < 1e-9:
        return 1e6
    s = pos / tau
    ent = float(np.sum(s * np.log(np.maximum(s, floor))))
    yn = (v * s) @ v.conj().T
    return ent - float(np.real(np.trace(yn @ log_ref)))


def ref_relative_entropy(a, b, floor):
    am = a / float(np.trace(a).real)
    bm = b / float(np.trace(b).real)
    wb, vb = np.linalg.eigh(bm)
    floor_vecs = vb[:, wb < floor]
    if floor_vecs.shape[1]:
        weight = float(np.real(np.einsum("ik,ij,jk->", floor_vecs.conj(), am, floor_vecs)))
        if weight > SUPPORT_WEIGHT_TOL:
            raise ValueError(f"support-mismatch: weight {weight:.3e}")
    log_b = (vb * np.log(np.maximum(wb, floor))) @ vb.conj().T
    wa, _ = np.linalg.eigh(am)
    pos = np.clip(wa, 0.0, None)
    ent = float(np.sum(pos * np.log(np.maximum(wa, floor))))
    cross = float(np.real(np.trace(am @ log_b)))
    return max(ent - cross, 0.0)


def restrict_one(base, dirs, null):
    """_restrict_to_support for one point, null zero-padded to 8 columns:
    (member, free directions, off-support residual)."""
    members, vh, free, off_support = _restrict_to_support(base[None], dirs, null[None])
    return members[0], np.einsum("jk,kab->jab", vh[0][free[0]], dirs), off_support[0]


@pytest.mark.parametrize("family", ["exact", "noisy", "shots"])
def test_floored_entropy_matches_the_three_copies(family, cnot_cz_fit, cnot_cz_spec,
                                                  noisy_cnot_cz, sampled_cnot_cz_fit):
    spec, fit = {"exact": (cnot_cz_spec, cnot_cz_fit), "noisy": noisy_cnot_cz,
                 "shots": (cnot_cz_spec, sampled_cnot_cz_fit)}[family]
    rng = np.random.default_rng(11)
    for theta in (0.0, 0.48, math.pi / 2, 2.16, 2.88):
        fam, ref, res = one_angle(fit, theta, spec)
        refn = ref / np.trace(ref).real
        log_ref, w, v, keep = _reference_spectrum(refn)
        # one decomposition gives the floored log, the support and the null space
        assert np.array_equal(log_ref, mat_log_psd(refn, LOG_FLOOR))
        assert np.abs(w - np.linalg.eigvalsh(refn)[::-1]).max() < 1e-14
        assert np.array_equal(keep, np.arange(8) < keep.sum())
        assert w[keep].min() >= LOG_FLOOR and np.all(w[~keep] < LOG_FLOOR)
        null = v[:, ~keep]
        assert np.abs(null.conj().T @ refn @ null).max() < 1e-12
        full = (fam.base[0], fam.directions)
        members = [full, restrict_one(*full, v * ~keep)[:2]]
        mixed_ref = 0.9 * refn + 0.1 * np.eye(8) / 8
        for base, dirs in members:
            for scale in (0.05, 0.5):
                c = scale * rng.normal(size=len(dirs))
                a = project_psd(base + np.einsum("k,kij->ij", c, dirs))
                a = a / np.trace(a).real
                assert abs(_floored_entropy(*np.linalg.eigh(a), log_ref)
                           - ref_objective_terms(a, log_ref, LOG_FLOOR)) <= 1e-14
                assert abs(relative_entropy(a, mixed_ref)
                           - ref_relative_entropy(a, mixed_ref, LOG_FLOOR)) <= 1e-14
        opt = res.optimizer / np.trace(res.optimizer).real
        assert abs(relative_entropy(opt, ref) - ref_relative_entropy(opt, ref, LOG_FLOOR)) <= 1e-14
        # the minimiser and relative_entropy share the evaluation; the
        # minimiser takes the spectrum of its final member, whose positive
        # part is the optimizer, so the two agree to rounding
        assert abs(relative_entropy(res.optimizer, ref) - res.n_value) <= 1e-14, theta


# ------------------------------------------------------ dual Newton

def noisy_slice(noisy_cnot_cz, theta):
    """Support-compressed least-squares member and free directions of a noisy point."""
    spec, fit = noisy_cnot_cz
    fam = condition_family(fit, [theta])
    [ref] = uncorrelated_choi(fam, spec)
    _, w, v, keep = _reference_spectrum(ref / np.trace(ref).real)
    base, dirs, _ = restrict_one(fam.base[0], fam.directions, v * ~keep)
    support = v[:, keep]
    on_support = support.conj().T @ np.concatenate([base[None], dirs]) @ support
    return on_support[0], on_support[1:], np.log(w[keep])


def test_dual_gradient_and_hessian_match_finite_differences(noisy_cnot_cz):
    z0, zk, log_w = noisy_slice(noisy_cnot_cz, 0.72)
    hb = _herm_basis(len(log_w))
    span = np.einsum("gab,kba->kg", hb, np.concatenate([z0[None], zk])).real
    g = np.einsum("ig,gab->iab", np.linalg.svd(span)[2][len(span):], hb)
    y = 0.3 * np.random.default_rng(3).normal(size=len(g))
    value, grad, hess, rho = _dual_terms(y, log_w, g)
    h = np.diag(log_w) + np.einsum("i,iab->ab", y, g)
    w, v = np.linalg.eigh(h)
    assert abs(value - math.log(np.exp(w).sum())) < 1e-12
    assert np.abs(rho - (v * (np.exp(w) / np.exp(w).sum())) @ v.conj().T).max() < 1e-12
    step = 1e-5
    for k in range(len(g)):
        e = np.zeros(len(g))
        e[k] = step
        up, down = _dual_terms(y + e, log_w, g), _dual_terms(y - e, log_w, g)
        assert abs((up[0] - down[0]) / (2 * step) - grad[k]) <= 1e-8, k
        assert np.abs((up[1] - down[1]) / (2 * step) - hess[k]).max() <= 1e-7, k
    assert np.linalg.eigvalsh(hess).min() > 0


def test_dual_newton_on_qubit_slices():
    # unit-trace states diag(0.7, 0.3) + d sigma_x: S(rho||R) for diagonal R
    # is least at d = 0, where it is the classical relative entropy
    log_w = np.log([0.8, 0.2])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    c, steps, converged, optimality = _dual_newton(np.diag([0.7, 0.3]).astype(complex), sx[None],
                                                   log_w)
    assert converged and 0 < steps <= 10 and optimality <= 1e-15
    assert abs(c[0]) < 1e-9
    # with a negative eigenvalue of 1/2 on the diagonal no member is PSD: the
    # dual value falls below min(log_w), which proves it; such a slice has
    # no minimiser, so it is not converged
    c, steps, converged, _ = _dual_newton(np.diag([1.5, -0.5]).astype(complex), sx[None],
                                          log_w)
    assert not converged and steps > 0 and np.array_equal(c, [0.0])


def test_newton_step_cap_is_reported(monkeypatch, noisy_cnot_cz):
    # a Newton run cut short by its step cap is reported, never taken as a minimum
    from proctensor import nonmarkov

    spec, fit = noisy_cnot_cz
    fam = condition_family(fit, [0.48])
    ref = uncorrelated_choi(fam, spec)
    [full] = minimize_nonmarkovianity(fam, ref)
    monkeypatch.setattr(nonmarkov, "NEWTON_STEPS", 2)
    [cut] = minimize_nonmarkovianity(fam, ref)
    assert full.converged and full.iterations > 2
    assert not cut.converged and cut.iterations == 2 and cut.optimality > nonmarkov.NEWTON_TOL


def test_newton_line_search_exhaustion_is_reported(monkeypatch, noisy_cnot_cz):
    # the slice at 0.48 takes full Newton steps; a dual that reads higher at
    # every trial after the first two steps exhausts the 40 halvings of the
    # third, which stops the run there, reported as not converged
    from proctensor import nonmarkov

    z0, zk, log_w = noisy_slice(noisy_cnot_cz, 0.48)
    c, steps, converged, _ = _dual_newton(z0, zk, log_w)
    assert converged and steps > 2 and np.abs(c).max() > 0
    calls = []

    def no_descent_after_two_steps(y, log_w, g):
        calls.append(y)
        value, grad, hess, rho = _dual_terms(y, log_w, g)
        return (value if len(calls) <= 3 else value + 1.0), grad, hess, rho

    monkeypatch.setattr(nonmarkov, "_dual_terms", no_descent_after_two_steps)
    c, steps, converged, optimality = _dual_newton(z0, zk, log_w)
    assert len(calls) == 3 + 40
    assert not converged and steps == 2 and optimality > nonmarkov.NEWTON_TOL
    assert np.array_equal(c, np.zeros(len(zk)))


def test_noisy_minimum_is_not_beaten_by_nearby_members(noisy_cnot_cz):
    # the Newton point is the minimum over the PSD members, so no PSD member
    # nearby on the family reads lower (at 0.24 and 0.48 its smallest
    # eigenvalue on the support is 6e-6 and 3e-6)
    spec, fit = noisy_cnot_cz
    rng = np.random.default_rng(5)
    for theta in (0.24, 0.48, 0.96, 2.16):
        fam, ref, res = one_angle(fit, theta, spec)
        assert res.converged and res.free_directions == 11 and res.optimality <= 1e-15
        _, _, v, keep = _reference_spectrum(ref / np.trace(ref).real)
        _, dirs, off_support = restrict_one(fam.base[0], fam.directions, v * ~keep)
        assert off_support <= SUPPORT_WEIGHT_TOL
        checked = 0
        for scale in (1e-3, 1e-5, 1e-7):
            for _ in range(10):
                y = res.optimizer + scale * np.einsum("k,kij->ij", rng.normal(size=11), dirs)
                # the two null eigenvalues of the reference stay 0 up to rounding
                if np.linalg.eigvalsh(y).min() < -1e-12:
                    continue
                checked += 1
                assert relative_entropy(y, ref) >= res.n_value - 1e-12, (theta, scale)
        assert checked >= 10, theta


def test_pinned_point_evaluates_once(monkeypatch, cnot_cz_fit, cnot_cz_spec):
    # with no free direction the start is the member itself, so there is
    # nothing to compare it with; the QR bound pins it without an SVD, and
    # one eigh of the member gives min_eig, the optimizer and N
    from proctensor import nonmarkov

    calls = {"entropy": 0, "eigvalsh": 0, "eigh": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fam = condition_family(cnot_cz_fit, [math.pi / 2])
    refs = uncorrelated_choi(fam, cnot_cz_spec)
    ref = refs[0]
    monkeypatch.setattr(nonmarkov, "_floored_entropy",
                        counted("entropy", nonmarkov._floored_entropy))
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    [res] = minimize_nonmarkovianity(fam, refs)
    assert res.free_directions == 0
    # one eigh of the reference, one of the final member
    assert calls == {"entropy": 1, "eigvalsh": 0, "eigh": 2, "svd": 0}
    monkeypatch.undo()
    refn = ref / np.trace(ref).real
    log_ref, _, v, keep = _reference_spectrum(refn)
    member, _, off_support = restrict_one(fam.base[0], fam.directions, v * ~keep)
    assert off_support <= SUPPORT_WEIGHT_TOL
    w, v = herm_eig(member)
    assert res.optimizer.tobytes() == spectral_function(w, v, lambda x: np.clip(x, 0.0, None)).tobytes()
    assert res.min_eig == w[-1]
    assert res.n_value == max(float(_floored_entropy(w, v, log_ref)), 0.0)


# ----------------------------------------------- stacked sweep over angles

SWEEP_GRID = [float(t) for t in default_theta_grid()] + [math.pi / 2, math.pi]
SWEEP_CASES = [(order, kind) for order in ("cnot-cz", "cz-cnot")
               for kind in ("exact", "noisy", "shots")]


@pytest.fixture(scope="module")
def sweep_cases(cnot_cz_spec, cnot_cz_fit, cz_cnot_spec, cz_cnot_fit, noisy_cnot_cz,
                sampled_cnot_cz_fit):
    """(spec, fit) per process order and record kind: exact records, records
    with noise gamma = lambda = 0.05 and 3000-shot records of seed 0."""
    noisy_cz = cz_cnot_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05))
    return {
        ("cnot-cz", "exact"): (cnot_cz_spec, cnot_cz_fit),
        ("cnot-cz", "noisy"): noisy_cnot_cz,
        ("cnot-cz", "shots"): (cnot_cz_spec, sampled_cnot_cz_fit),
        ("cz-cnot", "exact"): (cz_cnot_spec, cz_cnot_fit),
        ("cz-cnot", "noisy"): (noisy_cz, RestrictedProcessTensor().fit(generate_records(noisy_cz))),
        ("cz-cnot", "shots"): (cz_cnot_spec, sampled_fit(cz_cnot_spec, 3000, 0)),
    }


def assert_same_result(a, b, theta):
    """Every field of two results equal, the optimizer byte for byte (a
    frozen dataclass with an array field cannot be compared with ==)."""
    for field in dataclasses.fields(MinimizeResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "optimizer":
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), theta
        else:
            assert type(x) is type(y) and x == y, (theta, field.name, x, y)


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_rows_equal_per_angle_minimisation(case, sweep_cases):
    # the stacked sweep is the per-angle computation, point by point, with
    # the vanishing branch at pi as its absent point
    spec, fit = sweep_cases[case]
    results = sweep_theta(fit, SWEEP_GRID, process=spec)
    assert len(results) == len(SWEEP_GRID) and results[-1] is None
    for theta, res in zip(SWEEP_GRID, results):
        fam = condition_family(fit, [theta])
        [alone] = minimize_nonmarkovianity(fam, uncorrelated_choi(fam, spec))
        if alone is None:
            assert res is None, theta
            continue
        assert_same_result(res, alone, theta)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SWEEP_CASES),
       st.lists(st.sampled_from(SWEEP_GRID) | st.floats(0.0, 3.0), min_size=1, max_size=8))
@example(("cnot-cz", "noisy"), [math.pi, 0.0, math.pi / 2, 0.0, math.pi])
@example(("cz-cnot", "shots"), [0.24, math.pi, 0.24])
def test_sweep_row_independent_of_its_stack(sweep_cases, case, thetas):
    # a row depends on its own angle only, not on the angles stacked with it
    # or on their order
    spec, fit = sweep_cases[case]
    results = sweep_theta(fit, thetas, process=spec)
    backwards = sweep_theta(fit, thetas[::-1], process=spec)[::-1]
    for theta, res, other in zip(thetas, results, backwards):
        alone = sweep_theta(fit, [theta], process=spec)[0]
        for stacked in (res, other):
            if alone is None:
                assert stacked is None, theta
                continue
            assert (stacked.converged, stacked.iterations) == (alone.converged, alone.iterations)
            assert abs(stacked.n_value - alone.n_value) <= 1e-13, theta


def ref_restrict_to_support(base, dirs, null):
    """The one-point restriction on the unpadded null space, with a full
    SVD: (member, orthogonal projector onto the free coefficients,
    off-support residual)."""
    if not null.shape[1]:
        return base, np.eye(len(dirs)), 0.0
    nb = null.conj().T @ base
    nd = np.einsum("ai,kab->kib", null.conj(), dirs)
    a = np.concatenate([nd.real, nd.imag], axis=1).reshape(len(dirs), -1).T
    b = np.concatenate([nb.real, nb.imag]).reshape(-1)
    u, svals, vh = np.linalg.svd(a)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    c0 = -vh[:rank].T @ ((u[:, :rank].T @ b) / svals[:rank])
    member = base + np.einsum("k,kij->ij", c0, dirs)
    off_support = float(np.linalg.norm(a @ c0 + b)) / abs(float(np.trace(member).real))
    return member, vh[rank:].T @ vh[rank:], off_support


@pytest.mark.parametrize("noisy", [False, True])
def test_restrict_to_support_ragged_null_sizes(noisy, cnot_cz_fit, cnot_cz_spec, noisy_cnot_cz):
    # theta = 0 has a larger null space than theta > 0; padded into one
    # stack, each point still gets its lone member, directions and residual
    spec, fit = noisy_cnot_cz if noisy else (cnot_cz_spec, cnot_cz_fit)
    thetas = (0.0, 0.72, math.pi / 2)
    fams = [condition_family(fit, [theta]) for theta in thetas]
    bases = np.concatenate([fam.base for fam in fams])
    refs = np.concatenate([uncorrelated_choi(fam, spec) for fam in fams])
    _, _, v, keep = _reference_spectrum(refs / np.trace(refs, axis1=1, axis2=2).real[:, None, None])
    assert (~keep).sum(axis=1).tolist() == ([5, 2, 2] if noisy else [7, 4, 4])
    dirs = condition_family(fit, [0.0]).directions
    members, vh, free, off_support = _restrict_to_support(bases, dirs, v * ~keep[:, None, :])
    for i in range(len(thetas)):
        member, directions, lone_off = restrict_one(bases[i], dirs, v[i] * ~keep[i])
        free_dirs = np.einsum("jk,kab->jab", vh[i][free[i]], dirs)
        assert np.abs(members[i] - member).max() <= 1e-13
        assert free_dirs.shape == directions.shape
        assert np.abs(free_dirs - directions).max(initial=0.0) <= 1e-13
        assert abs(off_support[i] - lone_off) <= 1e-15
        ref_member, ref_free, ref_off = ref_restrict_to_support(bases[i], dirs, v[i][:, ~keep[i]])
        assert np.abs(members[i] - ref_member).max() <= 1e-12
        assert np.abs(vh[i][free[i]].T @ vh[i][free[i]] - ref_free).max() <= 1e-12
        assert abs(off_support[i] - ref_off) <= 1e-12
    assert free.sum(axis=1).tolist() == ([0, 11, 11] if noisy else [0, 0, 0])


def random_restriction(seed, k, points, n=4):
    """A stack for _restrict_to_support: k orthonormal off-diagonal units of
    _herm_basis(n) as the directions (traceless, so every member keeps the
    trace of its base) and, per point (kind, m), a random Hermitian base
    plus n times the identity with a null space of m columns, zero-padded:
    the first m unit vectors ("unit"), which leave the constraint column of
    every unit not touching them exactly zero, or random orthonormal ones."""
    rng = np.random.default_rng(seed)
    dirs = _herm_basis(n)[n + rng.choice(n * n - n, k, replace=False)]
    bases, nulls = [], []
    for kind, m in points:
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        bases.append(x + x.conj().T + n * np.eye(n))
        q = np.eye(n, dtype=complex)
        if kind == "random":
            q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        nulls.append(q * (np.arange(n) < m))
    return np.array(bases), dirs, np.array(nulls)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.lists(st.tuples(st.sampled_from(["unit", "random"]), st.integers(0, 4)),
                min_size=1, max_size=6))
@example(0, 6, [("unit", 1), ("random", 4), ("unit", 0), ("random", 1), ("unit", 4)])
@example(1, 12, [("random", 1), ("unit", 2), ("random", 4)])
def test_restrict_to_support_matches_minimum_norm_lstsq(seed, k, points):
    # full-rank and rank-deficient points, some with exactly zero constraint
    # columns, in one stack: the QR bound and the SVD fallback give the
    # minimum-norm solution and the SVD rule's free directions, and a row
    # does not depend on the points stacked with it
    bases, dirs, nulls = random_restriction(seed, k, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        members, vh, free, off_support = _restrict_to_support(bases, dirs, nulls)
        alone = [_restrict_to_support(bases[i:i + 1], dirs, nulls[i:i + 1])
                 for i in range(len(points))]
    for i, (kind, m) in enumerate(points):
        for stacked, single in zip((members, vh, free, off_support), alone[i]):
            assert stacked[i].tobytes() == single[0].tobytes(), (i, kind, m)
        null = nulls[i][:, :m]
        nd = np.einsum("ai,kab->kib", null.conj(), dirs)
        nb = null.conj().T @ bases[i]
        a = np.concatenate([nd.real, nd.imag], axis=1).reshape(k, -1).T
        b = np.concatenate([nb.real, nb.imag]).reshape(-1)
        ref = np.linalg.lstsq(a, -b, rcond=1e-10)[0]
        # the directions are orthonormal, so c0 is read off the member
        c0 = np.einsum("kab,ab->k", dirs.conj(), members[i] - bases[i]).real
        assert np.abs(c0 - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), (i, kind, m)
        svals = np.linalg.svd(a, compute_uv=False) if m else np.zeros(0)
        rank = int(np.sum(svals > 1e-10 * svals.max(initial=0.0)))
        assert free[i].sum() == k - rank, (i, kind, m)
        if rank < k:
            # the free rows span the directions a cannot see
            assert np.abs(a @ vh[i][free[i]].T).max(initial=0.0) <= 1e-12
