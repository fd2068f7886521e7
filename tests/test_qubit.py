import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# oracles that other tests compare against, pinned here to closed forms
from oracles import (
    antipode,
    apply_projector,
    partial_trace,
    random_density,
    rotation_gate,
)
from proctensor.qubit import (
    CNOT,
    CZ,
    FIT_BASIS_LABELS,
    ID2,
    OVERCOMPLETE_LABELS,
    PROJECTOR_ANGLES,
    NoiseSpec,
    apply_noise,
    bloch_vector,
    named_projector,
    projector,
    state_fidelity,
    zy_projector,
)

angles = st.floats(0, math.pi, allow_nan=False)
phases = st.floats(-math.pi, math.pi, allow_nan=False)


# ------------------------------------------------------- rotation gate

def test_rotation_zero_is_identity_up_to_phase():
    r = rotation_gate(0.0, 1.23)
    phase = r[0, 0] / abs(r[0, 0])
    assert np.abs(r / phase - ID2).max() < 1e-12


def test_rotation_pi_flips_ground():
    out = rotation_gate(math.pi, 0.0) @ np.array([1, 0])
    assert abs(out[0]) < 1e-12 and abs(abs(out[1]) - 1) < 1e-12


def test_rotation_to_minus_y_axis():
    out = rotation_gate(math.pi / 2, -math.pi / 2) @ np.array([1, 0])
    expected = np.array([1, -1j]) / math.sqrt(2)
    overlap = abs(np.vdot(expected, out))
    assert abs(overlap - 1) < 1e-12


@settings(max_examples=40, deadline=None)
@given(angles, phases)
def test_rotation_is_unitary_and_prepares_target(theta, phi):
    r = rotation_gate(theta, phi)
    assert np.abs(r.conj().T @ r - ID2).max() < 1e-12
    out = r @ np.array([1, 0])
    assert np.abs(np.outer(out, out.conj()) - projector(theta, phi)).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(angles, phases)
def test_projector_unitary_sandwich(theta, phi):
    # realizing the projector as a rotated ground-state projection
    r = rotation_gate(theta, phi)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(r @ ground @ r.conj().T - projector(theta, phi)).max() < 1e-12


# ---------------------------------------------------------- projectors

def test_projector_poles():
    assert np.allclose(projector(0, 0), np.diag([1, 0]))
    assert np.abs(projector(math.pi, 0) - np.diag([0, 1])).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(angles, min_size=1, max_size=4), st.lists(phases, min_size=1, max_size=4))
def test_projector_broadcasts_rank1_projectors(thetas, phis):
    stack = projector(np.array(thetas)[:, None], phis)
    assert stack.shape == (len(thetas), len(phis), 2, 2)
    for i, theta in enumerate(thetas):
        for j, phi in enumerate(phis):
            p = projector(theta, phi)
            # every element of a stack is the scalar call, bit for bit
            assert stack[i, j].tobytes() == p.tobytes()
            assert np.abs(p - p.conj().T).max() < 1e-15
            assert np.abs(p @ p - p).max() < 1e-12
            assert abs(np.trace(p) - 1) < 1e-12
            direction = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                         math.cos(theta)]
            assert np.abs(bloch_vector(p) - direction).max() < 1e-12
    zy = zy_projector(np.array(thetas))
    for i, theta in enumerate(thetas):
        assert zy[i].tobytes() == zy_projector(theta).tobytes()


def test_named_zy_plus_state():
    # exterior bisector of +z/+y carries a -i relative phase
    expected = np.array([math.cos(math.pi / 8), -1j * math.sin(math.pi / 8)])
    assert np.abs(named_projector("zy+") - np.outer(expected, expected.conj())).max() < 1e-12
    assert np.abs(named_projector("zy+") - zy_projector(math.pi / 4)).max() < 1e-12


def test_zy_projector_endpoints():
    assert np.abs(zy_projector(0) - named_projector("z+")).max() < 1e-12
    assert np.abs(zy_projector(math.pi / 2) - named_projector("y-")).max() < 1e-12


def test_all_labels_are_rank1_projectors():
    for label in OVERCOMPLETE_LABELS:
        p = named_projector(label)
        assert np.abs(p @ p - p).max() < 1e-10, label
        assert abs(np.trace(p).real - 1) < 1e-10, label


def test_antipodal_pairs_sum_to_identity():
    for label in FIT_BASIS_LABELS:
        q = projector(*antipode(*PROJECTOR_ANGLES[label]))
        assert np.abs(named_projector(label) + q - ID2).max() < 1e-10, label
    # explicit antipodal labels agree with antipode()
    xy_minus = projector(*antipode(*PROJECTOR_ANGLES["xy+"]))
    assert np.abs(named_projector("xy-") - xy_minus).max() < 1e-10


def test_named_projector_directions():
    # bisector labels point halfway between the named axes
    expected = {
        "xy+": np.array([1, 1, 0]) / math.sqrt(2),
        "xz+": np.array([1, 0, 1]) / math.sqrt(2),
        "yz+": np.array([0, 1, 1]) / math.sqrt(2),
        "yx+": np.array([-1, 1, 0]) / math.sqrt(2),
        "zx+": np.array([-1, 0, 1]) / math.sqrt(2),
        "zy+": np.array([0, -1, 1]) / math.sqrt(2),
    }
    for label, direction in expected.items():
        assert np.abs(bloch_vector(named_projector(label)) - direction).max() < 1e-10


def test_bad_label():
    with pytest.raises(ValueError, match="bad-label"):
        named_projector("w+")


# ------------------------------------------------------ apply_projector

def test_apply_projector_aligned():
    ground = np.diag([1.0, 0.0]).astype(complex)
    out, p = apply_projector(ground, named_projector("z+"))
    assert abs(p - 1.0) < 1e-12
    assert np.allclose(out, ground)


def test_apply_projector_orthogonal():
    ground = np.diag([1.0, 0.0]).astype(complex)
    out, p = apply_projector(ground, named_projector("z-"))
    assert abs(p) < 1e-12
    assert np.abs(out).max() < 1e-12


def test_apply_projector_entangled_oracle():
    # statevector oracle: project S of (|00> - i|11>)/sqrt(2) on x+
    phi = np.array([1, 0, 0, -1j], dtype=complex) / math.sqrt(2)
    p_x = named_projector("x+")
    op = np.kron(p_x, np.eye(2))
    collapsed = op @ phi
    p_oracle = float(np.vdot(collapsed, collapsed).real)
    env_oracle = np.array([[0.5, 0.5j], [-0.5j, 0.5]])

    rho = np.outer(phi, phi.conj())
    out, p = apply_projector(rho, p_x, target=0)
    assert abs(p - 0.5) < 1e-12 and abs(p - p_oracle) < 1e-12
    env = partial_trace(out, 2, 2, keep="b") / p
    assert np.abs(env - env_oracle).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), angles, phases)
def test_apply_projector_breaks_entanglement(seed, theta, phi):
    rho = random_density(seed, dim=4)
    p = projector(theta, phi)
    out, prob = apply_projector(rho, p, target=0)
    if prob < 1e-9:
        return
    env = partial_trace(out, 2, 2, keep="b")
    assert np.abs(out - np.kron(p, env)).max() < 1e-10
    # the system marginal is steered onto the projector state
    sys = partial_trace(out, 2, 2, keep="a") / prob
    assert np.abs(sys - p).max() < 1e-10


def test_apply_projector_bad_target():
    with pytest.raises(ValueError, match="bad-target"):
        apply_projector(np.eye(2) / 2, named_projector("z+"), target=1)


# ------------------------------------------------------- state fidelity

def test_fidelity_self():
    rho = random_density(3)
    assert abs(state_fidelity(rho, rho) - 1) < 1e-10


def test_fidelity_orthogonal():
    assert state_fidelity(np.diag([1, 0]), np.diag([0, 1])) < 1e-12


def test_fidelity_mixed_pure():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert abs(state_fidelity(np.eye(2) / 2, plus) - 0.5) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_fidelity_symmetric_and_bounded(s1, s2):
    a, b = random_density(s1), random_density(s2)
    f_ab = state_fidelity(a, b)
    f_ba = state_fidelity(b, a)
    assert abs(f_ab - f_ba) < 1e-9
    assert 0.0 <= f_ab <= 1.0


def test_fidelity_requires_normalization():
    with pytest.raises(ValueError, match="not-normalized"):
        state_fidelity(np.eye(2), np.eye(2) / 2)


def test_fidelity_requires_matching_dims():
    with pytest.raises(ValueError, match="bad-dims"):
        state_fidelity(np.eye(2) / 2, np.eye(4) / 4)


# -------------------------------------------------------------- noise

def test_noise_identity():
    rho = random_density(11)
    assert np.abs(apply_noise(rho, NoiseSpec()) - rho).max() < 1e-12


def test_full_amplitude_damping():
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = apply_noise(excited, NoiseSpec(gamma_amp=1.0))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_half_dephasing_kills_coherence():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = apply_noise(plus, NoiseSpec(lambda_phase=0.5))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 4])
def test_noise_is_the_per_qubit_kraus_embedding(dim):
    # each qubit's Kraus operators embedded explicitly: k alone on one
    # qubit; kron(k, I) on the system, then kron(I, k) on the environment
    spec = NoiseSpec(gamma_amp=0.05, lambda_phase=0.2)
    ks = spec.kraus_ops()
    embeddings = ([ks] if dim == 2
                  else [[np.kron(k, ID2) for k in ks], [np.kron(ID2, k) for k in ks]])
    rho = np.array([random_density(seed, dim) for seed in (3, 4)])
    expected = rho
    for ops in embeddings:
        expected = sum(op @ expected @ op.conj().T for op in ops)
    assert np.array_equal(apply_noise(rho, spec), expected)
    assert np.array_equal(apply_noise(rho[0], spec), expected[0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 1), st.floats(0, 1))
def test_noise_preserves_trace(seed, gamma, lam):
    rho = random_density(seed, dim=4)
    out = apply_noise(rho, NoiseSpec(gamma_amp=gamma, lambda_phase=lam))
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_noise_spec_range():
    with pytest.raises(ValueError, match="bad-noise"):
        NoiseSpec(gamma_amp=1.5)


# ---------------------------------------------------------- constants

def test_cz_constant():
    assert np.allclose(CZ, np.diag([1, 1, 1, -1]))
    assert np.abs(CZ.conj().T @ CZ - np.eye(4)).max() < 1e-15


def test_cnot_control_assignment():
    # first qubit controls: flips the environment only when the system is |1>
    for s in (0, 1):
        for e in (0, 1):
            ket = np.zeros(4)
            ket[2 * s + e] = 1.0
            out = CNOT @ ket
            expected = np.zeros(4)
            expected[2 * s + (e ^ s)] = 1.0
            assert np.allclose(out, expected), (s, e)
    assert np.abs(CNOT.conj().T @ CNOT - np.eye(4)).max() < 1e-15


def test_apply_projector_on_environment():
    phi = np.array([1, 0, 0, -1j], dtype=complex) / math.sqrt(2)
    rho = np.outer(phi, phi.conj())
    p_y_plus = named_projector("y+")
    out, prob = apply_projector(rho, p_y_plus, target=1)
    assert abs(prob - 0.5) < 1e-12
    # projecting the environment steers the system onto the mirrored state
    sys = partial_trace(out, 2, 2, keep="a") / prob
    expected = named_projector("x-")  # <y+| collapses (|00>-i|11>)/sqrt2 to |x->
    assert np.abs(sys - expected).max() < 1e-10
