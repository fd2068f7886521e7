import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# oracles that other tests compare against, pinned here to closed forms
from oracles import apply_chi, chi_is_trace_preserving, chi_to_superop
from proctensor.channels import (
    chi_fidelity,
    chi_from_process,
    chi_of_operator,
    choi_to_map,
    map_to_choi,
    pauli_basis,
    reduced_map,
    reduced_superop,
    step_choi_factor,
    superop_to_chi,
    superop_to_choi,
)
from proctensor.linalg import project_psd, unvec, vec
from proctensor.qubit import CNOT, CZ, ID2, SZ, NoiseSpec, named_projector

AXIS = ["x+", "x-", "y+", "y-", "z+", "z-"]
AXIS_STATES = [named_projector(l) for l in AXIS]


def random_unitary(seed, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(seed, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ------------------------------------------------------ chi of operators

def test_chi_identity():
    chi = chi_of_operator(ID2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(chi, expected)


def test_chi_z_gate():
    chi = chi_of_operator(SZ)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(chi, expected)


def test_chi_y_minus_pattern():
    # projector on -y: quarter-magnitude block on the (I, Y) indices with
    # signs (+, -, -, +)
    chi = chi_of_operator(named_projector("y-"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.25
    expected[0, 2] = -0.25
    expected[2, 0] = -0.25
    expected[2, 2] = 0.25
    assert np.abs(chi - expected).max() < 1e-12


def test_chi_cz_pattern():
    # CZ = (II + IZ + ZI - ZZ)/2, so chi is rank one over those four labels
    chi = chi_of_operator(CZ)
    coef = np.zeros(16)
    coef[0] = 0.5   # II
    coef[3] = 0.5   # IZ
    coef[12] = 0.5  # ZI
    coef[15] = -0.5 # ZZ
    assert np.abs(chi - np.outer(coef, coef)).max() < 1e-12


# ------------------------------------------------------ chi estimation

def test_chi_from_process_identity():
    outputs = [s.copy() for s in AXIS_STATES]
    chi = chi_from_process(AXIS_STATES, [outputs])[0]
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(chi - expected).max() < 1e-10


def test_chi_from_process_y_minus():
    p = named_projector("y-")
    outputs = [p @ s @ p for s in AXIS_STATES]
    chi = chi_from_process(AXIS_STATES, [outputs])[0]
    assert np.abs(chi - chi_of_operator(p)).max() < 1e-10
    # every element off the quarter-block stays below the display cutoff
    mask = np.ones((4, 4), dtype=bool)
    mask[np.ix_([0, 2], [0, 2])] = False
    assert np.abs(chi[mask]).max() < 0.02


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_chi_round_trip_random_unitary(seed):
    u = random_unitary(seed)
    chi_true = chi_of_operator(u)
    outputs = [u @ s @ u.conj().T for s in AXIS_STATES]
    chi = chi_from_process(AXIS_STATES, [outputs])[0]
    assert np.abs(chi - chi_true).max() < 1e-8


def test_chi_from_process_insufficient_basis():
    ins = [AXIS_STATES[0]] * 6
    with pytest.raises(ValueError, match="insufficient-basis"):
        chi_from_process(ins, [ins])


def test_chi_two_qubit_cz_estimate():
    inputs = [np.kron(a, b) for a in AXIS_STATES for b in AXIS_STATES]
    outputs = [CZ @ r @ CZ.conj().T for r in inputs]
    chi = chi_from_process(inputs, [outputs])[0]
    assert np.abs(chi - chi_of_operator(CZ)).max() < 1e-8


# ----------------------------------------------------------- apply_chi

def test_apply_chi_identity():
    rho = random_density(5)
    assert np.abs(apply_chi(chi_of_operator(ID2), rho) - rho).max() < 1e-12


def test_apply_chi_z_on_plus():
    plus = named_projector("x+")
    minus = named_projector("x-")
    assert np.abs(apply_chi(chi_of_operator(SZ), plus) - minus).max() < 1e-12


def test_apply_chi_y_minus_on_ground():
    # direct P rho P evaluation: P|0><0|P = (1/2)|y-><y-|
    chi = chi_of_operator(named_projector("y-"))
    out = apply_chi(chi, np.diag([1.0, 0.0]).astype(complex))
    expected = np.array([[0.25, 0.25j], [-0.25j, 0.25]])
    assert np.abs(out - expected).max() < 1e-12


def test_apply_chi_bad_dims():
    with pytest.raises(ValueError, match="bad-dims"):
        apply_chi(np.eye(16), np.eye(2) / 2)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_apply_chi_cp_preserves_psd(seed_u, seed_r):
    chi = chi_of_operator(random_unitary(seed_u))
    out = apply_chi(chi, random_density(seed_r))
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-10


# -------------------------------------------------------- chi fidelity

def test_chi_fidelity_self():
    chi = chi_of_operator(named_projector("x+"))
    assert abs(chi_fidelity(chi, chi) - 1.0) < 1e-12


def test_chi_fidelity_orthogonal_paulis():
    assert abs(chi_fidelity(chi_of_operator(ID2), chi_of_operator(SZ))) < 1e-12


def test_chi_fidelity_bad_dims():
    with pytest.raises(ValueError, match="bad-dims"):
        chi_fidelity(np.eye(4), np.eye(16))


def test_chi_fidelity_rejects_nonpositive_traces():
    ideal = chi_of_operator(named_projector("z+"))
    with pytest.raises(ValueError, match="^bad-trace"):
        chi_fidelity(np.zeros((4, 4)), ideal)
    with pytest.raises(ValueError, match="^bad-trace"):
        chi_fidelity(ideal, -ideal)
    # one vanishing member of a stack is enough
    with pytest.raises(ValueError, match="^bad-trace"):
        chi_fidelity(np.array([ideal, np.zeros((4, 4))]), ideal)


def test_chi_fidelity_rejects_stacks_that_do_not_broadcast():
    chi = chi_of_operator(named_projector("z+"))
    with pytest.raises(ValueError, match="^bad-dims"):
        chi_fidelity(np.array([chi, chi]), np.array([chi, chi, chi]))


def test_trace_preserving_check():
    assert chi_is_trace_preserving(chi_of_operator(ID2))
    assert not chi_is_trace_preserving(chi_of_operator(named_projector("z+")))


# -------------------------------------------------------- reduced maps

def test_reduced_cz_identities():
    ground = named_projector("z+")
    excited = named_projector("z-")
    y_minus = named_projector("y-")

    chi_id = np.zeros((4, 4)); chi_id[0, 0] = 1.0
    chi_z = np.zeros((4, 4)); chi_z[3, 3] = 1.0
    chi_mix = np.zeros((4, 4)); chi_mix[0, 0] = 0.5; chi_mix[3, 3] = 0.5

    assert np.abs(reduced_map(CZ, ground) - chi_id).max() < 1e-9
    assert np.abs(reduced_map(CZ, excited) - chi_z).max() < 1e-9
    assert np.abs(reduced_map(CZ, y_minus) - chi_mix).max() < 1e-9


def test_reduced_cnot_ground_is_dephasing():
    chi = reduced_map(CNOT, named_projector("z+"))
    expected = np.zeros((4, 4)); expected[0, 0] = 0.5; expected[3, 3] = 0.5
    assert np.abs(chi - expected).max() < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_reduced_map_trace_preserving(seed_u, seed_e):
    u = random_unitary(seed_u, dim=4)
    env = random_density(seed_e)
    assert chi_is_trace_preserving(reduced_map(u, env), tol=1e-8)


def test_reduced_map_rejects_nonunitary():
    with pytest.raises(ValueError, match="not-unitary"):
        reduced_map(np.eye(4) * 2, np.diag([1.0, 0.0]))


def test_reduced_map_with_noise_still_tp():
    noise = NoiseSpec(gamma_amp=0.05, lambda_phase=0.05)
    chi = reduced_map(CZ, named_projector("z+"), noise)
    assert chi_is_trace_preserving(chi, tol=1e-8)


# ------------------------------------------------- representation moves

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_chi_superop_round_trip(seed):
    chi = chi_of_operator(random_unitary(seed))
    back = superop_to_chi(chi_to_superop(chi))
    assert np.abs(back - chi).max() < 1e-10


def test_choi_of_identity_channel():
    sup = np.eye(4, dtype=complex)
    choi = superop_to_choi(sup)
    # Choi of identity is the unnormalized maximally entangled projector
    omega = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            omega[2 * i + i, 2 * j + j] = 1.0
    assert np.abs(choi - omega).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_reduced_superop_matches_direct_contraction(seed_u, seed_r):
    u = random_unitary(seed_u, dim=4)
    env = random_density(seed_u + 1)
    rho = random_density(seed_r)
    sup = reduced_superop(u, env)
    direct = u @ np.kron(rho, env) @ u.conj().T
    direct = direct.reshape(2, 2, 2, 2)
    direct = np.einsum("abcb->ac", direct)
    assert np.abs(unvec(sup @ vec(rho)) - direct).max() < 1e-10


def test_pauli_basis_sizes():
    assert len(pauli_basis(1)) == 4
    assert len(pauli_basis(2)) == 16
    assert np.allclose(pauli_basis(2)[0], np.eye(4))
    for nqubits in (0, 3, -1):
        with pytest.raises(ValueError, match="bad-dims"):
            pauli_basis(nqubits)


def test_chi_from_process_z_gate():
    outputs = [SZ @ s @ SZ for s in AXIS_STATES]
    chi = chi_from_process(AXIS_STATES, [outputs])[0]
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.abs(chi - expected).max() < 1e-10


# ------------------- reshuffles and Pauli-pair tensor vs the loops they replaced
#
# The loops below are the unit-matrix and Pauli-pair constructions the
# index reshuffles replaced; they stay here as references, and the
# reshuffles must reproduce them bit for bit.

def unit(i, j, d=2):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def loop_two_step_choi(tensor_map):
    actions = [
        np.kron(unit(k, l), unit(i, j))
        for i in range(2) for j in range(2) for k in range(2) for l in range(2)
    ]
    blocks = [
        np.kron(unit(i, k), unit(j, l))
        for i in range(2) for j in range(2) for k in range(2) for l in range(2)
    ]
    choi = np.zeros((32, 32), dtype=complex)
    for a1, blk1 in zip(actions, blocks):
        for a0, blk0 in zip(actions, blocks):
            out = unvec(tensor_map @ np.kron(vec(a1), vec(a0)))
            choi += np.kron(np.kron(out, blk1), blk0)
    return choi


def loop_one_step_choi(t1):
    choi = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out = unvec(t1 @ vec(np.kron(unit(k, l), unit(i, j))))
                    choi += np.kron(np.kron(out, unit(i, k)), unit(j, l))
    return choi


def loop_superop_to_choi(s):
    d = int(round(np.sqrt(s.shape[0])))
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = unit(i, j, d)
            choi += np.kron((s @ vec(e)).reshape(d, d).T, e)
    return choi


def loop_chi_to_superop(chi):
    basis = pauli_basis(2 if chi.shape[0] == 16 else 1)
    s = np.zeros_like(chi)
    for m_, em in enumerate(basis):
        for n_, en in enumerate(basis):
            s += chi[m_, n_] * np.kron(en.conj(), em)
    return s


def loop_superop_to_chi(s):
    basis = pauli_basis(2 if s.shape[0] == 16 else 1)
    d = basis[0].shape[0]
    chi = np.zeros_like(s)
    for m_, em in enumerate(basis):
        for n_, en in enumerate(basis):
            op = np.kron(en.conj(), em)
            chi[m_, n_] = np.trace(op.conj().T @ s) / (d * d)
    return (chi + chi.conj().T) / 2


def loop_chi_from_process(inputs, outputs):
    basis = pauli_basis(2 if inputs[0].shape[0] == 4 else 1)
    nb = len(basis)
    pair_ops = [np.kron(basis[n_].conj(), basis[m_]) for m_ in range(nb) for n_ in range(nb)]
    design = np.vstack([np.stack([op @ vec(r) for op in pair_ops], axis=1) for r in inputs])
    y = np.concatenate([vec(r) for r in outputs])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    chi = sol.reshape(nb, nb)
    return (chi + chi.conj().T) / 2


def loop_chi_is_trace_preserving(chi, tol=1e-6):
    basis = pauli_basis(2 if chi.shape[0] == 16 else 1)
    acc = np.zeros_like(basis[0])
    for m_, em in enumerate(basis):
        for n_, en in enumerate(basis):
            acc = acc + chi[m_, n_] * (en.conj().T @ em)
    return bool(np.abs(acc - np.eye(acc.shape[0])).max() <= tol)


def random_complex(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_choi_map_round_trip_is_exact(seed, steps):
    m = random_complex(seed, (4, 16**steps))
    choi = map_to_choi(m, steps)
    assert choi.shape == (2 * 4**steps,) * 2
    assert np.array_equal(choi_to_map(choi, steps), m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_product_map_choi_is_kron_of_step_factors(seed):
    e, x1, x0 = (random_complex(seed + k, n) for k, n in enumerate((4, 16, 16)))
    two = map_to_choi(np.outer(e, np.kron(x1, x0)), 2)
    assert np.array_equal(two, np.kron(unvec(e), np.kron(step_choi_factor(x1), step_choi_factor(x0))))
    one = map_to_choi(np.outer(e, x0), 1)
    assert np.array_equal(one, np.kron(unvec(e), step_choi_factor(x0)))
    stack = step_choi_factor(np.array([x1, x0]))
    assert np.array_equal(stack, [step_choi_factor(x1), step_choi_factor(x0)])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_map_to_choi_matches_unit_matrix_loops(seed):
    two, one = random_complex(seed, (4, 256)), random_complex(seed, (4, 16))
    assert np.array_equal(map_to_choi(two, 2), loop_two_step_choi(two))
    assert np.array_equal(map_to_choi(one, 1), loop_one_step_choi(one))


def test_superops_of_one_or_two_qubits_only():
    for side in (3, 9, 64):
        for convert in (superop_to_chi, superop_to_choi):
            with pytest.raises(ValueError, match="^bad-dims"):
                convert(np.eye(side))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4]))
def test_superop_to_choi_matches_unit_matrix_loop(seed, d):
    s = random_complex(seed, (d * d, d * d))
    assert np.array_equal(superop_to_choi(s), loop_superop_to_choi(s))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([4, 16]))
def test_pauli_pair_conversions_match_loops(seed, side):
    m = random_complex(seed, (side, side))
    assert np.array_equal(chi_to_superop(m), loop_chi_to_superop(m))
    assert np.array_equal(superop_to_chi(m), loop_superop_to_chi(m))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_chi_from_process_matches_pair_loop(seed, nqubits):
    d = 2**nqubits
    inputs = [random_density(seed + k, d) for k in range(d * d)]
    outputs = [random_density(seed + 100 + k, d) for k in range(d * d)]
    assert np.array_equal(chi_from_process(inputs, [outputs])[0],
                          loop_chi_from_process(inputs, outputs))


def stacked_chi_case(seed, d, reps, psd):
    inputs = [random_density(seed + k, d) for k in range(d * d + 2)]
    stack = np.array([[random_density(seed + 100 * (r + 1) + k, d) for k in range(len(inputs))]
                      for r in range(reps)])
    chis = chi_from_process(inputs, stack, psd=psd)
    assert chis.shape == (reps, d * d, d * d)
    for outputs, chi in zip(stack, chis):
        reference = loop_chi_from_process(inputs, outputs)
        if psd:
            reference = project_psd(reference)
        yield chi, reference, chi_from_process(inputs, outputs[None], psd=psd)[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20), st.booleans())
def test_stacked_chi_from_process_equals_per_repetition(seed, reps, psd):
    # the characterization path: one qubit, the stacked solve gives the same bytes
    for chi, reference, single in stacked_chi_case(seed, 2, reps, psd):
        assert np.array_equal(chi, reference)
        assert np.array_equal(chi, single)


@pytest.mark.parametrize("psd", [False, True])
def test_stacked_two_qubit_chi_within_rounding(psd):
    # LAPACK's solve with many right-hand sides on the 2-qubit design may
    # round differently from one right-hand side
    for chi, reference, single in stacked_chi_case(11, 4, 3, psd):
        scale = np.abs(reference).max()
        assert np.abs(chi - reference).max() <= 1e-13 * scale
        assert np.abs(chi - single).max() <= 1e-13 * scale


def test_chi_from_process_rejects_mismatched_stack():
    with pytest.raises(ValueError, match="insufficient-basis"):
        chi_from_process(AXIS_STATES, np.array([AXIS_STATES[:5]]))
    with pytest.raises(ValueError, match="bad-dims"):
        chi_from_process(np.ones((6, 2, 3)), np.ones((6, 2, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-2]),
       st.sampled_from([1, 2]))
def test_trace_preserving_verdict_matches_loop(seed, eps, nqubits):
    chi = chi_of_operator(random_unitary(seed, 2**nqubits))
    chi = chi + eps * random_complex(seed + 1, chi.shape)
    assert chi_is_trace_preserving(chi) == loop_chi_is_trace_preserving(chi)
