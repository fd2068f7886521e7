import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# oracles that other tests compare against, pinned here to closed forms
from oracles import mat_log_psd, mat_sqrt_psd, partial_trace, reconstruct
from proctensor.linalg import (
    clip_divided_differences,
    herm_eig,
    kron_stack,
    project_psd,
    unvec,
    vec,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)

finite = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


def c2x2(draw_vals):
    vals = np.array(draw_vals, dtype=float)
    return (vals[:4] + 1j * vals[4:]).reshape(2, 2)


matrices_2x2 = st.lists(finite, min_size=8, max_size=8).map(c2x2)


def hermitian_2x2(m):
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- kron

def test_kron_identity():
    assert np.allclose(kron_stack(I2, I2), np.eye(4))


def test_kron_diagonal():
    assert np.allclose(kron_stack(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_kron_projector_block():
    p0 = np.diag([1, 0]).astype(complex)
    out = kron_stack(p0, SX)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = SX
    assert np.allclose(out, expected)


@settings(max_examples=40, deadline=None)
@given(matrices_2x2, matrices_2x2, matrices_2x2)
def test_kron_associative(a, b, c):
    left = kron_stack(kron_stack(a, b), c)
    right = kron_stack(a, kron_stack(b, c))
    assert np.abs(left - right).max() < 1e-12


# ------------------------------------------------------- partial trace

def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert np.allclose(partial_trace(rho, 2, 2, keep="a"), np.diag([1, 0]))


def test_partial_trace_entangled_marginal():
    phi = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.abs(partial_trace(rho, 2, 2, keep="a") - I2 / 2).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(matrices_2x2, matrices_2x2)
def test_partial_trace_factorizes(a, b):
    joint = np.kron(a, b)
    assert np.abs(partial_trace(joint, 2, 2, keep="a") - a * np.trace(b)).max() < 1e-12
    assert np.abs(partial_trace(joint, 2, 2, keep="b") - b * np.trace(a)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(matrices_2x2, matrices_2x2)
def test_partial_trace_preserves_trace(a, b):
    joint = np.kron(a, b)
    assert abs(np.trace(partial_trace(joint, 2, 2, keep="a")) - np.trace(joint)) < 1e-12


def test_partial_trace_bad_dims():
    with pytest.raises(ValueError, match="bad-dims"):
        partial_trace(np.eye(6), 2, 2, keep="a")
    with pytest.raises(ValueError, match="bad-dims"):
        partial_trace(np.eye(4), 2, 2, keep="c")


# ------------------------------------------------------------ herm_eig

def test_herm_eig_identity():
    e = herm_eig(I2)
    assert np.allclose(e.eigenvalues, [1, 1])


def test_herm_eig_sigma_x():
    e = herm_eig(SX)
    assert np.allclose(e.eigenvalues, [1, -1])
    plus = e.eigenvectors[:, 0]
    assert abs(abs(plus @ np.array([1, 1]) / math.sqrt(2)) - 1) < 1e-12


def test_herm_eig_sort_descending():
    e = herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(e.eigenvalues, [3, 2, 1])


@settings(max_examples=40, deadline=None)
@given(matrices_2x2)
def test_herm_eig_reconstruction_and_unitarity(m):
    h = hermitian_2x2(m)
    e = herm_eig(h)
    assert np.abs(reconstruct(e) - h).max() < 1e-10
    v = e.eigenvectors
    assert np.abs(v.conj().T @ v - I2).max() < 1e-10


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(ValueError, match="not-hermitian"):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_herm_eig_rejects_nonsquare():
    with pytest.raises(ValueError, match="bad-dims"):
        herm_eig(np.ones((2, 3)))


# --------------------------------------------------------- mat_sqrt_psd

def test_sqrt_identity():
    assert np.allclose(mat_sqrt_psd(I2), I2)


def test_sqrt_diagonal():
    assert np.allclose(mat_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_projector_idempotent():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert np.abs(mat_sqrt_psd(plus) - plus).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(matrices_2x2)
def test_sqrt_squares_to_projection(m):
    h = hermitian_2x2(m)
    s = mat_sqrt_psd(h)
    assert np.abs(s @ s - project_psd(h)).max() < 1e-8


# ---------------------------------------------------------- mat_log_psd

def test_log_identity():
    assert np.abs(mat_log_psd(I2)).max() < 1e-12


def test_log_diagonal():
    m = np.diag([math.e, math.e**2])
    assert np.abs(mat_log_psd(m) - np.diag([1.0, 2.0])).max() < 1e-12


def test_log_floor():
    out = mat_log_psd(np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([0.0, math.log(1e-12)]))


def test_log_requires_positive_floor():
    with pytest.raises(ValueError, match="bad-floor"):
        mat_log_psd(I2, floor=0.0)


@settings(max_examples=40, deadline=None)
@given(matrices_2x2)
def test_exp_log_round_trip(m):
    h = hermitian_2x2(m)
    psd = h @ h.conj().T + 1e-3 * I2
    e = herm_eig(mat_log_psd(psd))
    back = (e.eigenvectors * np.exp(e.eigenvalues)) @ e.eigenvectors.conj().T
    assert np.abs(back - psd).max() < 1e-8


# ---------------------------------------------------------- project_psd

def test_project_identity():
    assert np.allclose(project_psd(I2), I2)


def test_project_clips():
    assert np.allclose(project_psd(np.diag([1.0, -0.5])), np.diag([1.0, 0.0]))


def test_project_sigma_z():
    assert np.allclose(project_psd(SZ), np.diag([1.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(matrices_2x2)
def test_project_idempotent(m):
    h = hermitian_2x2(m)
    once = project_psd(h)
    assert np.abs(project_psd(once) - once).max() < 1e-12
    assert np.linalg.eigvalsh(once).min() > -1e-13


def loop_project_psd(m):
    """One-matrix eigenvalue clipping, the reference for stacked projection."""
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w, v = w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return (out + out.conj().T) / 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 16]), st.integers(0, 5))
def test_stacked_project_psd_equals_per_matrix(seed, n, count):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    stack = (a + a.conj().swapaxes(-1, -2)) / 2
    out = project_psd(stack)
    assert out.shape == stack.shape
    for m, got in zip(stack, out):
        assert np.array_equal(got, loop_project_psd(m))
        assert np.array_equal(got, project_psd(m))


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8, 32]))
def test_clip_jacobian_matches_finite_difference(seed, n):
    rng = np.random.default_rng(seed)
    # eigenvalues at least 0.1 away from 0: the projection is smooth there
    w = rng.uniform(0.1, 1.0, n) * rng.choice([-1, 1], n)
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = (v * w) @ v.conj().T
    h = random_hermitian(rng, n)
    vals, vecs = np.linalg.eigh(m)
    omega = clip_divided_differences(vals)
    jh = vecs @ (omega * (vecs.conj().T @ h @ vecs)) @ vecs.conj().T
    t = 1e-5
    fd = (project_psd(m + t * h) - project_psd(m - t * h)) / (2 * t)
    assert np.abs(jh - fd).max() < 1e-7 * max(1.0, np.abs(h).max())
    inner = np.vdot(h, jh).real
    assert -1e-12 <= inner <= np.vdot(h, h).real + 1e-12
    assert np.all((omega >= 0) & (omega <= 1))


def test_clip_divided_differences_values():
    omega = clip_divided_differences([2.0, 1.0, -1.0, -3.0])
    expected = np.array([
        [1.0, 1.0, 2 / 3, 2 / 5],
        [1.0, 1.0, 1 / 2, 1 / 4],
        [2 / 3, 1 / 2, 0.0, 0.0],
        [2 / 5, 1 / 4, 0.0, 0.0],
    ])
    assert np.allclose(omega, expected, rtol=0, atol=1e-15)
    # zero counts as clipped; repeated eigenvalues need no division
    assert np.array_equal(clip_divided_differences([0.0, 0.0, 1.0, 1.0]),
                          [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]])


def test_stacked_spectral_functions_keep_shape_and_checks():
    stack = np.array([I2, SZ, np.diag([4.0, 9.0])], dtype=complex)
    assert np.abs(mat_sqrt_psd(stack)[2] - np.diag([2.0, 3.0])).max() < 1e-12
    e = herm_eig(stack)
    assert e.eigenvalues.shape == (3, 2)
    assert np.abs(reconstruct(e) - stack).max() < 1e-12
    with pytest.raises(ValueError, match="not-hermitian"):
        project_psd(np.array([I2, [[0, 1], [0, 0]]], dtype=complex))


def test_single_matrix_functions_reject_stacks():
    stack = np.array([I2, SZ])
    with pytest.raises(ValueError, match="bad-dims"):
        vec(stack)
    with pytest.raises(ValueError, match="bad-dims"):
        partial_trace(np.zeros((3, 4, 4)), 2, 2, keep="a")


# ------------------------------------------------------------ vec/unvec

def test_vec_identity():
    assert np.allclose(vec(I2), [1, 0, 0, 1])


def test_vec_diag_order():
    assert np.allclose(vec(np.diag([2.0, 3.0])), [2, 0, 0, 3])


def test_vec_unvec_round_trip():
    assert np.allclose(unvec(vec(SX), 2, 2), SX)


def test_unvec_bad_length():
    with pytest.raises(ValueError, match="bad-dims"):
        unvec(np.ones(5), 2, 2)
