"""Brute-force simulator and data generator for the two-step process.

The system and environment qubits start in |00⟩. Each of the two steps
projects the system, applies a joint system-environment unitary and then the
optional local noise. The simulator contracts the chain exactly; a sampled
record is that exact record seen through seeded, finite-shot three-axis
tomography.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import reduced_superop
from .linalg import BRANCH_CUTOFF, kron_stack, normalized_psd, unvec, vec_stack
from .qubit import (
    CNOT,
    CZ,
    FIT_BASIS,
    FIT_BASIS_ANGLES,
    ID2,
    NoiseSpec,
    QST_AXES,
    apply_noise,
    named_projector,
    projector,
)
from .tomography import qst_six_axis, records_from_arrays
from .validation import as_matrix, check_angles, check_broadcast, check_two_steps, check_unitary

__all__ = [
    "ProcessSpec",
    "ShotConfig",
    "MAX_SHOTS",
    "cnot_cz_process",
    "cz_cnot_process",
    "PROCESS_NAMES",
    "run_process",
    "markov_predict",
    "generate_records",
    "intervention_qpt_data",
    "last_step_superops",
]

_GROUND1 = np.diag([1.0, 0.0]).astype(complex)
_GROUND2 = np.kron(_GROUND1, _GROUND1)


@dataclass(frozen=True)
class ProcessSpec:
    """The two joint unitaries of the chain from |00⟩, and the local noise
    (a NoiseSpec applied after each of them) or None."""

    interactions: tuple
    noise: NoiseSpec | None = None

    def __post_init__(self):
        check_two_steps(self.interactions, "interactions")
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise ValueError(f"bad-noise: noise must be a NoiseSpec or None, got {self.noise!r}")
        us = tuple(check_unitary(u, "interaction") for u in self.interactions)
        object.__setattr__(self, "interactions", us)


#: Largest accepted shot count; the CLI exits with code 2 above it. Counts are
#: binomial draws, so neither time nor memory grows with shots.
MAX_SHOTS = 10**6


@dataclass(frozen=True)
class ShotConfig:
    """Shots per readout axis and the seed of the streams: integers, not bools."""

    shots: int = 3000
    seed: int = 0

    def __post_init__(self):
        if not (np.issubdtype(type(self.shots), np.integer) and 1 <= self.shots <= MAX_SHOTS):
            raise ValueError(f"bad-shots: shots must be an integer in [1, {MAX_SHOTS}], "
                             f"got {self.shots!r}")
        if not (np.issubdtype(type(self.seed), np.integer) and 0 <= self.seed < 2**64):
            raise ValueError(f"bad-seed: seed must be an integer in [0, 2**64), got {self.seed!r}")


def cnot_cz_process(noise: NoiseSpec | None = None) -> ProcessSpec:
    return ProcessSpec(interactions=(CNOT, CZ), noise=noise)


def cz_cnot_process(noise: NoiseSpec | None = None) -> ProcessSpec:
    return ProcessSpec(interactions=(CZ, CNOT), noise=noise)


PROCESS_NAMES = {"cnot-cz": cnot_cz_process, "cz-cnot": cz_cnot_process}


def _chain(spec: ProcessSpec, steps: Sequence[np.ndarray]):
    """Contract the chain over per-step stacks of projector matrices, up to
    the last given step, into subnormalized joint states."""
    rho = _GROUND2
    for u, mats in zip(spec.interactions, steps):
        a = kron_stack(mats, ID2)
        rho = a @ rho @ a.conj().swapaxes(-1, -2)
        rho = u @ rho @ u.conj().T
        if spec.noise is not None:
            rho = apply_noise(rho, spec.noise)
    return rho


def _checked_projectors(mats, name: str) -> np.ndarray:
    """A projector stack (..., 2, 2), checked ("non-finite", "bad-dims") before any arithmetic."""
    a = as_matrix(mats, name)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"bad-dims: {name} shape {a.shape} is not (..., 2, 2)")
    return a


def _checked_steps(steps) -> list[np.ndarray]:
    """The checked projector stacks of a two-step sequence, which must broadcast."""
    return check_broadcast([_checked_projectors(m, "step") for m in check_two_steps(steps)],
                           "steps")


def run_process(spec: ProcessSpec, steps: Sequence[np.ndarray]):
    """Exact contraction of one intervened sequence or a stack of them.

    steps holds one stack (..., 2, 2) of projector matrices per interaction;
    the stacks broadcast, so two 2x2 matrices give one sequence and a column
    and a row stack give a whole grid. Returns the joint probabilities of all
    outcomes p_joint (...), clipped at 0, and the normalized system marginals
    (..., 2, 2), maximally mixed where p_joint is below BRANCH_CUTOFF, as
    (states, p_joint). Steps are checked as _checked_steps describes.
    """
    rho = _chain(spec, _checked_steps(steps))
    p_joint = np.maximum(np.trace(rho, axis1=-2, axis2=-1).real, 0.0)
    out = np.einsum("...ijkj->...ik", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))
    out = out / np.maximum(p_joint, BRANCH_CUTOFF)[..., None, None]
    return np.where((p_joint >= BRANCH_CUTOFF)[..., None, None], out, ID2 / 2), p_joint


def markov_predict(spec: ProcessSpec, steps: Sequence[np.ndarray]):
    """Memoryless baseline of one sequence or a stack (steps as in run_process).

    From the system ground state, alternately applies each projector and the
    environment-in-ground reduced map of its step. Returns (states, p): unit
    trace PSD states, maximally mixed where p is below BRANCH_CUTOFF, and p
    clipped at 0. Steps are checked as in run_process.
    """
    rho = _GROUND1
    for mats, u in zip(_checked_steps(steps), spec.interactions):
        rho = mats @ rho @ np.conj(mats).swapaxes(-1, -2)
        rho = unvec(vec_stack(rho) @ reduced_superop(u, _GROUND1, spec.noise).T)
    return normalized_psd(rho)


def _stream_digest(seed: int, parts) -> bytes:
    """SHA-256 digest that keys one stream: the seed's 8 unsigned
    little-endian bytes, then each part's bytes in order.

    An array is hashed as its own bytes (float angles as their IEEE-754
    bytes), a string as UTF-8 and an integer as 8 signed little-endian bytes;
    every key maps to a stable, independent stream. generate_records keys on
    the complex128 |00⟩ state _GROUND2, the float64 angles (θ, φ) of each
    step and the seed, not on the interactions or the noise, so processes
    that differ only there (cnot-cz and cz-cnot) draw their counts from the
    same streams. The state stays in the key, although every process starts
    from it, because its bytes are part of every stream drawn so far:
    dropping it would change every sampled output.
    """
    h = hashlib.sha256(int(seed).to_bytes(8, "little", signed=False))
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(int(part).to_bytes(8, "little", signed=True))
    return h.digest()


def _stream_states(seed: int, keys) -> np.ndarray:
    """Philox key of each key's stream, (N, 2) uint64: the first 16 bytes of
    _stream_digest(seed, key) as two little-endian 64-bit words. A stream's
    state is its key with the counter at 0."""
    digests = b"".join(_stream_digest(seed, key)[:16] for key in keys)
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 2)


def _staged_counts(passed: float, readout, cfg: ShotConfig, rng: np.random.Generator):
    """Counts of cfg.shots shots per readout axis: post-selected, then read out.

    A shot is post-selected with probability passed and then reads "+" on
    axis a with probability readout[a], so total_a ~ Bin(shots, passed) and
    npass_a ~ Bin(total_a, readout[a]). All totals are drawn before the
    passes, in one call, which draws what one call per axis would. Returns
    the lists (npass, total).
    """
    total = rng.binomial(cfg.shots, passed, len(readout)).tolist()
    # scalar draws give the numbers rng.binomial gives on whole arrays, without
    # the checks numpy makes on array arguments, which cost more than the draws
    return [rng.binomial(n, q) for n, q in zip(total, readout)], total


#: "+" projector of each QST axis, the readout of a sampled state.
_QST_READOUTS = np.array([named_projector(axis + "+") for axis in QST_AXES])


def _readout_probabilities(states):
    """"+" probability on each of _QST_READOUTS, (..., 3), of states (..., 2, 2)."""
    return np.trace(_QST_READOUTS @ states[..., None, :, :], axis1=-2, axis2=-1).real


def _sampled_states(passed, readout, keys, cfg: ShotConfig):
    """Three-axis QST of N items from sampled counts; both outcomes share each axis run.

    passed (N,) holds each item's post-selection probability and readout
    (N, 3) its "+" probability on each of _QST_READOUTS; both are clipped to
    [0, 1] and rounded to multiples of 2⁻⁴⁰, so that a rounding-level move
    of an exact probability draws the same counts, dyadic values such as 1/2
    stay put and 1 − p is exact. All counts of item i come from one stream,
    whatever items are drawn with it: Philox keyed on the SHA-256 digest of
    (cfg.seed, keys[i]) (_stream_states), with the counter at 0. One reused
    generator is set to each key in turn and draws what a fresh
    Generator(Philox(key)) would: numpy's binomial caches only a setup
    computed from (n, p). Returns (states (N, 2, 2), p_joint (N,)), with
    p_joint the mean post-selection rate over the three axes and the
    maximally mixed state for items that some axis never post-selects.
    """
    passed, readout = (
        (np.rint(np.clip(a, 0.0, 1.0) * 2.0**40) / 2.0**40).tolist() for a in (passed, readout)
    )
    rng = np.random.Generator(np.random.Philox(key=0))
    state = rng.bit_generator.state  # the counter at 0 and an empty buffer
    counts = []
    for p, q, key in zip(passed, readout, _stream_states(cfg.seed, keys)):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        npass, total = _staged_counts(p, q, cfg, rng)
        counts += npass + total
    counts = np.array(counts).reshape(len(keys), 2, len(QST_AXES))
    npass, total = counts[:, 0], counts[:, 1]
    rates = total / cfg.shots
    plus = npass / np.maximum(total, 1)
    seen = rates.min(axis=1) > 0.0
    states = np.repeat(ID2[None] / 2, len(keys), axis=0)
    probabilities = np.stack([plus, 1 - plus], axis=-1).reshape(-1, 2 * len(QST_AXES))
    if seen.any():
        states[seen] = qst_six_axis(probabilities[seen])
    return states, rates.mean(axis=1)


def generate_records(spec: ProcessSpec, cfg: ShotConfig | None = None) -> np.recarray:
    """Tomography records for every two-step basis combination.

    Returns the record array (81,) of tomography.records_from_arrays, with
    basis indices (i, j) in row-major order. Without a ShotConfig the records
    are exact contraction results; with one, each exact record is seen
    through three-axis tomography of cfg.shots shots per axis, the
    post-selection rate standing in for the joint probability. The counts of
    each record come from one Philox stream keyed on (|00⟩, the float64
    angles (θ, φ) of each step, seed), drawn from its exact probabilities
    rounded to multiples of 2⁻⁴⁰ (see _sampled_states).
    """
    nb = len(FIT_BASIS)
    indices = np.indices((nb, nb)).reshape(2, -1).T
    states, p_joint = run_process(spec, [FIT_BASIS[:, None], FIT_BASIS[None, :]])
    if cfg is not None:
        keys = [(_GROUND2, FIT_BASIS_ANGLES[i], FIT_BASIS_ANGLES[j]) for i, j in indices]
        states, p_joint = _sampled_states(
            p_joint.reshape(-1), _readout_probabilities(states).reshape(-1, len(QST_AXES)),
            keys, cfg,
        )
    return records_from_arrays(indices, states.reshape(-1, 2, 2), p_joint.reshape(-1))


def intervention_qpt_data(angles, cfg: ShotConfig | None = None, run_tags=((0,),)):
    """Input/output pairs characterizing the projective interventions
    projector(theta, phi) of a stack (L, 2) of finite Bloch angles (theta,
    phi); another shape raises "bad-dims" and a NaN or infinite angle
    "non-finite", before any trigonometry.

    run_tags, int64 integers (L, R) or a row (R,) that broadcasts to it,
    tags the R repetitions of each intervention; other tags raise
    "bad-dims". Returns (inputs (6, 2, 2), outputs (L, R, 6, 2, 2)). The six
    axis states are prepared exactly; the intervention and the three-axis
    state readout are sampled when a ShotConfig is given, input label l of
    repetition tag t of angles a drawing its counts from one Philox stream
    keyed on (t, the float64 angles a, l, seed), as _sampled_states draws
    them. Outputs are subnormalized by the measured pass rate. Without a
    ShotConfig every repetition is exact.
    """
    angles = check_angles(angles, 2, "angles")
    tags = np.asarray(run_tags)
    # a tag keys its streams as 8 signed bytes
    if (tags.dtype.kind not in "iu" or not np.can_cast(tags.dtype, np.int64)
            or not (tags.ndim == 1 or tags.ndim == 2 and tags.shape[0] in (1, len(angles)))):
        raise ValueError(f"bad-dims: run_tags must be int64 integers (L, R) or a row (R,) for "
                         f"{len(angles)} angles, got {tags.dtype} of shape {tags.shape}")
    tags = np.broadcast_to(tags, (len(angles), tags.shape[-1]))
    ops = projector(angles[:, 0], angles[:, 1])[:, None]
    labels = ("x+", "x-", "y+", "y-", "z+", "z-")
    inputs = np.array([named_projector(label) for label in labels])
    shape = tags.shape + inputs.shape
    if cfg is None:
        exact = ops @ inputs @ ops.conj().swapaxes(-1, -2)
        return inputs, np.broadcast_to(exact[:, None], shape).copy()
    # the projected state is the projector itself, whatever the input
    passed = np.trace(ops @ inputs, axis1=-2, axis2=-1).real
    keys = [(tag, a, label) for a, row in zip(angles, tags) for tag in row for label in labels]
    readout = np.broadcast_to(_readout_probabilities(ops)[:, None], shape[:3] + (3,))
    states, p_hat = _sampled_states(np.broadcast_to(passed[:, None], shape[:3]).ravel(),
                                    readout.reshape(-1, 3), keys, cfg)
    return inputs, (p_hat[:, None, None] * states).reshape(shape)


def last_step_superops(spec: ProcessSpec, mats):
    """Reduced superoperators (..., 4, 4) of the last step, each conditioned
    on the environment marginal of its branch of a stack (..., 2, 2) of
    first-step projector matrices, with the branch probabilities (...).

    The stack is checked ("non-finite", "bad-dims") before any arithmetic. The
    channel of a branch below BRANCH_CUTOFF comes from its undivided
    marginal; callers mark those branches absent.
    """
    rho = _chain(spec, [_checked_projectors(mats, "first step")])
    p = np.trace(rho, axis1=-2, axis2=-1).real
    rho = rho / np.where(p >= BRANCH_CUTOFF, p, 1.0)[..., None, None]
    env = np.einsum("...ijik->...jk", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))
    return reduced_superop(spec.interactions[1], env, spec.noise), p
