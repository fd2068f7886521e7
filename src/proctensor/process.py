"""Brute-force simulator and data generator for the two-step process.

The system and environment qubits start in |00⟩. Each of the two steps
projects the system, applies a joint system-environment unitary and then the
optional local noise. The simulator contracts the chain exactly; a sampled
record is that exact record seen through seeded, finite-shot three-axis
tomography.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import reduced_superop
from .linalg import normalized_psd, unvec, vec_stack
from .qubit import (
    CNOT,
    CZ,
    FIT_BASIS_LABELS,
    ID2,
    NoiseSpec,
    Projector,
    QST_AXES,
    apply_noise,
    named_projector,
)
from .tomography import P_JOINT_CUTOFF, TomoRecord, qst_six_axis
from .validation import check_two_steps, check_unitary

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
    "BRANCH_CUTOFF",
    "VanishingBranchError",
    "check_branch",
    "first_step_env_marginals",
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
    shots: int = 3000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"bad-shots: shots must be in [1, {MAX_SHOTS}], got {self.shots}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"bad-seed: seed must be in [0, 2**64), got {self.seed}")


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
        a = np.kron(mats, ID2)
        rho = a @ rho @ a.conj().swapaxes(-1, -2)
        rho = u @ rho @ u.conj().T
        if spec.noise is not None:
            rho = apply_noise(rho, spec.noise)
    return rho


def run_process(spec: ProcessSpec, steps: Sequence[np.ndarray]):
    """Exact contraction of one intervened sequence or a stack of them.

    steps holds one stack (..., 2, 2) of projector matrices per interaction;
    the stacks broadcast, so two 2x2 matrices give one sequence and a column
    and a row stack give a whole grid. Returns the joint probabilities of all
    outcomes p_joint (...), clipped at 0, and the normalized system marginals
    (..., 2, 2), maximally mixed where p_joint is below the reporting cutoff,
    as (states, p_joint).
    """
    check_two_steps(steps)
    rho = _chain(spec, [np.asarray(m, dtype=complex) for m in steps])
    p_joint = np.maximum(np.trace(rho, axis1=-2, axis2=-1).real, 0.0)
    out = np.einsum("...ijkj->...ik", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))
    out = out / np.maximum(p_joint, P_JOINT_CUTOFF)[..., None, None]
    return np.where((p_joint >= P_JOINT_CUTOFF)[..., None, None], out, ID2 / 2), p_joint


def _step_superops(spec: ProcessSpec) -> list[np.ndarray]:
    """Per-step reduced superoperators with the environment in |0⟩."""
    return [reduced_superop(u, _GROUND1, spec.noise) for u in spec.interactions]


def markov_predict(spec: ProcessSpec, steps: Sequence[np.ndarray]):
    """Memoryless baseline of one sequence or a stack (steps as in run_process).

    From the system ground state, alternately applies each projector and the
    environment-in-ground reduced map of its step. Returns (states, p): unit
    trace PSD states, maximally mixed where p is below the reporting cutoff,
    and p clipped at 0.
    """
    check_two_steps(steps)
    rho = _GROUND1
    for mats, sup in zip(steps, _step_superops(spec)):
        rho = mats @ rho @ np.conj(mats).swapaxes(-1, -2)
        rho = unvec(vec_stack(rho) @ sup.T)
    return normalized_psd(rho, P_JOINT_CUTOFF)


def _derived_rng(seed: int, *parts) -> np.random.Generator:
    """Deterministic generator keyed by the seed and a tuple of task parts.

    Floats are hashed via their IEEE-754 bytes, so every key maps to a
    stable, independent stream and the same key always gives the same
    generator. generate_records keys on the |00⟩ state _GROUND2, the
    sequence and the seed, not on the interactions or the noise, so
    processes that differ only there (cnot-cz and cz-cnot) draw their counts
    from the same generators. The state stays in the key, although every
    process starts from it, because its bytes are part of every stream drawn
    so far: dropping it would change every sampled output.
    """
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for part in parts:
        if isinstance(part, Projector):
            h.update(np.float64([part.theta, part.phi]).tobytes())
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=complex).tobytes())
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(int(part).to_bytes(8, "little", signed=True))
    # the digest's eight little-endian 32-bit words are the seed entropy
    return np.random.default_rng(np.frombuffer(h.digest(), dtype="<u4"))


def _staged_counts(passed: float, readout, cfg: ShotConfig, rng: np.random.Generator):
    """Counts of cfg.shots shots per readout axis: post-selected, then read out.

    A shot is post-selected with probability passed and then reads "+" on
    axis a with probability readout[a], so total_a ~ Bin(shots, passed) and
    npass_a ~ Bin(total_a, readout[a]). All totals are drawn before the
    passes. Returns the lists (npass, total).
    """
    # scalar draws give the numbers rng.binomial gives on whole arrays, without
    # the checks numpy makes on array arguments, which cost more than the draws
    total = [rng.binomial(cfg.shots, passed) for _ in readout]
    return [rng.binomial(n, q) for n, q in zip(total, readout)], total


#: "+" projector of each QST axis, the readout of a sampled state.
_QST_READOUTS = np.array([named_projector(axis + "+").mat for axis in QST_AXES])


def _readout_probabilities(states):
    """"+" probability on each of _QST_READOUTS, (..., 3), of states (..., 2, 2)."""
    return np.trace(_QST_READOUTS @ states[..., None, :, :], axis1=-2, axis2=-1).real


def _sampled_states(passed, readout, keys, cfg: ShotConfig):
    """Three-axis QST of N items from sampled counts; both outcomes share each axis run.

    passed (N,) holds each item's post-selection probability and readout
    (N, 3) its "+" probability on each of _QST_READOUTS; both are clipped to
    [0, 1]. All counts of item i come from one generator,
    _derived_rng(cfg.seed, *keys[i]), whatever items are drawn with it.
    Returns (states (N, 2, 2), p_joint (N,)), with p_joint the mean
    post-selection rate over the three axes and the maximally mixed state
    for items that some axis never post-selects.
    """
    passed = np.clip(passed, 0.0, 1.0).tolist()
    readout = np.clip(readout, 0.0, 1.0).tolist()
    counts = np.array([
        _staged_counts(p, q, cfg, _derived_rng(cfg.seed, *key))
        for p, q, key in zip(passed, readout, keys)
    ]).reshape(len(keys), 2, len(QST_AXES))
    npass, total = counts[:, 0], counts[:, 1]
    rates = total / cfg.shots
    plus = npass / np.maximum(total, 1)
    seen = rates.min(axis=1) > 0.0
    states = np.repeat(ID2[None] / 2, len(keys), axis=0)
    probabilities = np.stack([plus, 1 - plus], axis=-1).reshape(-1, 2 * len(QST_AXES))
    if seen.any():
        states[seen] = qst_six_axis(probabilities[seen])
    return states, rates.mean(axis=1)


def generate_records(spec: ProcessSpec, cfg: ShotConfig | None = None) -> list[TomoRecord]:
    """Tomography records for every two-step basis combination.

    Without a ShotConfig the records are exact contraction results; with one,
    each exact record is seen through three-axis tomography of cfg.shots
    shots per axis, the post-selection rate standing in for the joint
    probability. The counts of each record come from one generator keyed on
    (|00⟩, sequence, seed).
    """
    basis = [named_projector(label) for label in FIT_BASIS_LABELS]
    indices = list(itertools.product(range(len(basis)), repeat=2))
    mats = np.array([op.mat for op in basis])
    states, p_joint = run_process(spec, [mats[:, None], mats[None, :]])
    if cfg is not None:
        keys = [(_GROUND2, basis[i], basis[j]) for i, j in indices]
        states, p_joint = _sampled_states(
            p_joint.reshape(-1), _readout_probabilities(states).reshape(-1, len(QST_AXES)),
            keys, cfg,
        )
    return [TomoRecord(idx, rho, float(p)) for idx, rho, p
            in zip(indices, states.reshape(-1, 2, 2), p_joint.reshape(-1))]


def intervention_qpt_data(op: Projector, cfg: ShotConfig | None = None, run_tags=(0,)):
    """Input/output pairs characterizing a single projective intervention.

    Returns (inputs (6, 2, 2), outputs (R, 6, 2, 2)), one row of outputs per
    entry of run_tags. The six axis states are prepared exactly; the
    intervention and the three-axis state readout are sampled when a
    ShotConfig is given, input label l of repetition tag t drawing its counts
    from one generator keyed on (t, op, l, seed). Outputs are subnormalized
    by the measured pass rate. Without a ShotConfig every row is exact.
    """
    labels = ("x+", "x-", "y+", "y-", "z+", "z-")
    inputs = np.array([named_projector(label).mat for label in labels])
    tags = list(run_tags)
    if cfg is None:
        exact = np.array([op.mat @ rin @ op.mat.conj().T for rin in inputs])
        return inputs, np.repeat(exact[None], len(tags), axis=0)
    # the projected state is op itself, whatever the input
    passed = [np.trace(op.mat @ rin).real for rin in inputs]
    keys = [(tag, op, label) for tag in tags for label in labels]
    states, p_hat = _sampled_states(np.tile(passed, len(tags)),
                                    np.tile(_readout_probabilities(op.mat), (len(keys), 1)),
                                    keys, cfg)
    outputs = p_hat[:, None, None] * states
    return inputs, outputs.reshape(len(tags), len(labels), 2, 2)


#: Probability below which a first-step branch or a trajectory counts as
#: vanished: nothing is conditioned on such a branch, and such a trajectory
#: (a tomo-predict pair, a Bloch-cloud sample) is left out of the outputs.
BRANCH_CUTOFF = 1e-9


class VanishingBranchError(ValueError):
    """A first-step branch of (numerically) zero probability; nothing can be
    conditioned on it. The message starts with "vanishing-branch:"."""


def check_branch(p: float) -> float:
    """Return the branch probability p, or raise VanishingBranchError below BRANCH_CUTOFF."""
    if p < BRANCH_CUTOFF:
        raise VanishingBranchError(f"vanishing-branch: first-step probability {p:.3e}")
    return p


def first_step_env_marginals(spec: ProcessSpec, mats):
    """Environment marginals right after a stack (..., 2, 2) of first-step
    projector matrices, with the branch probabilities (...).

    A marginal whose branch probability is below BRANCH_CUTOFF is left
    undivided; callers mask those branches or reject them with check_branch.
    """
    rho = _chain(spec, [np.asarray(mats, dtype=complex)])
    p = np.trace(rho, axis1=-2, axis2=-1).real
    rho = rho / np.where(p >= BRANCH_CUTOFF, p, 1.0)[..., None, None]
    return np.einsum("...ijik->...jk", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))), p


def last_step_superops(spec: ProcessSpec, mats):
    """Reduced superoperators (..., 4, 4) of the last step, each conditioned
    on the environment marginal of its branch of a stack (..., 2, 2) of
    first-step projector matrices, with the branch probabilities (...).

    The channel of a branch below BRANCH_CUTOFF comes from its undivided
    marginal (see first_step_env_marginals).
    """
    env, p = first_step_env_marginals(spec, mats)
    return reduced_superop(spec.interactions[1], env, spec.noise), p
