"""Brute-force simulator and data generator for two-qubit open processes.

A process is an alternating chain: local projector on the system, joint
system-environment unitary, optional local noise. The simulator contracts the
chain exactly; the sampling layer draws seed-reproducible Bernoulli counts
consistent with the exact stage probabilities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import apply_chi, reduced_map
from .linalg import kron, partial_trace, project_psd
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
from .tomography import TomoRecord, qst_six_axis
from .validation import check_normalized, check_unitary

__all__ = [
    "ProcessSpec",
    "ShotConfig",
    "cnot_cz_process",
    "cz_cnot_process",
    "PROCESS_NAMES",
    "run_process",
    "reduced_step_maps",
    "markov_predict",
    "simulate_counts",
    "generate_records",
    "intervention_qpt_data",
    "first_step_env_marginal",
]

P_JOINT_CUTOFF = 1e-12

_GROUND2 = np.zeros((4, 4), dtype=complex)
_GROUND2[0, 0] = 1.0


@dataclass(frozen=True)
class ProcessSpec:
    """Ordered joint unitaries with optional per-step noise.

    noise may be a single NoiseSpec (applied after every interaction), a
    sequence with one entry per interaction, or None.
    """

    interactions: tuple
    initial_state: np.ndarray = field(default_factory=lambda: _GROUND2.copy())
    noise: NoiseSpec | Sequence[NoiseSpec] | None = None

    def __post_init__(self):
        us = tuple(check_unitary(u, 1e-8, "interaction") for u in self.interactions)
        object.__setattr__(self, "interactions", us)
        object.__setattr__(
            self, "initial_state", check_normalized(self.initial_state, 1e-6, "initial_state")
        )
        if isinstance(self.noise, Sequence) and not isinstance(self.noise, NoiseSpec):
            if len(self.noise) != len(us):
                raise ValueError(
                    f"bad-sequence: {len(self.noise)} noise entries for {len(us)} interactions"
                )
            object.__setattr__(self, "noise", tuple(self.noise))

    @property
    def nsteps(self) -> int:
        return len(self.interactions)

    def step_noise(self, step: int) -> NoiseSpec | None:
        if self.noise is None:
            return None
        if isinstance(self.noise, NoiseSpec):
            return self.noise
        return self.noise[step]


@dataclass(frozen=True)
class ShotConfig:
    shots: int = 3000
    seed: int = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"bad-shots: shots must be >= 1, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"bad-seed: seed must be non-negative, got {self.seed}")


def cnot_cz_process(noise: NoiseSpec | None = None) -> ProcessSpec:
    return ProcessSpec(interactions=(CNOT, CZ), noise=noise)


def cz_cnot_process(noise: NoiseSpec | None = None) -> ProcessSpec:
    return ProcessSpec(interactions=(CZ, CNOT), noise=noise)


PROCESS_NAMES = {"cnot-cz": cnot_cz_process, "cz-cnot": cz_cnot_process}


def _check_sequence(spec: ProcessSpec, ops: Sequence[Projector]):
    if len(ops) != spec.nsteps:
        raise ValueError(
            f"bad-sequence: {len(ops)} interventions for {spec.nsteps} interactions"
        )


def _chain(spec: ProcessSpec, ops: Sequence[Projector]):
    """Contract the full chain, returning the subnormalized joint state."""
    rho = spec.initial_state.copy()
    for step, (u, op) in enumerate(zip(spec.interactions, ops)):
        a = kron(op.mat, ID2)
        rho = a @ rho @ a.conj().T
        rho = u @ rho @ u.conj().T
        noise = spec.step_noise(step)
        if noise is not None:
            rho = apply_noise(rho, noise)
    return rho


def run_process(spec: ProcessSpec, ops: Sequence[Projector]):
    """Exact contraction of the intervened process.

    Returns (rho_out, p_joint) where p_joint is the joint probability of all
    projector outcomes and rho_out is the normalized system marginal, or None
    when the trajectory probability falls below the reporting cutoff.
    """
    _check_sequence(spec, ops)
    rho = _chain(spec, ops)
    p_joint = float(np.trace(rho).real)
    if p_joint < P_JOINT_CUTOFF:
        return None, max(p_joint, 0.0)
    out = partial_trace(rho, 2, 2, keep="a") / p_joint
    return out, p_joint


def reduced_step_maps(spec: ProcessSpec) -> list[np.ndarray]:
    """Per-step reduced chi matrices conditioned on the environment staying in |0⟩."""
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    return [
        reduced_map(u, ground, spec.step_noise(i))
        for i, u in enumerate(spec.interactions)
    ]


def markov_predict(spec: ProcessSpec, ops: Sequence[Projector], reduced_maps):
    """Memoryless baseline prediction.

    Starting from the system ground state, alternately applies each projector
    and the corresponding environment-in-ground reduced map, then normalizes.
    """
    _check_sequence(spec, ops)
    if len(reduced_maps) != spec.nsteps:
        raise ValueError(
            f"bad-sequence: {len(reduced_maps)} reduced maps for {spec.nsteps} steps"
        )
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    for op, chi in zip(ops, reduced_maps):
        rho = op.mat @ rho @ op.mat.conj().T
        rho = apply_chi(chi, rho)
    p = float(np.trace(rho).real)
    if p < P_JOINT_CUTOFF:
        return None
    rho = project_psd(rho / p)
    return rho / float(np.trace(rho).real)


def _stage_probabilities(spec: ProcessSpec, ops: Sequence[Projector], readout: Projector):
    """Conditional pass probability per projector stage plus the readout stage."""
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
    q = float(np.trace(readout.mat @ out).real)
    probs.append(min(max(q, 0.0), 1.0))
    return probs


def _derived_rng(seed: int, *parts) -> np.random.Generator:
    """Deterministic generator keyed by the seed and a tuple of task parts.

    Floats are hashed via their IEEE-754 bytes, so any (sequence, readout)
    pair maps to a stable, independent stream. Callers key on the initial
    state, sequence, readout and seed only, not on the interactions or the
    noise: processes that differ only there (cnot-cz and cz-cnot) draw common
    random numbers.
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
    digest = h.digest()
    words = [int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(8)]
    return np.random.default_rng(words)


def _staged_counts(probs, cfg: ShotConfig, rng: np.random.Generator):
    """Shot-major Bernoulli draws through an ordered list of stages.

    Returns (passes including the final stage, passes of all earlier stages).
    """
    u = rng.random((cfg.shots, len(probs)))
    passed = np.ones(cfg.shots, dtype=bool)
    for j, p in enumerate(probs[:-1]):
        passed &= u[:, j] < p
    total = int(passed.sum())
    npass = int((passed & (u[:, -1] < probs[-1])).sum())
    return npass, total


def simulate_counts(spec: ProcessSpec, ops: Sequence[Projector], readout_axis: Projector,
                    cfg: ShotConfig):
    """Sampled post-selection counts for one sequence and readout.

    Returns (counts_pass, counts_total): counts_total shots survive every
    intervention post-selection, counts_pass additionally give the readout
    "+" outcome. The generator is derived from (initial state, sequence,
    readout, seed) only, so independent batches are reproducible in any order
    and processes differing only in interactions or noise share random numbers.
    """
    _check_sequence(spec, ops)
    probs = _stage_probabilities(spec, ops, readout_axis)
    rng = _derived_rng(cfg.seed, spec.initial_state, *ops, readout_axis)
    return _staged_counts(probs, cfg, rng)


def _sampled_state(stage_fn, cfg: ShotConfig, rng_parts):
    """Three-axis QST from sampled counts; both outcomes share each axis run."""
    plus = {}
    totals = []
    for axis in QST_AXES:
        probs = stage_fn(named_projector(axis + "+"))
        rng = _derived_rng(cfg.seed, *rng_parts, axis)
        npass, total = _staged_counts(probs, cfg, rng)
        plus[axis] = npass / total if total else 0.5
        totals.append(total / cfg.shots)
    p_joint = float(np.mean(totals))
    if min(totals) <= 0.0:
        return ID2 / 2, p_joint
    probabilities = [
        plus["x"], 1 - plus["x"], plus["y"], 1 - plus["y"], plus["z"], 1 - plus["z"],
    ]
    return qst_six_axis(probabilities), p_joint


def generate_records(spec: ProcessSpec, cfg: ShotConfig | None = None,
                     basis_labels=FIT_BASIS_LABELS) -> list[TomoRecord]:
    """Tomography records for every two-step basis combination.

    Without a ShotConfig the records are exact contraction results; with one,
    each record is a three-axis sampled state estimate with the post-selection
    rate standing in for the joint probability.
    """
    if spec.nsteps != 2:
        raise ValueError("bad-sequence: record generation expects a two-step process")
    records = []
    for i0, l0 in enumerate(basis_labels):
        for i1, l1 in enumerate(basis_labels):
            ops = [named_projector(l0), named_projector(l1)]
            if cfg is None:
                rho, p = run_process(spec, ops)
                if rho is None:
                    rho = ID2 / 2
                records.append(TomoRecord((i0, i1), rho, p))
            else:
                rho, p = _sampled_state(
                    lambda ax: _stage_probabilities(spec, ops, ax),
                    cfg,
                    (spec.initial_state, *ops),
                )
                records.append(TomoRecord((i0, i1), rho, p))
    return records


def intervention_qpt_data(op: Projector, cfg: ShotConfig | None = None, run_tag: int = 0):
    """Input/output pairs characterizing a single projective intervention.

    The six axis states are prepared exactly; the intervention and the
    three-axis state readout are sampled when a ShotConfig is given. Outputs
    are subnormalized by the measured pass rate. run_tag separates the random
    streams of repeated characterizations.
    """
    inputs = []
    outputs = []
    for label in ("x+", "x-", "y+", "y-", "z+", "z-"):
        rin = named_projector(label).mat
        p_pass = min(max(float(np.trace(op.mat @ rin).real), 0.0), 1.0)
        if cfg is None:
            inputs.append(rin)
            outputs.append(op.mat @ rin @ op.mat.conj().T)
            continue

        def stages(readout: Projector, _p=p_pass):
            q = float(np.trace(readout.mat @ op.mat).real)
            return [_p, min(max(q, 0.0), 1.0)]

        rho, p_hat = _sampled_state(stages, cfg, (run_tag, op, label))
        inputs.append(rin)
        outputs.append(p_hat * rho)
    return inputs, outputs


def first_step_env_marginal(spec: ProcessSpec, op: Projector):
    """Environment marginal right after the first intervention branch.

    Returns (env_rho, branch probability); raises when the branch probability
    vanishes.
    """
    if spec.nsteps < 1:
        raise ValueError("bad-sequence: process has no interactions")
    a = kron(op.mat, ID2)
    rho = a @ spec.initial_state @ a.conj().T
    rho = spec.interactions[0] @ rho @ spec.interactions[0].conj().T
    noise = spec.step_noise(0)
    if noise is not None:
        rho = apply_noise(rho, noise)
    p = float(np.trace(rho).real)
    if p < 1e-9:
        raise ValueError(f"vanishing-branch: first-step probability {p:.3e}")
    return partial_trace(rho / p, 2, 2, keep="b"), p
