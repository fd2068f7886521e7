"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from oracles import antipode, apply_projector, partial_trace
from proctensor.channels import chi_fidelity, chi_from_process, chi_of_operator
from proctensor.linalg import project_psd
from proctensor.nonmarkov import (
    condition_family,
    default_theta_grid,
    minimize_nonmarkovianity,
    relative_entropy,
    sweep_theta,
    uncorrelated_choi,
)
from proctensor.process import (
    ShotConfig,
    cnot_cz_process,
    cz_cnot_process,
    generate_records,
    intervention_qpt_data,
    markov_predict,
    run_process,
)
from proctensor.qubit import (
    CZ,
    FIT_BASIS,
    FIT_BASIS_LABELS,
    OVERCOMPLETE_LABELS,
    PROJECTOR_ANGLES,
    NoiseSpec,
    named_projector,
    projector,
    state_fidelity,
)
from proctensor.tomography import RestrictedProcessTensor

LN2 = math.log(2)
SEED = 7
SHOTS = 3000


def _grid_fidelities(spec, fit):
    tensor_fids, markov_fids, pairs = [], [], []
    for l0 in OVERCOMPLETE_LABELS:
        for l1 in OVERCOMPLETE_LABELS:
            ops = [named_projector(l0), named_projector(l1)]
            truth, p = run_process(spec, ops)
            if p < 1e-9:
                continue
            rho, _ = fit.predict(ops)
            tensor_fids.append(state_fidelity(truth, rho))
            baseline, _ = markov_predict(spec, ops)
            markov_fids.append(state_fidelity(truth, baseline))
            pairs.append((l0, l1))
    return np.array(tensor_fids), np.array(markov_fids), pairs


@pytest.fixture(scope="module")
def ideal():
    out = {}
    for name, factory in (("cnot-cz", cnot_cz_process), ("cz-cnot", cz_cnot_process)):
        spec = factory()
        records = generate_records(spec)
        out[name] = (spec, RestrictedProcessTensor().fit(records))
    return out


def test_criterion_1_oracle_equivalence(ideal):
    """Noiseless tensor predictions match the brute-force oracle."""
    start = time.time()
    worst = 1.0
    for name, (spec, fit) in ideal.items():
        tensor_fids, _, _ = _grid_fidelities(spec, fit)
        worst = min(worst, tensor_fids.min())
        assert tensor_fids.min() >= 1 - 1e-6, name
    elapsed = time.time() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    print(f"\nPASS criterion 1: oracle equivalence, worst fidelity "
          f"{worst:.9f} >= 1-1e-6, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_markov_baseline_split(ideal):
    """The memoryless baseline fails with memory and succeeds without."""
    spec_nc, fit_nc = ideal["cnot-cz"]
    ops = [named_projector("y-"), named_projector("x+")]
    truth, _ = run_process(spec_nc, ops)
    baseline, _ = markov_predict(spec_nc, ops)
    fid_memory = state_fidelity(truth, baseline)
    assert abs(fid_memory - 0.5) <= 1e-6

    _, markov_nc, _ = _grid_fidelities(spec_nc, fit_nc)
    assert markov_nc.mean() < 0.95

    spec_cn, fit_cn = ideal["cz-cnot"]
    _, markov_cn, _ = _grid_fidelities(spec_cn, fit_cn)
    assert markov_cn.min() >= 1 - 1e-6
    print(f"\nPASS criterion 2: baseline fidelity at (y-, x+) = {fid_memory:.7f} "
          f"(0.5 ± 1e-6); grid means {markov_nc.mean():.4f} < 0.95 (memory) and "
          f"{markov_cn.mean():.8f} >= 1-1e-6 (memoryless)")


def test_criterion_3_nonmarkovianity_peak(ideal):
    """Peak at ln 2 with memory, flat without; full sweep under a minute."""
    spec_nc, fit_nc = ideal["cnot-cz"]
    fam = condition_family(fit_nc, [math.pi / 2])
    [peak] = minimize_nonmarkovianity(fam, uncorrelated_choi(fam, spec_nc))
    assert abs(peak.n_value - LN2) <= 0.02
    fam = condition_family(fit_nc, [0.0])
    [floor_res] = minimize_nonmarkovianity(fam, uncorrelated_choi(fam, spec_nc))
    assert floor_res.n_value <= 0.02

    spec_cn, fit_cn = ideal["cz-cnot"]
    start = time.time()
    results = sweep_theta(fit_cn, default_theta_grid(), process=spec_cn)
    elapsed = time.time() - start
    flat_max = max(res.n_value for res in results)
    assert flat_max <= 0.02
    assert elapsed < 60.0, f"sweep runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nPASS criterion 3: N(pi/2) = {peak.n_value:.4f} = ln2 ± 0.02, "
          f"N(0) = {floor_res.n_value:.2e} <= 0.02, memoryless sweep max "
          f"{flat_max:.2e} <= 0.02 in {elapsed:.1f}s < 60s")


def test_criterion_4_noise_monotonicity(ideal):
    """Local noise lowers the peak but does not erase the memory."""
    spec_nc, fit_nc = ideal["cnot-cz"]
    fam = condition_family(fit_nc, [math.pi / 2])
    ideal_peak = minimize_nonmarkovianity(fam, uncorrelated_choi(fam, spec_nc))[0].n_value

    noisy_spec = cnot_cz_process(NoiseSpec(gamma_amp=0.05, lambda_phase=0.05))
    noisy_fit = RestrictedProcessTensor().fit(generate_records(noisy_spec))
    fam = condition_family(noisy_fit, [math.pi / 2])
    noisy_peak = minimize_nonmarkovianity(fam, uncorrelated_choi(fam, noisy_spec))[0].n_value
    assert noisy_peak < ideal_peak
    assert noisy_peak > 0.2
    print(f"\nPASS criterion 4: noisy peak {noisy_peak:.4f} in (0.2, "
          f"{ideal_peak:.4f})")


def test_criterion_5_finite_shot_tomography():
    """Sampled characterization stays in band; sampled fit predicts well."""
    run_tags = np.arange(len(FIT_BASIS_LABELS))[:, None]
    inputs, outputs = intervention_qpt_data(
        [PROJECTOR_ANGLES[label] for label in FIT_BASIS_LABELS],
        ShotConfig(shots=SHOTS, seed=SEED), run_tags,
    )
    chis = chi_from_process(inputs, outputs[:, 0], psd=True)
    fids = chi_fidelity(chis, chi_of_operator(FIT_BASIS))
    assert np.all(fids >= 0.95) and np.all(fids <= 1.0)

    spec = cnot_cz_process()
    records = generate_records(spec, ShotConfig(shots=SHOTS, seed=SEED))
    fit = RestrictedProcessTensor(psd=True).fit(records)
    tensor_fids, _, _ = _grid_fidelities(spec, fit)
    assert tensor_fids.mean() >= 0.99
    print(f"\nPASS criterion 5: POVM fidelities in "
          f"[{fids.min():.4f}, {fids.max():.4f}] ⊂ [0.95, 1.0]; sampled-fit "
          f"mean prediction fidelity {tensor_fids.mean():.4f} >= 0.99")


def test_criterion_6_reduced_map_identities():
    """Environment-conditioned reduced maps take their closed forms."""
    from proctensor.channels import reduced_map

    chi_id = np.zeros((4, 4)); chi_id[0, 0] = 1.0
    chi_z = np.zeros((4, 4)); chi_z[3, 3] = 1.0
    chi_mix = np.zeros((4, 4)); chi_mix[0, 0] = 0.5; chi_mix[3, 3] = 0.5
    cases = [
        ("z+", chi_id), ("z-", chi_z), ("y-", chi_mix),
    ]
    worst = 0.0
    for label, expected in cases:
        got = reduced_map(CZ, named_projector(label))
        worst = max(worst, float(np.abs(got - expected).max()))
    assert worst < 1e-9
    print(f"\nPASS criterion 6: reduced maps identity/Z/mixture within "
          f"{worst:.2e} < 1e-9")


def test_criterion_7_property_bundle(ideal):
    """Representative invariants across the stack (full suite covers more)."""
    rng = np.random.default_rng(99)

    def rand_rho(dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    # partial trace / kron algebra
    for _ in range(20):
        a, b = rand_rho(2), rand_rho(2)
        assert np.abs(partial_trace(np.kron(a, b), 2, 2, "a") - a).max() < 1e-12

    # projector idempotence and entanglement-breaking factorization
    for label in OVERCOMPLETE_LABELS:
        p = named_projector(label)
        assert np.abs(p @ p - p).max() < 1e-10
    for _ in range(10):
        rho = rand_rho(4)
        p = projector(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
        out, prob = apply_projector(rho, p)
        if prob > 1e-9:
            env = partial_trace(out, 2, 2, "b")
            assert np.abs(out - np.kron(p, env)).max() < 1e-10

    # fidelity bounds and symmetry
    for _ in range(10):
        a, b = rand_rho(2), rand_rho(2)
        f = state_fidelity(a, b)
        assert 0 <= f <= 1 and abs(f - state_fidelity(b, a)) < 1e-9

    # relative entropy nonnegativity
    for _ in range(10):
        a = rand_rho(4) + 0.05 * np.eye(4)
        b = rand_rho(4) + 0.05 * np.eye(4)
        assert relative_entropy(a / np.trace(a).real, b / np.trace(b).real) >= 0

    # PSD projection idempotence
    for _ in range(10):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        once = project_psd(h)
        assert np.abs(project_psd(once) - once).max() < 1e-12

    # probability conservation over complementary branches
    spec_nc, _ = ideal["cnot-cz"]
    for _ in range(10):
        a0 = projector(rng.uniform(0.1, math.pi - 0.1), rng.uniform(-math.pi, math.pi))
        angles1 = rng.uniform(0.1, math.pi - 0.1), rng.uniform(-math.pi, math.pi)
        _, p_plus = run_process(spec_nc, [a0, projector(*angles1)])
        _, p_minus = run_process(spec_nc, [a0, projector(*antipode(*angles1))])
        op = np.kron(a0, np.eye(2))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        p_branch = float(np.trace(op @ rho @ op.conj().T).real)
        assert abs(p_plus + p_minus - p_branch) < 1e-10

    # forbidden trajectory
    _, p_forbidden = run_process(spec_nc, [named_projector("z+"), named_projector("z-")])
    assert p_forbidden <= 1e-9
    print("\nPASS criterion 7: property bundle (algebra, projectors, fidelity, "
          "entropy, PSD projection, probability conservation, forbidden "
          "trajectory)")


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed produce byte-identical outputs."""
    from proctensor.cli import main

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main([
            "tomo-predict", "--shots", "400", "--seed", "11",
            "--process", "cnot-cz", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"\nPASS criterion 8: {len(names)} output files byte-identical "
          "across reruns")
