"""Batch experiment runner.

Subcommands reproduce the full workflow as machine-readable files:
characterize-povm, reduced-maps, tomo-predict, nonmarkov and volume. A
key-value config file with [run] and [noise] sections may supply defaults
(CONFIG_KEYS lists the keys; any other section or key is a config error);
command-line flags override file keys. Exit codes: 0 success, 2 config
error, 3 numeric non-convergence (a sweep point or the PSD refit; output is
still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import chi_fidelity, chi_from_process, chi_of_operator, reduced_map
from .fileio import config_digest, write_matrix, write_table
from .nonmarkov import bloch_volume, default_theta_grid, sweep_theta
from .process import (
    BRANCH_CUTOFF,
    MAX_SHOTS,
    P_JOINT_CUTOFF,
    PROCESS_NAMES,
    ShotConfig,
    VanishingBranchError,
    generate_records,
    intervention_qpt_data,
    markov_predict,
    run_process,
)
from .qubit import (
    CNOT,
    CZ,
    OVERCOMPLETE_LABELS,
    PROJECTOR_ANGLES,
    NoiseSpec,
    named_projector,
    state_fidelity,
)
from .tomography import fit_restricted_tensor, records_to_text

__all__ = ["RunConfig", "main"]

DEFAULT_NOISE_RATE = 0.01
QPT_REPETITIONS = 20
#: The keys a config file may set, by section.
CONFIG_KEYS = {
    "run": {"process", "shots", "seed", "theta_grid", "output_dir"},
    "noise": {"gamma", "lambda"},
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    process: str = "cnot-cz"
    noise: NoiseSpec | None = None
    shots: int | None = None
    seed: int = 0
    theta_grid: tuple | None = None
    output_dir: Path = Path("out")

    def digest(self) -> str:
        pairs = {
            "process": self.process,
            "shots": self.shots if self.shots is not None else "exact",
            "seed": self.seed,
            "noise_gamma": self.noise.gamma_amp if self.noise else 0.0,
            "noise_lambda": self.noise.lambda_phase if self.noise else 0.0,
            "theta_grid": ",".join(format(t, ".17g") for t in self.theta_grid)
            if self.theta_grid
            else "default",
        }
        return config_digest(pairs)

    def spec(self):
        return PROCESS_NAMES[self.process](self.noise)

    def shot_config(self) -> ShotConfig | None:
        if self.shots is None:
            return None
        return ShotConfig(shots=self.shots, seed=self.seed)


def _parse_theta_grid(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad theta grid {text!r}: {exc}") from None
    if not values:
        raise ConfigError("theta grid is empty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"theta grid {text!r} has a non-finite angle")
    return values


def _load_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    # [DEFAULT] takes no keys: configparser would read each as a key of every section
    for name, section in parser.items():
        if name != parser.default_section and name not in CONFIG_KEYS:
            raise ConfigError(f"config file {path!r}: unknown section [{name}]; "
                              f"choose from {sorted(CONFIG_KEYS)}")
        unknown = sorted(set(section) - CONFIG_KEYS.get(name, set()))
        if unknown:
            raise ConfigError(f"config file {path!r}: unknown key(s) {unknown} in [{name}]")
    out: dict = {}
    if parser.has_section("run"):
        run = parser["run"]
        for key in ("process", "theta_grid", "output_dir"):
            if key in run:
                out[key] = run[key]
        for key in ("shots", "seed"):
            if key in run:
                out[key] = run.getint(key)
    if parser.has_section("noise"):
        noise = parser["noise"]
        out["noise_gamma"] = noise.getfloat("gamma", DEFAULT_NOISE_RATE)
        out["noise_lambda"] = noise.getfloat("lambda", DEFAULT_NOISE_RATE)
    return out


def resolve_config(args) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(_load_file(args.config))
    for key in ("process", "shots", "seed", "out", "theta_grid"):
        flag = getattr(args, key, None)
        if flag is not None:
            values["output_dir" if key == "out" else key] = flag
    if args.noise_gamma is not None:
        values["noise_gamma"] = args.noise_gamma
    if args.noise_lambda is not None:
        values["noise_lambda"] = args.noise_lambda

    process = values.get("process", "cnot-cz")
    if process not in PROCESS_NAMES:
        raise ConfigError(f"unknown process {process!r}; choose from {sorted(PROCESS_NAMES)}")
    shots = values.get("shots")
    if shots is not None and not 100 <= shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in [100, {MAX_SHOTS}], got {shots}")
    seed = values.get("seed", 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    noise = None
    if "noise_gamma" in values or "noise_lambda" in values:
        try:
            noise = NoiseSpec(
                gamma_amp=values.get("noise_gamma", DEFAULT_NOISE_RATE),
                lambda_phase=values.get("noise_lambda", DEFAULT_NOISE_RATE),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    theta_grid = values.get("theta_grid")
    if isinstance(theta_grid, str):
        theta_grid = _parse_theta_grid(theta_grid)
    return RunConfig(
        process=process,
        noise=noise,
        shots=shots,
        seed=seed,
        theta_grid=theta_grid,
        output_dir=Path(values.get("output_dir", "out")),
    )


def _ensure_outdir(cfg: RunConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def _refit_converged(fit) -> bool:
    """False, with a note on stderr, when the PSD refit of a sampled fit did not converge."""
    info = fit.refit_info_
    if info is None or info.converged:
        return True
    print(f"PSD refit not converged after {info.iterations} Newton steps "
          f"(fixed-point residual {info.optimality:.3e})", file=sys.stderr)
    return False


def _records_and_fit(cfg: RunConfig, spec):
    """Records of the process and their restricted-tensor fit; sampled records get the PSD refit."""
    records = generate_records(spec, cfg.shot_config())
    return records, fit_restricted_tensor(records, psd=cfg.shots is not None)


def _safe_name(label: str) -> str:
    return label.replace("+", "p").replace("-", "m")


def cmd_characterize_povm(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg)
    digest = cfg.digest()
    shot_cfg = cfg.shot_config()
    reps = 1 if shot_cfg is None else QPT_REPETITIONS
    labels = OVERCOMPLETE_LABELS
    # every projector's repetitions at once: arrays indexed [label, rep]
    tags = QPT_REPETITIONS * np.arange(len(labels))[:, None] + np.arange(reps)
    inputs, outputs = intervention_qpt_data([PROJECTOR_ANGLES[label] for label in labels],
                                            shot_cfg, tags)
    chis = chi_from_process(inputs, outputs, psd=shot_cfg is not None)
    ideal = chi_of_operator(np.array([named_projector(label) for label in labels]))
    fids = chi_fidelity(chis, ideal[:, None])
    rows = [(label, rep, fid) for label, row in zip(labels, fids) for rep, fid in enumerate(row)]
    summary = [(label, float(np.mean(row)), float(np.std(row))) for label, row in zip(labels, fids)]
    for label, chi in zip(labels, chis[:, 0]):
        write_matrix(out / f"chi_povm_{_safe_name(label)}.txt", chi)
    write_table(out / "povm_fidelities.csv", ["povm", "rep", "fidelity"], rows, digest)
    write_table(out / "povm_fidelity_summary.csv", ["povm", "mean_fidelity", "std_fidelity"],
                summary, digest)
    return 0


def cmd_reduced_maps(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg)
    digest = cfg.digest()
    for name, chi in zip(("cz", "cnot"), chi_of_operator(np.array([CZ, CNOT]))):
        write_matrix(out / f"chi_{name}.txt", chi)
    tags = ("e0", "e1", "eym")
    envs = np.array([named_projector(label) for label in ("z+", "z-", "y-")])
    exact = reduced_map(CZ, envs)
    for tag, chi in zip(tags, exact):
        write_matrix(out / f"chi_reduced_cz_{tag}.txt", chi)
    if cfg.noise is not None:
        noisy = reduced_map(CZ, envs, cfg.noise)
        for tag, chi in zip(tags, noisy):
            write_matrix(out / f"chi_reduced_cz_{tag}_noisy.txt", chi)
        write_table(out / "reduced_map_fidelities.csv", ["env_state", "fidelity_vs_exact"],
                    zip(tags, chi_fidelity(noisy, exact)), digest)
    return 0


def cmd_tomo_predict(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg)
    digest = cfg.digest()
    spec = cfg.spec()
    records, fit = _records_and_fit(cfg, spec)
    (out / "records.txt").write_text(records_to_text(records))
    # every pair of the overcomplete set at once: arrays indexed [a0, a1]
    labels = np.array(OVERCOMPLETE_LABELS)
    mats = np.array([named_projector(label) for label in labels])
    steps = (mats[:, None], mats[None, :])
    truth, p_true = run_process(spec, steps)
    predicted, p_pred = fit.predict(steps)
    baseline, p_markov = markov_predict(spec, steps)
    # 0.0 marks a pair the tensor or the baseline has no state for
    fid_tensor = np.where(p_pred >= P_JOINT_CUTOFF, state_fidelity(truth, predicted), 0.0)
    fid_markov = np.where(p_markov >= P_JOINT_CUTOFF, state_fidelity(truth, baseline), 0.0)
    keep = p_true >= BRANCH_CUTOFF
    a0, a1 = np.nonzero(keep)
    rows = zip(labels[a0], labels[a1], p_true[keep], fid_tensor[keep], fid_markov[keep])
    write_table(
        out / "predictions.csv",
        ["a0", "a1", "p_joint", "fidelity_tensor", "fidelity_markov"],
        rows,
        digest,
    )
    summary = [
        (label, float(np.mean(fid_tensor[i, keep[i]])), float(np.mean(fid_markov[i, keep[i]])),
         int(keep[i].sum()))
        for i, label in enumerate(labels) if keep[i].any()
    ]
    write_table(
        out / "predictions_by_a0.csv",
        ["a0", "mean_fidelity_tensor", "mean_fidelity_markov", "pairs"],
        summary,
        digest,
    )
    return 0 if _refit_converged(fit) else 3


def cmd_nonmarkov(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg)
    digest = cfg.digest()
    spec = cfg.spec()
    _, fit = _records_and_fit(cfg, spec)
    thetas = cfg.theta_grid or default_theta_grid().tolist()
    rows = []
    all_converged = _refit_converged(fit)
    for theta, res in zip(thetas, sweep_theta(fit, thetas, process=spec)):
        if res is None:
            rows.append((theta, "absent", False, 0))
            continue
        rows.append((theta, res.n_value, res.converged, res.iterations))
        all_converged = all_converged and res.converged
    write_table(out / "nonmarkovianity.csv", ["theta", "n_value", "converged", "iterations"],
                rows, digest)
    return 0 if all_converged else 3


def cmd_volume(cfg: RunConfig) -> int:
    out = _ensure_outdir(cfg)
    digest = cfg.digest()
    spec = cfg.spec()
    _, fit = _records_and_fit(cfg, spec)
    thetas = cfg.theta_grid or (0.0, math.pi / 4, math.pi / 2)
    # Every cloud is computed before any is written, so a vanishing branch
    # (a config error) leaves no partial output.
    for idx, pair in enumerate(bloch_volume(fit, thetas, spec)):
        for kind, cloud in zip(("process-tensor", "markov-map"), pair):
            write_table(out / f"volume_{kind}_theta{idx}.csv",
                        ["theta_a1", "phi_a1", "bx", "by", "bz"], cloud, digest)
    return 0 if _refit_converged(fit) else 3


COMMANDS = {
    "characterize-povm": cmd_characterize_povm,
    "reduced-maps": cmd_reduced_maps,
    "tomo-predict": cmd_tomo_predict,
    "nonmarkov": cmd_nonmarkov,
    "volume": cmd_volume,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctensor",
        description="Two-qubit intervened-process simulation and tomography runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--process", default=None, choices=sorted(PROCESS_NAMES))
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--noise-gamma", type=float, default=None)
        p.add_argument("--noise-lambda", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--theta-grid", dest="theta_grid", default=None,
                       help="comma-separated angles in radians")
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: a parser holds reference
    cycles that only the cyclic collector frees, so one parser per call grew
    the heap of a process that calls main many times."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError, VanishingBranchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
