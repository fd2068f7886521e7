"""Batch experiment runner.

Subcommands reproduce the full workflow as machine-readable files:
characterize-povm, reduced-maps, tomo-predict, nonmarkov and volume. A
key-value config file with [run] and [noise] sections may supply defaults
(SETTINGS gives each setting's flag and config key; any other section or
key is a config error); command-line flags override file keys. Exit codes:
0 success, 2 config error, 3 numeric non-convergence (a sweep point or the
PSD refit; output is still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channels import chi_fidelity, chi_from_process, chi_of_operator, reduced_map
from .fileio import config_digest, format_value, write_matrix, write_table
from .linalg import BRANCH_CUTOFF, one_blas_thread
from .nonmarkov import bloch_volume, default_theta_grid, sweep_theta
from .process import (
    MAX_SHOTS,
    PROCESS_NAMES,
    ShotConfig,
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
from .tomography import RestrictedProcessTensor, records_to_text

__all__ = ["RunConfig", "main"]

DEFAULT_NOISE_RATE = 0.01
QPT_REPETITIONS = 20


class Setting(NamedTuple):
    """A run setting: its flag, its config-file section and key, and the type its text is read as."""

    flag: str
    section: str
    key: str
    type: Callable = str
    choices: tuple | None = None
    help: str | None = None


#: Every run setting, by its name in the parsed flags and in resolve_config:
#: RunConfig's field, or noise_gamma and noise_lambda, its NoiseSpec's rates.
SETTINGS = {
    "process": Setting("--process", "run", "process", choices=tuple(sorted(PROCESS_NAMES))),
    "shots": Setting("--shots", "run", "shots", int),
    "seed": Setting("--seed", "run", "seed", int),
    "noise_gamma": Setting("--noise-gamma", "noise", "gamma", float),
    "noise_lambda": Setting("--noise-lambda", "noise", "lambda", float),
    "output_dir": Setting("--out", "run", "output_dir", Path),
    "theta_grid": Setting("--theta-grid", "run", "theta_grid",
                          help="comma-separated angles in radians"),
}
#: The keys a config file may set, by section.
CONFIG_KEYS = {s.section: {t.key for t in SETTINGS.values() if t.section == s.section}
               for s in SETTINGS.values()}


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
            "theta_grid": ",".join(map(format_value, self.theta_grid))
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
    """The settings a config file sets, by name, each read through its type."""
    import configparser  # only a run with a config file pays for the import

    # each value is read as written: no %-interpolation from other keys
    parser = configparser.ConfigParser(interpolation=None)
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
    # a [noise] section turns noise on, even with no key
    noise_on = parser.has_section(SETTINGS["noise_gamma"].section)
    out = {"noise_gamma": DEFAULT_NOISE_RATE} if noise_on else {}
    for name, s in SETTINGS.items():
        if parser.has_option(s.section, s.key):
            out[name] = s.type(parser.get(s.section, s.key))
    return out


def resolve_config(args) -> RunConfig:
    """RunConfig's defaults, overridden by the config file, then by the flags given."""
    values = _load_file(args.config) if args.config else {}
    values.update((name, flag) for name in SETTINGS
                  if (flag := getattr(args, name)) is not None)
    rates = [values.pop(name, None) for name in ("noise_gamma", "noise_lambda")]
    cfg = RunConfig(**values)
    if cfg.process not in PROCESS_NAMES:
        raise ConfigError(f"unknown process {cfg.process!r}; choose from {sorted(PROCESS_NAMES)}")
    if cfg.shots is not None and not 100 <= cfg.shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in [100, {MAX_SHOTS}], got {cfg.shots}")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {cfg.seed}")
    if rates != [None, None]:
        cfg.noise = NoiseSpec(*(DEFAULT_NOISE_RATE if rate is None else rate for rate in rates))
    if cfg.theta_grid is not None:
        cfg.theta_grid = _parse_theta_grid(cfg.theta_grid)
    if "\0" in str(cfg.output_dir):  # no file system takes it: Path.mkdir raises ValueError
        raise ConfigError(f"output directory {str(cfg.output_dir)!r} contains a null byte")
    return cfg


def _records_and_fit(cfg: RunConfig, spec):
    """Records of the process, their fit and whether its PSD refit (sampled
    records) converged, with a note on stderr where it did not."""
    records = generate_records(spec, cfg.shot_config())
    fit = RestrictedProcessTensor(psd=cfg.shots is not None).fit(records)
    info = fit.refit_info_
    converged = info is None or info.converged
    if not converged:
        print(f"PSD refit not converged after {info.iterations} Newton steps "
              f"(fixed-point residual {info.optimality:.3e})", file=sys.stderr)
    return records, fit, converged


def _safe_name(label: str) -> str:
    return label.replace("+", "p").replace("-", "m")


def cmd_characterize_povm(cfg: RunConfig, out: Path, digest: str) -> bool:
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
    return True


def cmd_reduced_maps(cfg: RunConfig, out: Path, digest: str) -> bool:
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
    return True


def cmd_tomo_predict(cfg: RunConfig, out: Path, digest: str) -> bool:
    spec = cfg.spec()
    records, fit, converged = _records_and_fit(cfg, spec)
    (out / "records.txt").write_text(records_to_text(records))
    # every pair of the overcomplete set at once: arrays indexed [a0, a1]
    labels = np.array(OVERCOMPLETE_LABELS)
    mats = np.array([named_projector(label) for label in labels])
    steps = (mats[:, None], mats[None, :])
    truth, p_true = run_process(spec, steps)
    predicted, p_pred = fit.predict(steps)
    baseline, p_markov = markov_predict(spec, steps)
    # 0.0 marks a pair the tensor or the baseline has no state for
    fid_tensor = np.where(p_pred >= BRANCH_CUTOFF, state_fidelity(truth, predicted), 0.0)
    fid_markov = np.where(p_markov >= BRANCH_CUTOFF, state_fidelity(truth, baseline), 0.0)
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
    return converged


def cmd_nonmarkov(cfg: RunConfig, out: Path, digest: str) -> bool:
    spec = cfg.spec()
    _, fit, converged = _records_and_fit(cfg, spec)
    thetas = cfg.theta_grid or default_theta_grid().tolist()
    results = sweep_theta(fit, thetas, process=spec)
    rows = [(theta, "absent", False, 0) if res is None
            else (theta, res.n_value, res.converged, res.iterations)
            for theta, res in zip(thetas, results)]
    write_table(out / "nonmarkovianity.csv", ["theta", "n_value", "converged", "iterations"],
                rows, digest)
    unconverged = [format_value(t) for t, res in zip(thetas, results)
                   if res is not None and not res.converged]
    if unconverged:
        print(f"memory measure not converged at theta {', '.join(unconverged)}", file=sys.stderr)
    return converged and not unconverged


def cmd_volume(cfg: RunConfig, out: Path, digest: str) -> bool:
    spec = cfg.spec()
    _, fit, converged = _records_and_fit(cfg, spec)
    thetas = cfg.theta_grid or (0.0, math.pi / 4, math.pi / 2)
    # every cloud is computed before any is written: an absent angle writes nothing
    volumes = bloch_volume(fit, thetas, spec)
    if None in volumes:
        if not converged:  # the unconverged refit's exit 3 explains the absent angle
            return False
        theta = thetas[volumes.index(None)]
        raise ConfigError(f"vanishing-branch: the first-step branch vanishes at theta {theta!r}")
    for idx, pair in enumerate(volumes):
        for kind, cloud in zip(("process-tensor", "markov-map"), pair):
            write_table(out / f"volume_{kind}_theta{idx}.csv",
                        ["theta_a1", "phi_a1", "bx", "by", "bz"], cloud, digest)
    return converged


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
        for name, setting in SETTINGS.items():
            p.add_argument(setting.flag, dest=name, type=setting.type,
                           choices=setting.choices, help=setting.help)
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: a parser holds reference
    cycles that only the cyclic collector frees, so one parser per call grew
    the heap of a process that calls main many times."""
    return build_parser()


# every kernel of a run is too small for a second BLAS thread to pay, and
# one thread rounds alike whatever OPENBLAS_NUM_THREADS says; the pin spans
# the whole run, since a worker woken by one call spins on into the next
@one_blas_thread()
def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # each subcommand writes into the one directory made here and returns
    # whether every refit and sweep point converged
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        converged = COMMANDS[args.command](cfg, cfg.output_dir, cfg.digest())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 4
    return 0 if converged else 3


if __name__ == "__main__":
    sys.exit(main())
