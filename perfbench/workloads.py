"""Workloads of the pipeline benchmark and the reading of their output files.

A workload is a list of ``proctensor`` CLI calls (a *pass*). ``warmup``
names the calls, by index, that run once before the timed passes; their
outputs are compared byte for byte with the same calls in the timed passes.
``minimal`` and ``minimal_warmup`` are a reduced pass with the same
subcommands and its warm-up, used by the smoke test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

NOISE = ["--noise-gamma", "0.05", "--noise-lambda", "0.05"]
HALF_PI = format(math.pi / 2, ".17g")
#: The shot count at which the acceptance suite sets the sampled-fit bands.
SHOTS = "3000"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    warmup: tuple
    minimal: tuple
    minimal_warmup: tuple
    #: (anchor, "min"/"max", band): the anchor must be >= / <= the band.
    gate: tuple
    #: Timed passes a run makes at least, whatever --seconds says.
    min_passes: int = 1


def sweep_grid() -> str:
    """The 13-point default grid plus pi/2, at 17 significant digits."""
    from proctensor.nonmarkov import default_theta_grid

    thetas = list(default_theta_grid()) + [math.pi / 2]
    return ",".join(format(float(t), ".17g") for t in thetas)


def workloads() -> dict[str, Workload]:
    grid = sweep_grid()
    exact = (
        ("tomo-predict", "--process", "cnot-cz"),
        ("tomo-predict", "--process", "cz-cnot"),
        ("tomo-predict", "--process", "cnot-cz", *NOISE),
        ("volume",),
        ("reduced-maps", "--noise-gamma", "0.05"),
    )
    shots = (
        ("tomo-predict", "--process", "cnot-cz", "--shots", SHOTS),
        ("characterize-povm", "--shots", SHOTS),
    )
    sweep = tuple(
        ("nonmarkov", "--process", p, "--theta-grid", grid) for p in ("cnot-cz", "cz-cnot")
    )
    return {
        w.name: w
        for w in (
            Workload(
                "exact-predict",
                "thousands of small per-sequence calls plus the 81x256 linear fit; "
                "no minimiser; batching shows here",
                exact,
                warmup=tuple(range(len(exact))),
                minimal=(exact[0], ("volume", "--theta-grid", HALF_PI), exact[4]),
                minimal_warmup=(0, 1, 2),
                gate=(("fid_tensor_min", "min", 1 - 1e-6), ("fid_markov_gap", "max", 1e-6)),
            ),
            Workload(
                "shot-refit",
                "seeded sampling and the PSD refit (about 90% of the time); "
                "the only workload that runs chi tomography",
                shots,
                warmup=(1,),
                minimal=shots,
                minimal_warmup=(1,),
                gate=(
                    ("fid_tensor_mean", "min", 0.99),
                    ("povm_fid_min", "min", 0.95),
                    ("fid_markov_gap", "max", 1e-6),
                ),
            ),
            Workload(
                "memory-sweep",
                "the memory minimiser over the default grid plus pi/2 (over 99% of "
                "the time); carries the ln 2 and N = 0 anchors",
                sweep,
                warmup=(1,),
                minimal=tuple(
                    ("nonmarkov", "--process", p, "--theta-grid", HALF_PI)
                    for p in ("cnot-cz", "cz-cnot")
                ),
                minimal_warmup=(0, 1),
                gate=(("n_gap_ln2", "max", 0.02), ("n_cz_max", "max", 0.02)),
                # One pass spreads by up to a fifth between runs on a shared
                # host; the median of two halves the random part of that.
                min_passes=2,
            ),
        )
    }


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _table(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config="):
        raise ValueError(f"{path}: missing config line")
    return list(csv.DictReader(lines[1:]))


class Inspection:
    """Operation counts and anchor values read from the output files."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self.fid_tensor: list[float] = []
        self.anchors: dict[str, float] = {}

    def call(self, argv, outdir, rc) -> None:
        """Account for one CLI call: rc None means it raised."""
        self.attempted += 1
        command = argv[0]
        if rc not in (0, 3) or (rc == 3 and command != "nonmarkov"):
            self.failed += 1
            return
        reader = getattr(self, "_" + command.replace("-", "_"), None)
        if reader is not None:
            reader(argv, outdir, rc)

    def _tomo_predict(self, argv, outdir, rc):
        rows = _table(outdir / "predictions.csv")
        self.attempted += len(rows)
        for row in rows:
            fid = float(row["fidelity_tensor"])
            # The CLI writes 0.0 when the oracle has a state and the tensor none.
            self.failed += fid == 0.0
            self.fid_tensor.append(fid)
            if (
                _flag(argv, "--process", "cnot-cz") == "cnot-cz"
                and "--noise-gamma" not in argv
                and (row["a0"], row["a1"]) == ("y-", "x+")
            ):
                self.anchors["fid_markov_gap"] = abs(float(row["fidelity_markov"]) - 0.5)
        self.anchors["fid_tensor_min"] = min(self.fid_tensor)
        self.anchors["fid_tensor_mean"] = float(np.mean(self.fid_tensor))

    def _nonmarkov(self, argv, outdir, rc):
        rows = _table(outdir / "nonmarkovianity.csv")
        self.attempted += len(rows)
        values = []
        bad = 0
        for row in rows:
            if row["n_value"] == "absent" or row["converged"] != "true":
                bad += 1
            if row["n_value"] != "absent":
                values.append((float(row["theta"]), float(row["n_value"])))
        self.unconverged += bad
        if (rc == 3) != (bad > 0):
            # Exit code 3 must come with, and only with, a failed point.
            self.failed += 1
        process = _flag(argv, "--process", "cnot-cz")
        if process == "cnot-cz":
            at_half_pi = [n for t, n in values if abs(t - math.pi / 2) < 1e-12]
            if at_half_pi:
                self.anchors["n_gap_ln2"] = abs(at_half_pi[0] - math.log(2))
        elif values:
            self.anchors["n_cz_max"] = max(n for _, n in values)

    def _characterize_povm(self, argv, outdir, rc):
        self.attempted += len(_table(outdir / "povm_fidelities.csv"))
        summary = _table(outdir / "povm_fidelity_summary.csv")
        self.anchors["povm_fid_min"] = min(float(r["mean_fidelity"]) for r in summary)
