"""The CLI calls whose output files, stderr and exit codes are the behaviour contract.

    PYTHONPATH=src python tests/cli_calls.py OUT

runs each call of CALLS in a fresh interpreter, as
``python -m proctensor.cli ARGV --out OUT/<name>/files`` with this process's
environment (its PYTHONPATH picks the source tree) and RuntimeWarning as an
error, and writes the call's stderr and exit code to OUT/<name>/stderr and
OUT/<name>/exit. OUT must not exist yet. The runner exits 1 when an exit code
differs from the table's. Two runs compare under ``diff -r``: at
OPENBLAS_NUM_THREADS=1 and 2 for rerun determinism and thread independence,
or on two source trees for the output difference of a change.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

from proctensor.nonmarkov import default_theta_grid

PROCESSES = ("cnot-cz", "cz-cnot")
NOISY = ("--noise-gamma", "0.05", "--noise-lambda", "0.05")


def _grid(thetas) -> str:
    return ",".join(format(float(t), ".17g") for t in thetas)


# the benchmark's grid (the default grid plus pi/2); pi adds a vanishing
# branch, a masked row of the stacked sweep; 60 angles is a grid size the
# benchmark never runs, where the kernel directions and the two-half support
# QR still run
BENCH_GRID = _grid([*default_theta_grid(), math.pi / 2])
PI_GRID = _grid([*default_theta_grid(), math.pi / 2, math.pi])
GRID_60 = _grid(math.pi * k / 59 for k in range(60))
ABSENT = f"0,{math.pi!r}"

#: (name, argv, expected exit code) of every call
CALLS = [
    (f"{command}-{process}{suffix}", (command, "--process", process, *flags), 0)
    for command in ("tomo-predict", "nonmarkov", "volume", "reduced-maps", "characterize-povm")
    for process in PROCESSES
    for suffix, flags in (("", ()), ("-noisy", NOISY),
                          ("-shots", ("--shots", "3000", "--seed", "0")))
] + [
    call
    for process in PROCESSES
    for call in (
        (f"nonmarkov-grid-{process}",
         ("nonmarkov", "--process", process, "--theta-grid", BENCH_GRID), 0),
        (f"nonmarkov-grid-{process}-noisy",
         ("nonmarkov", "--process", process, *NOISY, "--theta-grid", BENCH_GRID), 0),
        # ROADMAP item 6: at seed 1 cnot-cz's point 2.88 reads converged=false
        (f"nonmarkov-grid-{process}-noisy-shots",
         ("nonmarkov", "--process", process, *NOISY, "--shots", "3000", "--seed", "1",
          "--theta-grid", BENCH_GRID), 3 if process == "cnot-cz" else 0),
        # the absent angle pi is refused before any file is written
        (f"volume-absent-{process}", ("volume", "--process", process, "--theta-grid", ABSENT), 2),
        (f"volume-absent-{process}-shots",
         ("volume", "--process", process, "--shots", "3000", "--seed", "0",
          "--theta-grid", ABSENT), 2),
        # branches just above the cutoff
        (f"volume-near-cutoff-{process}",
         ("volume", "--process", process, "--theta-grid", "3.1415,3.1417"), 0),
        (f"nonmarkov-grid60-{process}",
         ("nonmarkov", "--process", process, "--theta-grid", GRID_60), 0),
    )
] + [
    # the low-shot QPT, where the PSD projection of the one design solve clips most
    ("characterize-povm-shots-100", ("characterize-povm", "--shots", "100", "--seed", "9"), 0),
    ("tomo-predict-noisy-shots", ("tomo-predict", *NOISY, "--shots", "3000", "--seed", "1"), 0),
    # both ends of the accepted shot range; at the 10**6 cap the draws take
    # numpy's BTPE path on snapped probabilities
    ("tomo-predict-shots-100", ("tomo-predict", "--shots", "100"), 0),
    ("tomo-predict-shots-1000000", ("tomo-predict", "--shots", "1000000"), 0),
    # the PSD refit converges on high-shot records: an unconverged refit exits 3
    ("tomo-predict-cz-cnot-shots-300000",
     ("tomo-predict", "--process", "cz-cnot", "--shots", "300000", "--seed", "1"), 0),
    ("tomo-predict-noisy-shots-1000000",
     ("tomo-predict", *NOISY, "--shots", "1000000", "--seed", "0"), 0),
    ("reduced-maps-gamma", ("reduced-maps", "--noise-gamma", "0.05"), 0),
    ("nonmarkov-grid-pi", ("nonmarkov", "--theta-grid", PI_GRID), 0),
    ("nonmarkov-grid-pi-noisy", ("nonmarkov", *NOISY, "--theta-grid", PI_GRID), 0),
    # at pi a 3000-shot fit keeps a branch of 3.6e-3, so the sampled sweep
    # runs the process-side zero reference
    ("nonmarkov-grid-pi-shots", ("nonmarkov", "--shots", "3000", "--theta-grid", PI_GRID), 0),
    # volume-cnot-cz-shots spelt with the default process and seed
    ("volume-shots", ("volume", "--shots", "3000"), 0),
    # first-step angles off the named projectors, through the broadcasting projector kernel
    ("volume-grid", ("volume", "--theta-grid", "0.3,1.1,2.9"), 0),
    ("volume-grid-noisy", ("volume", *NOISY, "--theta-grid", "0.3,1.1,2.9"), 0),
    ("volume-grid-cz-cnot", ("volume", "--process", "cz-cnot", "--theta-grid", "0.3,1.1,2.9"), 0),
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    wrong = 0
    for name, args, expected in CALLS:
        (out / name).mkdir()
        with open(out / name / "stderr", "wb") as stderr:
            code = subprocess.run([sys.executable, "-m", "proctensor.cli", *args,
                                   "--out", str(out / name / "files")],
                                  stderr=stderr, env=env).returncode
        (out / name / "exit").write_text(f"{code}\n")
        if code != expected:
            wrong += 1
            print(f"{name}: exit {code}, the table says {expected}", file=sys.stderr)
    print(f"{len(CALLS)} calls, {wrong} with an exit code other than the table's")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
