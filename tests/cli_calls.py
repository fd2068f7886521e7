"""The CLI calls whose output files, stderr and exit codes are the behaviour contract.

    PYTHONPATH=src python tests/cli_calls.py OUT

runs each call of CALLS with run_call, as ``python -m proctensor.cli ARGV --out
OUT/<name>/files`` in a fresh interpreter with this process's environment (its
PYTHONPATH picks the source tree) and RuntimeWarning as an error, and exits 1
when a call breaks an exit rule of exit_rule_faults. OUT must not exist yet.
Two runs compare under ``diff -r``: at OPENBLAS_NUM_THREADS=1 and 2 for rerun
determinism and thread independence, or on two source trees for the output
difference of a change.
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
    # first-step angles off the named projectors, through the broadcasting projector kernel
    ("volume-grid", ("volume", "--theta-grid", "0.3,1.1,2.9"), 0),
    ("volume-grid-noisy", ("volume", *NOISY, "--theta-grid", "0.3,1.1,2.9"), 0),
    ("volume-grid-cz-cnot", ("volume", "--process", "cz-cnot", "--theta-grid", "0.3,1.1,2.9"), 0),
]


#: name -> (argv, expected exit code)
ROWS = {name: (argv, expected) for name, argv, expected in CALLS}


def run_call(out: Path, name: str, env=os.environ) -> int:
    """Run the call NAME into OUT/<name>: its files in files/, its stderr and
    exit code in the files stderr and exit. Return the exit code."""
    (out / name).mkdir()
    with open(out / name / "stderr", "wb") as stderr:
        code = subprocess.run([sys.executable, "-m", "proctensor.cli", *ROWS[name][0],
                               "--out", str(out / name / "files")], stderr=stderr,
                              env=dict(env, PYTHONWARNINGS="error::RuntimeWarning")).returncode
    (out / name / "exit").write_text(f"{code}\n")
    return code


def exit_rule_faults(out: Path, name: str) -> list[str]:
    """The rules OUT/<name> of the call NAME breaks: the exit code is the table's,
    and files/ holds no file after an exit-2 call, at least one after the others."""
    expected, code = ROWS[name][1], int((out / name / "exit").read_text())
    wrote = any(p.is_file() for p in (out / name / "files").rglob("*"))
    rules = ((f"exit {code}, the table says {expected}", code != expected),
             ("an exit-2 call wrote a file", expected == 2 and wrote),
             (f"an exit-{expected} call wrote no file", expected != 2 and not wrote))
    return [fault for fault, broken in rules if broken]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    faults = []
    for name in ROWS:
        run_call(out, name)
        faults += [f"{name}: {fault}" for fault in exit_rule_faults(out, name)]
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{len(ROWS)} calls, {len(faults)} broken exit rules")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
