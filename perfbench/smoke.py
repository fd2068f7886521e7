"""Smoke test of the benchmark itself.

Runs every workload at minimal size, untraced and traced, and checks that
each run exits 0, that its last line of output is the result object with the
metrics BENCHMARK.json lists for the mode, and that the result file names
every end-to-end or per-layer metric the benchmark documents, each with a
unit. Run from the root of a checkout (takes about two minutes):

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = [
    "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_frac", "n_gap_ln2", "n_cz_max",
    "fid_tensor_min", "fid_tensor_mean", "fid_markov_gap", "povm_fid_min",
]
PER_LAYER = [
    "tomography.fit.busy_s", "tomography.fit.calls", "tomography.fit.max_s",
    *(f"{f}.{k}" for f in ("process.run_process", "process.markov_predict",
                           "tomography.predict", "qubit.state_fidelity",
                           "nonmarkov.bloch_volume") for k in ("busy_s", "calls")),
    "tomography.refit.busy_s", "tomography.refit.objective", "tomography.refit.min_eig",
    "process.generate_records.busy_s", "process.intervention_qpt_data.busy_s",
    "channels.chi_from_process.busy_s", "channels.chi_from_process.calls",
    "nonmarkov.condition_family.busy_s", "nonmarkov.uncorrelated_choi.busy_s",
    "nonmarkov.minimize.busy_s", "nonmarkov.minimize.max_s",
    "nonmarkov.minimize.iterations", "nonmarkov.minimize.unconverged",
    "fileio.bytes_written", "trace_overhead_s",
]
SUBCOMMANDS = {
    "exact-predict": ["tomo-predict", "volume", "reduced-maps"],
    "shot-refit": ["tomo-predict", "characterize-povm"],
    "memory-sweep": ["nonmarkov"],
}


def check(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--minimal"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    problems = []
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"] or last["attempted"] < 1:
        problems.append(f"{where}: bad result keys or counts {sorted(last)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if trace else "end_to_end"]
    for metric in listed:
        got = last["metrics"].get(metric["name"])
        if not got or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: result line lacks {metric['name']} [{metric['unit']}]")
    record = json.loads((ROOT / ".perfbench" / f"result-{workload}-trace{trace}.json").read_text())
    names = PER_LAYER + [f"cli.{c}.wall_s" for c in SUBCOMMANDS[workload]] if trace else END_TO_END
    for table in ("metrics", "metrics_1thread") if trace else ("metrics",):
        for name in names:
            if name == "trace_overhead_s" and table == "metrics_1thread":
                continue
            entry = record[table].get(name)
            if entry is None or not entry.get("unit"):
                problems.append(f"{where}: {table} lacks {name} with a unit")
    return problems


def main() -> int:
    problems = []
    for workload in SUBCOMMANDS:
        for trace in (0, 1):
            found = check(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
