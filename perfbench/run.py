"""Pipeline benchmark for proctensor: time the CLI end to end, gate the anchors.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--minimal]

Each workload runs in a fresh child interpreter (perfbench/child.py) with
OPENBLAS_NUM_THREADS set to the number of usable cores, one pass in flight.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced pass, plus the same traced pass repeated at 1
BLAS thread as a diagnostic. The report lines come first; the last line of
standard output is one JSON object with the metrics BENCHMARK.json lists for
that mode. A failed correctness check exits with code 1, a run that could
not be made with code 2 and no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_unit
from workloads import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("exact-predict", "shot-refit", "memory-sweep")
SETUP_STARTS = 4
#: A run must end within 180 s; leave room to clean up.
DEADLINE_S = 170.0

SETUP_PROBE = (
    "import time, proctensor.cli as c; c.build_parser(); print(repr(time.perf_counter()))"
)

#: End-to-end metrics the report prints, with units, besides the timings.
ACCURACY = {
    "fail_frac": "1",
    "n_gap_ln2": "nat",
    "n_cz_max": "nat",
    "fid_tensor_min": "1",
    "fid_tensor_mean": "1",
    "fid_markov_gap": "1",
    "povm_fid_min": "1",
}
TIMING = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not be run; no result is printed."""


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def finish(proc: subprocess.Popen, deadline: float):
    """Wait for proc until the deadline; kill it and raise if it runs past."""
    try:
        return proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child process ran past the deadline and was killed") from None


def measure_setup(threads: int, deadline: float) -> list[float]:
    """Seconds from spawning an interpreter to an imported package and parser.

    The child prints its perf_counter after build_parser; on Linux that clock
    is system-wide, so the difference to the parent's spawn time is the
    set-up time without interpreter teardown. The first start, which may
    compile bytecode, is discarded.
    """
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], env=child_env(threads),
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        out, _ = finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError("importing proctensor failed")
        times.append(float(out.decode().strip()) - start)
    return times[1:]


def run_child(workload: str, mode: str, threads: int, args, deadline: float) -> dict:
    work = WORK / f"{workload}-{mode}-{threads}T-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    result_path = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--src", str(ROOT / "src"), "--work", str(work),
        "--result", str(result_path),
    ] + (["--minimal"] if args.minimal else [])
    # Child stdout goes to our stderr: our stdout ends with the JSON line.
    proc = subprocess.Popen(cmd, env=child_env(threads), stdout=sys.stderr, cwd=ROOT)
    finish(proc, deadline)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{workload} child ({mode}, {threads} threads) exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    spans = work / "spans.json"
    if spans.exists():
        spans.replace(WORK / f"spans-{workload}-{threads}T.json")
    shutil.rmtree(work, ignore_errors=True)
    return result


def environment(threads: int, child: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "openblas_num_threads": threads,
        "blas_threads_effective": child["blas_threads"],
        "cores": os.cpu_count(),
        "usable_cores": threads,
        "cpu_model": cpu_model,
        **child["versions"],
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def gate(spec, child: dict, minimal: bool) -> list[str]:
    """Reasons the correctness gate fails (empty when it passes)."""
    problems = [f"output differs between passes: {m}" for m in child["mismatches"]]
    anchors = child["anchors"]
    for name, kind, band in spec.gate:
        value = anchors.get(name)
        if value is None:
            if not minimal:
                problems.append(f"{name} missing")
        elif (kind == "min" and not value >= band) or (kind == "max" and not value <= band):
            problems.append(f"{name}={value!r} outside band {'>=' if kind == 'min' else '<='} {band}")
    if child["failed"]:
        problems.append(f"{child['failed']} operations failed")
    return problems


def end_to_end(child: dict, setup: list[float]) -> dict:
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in child["passes"]),
        "cpu_s": statistics.median(p["cpu_s"] for p in child["passes"]),
        "peak_rss_mb": child["peak_rss_mb"],
        "fail_frac": (child["failed"] + child["unconverged"]) / child["attempted"],
    }
    for name in ACCURACY:
        metrics.setdefault(name, child["anchors"].get(name))
    return metrics


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(name: str, spec, threads: int, args, bench: dict, deadline: float) -> int:
    print(f"== {name} (seed {args.seed}, OPENBLAS_NUM_THREADS={threads}, "
          f"{'traced' if args.trace else 'untraced'}{', minimal' if args.minimal else ''})")
    print(f"   why: {spec.why}")
    if args.trace:
        child = run_child(name, "trace", threads, args, deadline)
        single = run_child(name, "trace-only", 1, args, deadline)
        table = {k: {"value": v, "unit": layer_unit(k)} for k, v in child["layers"].items()}
        table_1t = {k: {"value": v, "unit": layer_unit(k)} for k, v in single["layers"].items()}
        print(f"   per-layer metrics of one traced pass ({threads} BLAS threads | 1 BLAS thread):")
        for key in sorted(table):
            print(f"   {key:<44} {fmt(table[key]['value']):>12} | "
                  f"{fmt(table_1t[key]['value']):>12}  {table[key]['unit']}")
        table["trace_overhead_s"] = {"value": child.get("trace_overhead_s"), "unit": "s"}
        print(f"   {'trace_overhead_s':<44} {fmt(table['trace_overhead_s']['value']):>12}  s  "
              f"(traced minus untraced time of: {', '.join(child.get('overhead_calls', []))})")
        full = {"metrics": table, "metrics_1thread": table_1t}
        listed = bench["per_layer"]
    else:
        setup = measure_setup(threads, deadline)
        child = run_child(name, "measure", threads, args, deadline)
        values = end_to_end(child, setup)
        notes = {
            "setup_s": f"median of {len(setup)} starts",
            "wall_s": f"median of {len(child['passes'])} passes after warm-up",
            "cpu_s": f"median of {len(child['passes'])} passes, user+system of the child",
            "fail_frac": f"{child['failed']} failed + {child['unconverged']} unconverged "
                         f"of {child['attempted']} attempted",
        }
        table = {k: {"value": values[k], "unit": u} for k, u in {**TIMING, **ACCURACY}.items()}
        for key, entry in table.items():
            print(f"   {key:<16} {fmt(entry['value']):>12}  {entry['unit']:<5} {notes.get(key, '')}")
        full = {"metrics": table, "passes": child["passes"], "setup_starts": setup}
        listed = bench["end_to_end"]
    env = environment(threads, child)
    problems = gate(spec, child, args.minimal)
    print(f"   env: {json.dumps(env)}")
    print(f"   gate: {'pass' if not problems else 'FAIL: ' + '; '.join(problems)}")
    record = {"workload": name, "seed": args.seed, "trace": args.trace, "env": env,
              "gate": problems, **full}
    (WORK / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: table[m["name"]] for m in listed},
    }), flush=True)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--minimal", action="store_true",
                    help="reduced passes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if not (ROOT / "src" / "proctensor" / "__init__.py").is_file():
            raise BenchError(f"no proctensor sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        threads = len(os.sched_getaffinity(0))
        WORK.mkdir(exist_ok=True)
        sys.path.insert(0, str(ROOT / "src"))
        specs = workloads()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        status = 0
        for name in names:
            deadline = time.perf_counter() + DEADLINE_S
            status |= run_workload(name, specs[name], threads, args, bench, deadline)
        return status
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
