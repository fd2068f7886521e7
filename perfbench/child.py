"""One workload in a fresh interpreter: warm-up, timed passes, optional trace.

Started by run.py with PYTHONPATH set to the checkout's ``src`` and
OPENBLAS_NUM_THREADS set by the parent. Every CLI call runs in-process
through ``proctensor.cli.main`` with its own temporary ``--out`` directory,
which is hashed, read and removed after the call. The result goes to the
JSON file named by ``--result``.

Modes:
  measure     warm-up, then passes until --seconds have passed and the
              workload's min_passes are done
  trace       warm-up, then one traced pass; the warm-up calls, run again
              traced, give the tracing overhead
  trace-only  one traced pass (the 1-thread diagnostic)
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import Inspection, workloads


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports for itself."""
    with open("/proc/self/maps") as fh:
        paths = {
            line.split()[-1]
            for line in fh
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    def __init__(self, cli, calls, seed: int, work: Path):
        self.cli = cli
        self.calls = calls
        self.seed = seed
        self.work = work
        self.digests: dict[int, dict] = {}
        self.mismatches: list[str] = []
        self.inspection = Inspection()
        self.passes: list[dict] = []
        self.bytes_written = 0
        self._serial = 0

    def call(self, index: int, tracer: Tracer | None, inspect: bool) -> float:
        """Run one CLI call, check and read its outputs; returns its wall time."""
        argv = list(self.calls[index])
        self._serial += 1
        out = self.work / f"call{self._serial}"
        full = argv + ["--seed", str(self.seed), "--out", str(out)]
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        start = time.perf_counter()
        try:
            rc = self.cli.main(full)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            wall = time.perf_counter() - start
            if tracer:
                tracer.close(span)
        files = {}
        if out.is_dir():
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                data = path.read_bytes()
                files[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
                self.bytes_written += len(data)
        previous = self.digests.setdefault(index, files)
        if previous != files:
            self.mismatches.append(" ".join(argv[:3]))
        if inspect:
            self.inspection.call(argv, out, rc)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        self.bytes_written = 0
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        call_walls = [self.call(index, tracer, inspect=True) for index in range(len(self.calls))]
        record = {
            "call_walls": call_walls,
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": cpu_seconds() - cpu0,
            "bytes_written": self.bytes_written,
        }
        self.passes.append(record)
        return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace", "trace-only"), required=True)
    ap.add_argument("--minimal", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy
    import scipy
    import proctensor
    import proctensor.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(proctensor.__file__).resolve().parents:
        print(f"proctensor imported from {proctensor.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads()[args.workload]
    calls = workload.minimal if args.minimal else workload.calls
    warmup = workload.minimal_warmup if args.minimal else workload.warmup
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, calls, args.seed, work)

    warm = {} if args.mode == "trace-only" else {i: runner.call(i, None, inspect=False) for i in warmup}
    result = {"blas_threads": blas_threads()}
    if args.mode == "measure":
        start = time.perf_counter()
        while len(runner.passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
            runner.run_pass()
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.dump(work / "spans.json")
        layers = tracer.metrics(tracer.pass_id)
        layers["fileio.bytes_written"] = traced["bytes_written"]
        result["layers"] = layers
        if warm:
            # Same calls untraced (warm-up) and traced: their time difference.
            result["trace_overhead_s"] = sum(traced["call_walls"][i] - w for i, w in warm.items())
            result["overhead_calls"] = [" ".join(calls[i][:3]) for i in warm]

    insp = runner.inspection
    result.update(
        passes=runner.passes,
        attempted=insp.attempted,
        failed=insp.failed,
        unconverged=insp.unconverged,
        anchors=insp.anchors,
        mismatches=runner.mismatches,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
