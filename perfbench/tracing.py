"""In-memory spans around the calls into each proctensor layer.

The tracer wraps public layer functions from the outside: every binding of a
traced function in a loaded ``proctensor.*`` module (and each traced method
on its class) is replaced by a wrapper that records a span. Nothing inside
the package changes, and ``uninstall`` restores the original objects.

A span is ``[name, start, end, parent, pass_id]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (or
None). Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: (metric prefix, module, attribute). "Class.method" wraps a method.
TARGETS = [
    ("process.generate_records", "proctensor.process", "generate_records"),
    ("process.run_process", "proctensor.process", "run_process"),
    ("process.markov_predict", "proctensor.process", "markov_predict"),
    ("process.intervention_qpt_data", "proctensor.process", "intervention_qpt_data"),
    ("tomography.fit", "proctensor.tomography", "RestrictedProcessTensor.fit"),
    ("tomography.refit", "proctensor.tomography", "_psd_refit_choi"),
    ("tomography.predict", "proctensor.tomography", "RestrictedProcessTensor.predict"),
    ("channels.chi_from_process", "proctensor.channels", "chi_from_process"),
    ("qubit.state_fidelity", "proctensor.qubit", "state_fidelity"),
    ("nonmarkov.condition_family", "proctensor.nonmarkov", "condition_family"),
    ("nonmarkov.uncorrelated_choi", "proctensor.nonmarkov", "uncorrelated_choi"),
    ("nonmarkov.minimize", "proctensor.nonmarkov", "minimize_nonmarkovianity"),
    ("nonmarkov.bloch_volume", "proctensor.nonmarkov", "bloch_volume"),
]

#: Floor of the refit weights, as in the refit's own objective.
REFIT_WEIGHT_FLOOR = 0.05


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- instrumentation --------------------------------------------------
    def install(self) -> None:
        loaded = [m for k, m in sys.modules.items() if k == "proctensor" or k.startswith("proctensor.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            after = _AFTER.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, after))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, after)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------
    def layers(self, pass_id: int) -> dict:
        """Per-name calls, busy (inclusive), self and slowest-call seconds."""
        stats: dict = {}
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] == pass_id and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        for index, (name, start, end, _, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            dur = end - start
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur - child_time[index]
            s["max_s"] = max(s["max_s"], dur)
        return stats

    def metrics(self, pass_id: int) -> dict:
        """Flat per-layer metrics of one traced pass, every target included."""
        stats = self.layers(pass_id)
        idle = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        out = {}
        for name, _, _ in TARGETS:
            for key, value in stats.get(name, idle).items():
                out[f"{name}.{key}"] = value
        cli = {n: s for n, s in stats.items() if n.startswith("cli.")}
        for name, s in cli.items():
            out[f"{name}.wall_s"] = s["busy_s"]
            out[f"{name}.calls"] = s["calls"]
        out["cli.main.wall_s"] = sum(s["busy_s"] for s in cli.values())
        for key in ("nonmarkov.minimize.iterations", "nonmarkov.minimize.unconverged"):
            out[key] = int(self.counters.get(key, 0))
        for key in ("tomography.refit.objective", "tomography.refit.min_eig"):
            out[key] = self.counters.get(key)
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_unit(key: str) -> str:
    """Unit of a per-layer metric key."""
    if key.endswith("_s"):
        return "s"
    if key.endswith("bytes_written"):
        return "bytes"
    if key.endswith((".calls", ".iterations", ".unconverged")):
        return "count"
    return "1"


def _after_minimize(tracer, args, kwargs, result):
    tracer.counters["nonmarkov.minimize.iterations"] += result.iterations
    tracer.counters["nonmarkov.minimize.unconverged"] += not result.converged


def _after_fit(tracer, args, kwargs, fit):
    """Weighted least-squares objective of map_ on the records, and min eig of choi_."""
    if not fit.psd:
        return
    from proctensor.linalg import vec
    from proctensor.qubit import FIT_BASIS_LABELS, named_projector
    from proctensor.tomography import sequence_vector

    records = args[1] if len(args) > 1 else kwargs["records"]
    basis = [named_projector(label) for label in FIT_BASIS_LABELS]
    objective = 0.0
    for rec in records:
        i0, i1 = rec.basis_indices
        pred = fit.map_ @ sequence_vector([basis[i0], basis[i1]])
        resid = pred - rec.p_joint * vec(rec.rho_measured)
        weight = 1.0 / max(np.sqrt(rec.p_joint), REFIT_WEIGHT_FLOOR)
        objective += weight * float(np.sum(np.abs(resid) ** 2))
    tracer.counters["tomography.refit.objective"] = objective
    tracer.counters["tomography.refit.min_eig"] = float(np.linalg.eigvalsh(fit.choi_).min())


_AFTER = {"nonmarkov.minimize": _after_minimize, "tomography.fit": _after_fit}
