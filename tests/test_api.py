"""The public surface: what the package exports, and what the benchmark looks up by name."""

import ast
import importlib
import importlib.util
import inspect
import math
import pkgutil
from pathlib import Path

import proctensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def submodules():
    return [importlib.import_module(f"proctensor.{info.name}")
            for info in pkgutil.iter_modules(proctensor.__path__)]


def test_every_all_entry_resolves():
    # a stale entry breaks only `from ... import *`
    for module in [proctensor, *submodules()]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, dotted):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_bench_trace_targets_resolve():
    tracing = load_tracing()
    for _, module_name, attr in tracing.TARGETS:
        resolve(module_name, attr)
    # the names the refit metrics import when a fit is traced
    tree = ast.parse(inspect.getsource(tracing._after_fit))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        for alias in node.names:
            resolve(node.module, alias.name)

    originals = {(m, a): resolve(m, a) for _, m, a in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in originals.items():
            assert resolve(module_name, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert resolve(module_name, attr) is original, attr


def test_traced_tomo_predict_counts_every_prediction_layer(tmp_path):
    # the bench's per-layer metrics of tomo-predict read these spans
    import proctensor.cli

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert proctensor.cli.main(["tomo-predict", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    stats = tracer.layers(0)
    for name in ("process.generate_records", "process.run_process", "process.markov_predict",
                 "tomography.fit", "tomography.predict", "qubit.state_fidelity"):
        assert stats.get(name, {"calls": 0})["calls"] >= 1, name


def test_traced_subcommands_call_each_layer_once(tmp_path):
    # characterize-povm and volume stack their projectors and their angles,
    # and a memory sweep calls the family and the reference layer once; the
    # traced hook on the minimiser reads one result, so a sweep that handed
    # it a list would fail here
    import proctensor.cli

    runs = [
        ("characterize-povm", ("--shots", "100"),
         ("process.intervention_qpt_data", "channels.chi_from_process")),
        ("volume", (), ("nonmarkov.bloch_volume",)),
        ("nonmarkov", (), ("nonmarkov.condition_family", "nonmarkov.uncorrelated_choi")),
        ("nonmarkov", ("--theta-grid", f"0.3,{math.pi!r}"),
         ("nonmarkov.condition_family", "nonmarkov.uncorrelated_choi")),
    ]
    for index, (command, flags, expected) in enumerate(runs):
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            out = tmp_path / f"{command}-{index}"
            assert proctensor.cli.main([command, *flags, "--out", str(out)]) == 0, command
        finally:
            tracer.uninstall()
        stats = tracer.layers(0)
        for name in expected:
            assert stats.get(name, {"calls": 0})["calls"] == 1, (command, flags, name)


def test_traced_refit_objective_equals_the_fit_diagnostic():
    # the bench's fit hook iterates the records and reads each record's
    # basis_indices, p_joint and rho_measured; its objective is the refit's
    from proctensor import RestrictedProcessTensor, ShotConfig, cnot_cz_process, generate_records

    records = generate_records(cnot_cz_process(), ShotConfig(100, 0))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        fit = RestrictedProcessTensor(psd=True).fit(records)
    finally:
        tracer.uninstall()
    objective = fit.refit_info_.objective
    assert abs(tracer.counters["tomography.refit.objective"] - objective) <= 1e-10 * objective
