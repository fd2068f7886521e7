"""The public surface: what the package exports, and what the benchmark looks up by name."""

import ast
import importlib
import importlib.util
import inspect
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
