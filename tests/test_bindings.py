"""The benchmark's bindings into xpmsim resolve.

perfbench/worker.py imports xpmsim names, and perfbench/tracer.py wraps the
(module, qualname) pairs of its LAYERS by name, so a rename in xpmsim breaks
the benchmark only once it runs. These tests read both files, without
changing or running them, and resolve every name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(module: str, qualname: str) -> bool:
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_worker_imports_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    names, modules = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xpmsim":
            names.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.extend(a.name for a in node.names if a.name.split(".")[0] == "xpmsim")
    assert names and modules
    for module in modules:
        importlib.import_module(module)
    missing = [f"{module}.{name}" for module, name in names if not resolve(module, name)]
    assert not missing, f"perfbench/worker.py imports names xpmsim lacks: {missing}"


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, qualname) for entries in tracer.LAYERS.values()
               for module, qualname, _ in entries]
    assert targets
    missing = [f"{module}:{qualname}" for module, qualname in targets
               if not resolve(module, qualname)]
    assert not missing, f"perfbench/tracer.py wraps layers xpmsim lacks: {missing}"
