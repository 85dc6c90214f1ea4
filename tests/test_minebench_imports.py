"""The benchmark's traced run (``minebench/traced.py``) imports ``repro``
internals by name and reads ``d_cand``'s ``max_runs`` default. The tests
never run the benchmark, so this parses the file, without running it, and
checks that what it takes from ``repro`` still exists."""
import ast
import importlib
import inspect
from pathlib import Path

from repro.core.dcand import d_cand

TRACED = Path(__file__).resolve().parents[1] / "minebench" / "traced.py"


def repro_imports():
    """``(module, name)`` for every ``from repro… import name`` in the file."""
    tree = ast.parse(TRACED.read_text(), filename=str(TRACED))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]


def test_traced_repro_imports_resolve():
    names = repro_imports()
    assert names
    for module, name in names:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):  # a submodule, e.g. ``from repro.desq import dfs``
            importlib.import_module(f"{module}.{name}")


def test_d_cand_keeps_max_runs():
    assert "max_runs" in inspect.signature(d_cand).parameters
