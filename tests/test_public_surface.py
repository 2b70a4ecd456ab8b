"""The names the benchmark reaches in relkin must exist.

The benchmark under bench/ imports from relkin and traces functions by
dotted name.  It is read here with ast, never imported or edited, so a name
removed from relkin by mistake fails this suite instead of a benchmark run.
"""

import ast
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

import relkin

BENCH = Path(__file__).resolve().parent.parent / "bench"


def relkin_imports(path):
    """Names of every `from relkin import ...` statement in a source file."""
    tree = ast.parse(path.read_text())
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "relkin"
            for alias in node.names]


def traced_names():
    """`module.attr[.attr]` of every entry of bench/tracer.py's TRACED mapping."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            traced = ast.literal_eval(node.value)
            return [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns]
    raise AssertionError("bench/tracer.py defines no TRACED mapping")


@pytest.mark.parametrize("script", ["netgen.py", "workloads.py"])
def test_bench_imports_resolve(script):
    names = relkin_imports(BENCH / script)
    assert names, f"bench/{script} imports nothing from relkin"
    # `from relkin import cli` names a submodule rather than an attribute
    missing = [name for name in names if not hasattr(relkin, name)
               and importlib.util.find_spec(f"relkin.{name}") is None]
    assert missing == []


def test_traced_functions_resolve():
    names = traced_names()
    assert names
    missing = []
    for name in names:
        mod, _, attrs = name.partition(".")
        try:
            reduce(getattr, attrs.split("."), importlib.import_module(f"relkin.{mod}"))
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
