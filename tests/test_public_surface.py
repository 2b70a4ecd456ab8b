"""The names the benchmark reaches in relkin must exist, and take its arguments.

The benchmark under bench/ imports from relkin, calls what it imports and
traces functions by dotted name.  It is read here with ast, never imported
or edited, so a name or keyword removed from relkin by mistake fails this
suite instead of a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
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


def relkin_calls(path):
    """(dotted relkin name, ast.Call) of every call in a source file whose
    callee is a name imported from relkin, or an attribute chain on one
    (``NoiseModel.from_pair_sigma``, ``cli.main``)."""
    imported = set(relkin_imports(path))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            attrs, func = [], node.func
            while isinstance(func, ast.Attribute):
                attrs.insert(0, func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id in imported:
                yield ".".join([func.id, *attrs]), node


def resolve(dotted):
    """The relkin object a dotted name reaches; a leading submodule is imported."""
    head, *attrs = dotted.split(".")
    root = getattr(relkin, head) if hasattr(relkin, head) \
        else importlib.import_module(f"relkin.{head}")
    return reduce(getattr, attrs, root)


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


@pytest.mark.parametrize("script", ["netgen.py", "workloads.py"])
def test_bench_calls_bind(script):
    # each call's positional count and keywords must bind to the callee's
    # signature; with a *args or **kwargs argument only the named keywords
    # are checked
    calls = list(relkin_calls(BENCH / script))
    assert calls, f"bench/{script} calls nothing from relkin"
    unbound = []
    for name, call in calls:
        sig = inspect.signature(resolve(name))
        keywords = dict.fromkeys(kw.arg for kw in call.keywords if kw.arg is not None)
        try:
            if any(isinstance(a, ast.Starred) for a in call.args) \
                    or len(keywords) < len(call.keywords):
                sig.bind_partial(**keywords)
            else:
                sig.bind(*[None] * len(call.args), **keywords)
        except TypeError as exc:
            unbound.append(f"bench/{script}:{call.lineno} {name}: {exc}")
    assert unbound == []


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
