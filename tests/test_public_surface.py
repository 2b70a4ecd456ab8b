"""The names the benchmark and README reach in relkin must exist, and take
their arguments.

The benchmark under bench/ imports from relkin, calls what it imports and
traces functions by dotted name; README's library quick start imports and
calls it too.  Both are read here with ast, never imported, run or edited,
so a name or keyword removed from relkin by mistake fails this suite instead
of a benchmark run or the README walk-through.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from functools import reduce
from pathlib import Path

import pytest

import relkin

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def readme_quick_start():
    """The source of README's ```python blocks: its library quick start."""
    text = (ROOT / "README.md").read_text()
    return "".join(re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S))


def relkin_imports(source):
    """Names of every `from relkin import ...` statement in Python source."""
    tree = ast.parse(source)
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "relkin"
            for alias in node.names]


def relkin_calls(source):
    """(dotted relkin name, ast.Call) of every call in Python source whose
    callee is a name imported from relkin, or an attribute chain on one
    (``NoiseModel.from_pair_sigma``, ``cli.main``)."""
    imported = set(relkin_imports(source))
    for node in ast.walk(ast.parse(source)):
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


def unbound_calls(source, label):
    """`label:line name: reason` of every relkin call in `source` whose
    positional count and keywords do not bind to the callee's signature;
    with a *args or **kwargs argument only the named keywords are checked."""
    calls = list(relkin_calls(source))
    assert calls, f"{label} calls nothing from relkin"
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
            unbound.append(f"{label}:{call.lineno} {name}: {exc}")
    return unbound


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
    names = relkin_imports((BENCH / script).read_text())
    assert names, f"bench/{script} imports nothing from relkin"
    # `from relkin import cli` names a submodule rather than an attribute
    missing = [name for name in names if not hasattr(relkin, name)
               and importlib.util.find_spec(f"relkin.{name}") is None]
    assert missing == []


@pytest.mark.parametrize("script", ["netgen.py", "workloads.py"])
def test_bench_calls_bind(script):
    assert unbound_calls((BENCH / script).read_text(), f"bench/{script}") == []


def test_readme_quick_start_calls_bind():
    # line numbers count from the first line of the quick start's code
    source = readme_quick_start()
    names = relkin_imports(source)
    assert names and all(hasattr(relkin, name) for name in names)
    assert unbound_calls(source, "README.md quick start") == []


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
