"""The benchmark's traced and called names still exist.

``perfbench/spans.py`` resolves every name in its ``TARGETS`` when a
benchmark run starts, and ``perfbench/workloads.py`` calls the package
through module attributes; a refactor that deletes, renames or moves one
fails here instead of crashing the benchmark, and so does a signature
change that leaves one of its calls unable to bind, or a change of route
that leaves a traced name uncalled by every workload.
"""

import ast
import importlib
import importlib.util
import inspect
import time
from functools import reduce
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = _load("perfbench_spans", SPANS)
    bindings = spans.snapshot()
    for module, attr in spans.TARGETS:
        name = attr.rpartition(".")[2]
        assert any(n == name for _, n, _ in bindings), f"newstein.{module}.{attr}"
    assert all(callable(original) for *_, original in bindings)
    assert len(bindings) >= len(spans.TARGETS)


def test_every_traced_target_is_called_by_a_workload():
    """A target that resolves but that no workload calls reports zero calls
    and zero time for ever, and the benchmark's self-test refuses it; one
    set-up and one pass of every workload, traced, must call each."""
    spans = _load("perfbench_spans", SPANS)
    workloads = _load("perfbench_workloads", WORKLOADS)
    tracer = spans.Tracer(time.perf_counter)
    tracer.install()
    try:
        for setup, tasks in workloads.WORKLOADS.values():
            inputs = setup(1)
            for task in tasks:
                task(inputs, workloads.REFERENCES, lambda *args: None)
    finally:
        tracer.uninstall()
    called = {name for calls in tracer.calls.values() for name in calls}
    assert [spans.span_name(*t) for t in spans.TARGETS
            if spans.span_name(*t) not in called] == []


def _package_attributes(tree: ast.Module):
    """(module, attribute chain, node) of every dotted name that starts at a
    ``from newstein import ...`` binding, e.g. ``gl.compose`` or
    ``cohomology.CoefficientModule.adjoint``."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "newstein"
               for alias in node.names}
    for node in ast.walk(tree):
        chain, value = [], node
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if chain and isinstance(value, ast.Name) and value.id in modules:
            yield modules[value.id], chain[::-1], node


def test_every_workload_attribute_resolves():
    found = list(_package_attributes(ast.parse(WORKLOADS.read_text())))
    assert {module for module, *_ in found} >= {"cohomology", "grouplaw", "oscillator"}
    for module, chain, node in found:
        obj = importlib.import_module(f"newstein.{module}")
        for attr in chain:
            assert hasattr(obj, attr), (
                f"workloads.py:{node.lineno}: newstein.{module}.{'.'.join(chain)}")
            obj = getattr(obj, attr)


def test_every_workload_call_binds():
    """Each call of a package name binds to its signature: as many positional
    arguments and the same keyword names (partially where ``**`` unpacks)."""
    tree = ast.parse(WORKLOADS.read_text())
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bound = 0
    for module, chain, func in _package_attributes(tree):
        if (call := calls.get(id(func))) is None:
            continue
        target = reduce(getattr, chain, importlib.import_module(f"newstein.{module}"))
        sig = inspect.signature(target)
        args = [None] * len(call.args)
        kwargs = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        bind = sig.bind_partial if len(kwargs) < len(call.keywords) else sig.bind
        try:
            bind(*args, **kwargs)
        except TypeError as err:
            raise AssertionError(f"workloads.py:{call.lineno}: newstein.{module}."
                                 f"{'.'.join(chain)}: {err}") from None
        bound += 1
    assert bound >= 100
