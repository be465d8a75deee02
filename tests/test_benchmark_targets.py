"""The benchmark's traced and called names still exist.

``perfbench/spans.py`` resolves every name in its ``TARGETS`` when a
benchmark run starts, and ``perfbench/workloads.py`` calls the package
through module attributes; a refactor that deletes, renames or moves one
fails here instead of crashing the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = _spans_module()
    bindings = spans.snapshot()
    for module, attr in spans.TARGETS:
        name = attr.rpartition(".")[2]
        assert any(n == name for _, n, _ in bindings), f"newstein.{module}.{attr}"
    assert all(callable(original) for *_, original in bindings)
    assert len(bindings) >= len(spans.TARGETS)


def _package_attributes(tree: ast.Module):
    """(module, attribute chain, line) of every dotted name that starts at a
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
            yield modules[value.id], chain[::-1], node.lineno


def test_every_workload_attribute_resolves():
    found = list(_package_attributes(ast.parse(WORKLOADS.read_text())))
    assert {module for module, *_ in found} >= {"cohomology", "grouplaw", "oscillator"}
    for module, chain, line in found:
        obj = importlib.import_module(f"newstein.{module}")
        for attr in chain:
            assert hasattr(obj, attr), f"workloads.py:{line}: newstein.{module}.{'.'.join(chain)}"
            obj = getattr(obj, attr)
