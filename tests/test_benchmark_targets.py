"""The benchmark's traced names still exist.

``perfbench/spans.py`` resolves every name in its ``TARGETS`` when a
benchmark run starts; a refactor that deletes or renames one fails here
instead of crashing the benchmark.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
