"""Opt-in pytest plugin: which statements of ``src/newstein`` never ran.

Run it with the suite as

    PYTHONPATH=src:tests python -m pytest -p linetrace

At the end of the session it prints, per module of ``src/newstein``, the
first line of each statement that never executed; docstrings are not
statements here.  It traces with ``sys.settrace`` and ``threading.settrace``
only, so it needs nothing outside the standard library.  Two caveats:

* code that tests reach only through a subprocess (the CLI run as a
  program) is not traced, so those paths show up as unexecuted;
* tracing is slow: the whole Tier-1 suite took 164 s traced against 37 s
  untraced on 2 shared cores (Python 3.11).

Without ``-p linetrace`` the plugin is not loaded and nothing is traced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "newstein"
_prefix = str(ROOT) + os.sep
_keys: dict[str, str | None] = {}  # co_filename -> its real path if inside ROOT, else None
_hits: dict[str, set[int]] = {}    # real path -> line numbers that ran


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _keys:
        real = os.path.realpath(name)
        _keys[name] = real if real.startswith(_prefix) else None
    if (key := _keys[name]) is None:
        return None
    lines = _hits.setdefault(key, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring expressions of the module, classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first))
    return out


def _span(node: ast.AST) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement's first line -> the lines it owns that hold bytecode.

    A statement owns its lines (decorators included, and the ``except``
    lines of a ``try``) less those of the statements nested in it; one with
    no bytecode of its own, such as ``global``, is left out.
    """
    source = path.read_text()
    tree = ast.parse(source)
    executable = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        executable.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    skip = _docstrings(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skip:
            continue
        owned = _span(node).union(*map(_span, getattr(node, "decorator_list", ())))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                owned -= _span(inner)
        if owned & executable:
            out[node.lineno] = owned & executable
    return out


def unexecuted() -> dict[str, tuple[int, list[int]]]:
    """Per module: (statement count, first lines of those that never ran)."""
    out = {}
    for path in sorted(ROOT.glob("*.py")):
        hit = _hits.get(str(path), set())
        stmts = statements(path)
        out[path.name] = (len(stmts), sorted(first for first, lines in stmts.items()
                                             if not lines & hit))
    return out


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statements of src/newstein never executed")
    for name, (total, missed) in unexecuted().items():
        lines = ", ".join(map(str, missed)) or "-"
        terminalreporter.write_line(f"{name}: {len(missed)} of {total}: {lines}")
