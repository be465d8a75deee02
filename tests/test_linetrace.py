"""The statement table of the opt-in line-trace plugin."""

from linetrace import statements

SOURCE = '''"""Module docstring."""


def f(x):
    """Docstring."""
    global g
    try:
        y = (x +
             1)
    except ValueError:
        y = 0
    return y
'''


def test_statements_skip_docstrings_and_lines_without_bytecode(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert statements(path) == {4: {4}, 7: {7, 10}, 8: {8, 9}, 11: {11}, 12: {12}}
