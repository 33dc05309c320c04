"""Tests for tools/code_lines.py, the code-line count of the package."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


@pytest.mark.parametrize(
    "source, count",
    [
        # a header joined to its docstring counts as its two-line form does
        ('class E(Exception): """Doc."""\n', 1),
        ('class E(Exception):\n    """Doc."""\n', 1),
        ('def f(): """Doc."""\n', 1),
        ('def f():\n    """Doc."""\n', 1),
        ('async def f(): """Doc."""\n', 1),
        ('def f(): """Doc with é."""; return 1\n', 1),
        ('def f():\n    """Doc."""; return 1\n', 2),
        # a docstring of several lines, of a module, a class and a method
        ('"""Module.\n\nMore.\n"""\n\nx = 1\n', 1),
        ('class A:\n    """Doc.\n\n    More.\n    """\n\n    def f(self):\n        """Doc."""\n        return 1\n', 3),
        # a string statement that is not a docstring is code, as is an assigned string
        ('def f():\n    x = 1\n    """Not a docstring."""\n    return x\n', 4),
        ('x = 1\n"""Not a docstring."""\n', 2),
        ('x = """a\nb\n"""\n', 3),
        # comments and blank lines are not code
        ("# comment\n\nx = 1  # trailing comment\n\n", 1),
        # continuation lines are code, a comment line inside a bracket is not
        ("x = (1 +\n     2)\n", 2),
        ("x = 1 + \\\n    2\n", 2),
        ("f(\n    1,\n    # why\n    2,\n)\n", 4),
    ],
)
def test_counts_lines_that_hold_a_token_of_code(source, count):
    assert code_lines(source) == count, source
