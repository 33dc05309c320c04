"""Tests for tools/unreached.py, the statements of the package that a test run never reaches."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "unreached.py"
spec = importlib.util.spec_from_file_location("unreached_tool", TOOL)
unreached_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached_module)
statement_spans = unreached_module.statement_spans
unreached = unreached_module.unreached


@pytest.mark.parametrize(
    "source, spans",
    [
        # docstrings and def/class headers are not listed; their bodies are
        ('"""Module."""\nx = 1\n', [(2, 2)]),
        ('def f():\n    """Doc."""\n    return 1\n', [(3, 3)]),
        ('class A:\n    """Doc."""\n\n    y = 2\n\n    async def g(self):\n        return 3\n', [(4, 4), (7, 7)]),
        ('@wrap\ndef f():\n    pass\n', [(3, 3)]),
        # a string statement that is not a docstring is listed
        ('def f():\n    x = 1\n    """Not a docstring."""\n', [(2, 2), (3, 3)]),
        # a statement spans its lines, and a compound one spans its body
        ("x = (1 +\n     2)\n", [(1, 2)]),
        ("if x:\n    y = 1\nelse:\n    y = 2\n", [(1, 4), (2, 2), (4, 4)]),
        ("try:\n    f()\nexcept E:\n    raise\n", [(1, 4), (2, 2), (4, 4)]),
        # two statements on one line are two statements
        ("a = 1; b = 2\n", [(1, 1), (1, 1)]),
    ],
)
def test_lists_every_statement_but_docstrings_and_headers(source, spans):
    assert statement_spans(source) == spans, source


@pytest.mark.parametrize(
    "ran, missing",
    [
        (set(), [1, 2, 5]),
        # a run body reaches its compound statement, and a run header not its body
        ({2}, [5]),
        ({1}, [2, 5]),
        # a continuation line of a statement reaches it
        ({2, 6}, []),
    ],
)
def test_unreached_statements_are_those_with_no_line_run(ran, missing):
    source = 'if x:\n    y = 1\n\ndef f():\n    raise E(\n        "message")\n'
    assert unreached(source, ran) == missing
