"""Structural checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "matchedproj"


def test_no_global_or_nonlocal():
    # results depend on the inputs alone: no function rebinds module or enclosing state
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert not found, found
