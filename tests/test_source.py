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


def test_one_spelling_of_the_default_tolerance():
    # the default is DEFAULT_TOL itself: no None sentinel, no normalising `or`
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                names = {ast.unparse(side) for side in (node.left, node.right)}
                if names == {"Tolerances", "None"}:
                    found.append(f"{path.name}:{node.lineno} Tolerances | None")
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                if any(ast.unparse(v) == "DEFAULT_TOL" for v in node.values):
                    found.append(f"{path.name}:{node.lineno} or DEFAULT_TOL")
    assert not found, found
