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


def _exact_2_norm_outside_operator_norm(node):
    """What the node spells, if it takes an exact 2-norm by hand: norm(., 2) or svd(.)[0]."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.norm":
        order = node.args[1] if len(node.args) > 1 else None
        order = next((k.value for k in node.keywords if k.arg == "ord"), order)
        if isinstance(order, ast.Constant) and order.value == 2:
            return "np.linalg.norm(., 2)"
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call):
        index = ast.unparse(node.slice).strip("()")
        if ast.unparse(node.value.func) == "np.linalg.svd" and index in ("0", "..., 0"):
            return f"np.linalg.svd(.)[{index}]"
    return None


def test_exact_2_norms_go_through_operator_norm():
    # one kernel takes every exact 2-norm, so its cost and its counts have one home
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            spelled = _exact_2_norm_outside_operator_norm(node)
            if spelled:
                found.append(f"{path.name}:{node.lineno} {spelled}")
    assert not found, found


def test_the_invariant_sees_each_spelling():
    spellings = [
        "np.linalg.norm(m, 2)",
        "np.linalg.norm(m, ord=2, axis=(-2, -1))",
        "np.linalg.svd(m, compute_uv=False)[0]",
        "np.linalg.svd(m, compute_uv=False)[..., 0]",
    ]
    allowed = ["np.linalg.norm(m)", "np.linalg.norm(m, 'fro')", "q.svd[1][0]", "np.linalg.svd(m)[1]"]
    for source in spellings + allowed:
        node = ast.parse(source, mode="eval").body
        assert (_exact_2_norm_outside_operator_norm(node) is not None) == (source in spellings), source
