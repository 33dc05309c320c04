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


def _hand_rolled_memo(node):
    """Which memo name the node spells, "_memoized" or "_memo", if any.

    A definition, call or reference of ``_memoized``, and an attribute read
    of ``_memo``, also through ``getattr`` with the name as a constant.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        name = node.name
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr" and len(node.args) > 1:
        name = node.args[1].value if isinstance(node.args[1], ast.Constant) else None
    else:
        return None
    return name if name in ("_memoized", "_memo") else None


def _memo_violations(filename, source):
    # Q's values are cached_property attributes; values per tolerance go through
    # idempotents.per_tolerance, the one reader of Q's _memo dict
    found = []
    for node in ast.walk(ast.parse(source)):
        spelled = _hand_rolled_memo(node)
        if spelled == "_memoized" or (spelled == "_memo" and filename != "idempotents.py"):
            found.append(f"{filename}:{node.lineno} {spelled}")
    return found


def test_one_memo_mechanism():
    sources = sorted(PACKAGE.glob("*.py"))
    assert any(path.name == "idempotents.py" for path in sources)
    found = [
        v for path in sources for v in _memo_violations(path.name, path.read_text(encoding="utf-8"))
    ]
    assert not found, found


def test_the_memo_invariant_sees_each_spelling():
    spellings = {
        "def _memoized(self, key, compute):\n    pass": "_memoized",
        "q._memoized('svd', build)": "_memoized",
        "_memoized(q, 'svd')": "_memoized",
        "q._memo[key]": "_memo",
        "key in q._memo": "_memo",
        "getattr(q, '_memo')": "_memo",
    }
    allowed = ["q.memo", "vars(q)['svd']", "per_tolerance(build)", "q._memory", "getattr(q, name)"]
    for source, name in spellings.items():
        assert {_hand_rolled_memo(n) for n in ast.walk(ast.parse(source))} - {None} == {name}, source
        assert _memo_violations("matched.py", source), source
        # idempotents.py may read _memo, and nothing may use _memoized
        assert bool(_memo_violations("idempotents.py", source)) == (name == "_memoized"), source
    for source in allowed:
        assert not _memo_violations("matched.py", source), source
