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


def _factored_inverse_or_block_assembly(node):
    """What the node spells, if it names np.linalg.inv or np.block, or imports either from numpy."""
    banned = ("np.linalg.inv", "np.block")
    if isinstance(node, ast.Attribute) and ast.unparse(node) in banned:
        return ast.unparse(node)
    if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
        names = [alias.name for alias in node.names if alias.name in ("inv", "block")]
        if names:
            return f"from {node.module} import {names[0]}"
    return None


def test_matched_factors_no_inverse_and_assembles_no_blocks():
    # both witnesses take W^(-1) in closed form, and the block oracle builds
    # m(Q) and W angle by angle from diagonal scalings, not from n x n blocks
    path = PACKAGE / "matched.py"
    found = [
        f"{path.name}:{node.lineno} {spelled}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (spelled := _factored_inverse_or_block_assembly(node))
    ]
    assert not found, found


def test_the_inverse_invariant_sees_each_spelling():
    spellings = [
        "np.linalg.inv(w)",
        "w_inv = np.linalg.inv",
        "np.block([[a, b], [c, d]])",
        "from numpy.linalg import inv",
        "from numpy import block",
    ]
    allowed = [
        "np.linalg.pinv(w)",
        "np.linalg.solve(a, b)",
        "np.hstack([a, b])",
        "block_form(q, p)",
        "form.blocks[1]",
        "w_inv = identity(n) + f @ adjoint(x)",
        "from numpy.linalg import svd",
    ]
    for source in spellings + allowed:
        spelled = {_factored_inverse_or_block_assembly(n) for n in ast.walk(ast.parse(source))} - {None}
        assert bool(spelled) == (source in spellings), source


def _regex_or_placeholder(node):
    """What the node spells, if it imports ``re``, names a placeholder or holds a NUL string."""
    if isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names):
        return "import re"
    if isinstance(node, ast.ImportFrom) and node.module == "re":
        return "from re import"
    name = getattr(node, "id", None) or getattr(node, "name", None)
    if isinstance(name, str) and ("PLACEHOLDER" in name.upper() or "PLACED" in name.upper()):
        return name
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\x00" in node.value:
        return "NUL string"
    return None


def test_matrixio_encodes_without_placeholders():
    # dumps writes each matrix in place in one walk: no placeholder string
    # spliced back into json's output with a regex
    path = PACKAGE / "matrixio.py"
    found = [
        f"{path.name}:{node.lineno} {spelled}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (spelled := _regex_or_placeholder(node))
    ]
    assert not found, found


def test_the_placeholder_invariant_sees_each_spelling():
    spellings = [
        "import re",
        "import json, re",
        "from re import compile",
        '_PLACEHOLDER = "m{}"',
        "def _placed(m):\n    pass",
        'text.replace("\\x00matrix0", "")',
    ]
    allowed = ["import json", "from pathlib import Path", "_render(m, indent)", 'json.dumps("matrix")']
    for source in spellings + allowed:
        spelled = {_regex_or_placeholder(n) for n in ast.walk(ast.parse(source))} - {None}
        assert bool(spelled) == (source in spellings), source
