"""Structural checks on the package source."""

import ast
import builtins
import sys
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


# residuals decided against a gate and reported as a norm_bracket
BRACKETED_CHECKS = {
    "range_mq_eq_range_absqstar_plus_qstar",
    "range_mq_eq_range_absq_plus_q",
    "kernel_mq_eq_kernel_absqstar_plus_q",
    "range_mq_inside_range_q_plus_qstar",
    "range_q_plus_qstar_eq_range_absqstar_plus_absq",
    "range_mq_eq_range_four_term_sum",
    "mq_times_qstar",
    "mq_times_q",
    "similarity_conjugates_matched",
    "similarity_defect_square",
    "defect_operator_identity",
    "xy_sum_identity",
    "matched_equals_tt_factor",
    "matched_equals_vv_factor",
    "matched_reflection_identity",
    "closed_form_is_matched",
    "projection-closer-to-matched",
    # the five quasi-projection-pair conditions of matched.qpp_checks
    "block_range",
    "block_cross",
    "block_null",
    "adjoint_reflection",
    "abs_reflection",
}


def _exact_norm_for_a_bracket(source):
    """Where the source takes an exact norm for a bracketed residual.

    A bracketed check built by ``Check(...)`` instead of ``norm_check`` or
    ``bracket_check``, an ``operator_norm`` call among the arguments of any
    call naming a bracketed check, and one inside ``qpp_checks``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "qpp_checks":
            inner = [n for n in ast.walk(node) if _calls(n, "operator_norm")]
            found += [f"{n.lineno} operator_norm in qpp_checks" for n in inner]
        if not isinstance(node, ast.Call):
            continue
        names = [a.value for a in [*node.args, *(k.value for k in node.keywords)]
                 if isinstance(a, ast.Constant) and a.value in BRACKETED_CHECKS]
        if not names:
            continue
        if _calls(node, "Check"):
            found.append(f"{node.lineno} Check({names[0]!r}, ...)")
        args = [*node.args, *(k.value for k in node.keywords)]
        if any(_calls(n, "operator_norm") for a in args for n in ast.walk(a)):
            found.append(f"{node.lineno} operator_norm for {names[0]!r}")
    return found


def _calls(node, name):
    return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name


def test_bracketed_residuals_take_no_exact_norm_by_hand():
    # each is decided by norm_bracket, which takes the exact norm only where
    # its O(n^2) bounds straddle the gate
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    spelled = {
        a.value for text in sources.values() for a in ast.walk(ast.parse(text))
        if isinstance(a, ast.Constant) and a.value in BRACKETED_CHECKS
    }
    assert spelled == BRACKETED_CHECKS, BRACKETED_CHECKS - spelled
    assert "def qpp_checks(" in sources["matched.py"]
    found = [f"{name}:{v}" for name, text in sources.items() for v in _exact_norm_for_a_bracket(text)]
    assert not found, found


def test_the_bracket_invariant_sees_each_spelling():
    spellings = [
        'Check("mq_times_q", operator_norm(m), gate)',
        'Check(name="mq_times_q", residual=operator_norm(m), tolerance=gate)',
        'Check("xy_sum_identity", gap, gate)',
        'report.Check("mq_times_q", gap, gate)',
        'bracket_check("matched_equals_tt_factor", (linalg.operator_norm(m),) * 2, gate)',
        'norm_check("closed_form_is_matched", np.eye(2) * operator_norm(m), gate)',
        "def qpp_checks(p, q, tol):\n    return {n: operator_norm(m) for n, m in ms}",
        "def qpp_checks(p, q, tol):\n"
        "    for n, m in ms:\n        yield Check(n, operator_norm(m), gate)",
        'replace(checks[3], name="matched_reflection_identity", residual=operator_norm(m))',
    ]
    allowed = [
        'norm_check("mq_times_q", m @ q - h, gate)',
        'replace(checks[3], name="matched_reflection_identity")',
        "def qpp_checks(p, q, tol):\n    for n, m in ms:\n        yield norm_check(n, m, gate)",
        'Check("closed_form_agreement", abs(operator_norm(m) - d), scale)',
        'Check("x_norm_is_distance_squared", abs(operator_norm(x) - d * d), scale)',
        "def is_quasi_projection_pair(p, q, tol):\n"
        "    return all(c.passed for c in qpp_checks(p, q, tol))",
        "gap = operator_norm(m)",
    ]
    for source in spellings + allowed:
        assert bool(_exact_norm_for_a_bracket(source)) == (source in spellings), source


def _qpp_matrices_outside_qpp_checks(source):
    """Where the source names or imports ``_qpp_matrices`` outside ``qpp_checks``, its definition aside."""
    tree = ast.parse(source)
    inside = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "qpp_checks" for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named = [alias.name for alias in node.names]
        else:
            named = [getattr(node, "id", None) or getattr(node, "attr", None)]
        if "_qpp_matrices" in named and id(node) not in inside:
            found.append(f"{node.lineno} _qpp_matrices")
    return found


def test_only_qpp_checks_builds_the_qpp_residuals():
    # the five conditions have one path: reports list qpp_checks, and
    # is_quasi_projection_pair stops at the first failing one
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "def _qpp_matrices(" in sources["matched.py"]
    found = [
        f"{name}:{v}" for name, text in sources.items() for v in _qpp_matrices_outside_qpp_checks(text)
    ]
    assert not found, found


def test_the_qpp_path_invariant_sees_each_spelling():
    spellings = [
        "dict(_qpp_matrices(p, q))",
        "residuals = matched._qpp_matrices(p, q)",
        "def is_quasi_projection_pair(p, q, tol):\n"
        "    return all(norm_at_most(m, gate) for _, m in _qpp_matrices(p, q))",
        "from .matched import _qpp_matrices",
        "build = _qpp_matrices",
    ]
    allowed = [
        "def qpp_checks(p, q, tol):\n"
        "    for name, m in _qpp_matrices(p, q):\n        yield norm_check(name, m, gate)",
        "def _qpp_matrices(p, q):\n    yield 'block_range', m",
        "list(qpp_checks(p, q, tol))",
        "all(c.passed for c in qpp_checks(p, q, tol))",
    ]
    for source in spellings + allowed:
        assert bool(_qpp_matrices_outside_qpp_checks(source)) == (source in spellings), source


# a partner theorem takes its partner: norms lists the conclusions, and the
# caller that holds a candidate decides whether it is one
PAIR_VERDICTS = ("is_quasi_projection_pair", "qpp_checks")


def _pair_verdicts(source):
    """Where the source imports, names or looks up ``is_quasi_projection_pair`` or ``qpp_checks``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant):
            named = [node.value]
        else:
            named = [getattr(node, "id", None) or getattr(node, "attr", None)]
        found += [f"{node.lineno} {name}" for name in named if name in PAIR_VERDICTS]
    return found


def test_norms_takes_no_pair_verdict():
    source = (PACKAGE / "norms.py").read_text(encoding="utf-8")
    assert "def qpp_minimality(" in source
    found = _pair_verdicts(source)
    assert not found, found


def test_the_pair_verdict_invariant_sees_each_spelling():
    spellings = [
        "holds = is_quasi_projection_pair(p, q)",
        "holds = matched.is_quasi_projection_pair(p, q)",
        "checks = list(qpp_checks(p, q))",
        "from .matched import is_quasi_projection_pair as is_pair",
        "from .matched import (\n    matched_distance,\n    qpp_checks,\n)",
        "def qpp_minimality(p, q):\n    def holds():\n        return all(c.passed for c in qpp_checks(p, q))\n"
        "    return holds()",
        "holds = getattr(matched, 'is_quasi_projection_pair')(p, q)",
        "decide = is_quasi_projection_pair",
    ]
    allowed = [
        "def qpp_minimality(p, q):\n"
        "    \"\"\"P must be a partner, which the caller decides with ``is_quasi_projection_pair``.\"\"\"\n"
        "    return checks",
        "checks = qpp_minimality(p, q)",
        "from .matched import matched_distance, matched_projection",
        "dominant = psd_order(left_m, left_p, tol)",
    ]
    for source in spellings + allowed:
        assert bool(_pair_verdicts(source)) == (source in spellings), source


def _battery_record_violations(source):
    """Where the source records a tally outside ``_record_checks`` or compares an exact norm.

    A ``.record(...)`` call outside the one recorder, and an
    ``operator_norm(...)`` call anywhere in an operand of a comparison.
    """
    tree = ast.parse(source)
    recorder = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "_record_checks" for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "record" and id(node) not in recorder:
                found.append(f"{node.lineno} .record outside _record_checks")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_calls(n, "operator_norm") for side in operands for n in ast.walk(side)):
                found.append(f"{node.lineno} operator_norm compared with a gate")
    return found


def test_battery_records_checks_through_one_recorder():
    # every battery record is a report.Check, tallied by _record_checks; a
    # residual against a gate is a norm_check, decided by norm_bracket
    source = (PACKAGE / "battery.py").read_text(encoding="utf-8")
    assert "def _record_checks(" in source
    found = _battery_record_violations(source)
    assert not found, found


def test_the_recorder_invariant_sees_each_spelling():
    spellings = [
        'report.tally("adjoint-involution").record(ok, context)',
        "def _core_kernels(report, context):\n    report.tally(name).record(check, context)",
        "def _record(report, context, c):\n    report.tally(c.name).record(c, context)",
        "operator_norm(m) <= gate",
        "operator_norm(m) == 0.0",
        "linalg.operator_norm(p1 @ p2) < 0.999",
        "gate >= operator_norm(m)",
        "max(operator_norm(a), operator_norm(b)) <= gate",
        "abs(operator_norm(m) - norm) <= gate",
        "ok = a <= b and operator_norm(m) <= gate",
    ]
    allowed = [
        "def _record_checks(report, context, records):\n"
        "    for c, note in records:\n        report.tally(c.name).record(c, context, note)",
        "_record_checks(report, context, _core_kernels(rng, dim, tol))",
        'yield norm_check("sqrt-composition", m, gate)',
        'Check("adjoint-isometry", abs(operator_norm(m) - norm), gate)',
        "norm_at_most(p1 @ p2, 0.999)",
        "wit.contraction_norm < 1.0",
        "ratio = operator_norm(a) / operator_norm(b)",
        "log.recorded(check)",
    ]
    for source in spellings + allowed:
        assert bool(_battery_record_violations(source)) == (source in spellings), source


# the recorder and the driver are the only battery functions that see the report or the trial
RECORDER_AND_DRIVER = ("_record_checks", "run_battery")


def _suites_that_see_the_report(source):
    """Module-level functions, the recorder and ``run_battery`` aside, taking ``report`` or ``context``."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
        if node.name not in RECORDER_AND_DRIVER:
            found += [f"{node.lineno} {node.name}({n})" for n in sorted(params & {"report", "context"})]
    return found


def test_battery_suites_yield_records_and_never_see_the_report():
    # each suite is a stream of records; _record_checks alone tallies them under the trial
    source = (PACKAGE / "battery.py").read_text(encoding="utf-8")
    assert "def _record_checks(" in source and "def run_battery(" in source
    found = _suites_that_see_the_report(source)
    assert not found, found


def test_the_suite_invariant_sees_each_spelling():
    spellings = [
        "def _core_kernels(report, rng, dim, tol, context):\n    pass",
        "def _static_checks(report, tol):\n    pass",
        "def _homotopy(rng, dim, q, tol, *, context=None):\n    pass",
        "def _suite(report, /, rng):\n    pass",
        "def _suite(*context):\n    pass",
        "def _suite(**report):\n    pass",
        "async def _suite(rng, context):\n    pass",
    ]
    allowed = [
        "def _record_checks(report, context, records):\n    pass",
        "def run_battery(dim_max, trials, seed, tol):\n    report = BatteryReport()",
        "class CheckTally:\n    def record(self, check, context, note=''):\n        pass",
        "def _norm_suite(rng, dim, q, q2, tol):\n    yield boolean_check('ok', True)",
        "def _static_checks(tol):\n    yield 'a=1', [check]",
        "def _suite(reports, contexts):\n    pass",
    ]
    for source in spellings + allowed:
        assert bool(_suites_that_see_the_report(source)) == (source in spellings), source


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
    # Q's values are cached_property attributes; values at Q's tolerance go
    # through idempotents.memoized_on_q, the one reader of Q's _memo dict
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
    allowed = ["q.memo", "vars(q)['svd']", "memoized_on_q(build)", "q._memory", "getattr(q, name)"]
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
    allowed = ["import json", "from pathlib import Path", "_matrix_pieces(m, indent)", 'json.dumps("matrix")']
    for source in spellings + allowed:
        spelled = {_regex_or_placeholder(n) for n in ast.walk(ast.parse(source))} - {None}
        assert bool(spelled) == (source in spellings), source


# try statements: ast.TryStar (except*) exists from Python 3.11
TRY_NODES = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def _exit_code_policy_violations(source):
    """Where a function other than ``main`` returns from a handler, keeps an error, or reads E_USAGE.

    Outside ``main`` every ``except`` handler ends in ``raise``, with no
    ``return`` inside it, and ``E_USAGE`` is read only in ``main``.
    """
    tree = ast.parse(source)
    in_main = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name == "main"
        for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in in_main:
            continue
        if isinstance(node, ast.Name) and node.id == "E_USAGE" and isinstance(node.ctx, ast.Load):
            found.append(f"{node.lineno} E_USAGE read outside main")
        if not isinstance(node, TRY_NODES):
            continue
        for handler in node.handlers:
            if any(isinstance(n, ast.Return) for n in ast.walk(handler)):
                found.append(f"{handler.lineno} return in a handler outside main")
            elif not isinstance(handler.body[-1], ast.Raise):
                found.append(f"{handler.lineno} handler outside main does not re-raise")
    return found


def test_only_main_turns_errors_into_exit_codes():
    # each command returns E_OK or E_MATH from its checks and raises on
    # anything else; cli.main alone maps an exception to an exit code
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "def main(" in source and "def _analysis(" in source
    found = _exit_code_policy_violations(source)
    assert not found, found


def test_the_exit_code_invariant_sees_each_spelling():
    spellings = [
        "def cmd_path(args):\n    try:\n        q = load(args)\n"
        "    except MatchedProjectionError as exc:\n        print(exc)\n        return E_USAGE",
        "def cmd_path(args):\n    try:\n        samples = path(q)\n"
        "    except MatchedProjectionError:\n        return E_MATH",
        "def cmd_generate(args):\n    try:\n        q = make(args)\n    except ValueError:\n        pass",
        "def cmd_generate(args):\n    if args.offdiag_norm > 1e3:\n        return E_USAGE",
        "def _load(path):\n    try:\n        return load(path)\n    except OSError as exc:\n"
        "        if exc.errno:\n            raise\n        return None",
        "def cmd_analyze(args):\n    try:\n        q = load(args)\n    except MatchedProjectionError:\n        q = None",
        "def _analysis(path, tol):\n    try:\n        tt, vv = matched_via_factor(q, tol)\n"
        "    except MatchedProjectionError:\n        return None",
        "def _analysis(path, tol):\n    try:\n        tt, vv = matched_via_factor(q, tol)\n"
        "    except MatchedProjectionError as exc:\n        print(exc)\n        gaps = None",
        "def cmd_analyze(args):\n    try:\n        tt, vv = matched_via_factor(q, tol)\n"
        "    except MatchedProjectionError as exc:\n        print(exc)\n        gaps = None",
        "def cmd_min2x2(args):\n    try:\n        tt, vv = matched_via_factor(q, tol)\n"
        "    except MatchedProjectionError:\n        gaps = None",
        "def cmd_verify(args):\n    def run():\n        try:\n            go()\n"
        "        except ValueError:\n            return 2\n    return run()",
        "CODES = {'usage': E_USAGE}",
    ]
    if sys.version_info >= (3, 11):  # except* is a syntax error before 3.11
        spellings.append(
            "def cmd_verify(args):\n    try:\n        go()\n    except* ValueError:\n        return 2"
        )
    allowed = [
        "def main(argv=None):\n    try:\n        return args.func(args)\n"
        "    except MatchedProjectionError as exc:\n        print(exc)\n        return E_MATH\n"
        "    except (ValueError, OSError) as exc:\n        print(exc)\n        return E_USAGE",
        "def _load_idempotent(path, tol):\n    try:\n        return as_idempotent(load_matrix(path), tol)\n"
        "    except MatchedProjectionError as exc:\n        raise ValueError(str(exc)) from exc",
        "def cmd_min2x2(args):\n    if not abs(part) <= A_PART_MAX:\n        raise ValueError('--a-re must be finite')\n"
        "    return E_OK if ok else E_MATH",
        "def cmd_path(args):\n    try:\n        go()\n    except KeyError:\n        raise",
        "E_OK, E_MATH, E_USAGE = 0, 1, 2",
    ]
    for source in spellings + allowed:
        assert bool(_exit_code_policy_violations(source)) == (source in spellings), source


def _battery_catch_violations(source):
    """Where the source has a ``try`` outside ``run_battery``."""
    tree = ast.parse(source)
    in_driver = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name == "run_battery"
        for n in ast.walk(f)
    }
    return [
        f"{node.lineno} try outside run_battery"
        for node in ast.walk(tree)
        if isinstance(node, TRY_NODES) and id(node) not in in_driver
    ]


def test_the_battery_catches_only_in_run_battery():
    # a report decides its own hypothesis and returns its checks, so no suite
    # guards a report or turns its raise back into a record; run_battery
    # alone records a raise, as a failed trial or a failed static check
    source = (PACKAGE / "battery.py").read_text(encoding="utf-8")
    assert "def run_battery(" in source
    found = _battery_catch_violations(source)
    assert not found, found


def test_the_battery_catch_invariant_sees_each_spelling():
    spellings = [
        "def _norm_suite(rng, dim, q, q2, tol):\n    try:\n        kkm_distance(p_a, p_b)\n"
        "    except MatchedProjectionError as exc:\n        yield boolean_check('projection-distance-equality', False)",
        "def _static_checks(tol):\n    try:\n        q = canonical_idempotent(1e-3, tol)\n    except ValueError:\n        raise",
        "def _spectrum(x):\n    try:\n        return hermitian_eigvals(x)\n    finally:\n        pass",
        "def _qpp_suite(rng, dim, q, tol):\n    def verdict():\n        try:\n            go()\n"
        "        except ValidationError:\n            return False",
        "try:\n    import scipy\nexcept ImportError:\n    scipy = None",
    ]
    if sys.version_info >= (3, 11):  # except* is a syntax error before 3.11
        spellings.append("def _homotopy(rng, dim, q, tol):\n    try:\n        go()\n    except* ValueError:\n        pass")
    allowed = [
        "def run_battery(dim_max, trials, seed, tol):\n    try:\n        go()\n"
        "    except MatchedProjectionError as exc:\n        record(exc)",
        "def run_battery(dim_max, trials, seed, tol):\n    for trial in range(trials):\n        try:\n            go()\n"
        "        except MatchedProjectionError:\n            record(trial)",
        "def _norm_suite(rng, dim, q, q2, tol):\n    yield replace(kkm_distance(p_a, p_b), name='projection-distance-equality')",
        "def _norm_suite(rng, dim, q, q2, tol):\n    yield from _prefixed('two-projections', two_projection_construction(p1, p2))",
        "with open(path) as f:\n    pass",
    ]
    for source in spellings + allowed:
        assert bool(_battery_catch_violations(source)) == (source in spellings), source


# the package's two error classes and each one's base; a bad argument raises
# the built-in ValueError, a failed gate ValidationError
ERROR_CLASSES = {"MatchedProjectionError": "Exception", "ValidationError": "MatchedProjectionError"}
BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
}


def _error_class_violations(filename, source):
    """Where the source defines an error class beyond ``ERROR_CLASSES``, or errors.py misses one.

    errors.py defines exactly the classes of ``ERROR_CLASSES``, each on its
    base.  Any other module defines no class whose base is, by its last
    dotted name, a built-in exception, one of ``ERROR_CLASSES`` or a class
    of that source already derived from one.
    """
    classes = sorted(
        (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)),
        key=lambda node: node.lineno,
    )
    bases = {node.name: [ast.unparse(base).split(".")[-1] for base in node.bases] for node in classes}
    if filename == "errors.py":
        want = {name: [base] for name, base in ERROR_CLASSES.items()}
        return [f"{name} is {bases.get(name)}, not {want.get(name)}" for name in sorted(set(bases) | set(want))
                if bases.get(name) != want.get(name)]
    found, errors = [], BUILTIN_EXCEPTIONS | set(ERROR_CLASSES)
    for node in classes:
        if errors.intersection(bases[node.name]):
            found.append(f"{node.lineno} {node.name} is an error class")
            errors.add(node.name)
    return found


def test_errors_py_alone_defines_the_two_error_classes():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "errors.py" in sources and "linalg.py" in sources
    found = [f"{name}:{v}" for name, text in sources.items() for v in _error_class_violations(name, text)]
    assert not found, found


def test_the_error_class_invariant_sees_each_spelling():
    base = "class MatchedProjectionError(Exception):\n    pass\n\n\n"
    both = base + "class ValidationError(MatchedProjectionError):\n    pass\n"
    spellings = [
        ("errors.py", both + "class NotHermitianError(MatchedProjectionError):\n    pass"),
        ("errors.py", both + "class BadRankError(ValueError):\n    pass"),
        ("errors.py", both + "class Marker:\n    pass"),
        ("errors.py", base),
        ("errors.py", base + "class ValidationError(ValueError):\n    pass"),
        ("idempotents.py", "class SingularPencilError(MatchedProjectionError):\n    pass"),
        ("matrixio.py", "class MatrixFileError(ValueError):\n    pass"),
        ("norms.py", "class InapplicableHypothesisError(errors.ValidationError):\n    pass"),
        ("two_by_two.py", "class ZeroParameterError(Exception):\n    pass"),
        ("cli.py", "class UsageError(Exception):\n    pass\n\n\nclass BadFlag(UsageError):\n    pass"),
        ("matched.py", "def f():\n    class NotUnitaryError(ArithmeticError):\n        pass"),
        ("battery.py", "class Stop(BaseException):\n    pass"),
    ]
    allowed = [
        ("errors.py", both),
        ("errors.py", '"""Exception types."""\n\n\n' + both.replace("pass", '"""A docstring."""')),
        ("idempotents.py", "@dataclass(frozen=True)\nclass Idempotent:\n    matrix: np.ndarray"),
        ("battery.py", "class Trial(NamedTuple):\n    seed: int"),
        ("cli.py", "raise ValueError('parameter a must be nonzero')"),
        ("linalg.py", "from .errors import ValidationError\n\n\nclass Tolerances:\n    pass"),
    ]
    for filename, source in spellings + allowed:
        assert bool(_error_class_violations(filename, source)) == ((filename, source) in spellings), source


# the members of linalg.Tolerances that hold a gate; only its methods do arithmetic on them
GATE_MEMBERS = {"check", "psd", "subspace", "route", "absolute", "limit"}
# a call's gate argument: (position, keyword) by the name the call spells
GATE_ARGUMENTS = {
    "Check": (2, "tolerance"),
    "norm_check": (2, "tolerance"),
    "bracket_check": (2, "tolerance"),
    "norm_at_most": (1, "bound"),
    "norm_bracket": (1, "gate"),
    "certify": (1, "gate"),
}
# numeric literals that are not gates: (module, enclosing function, value) and why
NON_GATE_CONSTANTS = {
    ("battery.py", "_continuity_probe", 1e-6): "the continuity probe's step in A",
    ("battery.py", "_qpp_suite", 1e-6): "selects a Q far enough from Hermitian that P_R(Q) is no partner",
    ("norms.py", "matched_lipschitz_bounds", 1e-6): "the 1 - 1e-6 margin below which the scaled bound applies",
    ("norms.py", "qpp_minimality", 1e-6): "the 1 - 1e-6 margin of the small-distance hypothesis",
    ("norms.py", "two_projection_construction", 0.5): "||P|| > 1/2 tells a nonzero projection",
    ("norms.py", "two_projection_construction", 0.999): "the margin of the construction's hypothesis ||P1 P2|| < 1",
    ("report.py", "boolean_check", 0.5): "a yes/no verdict as the residual 0 or 1 against 1/2",
}


def _literal(node):
    """The value of a numeric literal, signed or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _literal(node.operand)
        return None if value is None else (-value if isinstance(node.op, ast.USub) else value)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _gate_member(node):
    return isinstance(node, ast.Attribute) and node.attr in GATE_MEMBERS


def _gate_violations(filename, source):
    """Where the source builds a gate outside ``Tolerances`` (in linalg.py) or holds a literal gate.

    Arithmetic (a binary, unary or augmented operation) with a gate member
    of ``Tolerances`` as an operand; a numeric literal as the gate argument
    of a check or a norm decision (in a lambda's body too); and a float
    literal of magnitude below 1e-3 anywhere.  A literal listed in
    ``NON_GATE_CONSTANTS`` for its module and function is not a gate.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances" and filename == "linalg.py":
            return
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        operands = []
        if isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        elif isinstance(node, ast.UnaryOp):
            operands = [node.operand]
        elif isinstance(node, ast.AugAssign):
            operands = [node.target, node.value]
        found.extend(f"{node.lineno} arithmetic on .{o.attr}" for o in operands if _gate_member(o))
        gates = []
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in GATE_ARGUMENTS:
            position, keyword = GATE_ARGUMENTS[ast.unparse(node.func).split(".")[-1]]
            gates = node.args[position:position + 1] + [k.value for k in node.keywords if k.arg == keyword]
            gates = [g.body if isinstance(g, ast.Lambda) else g for g in gates]
        literals = [(g, _literal(g)) for g in gates]
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-3:
            literals.append((node, node.value))
        for where, value in literals:
            if value is not None and (filename, scope, abs(value)) not in NON_GATE_CONSTANTS:
                found.append(f"{where.lineno} literal gate {value!r}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(set(found), key=lambda f: int(f.split()[0]))


def _literals_by_scope(source):
    """(enclosing function, |value|) of each numeric literal of the source, scoped as ``_gate_violations`` scopes."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        value = _literal(node)
        if value is not None:
            found.add((scope, abs(value)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _stale_exemptions(sources):
    """The ``NON_GATE_CONSTANTS`` entries whose literal is not in their module and function."""
    return [
        key for key in NON_GATE_CONSTANTS
        if key[0] not in sources or key[1:] not in _literals_by_scope(sources[key[0]])
    ]


def test_gates_live_on_tolerances():
    # every gate formula and fixed gate is a member of linalg.Tolerances, so
    # a derived bound replaces one method, not each call site; and no
    # exemption outlives the literal it was written for
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tolerances")
    assert {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)} == GATE_MEMBERS | {"rank"}
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = [f"{name}:{v}" for name, text in sources.items() for v in _gate_violations(name, text)]
    assert not found, found
    stale = _stale_exemptions(sources)
    assert not stale, stale


def test_the_gate_invariant_sees_each_spelling():
    spellings = [
        "gate = tol.check * (1.0 + q.norm)",
        "scale_sq = tol.check * (1.0 + norm_q**2)",
        "gate = ROUTE_GATE_FACTOR * tol.check * (1.0 + mod)",
        "if prod_norm >= 1.0 - tol.check:\n    pass",
        "ok = w.min() >= -tol.psd * (1.0 + scale)",
        "gate = 2 * DEFAULT_TOL.check",
        "gate = tol.subspace / 2",
        "gate += tol.check",
        "def _homotopy(rng, dim, q, tol):\n    yield norm_check('witness-reconstructs', recon, 1e-9)",
        "Check('fractional-power-limit', dists[-1], 1e-2)",
        "Check(name='beta_tail_near_target', residual=r, tolerance=1e-2)",
        "report.norm_check('x', m, 5)",
        "norm_at_most(m, -0.25)",
        "linalg.norm_bracket(m, gate=0.5)",
        "certify(r, lambda: 1e-9, 'unitarity defect')",
        "SUBSPACE_TOL = 1e-8",
        "gates = [d + 1e-9 for d in d_candidates]",
        "def _qpp_suite(rng, dim, q, tol):\n    if norm_at_most(m, 1e-5):\n        pass",
        "def halmos_projection(z, t, theta, tol):\n    if abs(abs(z) - 1.0) > 1e-10:\n        raise ValueError",
        "class Tolerances:\n    check: float = 1e-10\n\n\nbound = Tolerances.check * 2",
        "def _norm_suite(rng, dim, q, q2, tol):\n    if norm_at_most(p1.matrix @ p2.matrix, 0.999):\n        pass",
    ]
    allowed = [
        "gate = tol.relative(q.norm)",
        "scale_sq = tol.quadratic(norm_q)",
        "gate = tol.route_gate(abs(a))",
        "if prod_norm >= tol.above(1.0):\n    pass",
        "ok = w.min() >= -tol.psd_slack(scale)",
        "norm_check('range_mq_inside_range_q_plus_qstar', r, tol.subspace)",
        "Check('fractional-power-limit', dists[-1], tol.limit)",
        "Check('argmin_x_at_one', abs(best_x - 1.0), tol.above(dx))",
        "gates = [tol.above_absolute(d) for d in d_candidates]",
        "Check('grid_min_near_optimum', abs(gap), (2.0 + 3.0 * mod) * dt + mod * dx)",
        "certify(r, lambda: tol.check, 'unitarity defect')",
        "if abs(d - direct) > tol.check:\n    pass",
        "report = {'check': tol.check, 'psd': tol.psd}",
        "r = q.rank - 1",
        "if contraction >= 1.0:\n    pass",
        "def _continuity_probe(rng, dim, tol):\n    delta *= 1e-6 / operator_norm(delta)",
    ]
    for source in spellings + allowed:
        assert bool(_gate_violations("battery.py", source)) == (source in spellings), source
    # the class body of Tolerances in linalg.py, and a listed constant in its own module and function
    tolerances = "class Tolerances:\n    psd: ClassVar[float] = 1e-10\n\n    def relative(self, s):\n" \
                 "        return self.check * (1.0 + s)"
    verdict = "def boolean_check(name, ok):\n    return Check(name, 0.0 if ok else 1.0, 0.5)"
    hypothesis = "def two_projection_construction(p1, p2):\n    if not norm_at_most(a @ b, 0.999):\n        return []"
    for filename, source in (("linalg.py", tolerances), ("report.py", verdict), ("norms.py", hypothesis)):
        assert not _gate_violations(filename, source), source
        assert _gate_violations("battery.py", source), source
    # an exemption is live only where its literal is: the same value in
    # another function, or another value in its own, leaves it stale
    key = ("report.py", "boolean_check", 0.5)
    assert key not in _stale_exemptions({"report.py": verdict})
    for source in (
        "def boolean_check(name, ok):\n    return Check(name, 0.0 if ok else 1.0, HALF)",
        "def describe(check):\n    return check.residual > 0.5",
        "def boolean_check(name, ok):\n    return Check(name, 0.0 if ok else 1.0, 0.25)",
    ):
        assert key in _stale_exemptions({"report.py": source}), source


# where a failed certificate's message is spelled: (module, function)
MESSAGE_BUILDERS = {("linalg.py", "certify"), ("idempotents.py", "_projection_error")}


def _message_violations(filename, source):
    """Where the source spells a certificate message outside ``MESSAGE_BUILDERS``, or calls ``certify`` badly.

    A message is an f-string holding "exceeds".  A ``certify`` call passes a
    string literal third as its label, by position or by keyword, and no
    error: no ``error`` keyword, and past its gate no lambda and no name of
    an exception class.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.JoinedStr) and (filename, scope) not in MESSAGE_BUILDERS and any(
            isinstance(part, ast.Constant) and "exceeds" in part.value for part in node.values
        ):
            found.append(f"{node.lineno} message spelled in {scope or 'the module'}")
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "certify":
            labels = node.args[2:3] + [k.value for k in node.keywords if k.arg == "label"]
            rest = node.args[2:] + [k.value for k in node.keywords if k.arg != "gate"]
            if any(k.arg == "error" for k in node.keywords) or any(
                isinstance(a, ast.Lambda) or ast.unparse(a).split(".")[-1].endswith(("Error", "Exception"))
                for a in rest
            ):
                found.append(f"{node.lineno} certify is passed an error")
            if not (len(labels) == 1 and isinstance(labels[0], ast.Constant) and isinstance(labels[0].value, str)):
                found.append(f"{node.lineno} certify takes no literal label")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_certificate_messages_have_one_spelling():
    # "<label> <norm> exceeds <gate>" is built by certify alone, and by the
    # projection certificate, which is no certify caller; each caller names
    # its quantity by a literal label
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "def certify(" in sources["linalg.py"] and "def _projection_error(" in sources["idempotents.py"]
    found = [f"{name}:{v}" for name, text in sources.items() for v in _message_violations(name, text)]
    assert not found, found


def test_the_message_invariant_sees_each_spelling():
    kernel = "def certify(residual, gate, label, *operands):\n" \
             "    raise ValidationError(f'{label} {norm:.3e} exceeds {bound:.3e}')"
    projection = "def _projection_error(p, gate):\n" \
                 "    return ValidationError(f'projection defect {defect:.3e} exceeds {gate:.3e}')"
    spellings = [
        ("matched.py", "def unitary_equivariance(q, u):\n    certify(r, gate, lambda gap, bound, _: "
                       "ValidationError(f'unitarity defect {gap:.3e} exceeds {bound:.3e}'))"),
        ("linalg.py", "certify(r, gate, error=lambda message: ValidationError(message), label='asymmetry')"),
        ("linalg.py", "certify(m - adjoint(m), tol.relative, ValidationError, 'asymmetry', m)"),
        ("linalg.py", "certify(m - adjoint(m), tol.relative, 'asymmetry', m, error=ValidationError)"),
        ("matched.py", "certify(f, gate, ValidationError, 'closed-form inverse defect', scale=s)"),
        ("matched.py", "linalg.certify(r, gate, error=ValidationError, label='unitarity defect')"),
        ("matched.py", "certify(r, gate, 'unitarity defect', errors.ValidationError)"),
        ("matched.py", "certify(r, gate, 'unitarity defect', lambda message: ValueError(message))"),
        ("matched.py", "def fractional_power_limit(q):\n    certify(gap, gate, LABEL)"),
        ("matched.py", "certify(gap, gate, f'{name} residual')"),
        ("matched.py", "certify(gap, gate)"),
        ("matched.py", "def _certified_witness(q):\n    raise ValidationError(f'contraction {c:.6f} exceeds 1')"),
        ("matched.py", kernel),
        ("linalg.py", "def require_hermitian(m, tol):\n    raise ValidationError(f'{gap:.3e} exceeds {b:.3e}')"),
        ("matched.py", projection),
    ]
    allowed = [
        ("linalg.py", kernel),
        ("idempotents.py", projection),
        ("linalg.py", "certify(m - adjoint(m), tol.relative, 'asymmetry', m)"),
        ("matched.py", "certify(f, gate, 'closed-form inverse defect', scale=s)"),
        ("matched.py", "linalg.certify(r, gate, label='unitarity defect')"),
        ("matched.py", "certify(r, gate=lambda: tol.check, label='unitarity defect')"),
        ("matched.py", "certify(r, lambda a, b: tol.relative(a * b), 'similarity residual', w_inv, w)"),
        ("matched.py", "raise ValidationError(f'witness contraction norm {c:.6f} not < 1')"),
        ("matched.py", "def f(q):\n    \"\"\"The gate that the residual exceeds.\"\"\""),
    ]
    for filename, source in spellings + allowed:
        assert bool(_message_violations(filename, source)) == ((filename, source) in spellings), source


def _norm_bounds_named(source):
    """Where the source names ``norm_bounds``, by a name or an attribute (an import aside)."""
    return [
        f"{node.lineno} norm_bounds" for node in ast.walk(ast.parse(source))
        if (getattr(node, "id", None) or getattr(node, "attr", None)) == "norm_bounds"
    ]


def test_only_linalg_reads_norm_bounds():
    # certificates go through linalg.certify and decisions through
    # norm_bracket, so the bound-first rule is written in linalg alone
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "def norm_bounds(" in sources["linalg.py"] and "def certify(" in sources["linalg.py"]
    found = [
        f"{name}:{v}" for name, text in sources.items() if name != "linalg.py"
        for v in _norm_bounds_named(text)
    ]
    assert not found, found


def test_the_norm_bounds_invariant_sees_each_spelling():
    spellings = [
        "if norm_bounds(diffs)[1] > gate:\n    pass",
        "lower, upper = linalg.norm_bounds(m)",
        "bounds = norm_bounds",
        "fast = tol.relative(norm_bounds(w_inv)[0] * norm_bounds(w_mat)[0])",
        "upper = max(norm_bounds(s)[1] for s in stack)",
    ]
    allowed = [
        "from .linalg import norm_bounds",
        "__all__ = ['norm_bounds']",
        "norm_bracket(m, gate)",
        "certify(r, tol.relative, 'asymmetry', m)",
        "lower, upper = norm_bracket(stack, gates)",
    ]
    for source in spellings + allowed:
        assert bool(_norm_bounds_named(source)) == (source in spellings), source


# the second spellings of the bracket rule, folded into norm_bracket, which
# decides every stack slice by slice
FOLDED = {"norm_brackets", "_settles"}


def _second_bracket_rules(source):
    """Where the source defines or imports a folded name, or ``norm_bracket`` takes a max over slices."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in FOLDED:
            found.append(f"{node.lineno} def {node.name}")
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in FOLDED:
            found.append(f"{node.lineno} {node.id} =")
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno} import {a.name}" for a in node.names if a.name in FOLDED]
        if isinstance(node, ast.FunctionDef) and node.name == "norm_bracket":
            found += [
                f"{call.lineno} {ast.unparse(call.func)}" for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] in ("max", "amax")
            ]
    return found


def test_one_bracket_rule():
    # norm_bracket decides every stack slice by slice; report.norm_check folds it
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "def norm_bracket(" in sources["linalg.py"]
    found = [f"{name}:{v}" for name, text in sources.items() for v in _second_bracket_rules(text)]
    assert not found, found


def test_the_bracket_rule_invariant_sees_each_spelling():
    spellings = [
        "def norm_brackets(stack, gates):\n    pass",
        "def _settles(lower, upper, gate):\n    pass",
        "from .linalg import norm_bracket, norm_brackets",
        "from matchedproj.linalg import _settles",
        "norm_brackets = norm_bracket",
        "def norm_bracket(m, gate):\n    lower, upper = norm_bounds(m)\n"
        "    if m.ndim == 3:\n        lower, upper = float(lower.max()), float(upper.max())",
        "def norm_bracket(m, gate):\n    exact = float(np.max(operator_norm(m)))",
    ]
    allowed = [
        "from .linalg import norm_bracket, norm_at_most",
        "lower, upper = norm_bracket(stack, gates)",
        "def norm_check(name, m, tolerance):\n    lower, upper = norm_bracket(m, tolerance)\n"
        "    if m.ndim == 3:\n        lower, upper = float(lower.max()), float(upper.max())",
        "def norm_bracket(m, gate):\n    if not settled.all():\n        lower[~settled] = operator_norm(m[~settled])",
        "settled = upper <= gate",
    ]
    for source in spellings + allowed:
        assert bool(_second_bracket_rules(source)) == (source in spellings), source


def _projections_outside_the_draw(source):
    """Where the source names ``random_projection`` outside ``_draw_projections`` (an import aside)."""
    tree = ast.parse(source)
    inside = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "_draw_projections" for n in ast.walk(f)
    }
    return [
        f"{node.lineno} {name}" for node in ast.walk(tree)
        if (name := getattr(node, "id", None) or getattr(node, "attr", None))
        == "random_projection" and id(node) not in inside
    ]


def test_battery_draws_projections_through_one_helper():
    # every batch of random projections is one stack: drawn, in the order a
    # loop of single draws takes, and certified once
    source = (PACKAGE / "battery.py").read_text(encoding="utf-8")
    assert "def _draw_projections(" in source
    found = _projections_outside_the_draw(source)
    assert not found, found


def test_the_draw_invariant_sees_each_spelling():
    spellings = [
        "p = random_projection(dim, rank, seed, tol)",
        "ps = idempotents.random_projection(dim, ranks, seeds, tol)",
        "def _norm_suite(rng, dim, q, q2, tol):\n    p1 = random_projection(dim, *_projection_draw(rng, dim), tol)",
        "def _random_projection(rng, dim, max_rank, tol):\n"
        "    return random_projection(dim, int(rng.integers(0, max_rank + 1)), int(rng.integers(2**32)), tol)",
        "draw = random_projection",
    ]
    allowed = [
        "from .idempotents import random_projection",
        "def _draw_projections(rng, dim, max_rank, count, tol):\n"
        "    return random_projection(dim, ranks, seeds, tol)",
        "p1, p2 = _draw_projections(rng, dim, max(dim // 2, 1), 2, tol)",
        "q = random_idempotent(dim, rank, nu, seed, tol)",
        "u = random_unitary(dim, rng)",
    ]
    for source in spellings + allowed:
        assert bool(_projections_outside_the_draw(source)) == (source in spellings), source


# each of these was folded into its single name; qpp_minimality's batch
# input is gone too, since no caller has a batch of partner candidates
FOLDED_PLURALS = ("as_idempotents", "as_projections", "random_projections", "qpp_minimalities")


def _folded_plurals(source):
    """Where the source defines, imports, binds or reads one of ``FOLDED_PLURALS``."""
    return [
        f"{node.lineno} {name}" for node in ast.walk(ast.parse(source))
        for name in {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}
        if name in FOLDED_PLURALS
    ]


def test_one_function_per_operation():
    # one input or a batch goes to one name: as_idempotent, as_projection
    # and random_projection each take a stack or a sequence, and
    # qpp_minimality takes one candidate
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}: {hit}" for path in sources for hit in _folded_plurals(path.read_text(encoding="utf-8"))]
    assert not found, found


def test_the_folded_plurals_invariant_sees_each_spelling():
    spellings = [
        "def as_idempotents(stack, tol):\n    pass",
        "from .idempotents import as_projection, as_projections",
        "from .norms import qpp_minimality as qpp_minimalities",
        "ps = idempotents.random_projections(dim, ranks, seeds, tol)",
        "as_projections = as_projection",
        "reports = qpp_minimalities(candidates, q, tol)",
    ]
    allowed = [
        "from .idempotents import as_idempotent, as_projection, random_projection",
        "ps = idempotents.random_projection(dim, ranks, seeds, tol)",
        "report = qpp_minimality(p, q)",
        "def _draw_projections(rng, dim, max_rank, count, tol):\n    pass",
    ]
    for source in spellings + allowed:
        assert bool(_folded_plurals(source)) == (source in spellings), source


# m(Q) and its witness come from Q's pencil S = Q + Q* - I alone; the SVD
# serves the values of Q itself
PENCIL_READERS = ("_matched_pair", "homotopy_witness")


def _constant(node):
    return node.value if isinstance(node, ast.Constant) else None


def _svd_reads(source):
    """Where a function of ``PENCIL_READERS`` reads ``.svd`` or ``.rank``, also through ``getattr``."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not (isinstance(function, ast.FunctionDef) and function.name in PENCIL_READERS):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif _calls(node, "getattr") and len(node.args) > 1:
                name = _constant(node.args[1])
            else:
                continue
            if name in ("svd", "rank"):
                found.append(f"{node.lineno} {function.name} reads {name}")
    return found


def test_matched_projection_and_witness_read_the_pencil_alone():
    source = (PACKAGE / "matched.py").read_text(encoding="utf-8")
    assert all(f"def {name}(" in source for name in PENCIL_READERS)
    found = _svd_reads(source)
    assert not found, found


def test_the_pencil_reader_invariant_sees_each_spelling():
    spellings = [
        "def _matched_pair(q, tol):\n    u, s, vh = q.svd",
        "def homotopy_witness(q, tol):\n    r = q.rank",
        "def homotopy_witness(q, tol):\n    r = _nontrivial_rank(q.rank, q.dim)",
        "def _matched_pair(q, tol):\n    return getattr(q, 'svd')[0]",
        "def homotopy_witness(q, tol):\n    def side():\n        return q.svd\n    return side()",
    ]
    allowed = [
        "def _matched_pair(q, tol):\n    w, v = q.pencil",
        "def matched_projection_svd(q):\n    u, s, vh = q.svd",
        "def homotopy_witness_block(q, tol):\n    r = _nontrivial_rank(form.rank, n)",
        "def homotopy_witness(q, tol):\n    r = int(np.count_nonzero(q.pencil[0] > 0.0))",
    ]
    for source in spellings + allowed:
        assert bool(_svd_reads(source)) == (source in spellings), source


def _svd_writes(source):
    """Where the source writes a cached SVD: ``vars(x)["svd"]`` or ``x.__dict__["svd"]`` assigned or updated, or ``setattr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                f"{node.lineno} {ast.unparse(sub)}" for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Subscript) and _constant(sub.slice) == "svd"
                and (_calls(sub.value, "vars") or ast.unparse(sub.value).endswith("__dict__"))
            ]
        elif (_calls(node, "setattr") or _calls(node, "__setattr__")) and len(node.args) > 1:
            if _constant(node.args[1]) == "svd":
                found.append(f"{node.lineno} {ast.unparse(node)}")
        elif _calls(node, "update") and any(k.arg == "svd" for k in node.keywords):
            found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_writes_a_cached_svd():
    # the self-test corrupts the pencil that m(Q) is read from; an SVD
    # written by hand would corrupt only the values of Q itself
    found = [
        f"{path.name}:{hit}" for path in sorted(PACKAGE.glob("*.py"))
        for hit in _svd_writes(path.read_text(encoding="utf-8"))
    ]
    assert not found, found


def test_the_svd_write_invariant_sees_each_spelling():
    spellings = [
        'vars(copy)["svd"] = (u, s, -vh)',
        "vars(q)['svd'], other = svd, 0",
        'copy.__dict__["svd"] = (u, s, -vh)',
        'setattr(copy, "svd", (u, s, -vh))',
        'object.__setattr__(copy, "svd", (u, s, -vh))',
        "vars(copy).update(svd=(u, s, -vh))",
    ]
    allowed = [
        'vars(copy)["pencil"] = (w, 2.0 * v)',
        'u, s, vh = vars(q)["svd"]',
        "u, s, vh = q.svd",
        'setattr(copy, "pencil", (w, v))',
    ]
    for source in spellings + allowed:
        assert bool(_svd_writes(source)) == (source in spellings), source


def _functions_named(source, *names):
    """The function definitions of the source with one of the names, nested ones included."""
    return [f for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef) and f.name in names]


def _own_eigensolves(source, name):
    """Where function ``name`` calls an eigensolver: a name that begins ``eig`` or ``hermitian_eig``."""
    return [
        f"{node.lineno} {ast.unparse(node.func)}"
        for function in _functions_named(source, name)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1].startswith(("eig", "hermitian_eig"))
    ]


def test_koliha_reads_the_pencil_it_shares():
    # its singularity test reads the eigenvalues of Q's memoized pencil, the
    # one eigh of S that m(Q) is built from
    source = (PACKAGE / "idempotents.py").read_text(encoding="utf-8")
    assert "def koliha_projections(" in source
    found = _own_eigensolves(source, "koliha_projections")
    assert not found, found


def test_the_koliha_eigensolve_invariant_sees_each_spelling():
    spellings = [
        "def koliha_projections(q, tol):\n    w = np.linalg.eigvalsh(s)",
        "def koliha_projections(q, tol):\n    w = hermitian_eigvals(s, tol)",
        "def koliha_projections(q, tol):\n    w = np.linalg.eigh(s)[0]",
        "def koliha_projections(q, tol):\n    def spectrum():\n        return eigvalsh(s)\n    w = spectrum()",
    ]
    allowed = [
        "def koliha_projections(q, tol):\n    w = q.pencil[0]",
        "def koliha_projections(q, tol):\n    x = np.linalg.solve(s, b)",
        "def block_form(t, p, tol):\n    lam, v = hermitian_eigen(p.matrix, tol)",
    ]
    for source in spellings + allowed:
        assert bool(_own_eigensolves(source, "koliha_projections")) == (source in spellings), source


STACKERS = ("hstack", "vstack", "column_stack", "concatenate", "block")


def _stacked_bases(source):
    """Where ``range_identities`` stacks arrays: ``np.hstack`` or another stacking call, however spelled."""
    return [
        f"{node.lineno} {ast.unparse(node.func)}"
        for function in _functions_named(source, "range_identities")
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in STACKERS
    ]


def test_range_identities_stack_no_bases():
    # each trivial intersection is the rank of an overlap of bases that Q's
    # SVD and pencil hold, not of an n x n stack of them
    source = (PACKAGE / "matched.py").read_text(encoding="utf-8")
    assert "def range_identities(" in source
    found = _stacked_bases(source)
    assert not found, found


def test_the_stacked_basis_invariant_sees_each_spelling():
    spellings = [
        "def range_identities(q, tol):\n    s = np.linalg.svd(np.hstack([a, b]), compute_uv=False)",
        "def range_identities(q, tol):\n    ab = numpy.concatenate([a, b], axis=1)",
        "def range_identities(q, tol):\n    ab = column_stack((a, b))",
        "def range_identities(q, tol):\n    def both():\n        return np.vstack([a.T, b.T])\n    ab = both()",
    ]
    allowed = [
        "def range_identities(q, tol):\n    s = np.linalg.svd(vh[:r] @ v_plus, compute_uv=False)",
        "def homotopy_witness_block(q, tol):\n    y = np.hstack([a, b])",
    ]
    for source in spellings + allowed:
        assert bool(_stacked_bases(source)) == (source in spellings), source


def _spells_adjoint(node):
    """Whether the node spells M*: ``adjoint(...)``, or a conjugate and a transpose by hand."""
    text = ast.unparse(node)
    by_hand = "conj" in text and any(t in text for t in (".T", ".mT", "transpose", "swapaxes"))
    return _calls(node, "adjoint") or by_hand


def _adjoint_gap_verdicts(source):
    """Where ``distance_report`` or ``range_identities`` calls ``norm_at_most`` on M - M* or M* - M.

    The argument is followed through names the function binds to it, so
    ``gap = adjoint(m) - m`` then ``norm_at_most(gap, ...)`` is seen too.
    """
    found = []
    for function in _functions_named(source, "distance_report", "range_identities"):
        bound = {
            t.id: n.value for n in ast.walk(function) if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Name)
        }
        for node in ast.walk(function):
            if not _calls(node, "norm_at_most"):
                continue
            for arg in (*node.args, *(k.value for k in node.keywords)):
                seen = set()
                while isinstance(arg, ast.Name) and arg.id in bound and arg.id not in seen:
                    seen.add(arg.id)
                    arg = bound[arg.id]
                if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
                       and (_spells_adjoint(n.left) or _spells_adjoint(n.right)) for n in ast.walk(arg)):
                    found.append(f"{node.lineno} {function.name}: {ast.unparse(node)}")
    return found


def test_projection_verdicts_are_is_projections():
    # "Q is a projection" has one home, idempotents.is_projection; the
    # reported norm of Q* - Q in distance_report is a value, not a verdict
    source = "\n".join((PACKAGE / name).read_text(encoding="utf-8") for name in ("matched.py", "norms.py"))
    assert "def distance_report(" in source and "def range_identities(" in source
    found = _adjoint_gap_verdicts(source)
    assert not found, found


def test_the_projection_verdict_invariant_sees_each_spelling():
    spellings = [
        "def distance_report(q, tol):\n    p = norm_at_most(qm - adjoint(qm), tol.check)",
        "def range_identities(q, tol):\n    h = norm_at_most(adjoint(qm) - qm, tol.check)",
        "def range_identities(q, tol):\n    h = linalg.norm_at_most(q.matrix - q.matrix.conj().T, tol.check)",
        "def distance_report(q, tol):\n    gap = adjoint(qm) - qm\n    g = gap\n    p = norm_at_most(g, tol.check)",
        "def distance_report(q, tol):\n    def verdict():\n        return norm_at_most(qm - adjoint(qm), c)\n"
        "    p = verdict()",
    ]
    allowed = [
        "def distance_report(q, tol):\n    gap = adjoint(qm) - qm\n    n = operator_norm(gap)\n"
        "    p = is_projection(qm, tol)",
        "def range_identities(q, tol):\n    ranges_equal = norm_at_most(m - proj_sum, subspace)",
        "def is_projection(m, tol):\n    return norm_at_most(m - adjoint(m), tol.check)",
    ]
    for source in spellings + allowed:
        assert bool(_adjoint_gap_verdicts(source)) == (source in spellings), source


def _public_matched_reads(source):
    """Where a function calls ``matched_projection``, by any spelling that ends in that name."""
    return [
        f"{node.lineno} {function.name}"
        for function in ast.walk(ast.parse(source)) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if _calls(node, "matched_projection")
    ]


def test_matched_reads_m_through_its_private_name():
    # the module's own reads of m(Q) go through _matched_pair, so a traced
    # matched_projection counts only the requests of its callers
    source = (PACKAGE / "matched.py").read_text(encoding="utf-8")
    assert "def _matched_pair(" in source
    found = _public_matched_reads(source)
    assert not found, found


def test_the_private_read_invariant_sees_each_spelling():
    spellings = [
        "def range_identities(q, tol):\n    m = matched_projection(q, tol).projection.matrix",
        "def random_qpp_pair(dim, seed):\n    m = matched.matched_projection(sub, tol)",
        "def unitary_equivariance(q, u):\n    def inner():\n        return matched_projection(q)\n    m = inner()",
    ]
    allowed = [
        "def range_identities(q, tol):\n    m = _matched_pair(q, tol).projection.matrix",
        "def matched_projection(q, tol):\n    return _matched_pair(q, tol)",
        "def battery_route(q):\n    return matched_projection_svd(q)",
    ]
    for source in spellings + allowed:
        assert bool(_public_matched_reads(source)) == (source in spellings), source


# a matrix or a stack is told apart by its rank in the kernels, never by a
# flag of the certifiers, and as_projection raises on is_projection's verdict
CERTIFIERS = ("as_idempotent", "as_projection")
PROJECTION_DECIDERS = ("certify", "norm_at_most", "norm_bracket", "norm_bounds", "operator_norm")


def _certifier_forks(source):
    """Where a certifier binds ``single``, or ``as_projection`` decides other than by ``is_projection``."""
    found = []
    for function in _functions_named(source, *CERTIFIERS):
        for node in ast.walk(function):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "single"
                    or isinstance(node, ast.arg) and node.arg == "single"):
                found.append(f"{node.lineno} {function.name} binds single")
            elif function.name == "as_projection" and any(_calls(node, name) for name in PROJECTION_DECIDERS):
                found.append(f"{node.lineno} as_projection calls {ast.unparse(node.func)}")
        if function.name == "as_projection" and not any(_calls(n, "is_projection") for n in ast.walk(function)):
            found.append(f"{function.lineno} as_projection takes no is_projection verdict")
    return found


def test_certifiers_fork_on_no_flag_and_projections_on_one_predicate():
    source = (PACKAGE / "idempotents.py").read_text(encoding="utf-8")
    assert all(f"def {name}(" in source for name in CERTIFIERS)
    found = _certifier_forks(source)
    assert not found, found


def test_the_certifier_invariant_sees_each_spelling():
    verdict = "    if not is_projection(ps, tol):\n        raise _projection_error(ps, tol.check)\n"
    spellings = [
        "def as_projection(m, tol):\n    stack, single = _as_stack(m)\n" + verdict,
        "def as_idempotent(m, tol):\n    single = m.ndim == 2",
        "def as_idempotent(m, tol, *, single=False):\n    pass",
        "def as_idempotent(m, tol):\n    if (single := m.ndim == 2):\n        pass",
        "def as_projection(m, tol):\n" + verdict + "    certify(p - adjoint(p), gate, 'asymmetry')",
        "def as_projection(m, tol):\n    if not linalg.norm_at_most(m - adjoint(m), tol.check):\n        raise E",
        "def as_projection(m, tol):\n" + verdict + "    def check(p):\n        certify(p @ p - p, gate, 'idempotency defect')\n"
        "    check(ps)",
        "def as_projection(m, tol):\n" + verdict + "    if operator_norm(ps - adjoint(ps)) > tol.check:\n"
        "        raise E",
    ]
    allowed = [
        "def as_projection(m, tol):\n    ps = _as_matrix_or_stack(m)\n" + verdict,
        "def as_idempotent(m, tol):\n"
        "    certify(qs @ qs - qs, tol.quadratic, 'idempotency defect', qs)",
        "def random_projection(dim, rank, seed, tol):\n    single = isinstance(rank, int)",
        "def is_projection(m, tol):\n    return norm_at_most(m - adjoint(m), tol.check)",
    ]
    for source in spellings + allowed:
        assert bool(_certifier_forks(source)) == (source in spellings), source


# the grid scan judges the blocks it skips by the formula it scans the others
# with: grid_minimize takes the objective from distance_objective alone, and
# its one root, sqrt(optimum), is of a value distance_objective returned
ROOTS = ("sqrt", "hypot", "power", "float_power")


def _second_objective(source):
    """Where ``grid_minimize`` takes a root of anything but a ``distance_objective`` value."""
    found = []
    for function in _functions_named(source, "grid_minimize"):
        values = {
            target.id
            for node in ast.walk(function) if isinstance(node, ast.Assign) and _calls(node.value, "distance_objective")
            for target in node.targets if isinstance(target, ast.Name)
        }

        def of_values(*args):
            return all(isinstance(arg, ast.Name) and arg.id in values for arg in args)

        for node in ast.walk(function):
            if any(_calls(node, name) for name in ROOTS) and not of_values(*node.args):
                found.append(f"{node.lineno} {ast.unparse(node.func)}")
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not of_values(node.left)
                  and not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int))):
                found.append(f"{node.lineno} ** {ast.unparse(node.right)}")
        if not values:
            found.append(f"{function.lineno} grid_minimize binds no distance_objective value")
    return found


def test_grid_scan_evaluates_one_objective():
    source = (PACKAGE / "two_by_two.py").read_text(encoding="utf-8")
    assert "def grid_minimize(" in source and "def distance_objective(" in source
    found = _second_objective(source)
    assert not found, found


def test_the_objective_invariant_sees_each_spelling():
    head = "def grid_minimize(a, points, tol):\n    vals = distance_objective(a, xs, ts)\n"
    spellings = [
        head + "    g = mu + np.sqrt(mu**2 + 4.0 * s2**2)",
        head + "    g = mu + math.sqrt(mu * mu + 4.0 * s4)",
        head + "    g = mu + sqrt(mu**2 + 4.0 * s2**2)",
        head + "    g = mu + np.hypot(mu, 2.0 * s2)",
        head + "    g = mu + (mu**2 + 4.0 * s2**2) ** 0.5",
        head + "    g = mu + (mu**2 + 4.0 * s2**2) ** (1 / 2)",
        head + "    g = mu + np.power(mu**2 + 4.0 * s2**2, 0.5)",
        head + "    def floor(t):\n        return np.sqrt(t)\n",
        head + "    r = mu**2 + 4.0 * s2**2\n    g = mu + np.sqrt(r)",
        head + "    g = mu + np.hypot(mu, s4)",
        "def grid_minimize(a, points, tol):\n    vals = objective(a, xs, ts)",
    ]
    allowed = [
        head + "    slack = EPS * (10.0 * (1.0 + mod) ** 2 + 3.0 * at_one)",
        head + "    max_g = np.max(np.cos(2.0 * ts) + mod * np.abs(np.sin(2.0 * ts)))",
        head + "    optimum = distance_objective(a, 1.0, t0)\n    far = norm_q > np.sqrt(optimum)",
        "def closed_form_p0(a, tol):\n    b = np.sqrt(1.0 + mod**2)",
        "def distance_objective(a, x, t):\n    return 0.5 * (2.0 * s2 + mod * (mu + np.sqrt(mu**2 + 4.0 * s2**2)))",
    ]
    for source in spellings + allowed:
        assert bool(_second_objective(source)) == (source in spellings), source


# an idempotent or a projection is analysed at the tolerance it was certified
# under, q.tol or p.tol: no function that takes one takes a tolerance of its own
CERTIFIED = {"Idempotent", "Projection"}


def _names_certified(annotation):
    """Whether an annotation names ``Idempotent`` or ``Projection``: bare, qualified, quoted, or inside a union or generic."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in CERTIFIED or isinstance(node, ast.Attribute) and node.attr in CERTIFIED:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            if _names_certified(quoted):
                return True
    return False


def _certified_functions_taking_tol(source):
    """Where a function with an ``Idempotent``- or ``Projection``-annotated parameter has a parameter ``tol``, of any kind."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        if (any(p.annotation is not None and _names_certified(p.annotation) for p in params)
                and any(p.arg == "tol" for p in params)):
            found.append(f"{function.lineno} {function.name}")
    return found


def test_functions_of_an_idempotent_take_no_tolerance():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert all("q: Idempotent" in sources[name] for name in ("idempotents.py", "matched.py", "norms.py"))
    assert all("p: Projection" in sources[name] for name in ("idempotents.py", "matched.py", "norms.py"))
    found = [f"{name}:{v}" for name, text in sources.items() for v in _certified_functions_taking_tol(text)]
    assert not found, found


def test_the_idempotent_tolerance_invariant_sees_each_spelling():
    spellings = [
        "def f(q: Idempotent, tol):\n    pass",
        "def f(q: Idempotent, tol: Tolerances = DEFAULT_TOL):\n    pass",
        "def f(p: Projection, q: Idempotent, tol=DEFAULT_TOL):\n    pass",
        "def f(q1: Idempotent, q2: Idempotent, exponents, tol):\n    pass",
        "def f(q: Idempotent, *, tol):\n    pass",
        "def f(tol, /, q: Idempotent):\n    pass",
        "def f(q: Idempotent, *tol):\n    pass",
        "def f(q: idempotents.Idempotent, tol):\n    pass",
        "def f(q: 'Idempotent', tol):\n    pass",
        "def f(q: Idempotent | None, tol):\n    pass",
        "def f(qs: Sequence[Idempotent], tol):\n    pass",
        "async def f(q: Idempotent, tol):\n    pass",
        "class A:\n    def f(self, q: Idempotent, tol):\n        pass",
        "def outer():\n    def inner(q: Idempotent, tol):\n        pass",
        "def block_form(t_mat, p: Projection, tol):\n    pass",
        "def f(p: 'Projection', tol):\n    pass",
        "def f(p: Projection | None, tol):\n    pass",
        "def f(ps: Sequence[Projection], tol):\n    pass",
        "def f(p: Projection, q: Idempotent, tol):\n    pass",
    ]
    allowed = [
        "def as_idempotent(m, tol: Tolerances = DEFAULT_TOL):\n    pass",
        "def random_idempotent(dim, rank, offdiag_norm, seed, tol) -> Idempotent:\n    pass",
        "def as_projection(m, tol: Tolerances = DEFAULT_TOL) -> Projection:\n    pass",
        "def random_projection(dim, rank, seed, tol) -> Projection | list[Projection]:\n    pass",
        "def f(q: Idempotent):\n    tol = q.tol",
        "def f(q: Idempotent, samples: int):\n    pass",
        "def f(q: 'Idempotent | None', tolerance_free):\n    pass",
        "def run_battery(dim_max, trials, seed, tol):\n    q: Idempotent = random_idempotent(2, 1, 1.0, 0, tol)",
    ]
    for source in spellings + allowed:
        assert bool(_certified_functions_taking_tol(source)) == (source in spellings), source
