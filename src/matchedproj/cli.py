"""File-based front end: analyze, generate, path, min2x2, verify.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 input or
usage error.  Commands return 0 or 1 from their checks and raise otherwise;
``main`` alone maps errors to exit codes: a ``MatchedProjectionError`` to 1
(``check failed: ...``), a ``ValueError``, an ``OSError`` or a
``MemoryError`` (a request too large for the machine) to 2 (``error: ...``).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

from .battery import run_battery
from .errors import MatchedProjectionError
from .idempotents import (
    Idempotent,
    as_idempotent,
    null_projection,
    random_idempotent,
    range_projection,
)
from .linalg import DEFAULT_TOL, Tolerances, norm_bracket
from .matched import (
    homotopy_path,
    matched_projection,
    matched_via_factor,
    qpp_checks,
    range_identities,
)
from .matrixio import dump, dumps, load_matrix
from .norms import distance_report
from .report import Check, all_passed, boolean_check, bracket_check, failures, norm_check
from .two_by_two import grid_minimize

E_OK, E_MATH, E_USAGE = 0, 1, 2
A_PART_MAX = 1e150
# a value that argparse would take for an option: -1e-3, -.5E2, -inf, -nan
NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-(inf|infinity|nan)", re.IGNORECASE)


def _tolerances(args) -> Tolerances:
    return Tolerances(check=args.tol_check, rank=getattr(args, "tol_rank", None))


def _verdict_to_obj(checks: list[Check]) -> dict:
    """One pair's ``qpp_checks`` as its verdict, their shared gate and each residual bracket."""
    return {
        "holds": all_passed(checks),
        "gate": float(checks[0].tolerance),
        "residual_brackets": {c.name: [float(c.lower), float(c.residual)] for c in checks},
    }


def _load_idempotent(path: str, tol: Tolerances, digest=None) -> Idempotent:
    """The certified idempotent in the file; a file that does not hold one is a usage error."""
    try:
        return as_idempotent(load_matrix(path, digest), tol)
    except MatchedProjectionError as exc:
        raise ValueError(str(exc)) from exc


def _analysis(path: str, tol: Tolerances) -> tuple[dict, list[str], bool]:
    """The report, the summary lines and the verdict of the idempotent in the file.

    Only these outlive the call: Q, its analysis, its partners and the
    oracle's record are freed before ``cmd_analyze`` writes a byte.
    """
    digest = hashlib.sha256()
    q = _load_idempotent(path, tol, digest)
    pair = matched_projection(q)
    m = pair.projection.matrix
    rep = distance_report(q)
    checks = list(rep.checks) + range_identities(q)

    # an oracle that cannot certify its own inputs fails its checks, not the report
    oracle_gate = tol.route_gate(0.0)
    try:
        tt, vv = matched_via_factor(q)
        factor_gaps = norm_bracket(m - tt, oracle_gate), norm_bracket(m - vv, oracle_gate)
    except MatchedProjectionError as exc:
        print(f"check failed: factor oracle: {exc}", file=sys.stderr)
        factor_gaps = (math.inf, math.inf), (math.inf, math.inf)
    checks.append(bracket_check("matched_equals_tt_factor", factor_gaps[0], oracle_gate))
    checks.append(bracket_check("matched_equals_vv_factor", factor_gaps[1], oracle_gate))
    qpp_matched = list(qpp_checks(pair.projection, q))
    # the adjoint reflection Q* = (2m - I) Q (2m - I)
    reflection = next(c for c in qpp_matched if c.name == "adjoint_reflection")
    checks.append(replace(reflection, name="matched_reflection_identity"))

    qpp_range = list(qpp_checks(range_projection(q), q))
    qpp_null = list(qpp_checks(null_projection(q), q))
    checks.append(boolean_check("matched_pair_is_qpp", all_passed(qpp_matched)))

    ok = all_passed(checks)
    report = {
        "input": {"path": path, "sha256": digest.hexdigest(), "dim": q.dim},
        "tolerances": {"check": tol.check, "psd": tol.psd, "rank": tol.rank},
        "idempotent_defect": q.defect,
        "matched_projection": m,
        "distances": {
            "norm_q": rep.norm_q,
            "norm_complement": rep.norm_complement,
            "d_matched": rep.d_matched,
            "d_matched_closed": rep.d_matched_closed,
            "d_range": rep.d_range,
            "d_null": rep.d_null,
        },
        "checks": [c.as_dict() for c in checks],
        "qpp": {
            "matched": _verdict_to_obj(qpp_matched),
            "range_partner": _verdict_to_obj(qpp_range),
            "null_partner": _verdict_to_obj(qpp_null),
        },
        "all_passed": ok,
    }
    bad = failures(checks)
    lines = [
        f"dim {q.dim}, idempotent defect {q.defect:.3e}",
        f"d_matched {rep.d_matched:.6f} (closed form {rep.d_matched_closed:.6f}), "
        f"d_range {rep.d_range:.6f}, d_null {rep.d_null:.6f}",
        f"checks: {len(checks) - len(bad)}/{len(checks)} passed",
        *(f"  FAIL {c.name}: {c.describe()} > {c.tolerance:.3e}" for c in bad),
    ]
    return report, lines, ok


def cmd_analyze(args) -> int:
    report, lines, ok = _analysis(args.input, _tolerances(args))
    if args.output:
        # one string, not dump's pieces: perfbench's tracer times the write and
        # counts its bytes by dumps alone, and this write peaks below the
        # factor oracle's step of _analysis (measured at n = 128 to 512)
        Path(args.output).write_text(dumps(report), encoding="utf-8")
    print("\n".join(lines))
    return E_OK if ok else E_MATH


def cmd_generate(args) -> int:
    tol = _tolerances(args)
    if args.offdiag_norm > 1e3:
        raise ValueError("--offdiag-norm capped at 1e3 (conditioning)")
    try:
        q = random_idempotent(args.dim, args.rank, args.offdiag_norm, args.seed, tol)
    except MatchedProjectionError as exc:
        raise ValueError(str(exc)) from exc
    dump(q.matrix, args.output)
    print(
        f"wrote {args.output}: dim {args.dim}, rank {args.rank}, "
        f"norm {q.norm:.12f}, defect {q.defect:.3e}"
    )
    return E_OK


def cmd_path(args) -> int:
    tol = _tolerances(args)
    samples = homotopy_path(_load_idempotent(args.input, tol), args.samples)
    if args.output:
        dump([s.matrix for s in samples], args.output)
    worst = max(s.defect for s in samples)
    print(f"{len(samples)} samples from m(Q) to Q, max idempotency defect {worst:.3e}")
    return E_OK


def cmd_min2x2(args) -> int:
    tol = _tolerances(args)
    # the closed form squares |a|, so each part is bounded well below sqrt(float max)
    for flag, part in (("--a-re", args.a_re), ("--a-im", args.a_im)):
        if not abs(part) <= A_PART_MAX:
            raise ValueError(
                f"{flag} must be finite and at most {A_PART_MAX:g} in magnitude, not {part!r}"
            )
    a = complex(args.a_re, args.a_im)
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    gm = grid_minimize(a, args.grid, tol)
    route_gap = gm.problem.p0.matrix - matched_projection(gm.q).projection.matrix
    checks = [*gm.checks, norm_check("closed_form_is_matched", route_gap, tol.route_gate(abs(a)))]
    ok = all_passed(checks)
    record = {
        "a": [a.real, a.imag],
        "b": gm.problem.b,
        "theta0": gm.problem.theta0,
        "t0": gm.problem.t0,
        "closed_form": gm.problem.p0.matrix,
        "grid": {
            "points": args.grid,
            "min_value": gm.min_value,
            "argmin_x": gm.argmin_x,
            "argmin_t": gm.argmin_t,
            "optimum": gm.optimum,
            "gap": gm.gap,
            "grid_tolerance": gm.grid_tolerance,
        },
        "checks": [c.as_dict() for c in checks],
        "all_passed": ok,
    }
    if args.output:
        dump(record, args.output)
    print(
        f"grid min {gm.min_value:.9f} at (x={gm.argmin_x:.6f}, t={gm.argmin_t:.6f}); "
        f"closed form {gm.optimum:.9f}, gap {gm.gap:.3e}"
    )
    for c in failures(checks):
        print(f"  FAIL {c.name}: {c.describe()} > {c.tolerance:.3e}")
    return E_OK if ok else E_MATH


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    report = run_battery(args.dim_max, args.trials, args.seed, tol, sabotage=args.sabotage)

    width = max([len(n) for n in report.tallies] + [5])
    print(f"{'check':<{width}}  {'pass':>6}  {'fail':>6}")
    for tally in sorted(report.tallies.values(), key=lambda t: t.name):
        print(f"{tally.name:<{width}}  {tally.passed:>6}  {tally.failed:>6}")
    if report.continuity_constant is not None:
        print(f"observed continuity constant: {report.continuity_constant:.6f}")
    if report.all_passed:
        print(f"all checks passed over {args.trials} trials")
        return E_OK
    print(f"FIRST FAILURE: {report.first_failure()}")
    print(f"reproduce: {_reproduction(args, report.first_failing().first_seed)}")
    return E_MATH


def _reproduction(args, trial_seed: int | None) -> str:
    """The verify command that replays one trial: trial 0 at seed S is the trial with seed S.

    A one-shot check (no trial seed) fails again in any one-trial run.
    """
    seed = args.seed if trial_seed is None else trial_seed
    words = ["python -m matchedproj verify --trials 1", f"--seed {seed}", f"--dim-max {args.dim_max}"]
    if args.sabotage:
        words.append("--sabotage")
    if args.tol_check != DEFAULT_TOL.check:
        words.append(f"--tol-check {args.tol_check!r}")
    if args.tol_rank is not None:
        words.append(f"--tol-rank {args.tol_rank!r}")
    return " ".join(words)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchedproj",
        description="Analyze idempotent matrices and their matched projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tols(p, rank: bool):
        p.add_argument(
            "--tol-check", type=float, default=DEFAULT_TOL.check, help="identity residual tolerance"
        )
        # only analyze and verify run a rank cutoff
        if rank:
            p.add_argument(
                "--tol-rank",
                type=float,
                default=None,
                help="relative rank cutoff factor (default dim * machine epsilon)",
            )

    p = sub.add_parser("analyze", help="verify all identities for an idempotent from a JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="write the full JSON report here")
    add_tols(p, rank=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a seeded random idempotent to a JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--offdiag-norm", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    add_tols(p, rank=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("path", help="sample the homotopy from m(Q) to Q")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--output", default=None)
    add_tols(p, rank=False)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("min2x2", help="2x2 closed-form minimum against the grid oracle")
    p.add_argument("--a-re", type=float, default=0.0)
    p.add_argument("--a-im", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--output", default=None)
    add_tols(p, rank=False)
    p.set_defaults(func=cmd_min2x2)

    p = sub.add_parser("verify", help="run the randomized invariant battery")
    p.add_argument("--dim-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    add_tols(p, rank=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # argparse reads a spaced negative value such as "-1e-3" or "-inf" as an
    # option, so one that follows a long flag is joined to it with "="
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1].startswith("--") and "=" not in words[-1] and NEGATIVE_NUMBER.fullmatch(word):
            words[-1] += "=" + word
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    try:
        return args.func(args)
    except MatchedProjectionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return E_MATH
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return E_USAGE
