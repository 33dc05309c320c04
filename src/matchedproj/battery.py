"""Randomized verification battery behind the ``verify`` command.

Each named check exercises one family of identities on fresh seeded inputs.
Per-trial seeds are derived as ``seed XOR trial`` so results are independent
of execution order; a check failure records the (check, seed, dim) triple
that broke it.  Trial 0 of a battery at seed S is the trial with seed S, so
``run_battery(dim_max, 1, S)`` replays the trial that had seed S.  Each
suite is a generator of records, a ``report.Check`` or a ``(Check, note)``
pair: a residual against its gate is a ``norm_check`` (decided from O(n^2)
bounds where they settle it), a value against a closed form an exact
``Check``, and a yes/no verdict a ``boolean_check``.  ``_record_checks``,
the one function that knows the report and the trial, tallies each record
before the next is computed, so a trial that raises keeps every record
made before the raise.  A batch of operators is one (k, n, n) stack.
Every random projection comes from ``_draw_projections``, one stacked draw
and certificate per batch: the block-form P of ``_projection_structure``,
and in ``_norm_suite`` the 20 candidates (also measured as one stack), the
pair p1, p2 of the two-projection construction and the pair p_a, p_b of
the distance equality.  Koliha's pair P_R(Q), P_R(Q*) is certified as one
stack, and the fractional-power distances are one stacked norm.  A batch
is one computed step, whose records are then yielded one slice after
another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .errors import MatchedProjectionError
from .idempotents import (
    Idempotent,
    Projection,
    adjoint_of,
    as_idempotent,
    block_form,
    block_idempotent,
    complement_of,
    complex_gaussian,
    koliha_projections,
    null_projection,
    random_idempotent,
    random_projection,
    random_unitary,
    range_projection,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    abs_value,
    adjoint,
    identity,
    moore_penrose,
    norm_at_most,
    norm_bracket,
    operator_norm,
    psd_power,
)
from .matched import (
    factor_oracle,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    homotopy_witness_block,
    matched_distance,
    matched_projection,
    matched_projection_closed_form,
    matched_projection_svd,
    matched_via_factor,
    qpp_checks,
    qpp_symmetry_closure,
    random_qpp_pair,
    range_identities,
    unitary_equivariance,
)
from .norms import (
    convergence_report,
    distance_report,
    kkm_distance,
    matched_lipschitz_bounds,
    qpp_minimality,
    two_projection_construction,
)
from .report import Check, all_passed, boolean_check, bracket_check, norm_check
from .two_by_two import (
    canonical_idempotent,
    distance_objective,
    grid_minimize,
    halmos_projection,
    HalmosPoint,
)

@dataclass(frozen=True)
class Trial:
    """The context of a record made in a trial: its seed and dimension."""

    seed: int
    dim: int

    def __str__(self) -> str:
        return f"(seed={self.seed}, dim={self.dim})"


@dataclass
class CheckTally:
    """Pass/fail counts for one named check across all trials.

    ``first_seed`` is the seed of the trial that failed first, None while
    nothing failed or when a one-shot check (context a plain label) did.
    """

    name: str
    passed: int = 0
    failed: int = 0
    first_failure: str | None = None
    first_seed: int | None = None

    def record(self, check: Check, context: Trial | str, note: str = ""):
        if check.passed:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                detail = f"{check.describe()} tol={check.tolerance:.3e} {note}"
                self.first_failure = f"{context} {detail}".strip()
                if isinstance(context, Trial):
                    self.first_seed = context.seed


@dataclass
class BatteryReport:
    """The tallies by check name, and the largest continuity ratio seen (None until a probe ran)."""

    tallies: dict[str, CheckTally] = field(default_factory=dict)
    continuity_constant: float | None = None

    def tally(self, name: str) -> CheckTally:
        return self.tallies.setdefault(name, CheckTally(name))

    @property
    def all_passed(self) -> bool:
        return all(t.failed == 0 for t in self.tallies.values())

    def first_failing(self) -> CheckTally | None:
        """The first tally, in the order the checks first ran, that recorded a failure."""
        return next((t for t in self.tallies.values() if t.failed), None)

    def first_failure(self) -> str | None:
        t = self.first_failing()
        return None if t is None else f"{t.name}: {t.first_failure}"


Record = Check | tuple[Check, str]


def _record_checks(report: BatteryReport, context: Trial | str, records: Iterable[Record]):
    """Tally each record, in order, under its check's name: a ``Check`` or a ``(Check, note)`` pair.

    The battery's one recorder, and the one function that knows the report
    and the trial: the suites yield their records.  Each record is tallied
    before the next is computed, so a suite that raises keeps every record
    it made before the raise.  A stacked batch counts as one step: all its
    records are computed together, then yielded in the order a loop over
    its slices would give.
    """
    for record in records:
        check, note = record if isinstance(record, tuple) else (record, "")
        report.tally(check.name).record(check, context, note)


def _prefixed(prefix: str, checks: Iterable[Check]) -> list[Check]:
    """A report's checks, each renamed ``prefix:name``; the whole report is built first."""
    return [Check(f"{prefix}:{c.name}", c.residual, c.tolerance, c.lower) for c in checks]


def _draw_projections(rng, dim, max_rank, count, tol) -> list[Projection]:
    """``count`` random projections of rank at most ``max_rank``, built as one stack.

    Each projection's (rank, seed) is drawn from the trial's rng in turn, the
    rank first, so the draws are those of a loop of single projections.
    """
    draws = [(int(rng.integers(0, max_rank + 1)), int(rng.integers(2**32))) for _ in range(count)]
    ranks, seeds = zip(*draws)
    return random_projection(dim, ranks, seeds, tol)


def _core_kernels(rng, dim, tol):
    m = complex_gaussian(rng, dim, dim)
    norm = operator_norm(m)
    scale = tol.quadratic(norm)
    abs_m = abs_value(m)
    yield boolean_check("adjoint-involution", np.array_equal(adjoint(adjoint(m)), m))
    yield Check("adjoint-isometry", abs(operator_norm(adjoint(m)) - norm), tol.relative(norm))
    yield Check("cstar-identity", abs(operator_norm(adjoint(m) @ m) - norm**2), scale)
    yield norm_check("abs-value-square", abs_m @ abs_m - adjoint(m) @ m, scale)

    # pseudoinverse involution on a full-rank and a rank-deficient input
    deficient = m.copy()
    deficient[:, 0] = deficient[:, 1] if dim > 1 else 0.0
    for label, mat, mat_norm in (("full", m, norm), ("deficient", deficient, operator_norm(deficient))):
        back = moore_penrose(moore_penrose(mat, tol), tol)
        yield norm_check("pseudoinverse-involution", back - mat, tol.relative(mat_norm)), label

    root, quarter = psd_power(adjoint(m) @ m, [0.5, 0.25], tol)
    yield norm_check("sqrt-composition", psd_power(root, 0.5, tol) - quarter, scale)


def _projection_structure(rng, dim, q, tol):
    qm = q.matrix
    scale = tol.relative(q.norm)
    p_r = range_projection(q)
    p_n = null_projection(q)
    yield norm_check("range-projection-absorbs", p_r.matrix @ qm - qm, scale)
    yield norm_check("range-projection-fixed", qm @ p_r.matrix - p_r.matrix, scale)
    # the SVD routes against Koliha's pencil, P_N(Q) = I - P_R(Q*)
    k_r, k_rs = koliha_projections(q)
    routes = np.stack([p_r.matrix - k_r.matrix, p_n.matrix - (identity(dim) - k_rs.matrix)])
    yield norm_check("range-projection-routes-agree", routes, scale)
    gap = p_n.matrix - range_projection(complement_of(q)).matrix
    yield norm_check("null-is-range-of-complement", gap, scale)

    t_mat = complex_gaussian(rng, dim, dim)
    form = block_form(t_mat, _draw_projections(rng, dim, dim, 1, tol)[0], tol)
    gate = tol.relative(operator_norm(t_mat))
    yield norm_check("block-roundtrip", form.reassemble() - t_mat, gate)
    # the two lower blocks differ in shape, so their larger norm is taken exactly
    lower = max(operator_norm(b) for b in block_form(qm, p_r, tol).blocks[2:])
    yield Check("range-block-form-upper-triangular", lower, scale)


def _matched_identities(rng, dim, q, tol):
    qm = q.matrix
    eye = identity(dim)
    scale = tol.relative(q.norm)
    m = matched_projection(q).projection.matrix

    # the production pencil route against the four oracles, pairwise
    tt, vv = matched_via_factor(q)
    closed = matched_projection_closed_form(q)
    block = homotopy_witness_block(q).projection.matrix
    routes = np.stack([m, closed, tt, vv, block, matched_projection_svd(q)])
    first, second = np.triu_indices(len(routes), 1)
    gaps = routes[first] - routes[second]
    gate = tol.route_gate(0.0)
    yield norm_check("matched-routes-agree", gaps, gate)

    fo = factor_oracle(q)
    p_r = range_projection(q).matrix
    recovered = np.stack([fo.t_pinv @ fo.t - p_r, adjoint(fo.v) @ fo.v - p_r])
    yield norm_check("factor-recovers-range-projection", recovered, scale)

    # S(Q*) is S(Q) bit for bit and S(I - Q) is -S, so each partner's m is
    # its SVD oracle's: the pencil route would be compared with itself
    m_star = matched_projection_svd(adjoint_of(q))
    yield norm_check("matched-of-adjoint", m_star - m, scale)
    comp = complement_of(q)
    m_comp = matched_projection_svd(comp)
    reflect = 2.0 * m - eye
    yield norm_check("matched-of-complement", m_comp - (eye - m), scale)
    yield norm_check("reflection-gives-abs", reflect @ qm - q.abs_q, scale)
    yield norm_check(
        "reflection-gives-abs-sum", reflect @ (2.0 * qm - eye) - (q.abs_q + comp.abs_q), scale
    )
    yield norm_check("abs-product-gives-q", q.abs_q_star @ q.abs_q - qm, scale)
    yield norm_check("abs-product-gives-qstar", q.abs_q @ q.abs_q_star - adjoint(qm), scale)
    yield norm_check("sandwich-pinv-gives-abs", adjoint(qm) @ q.abs_q_star_pinv @ qm - q.abs_q, scale)
    yield norm_check(
        "pinv-abs-route-agreement", fo.abs_q_star_pinv - moore_penrose(fo.abs_q_star, tol), tol.check
    )
    yield norm_check("pinv-abs-contraction", fo.abs_q_star_pinv, tol.above(1.0))

    u = random_unitary(dim, rng)
    yield Check("unitary-equivariance", unitary_equivariance(q, u), scale)
    # gaps[1:3] are m - TT and m - VV
    yield norm_check("pair-factor-invariants", gaps[1:3], gate)
    yield norm_check("pair-reflection-invariant", adjoint(qm) - reflect @ qm @ reflect, scale)


def _characterizations_agree(checks: list[Check]) -> bool:
    """Whether the three block conditions and each reflection of ``qpp_checks`` give one verdict."""
    passed = {c.name: c.passed for c in checks}
    blocks = passed["block_range"] and passed["block_cross"] and passed["block_null"]
    return blocks == passed["adjoint_reflection"] == passed["abs_reflection"]


def _qpp_suite(rng, dim, q, tol):
    pair = matched_projection(q)
    checks = list(qpp_checks(pair.projection, q))
    holds = all_passed(checks)
    yield boolean_check("matched-pair-is-qpp", holds)
    yield boolean_check("qpp-characterizations-agree", _characterizations_agree(checks))
    if holds:
        yield boolean_check("qpp-symmetry-closure", qpp_symmetry_closure(pair.projection, q))
    # a non-pair must fail all three characterizations coherently
    if not norm_at_most(q.matrix - adjoint(q.matrix), 1e-6):
        bad = list(qpp_checks(range_projection(q), q))
        note = "range-projection partner"
        yield boolean_check("qpp-characterizations-agree", _characterizations_agree(bad)), note
        yield boolean_check("range-partner-not-qpp", not all_passed(bad)), note

    p_qpp, q_qpp = random_qpp_pair(dim, int(rng.integers(2**32)), tol)
    m_qpp = matched_projection(q_qpp).projection.matrix
    commute = p_qpp.matrix @ m_qpp - m_qpp @ p_qpp.matrix
    yield norm_check("qpp-partner-commutes-with-matched", commute, tol.relative(q_qpp.norm))
    mini = qpp_minimality(p_qpp, q_qpp)
    yield from _prefixed("qpp-minimality", mini.checks)
    yield boolean_check("generated-qpp-pair-holds", mini.qpp_holds)


def _homotopy(rng, dim, q, tol):
    wit = homotopy_witness(q)
    recon = np.linalg.inv(wit.w) @ wit.projection.matrix @ wit.w - q.matrix
    yield boolean_check("witness-contraction", wit.contraction_norm < 1.0)
    # the bound is b / (b + 1) for b = sqrt(1 + ||A||^2), which is ||Q||
    yield Check("witness-contraction-bound", wit.contraction_norm**2, tol.above(q.norm / (q.norm + 1.0)))
    yield norm_check("witness-reconstructs", recon, tol.absolute)

    path = homotopy_path(q, 11)
    yield norm_check("path-idempotency", np.stack([p.matrix @ p.matrix - p.matrix for p in path]), tol.absolute)
    ends = np.stack([path[0].matrix - wit.projection.matrix, path[-1].matrix - q.matrix])
    yield norm_check("path-endpoints", ends, tol.relative(q.norm))


def _ranges_and_powers(rng, dim, q, tol):
    yield from _prefixed("ranges", range_identities(q))
    dists = fractional_power_limit(q)
    yield Check("fractional-power-monotone", max([0.0, *np.diff(dists)]), tol.check)
    yield Check("fractional-power-limit", dists[-1], tol.limit)


def _norm_suite(rng, dim, q, q2, tol):
    yield from _prefixed("distance", distance_report(q).checks)

    # 20 candidate projections, drawn, certified and measured as one stack
    m = matched_projection(q).projection.matrix
    candidates = _draw_projections(rng, dim, dim, 20, tol)
    minis = qpp_minimality(candidates, q)
    gates = [tol.above_absolute(mini.d_candidate) for mini in minis]
    lower, upper = norm_bracket(np.stack([p.matrix for p in candidates]) - m, np.array(gates))
    for k, (mini, lo, up, gate) in enumerate(zip(minis, lower.tolist(), upper.tolist(), gates)):
        yield bracket_check("projection-closer-to-matched", (lo, up), gate), f"trial {k}"
        yield from _prefixed("any-projection", mini.checks)

    yield from _prefixed("lipschitz", matched_lipschitz_bounds(q, q2).checks)
    yield from _prefixed("convergence", convergence_report(q, q2).checks)

    p1, p2 = _draw_projections(rng, dim, max(dim // 2, 1), 2, tol)
    if norm_at_most(p1.matrix @ p2.matrix, 0.999):
        yield from _prefixed("two-projections", two_projection_construction(p1, p2, tol)[2])

    p_a, p_b = _draw_projections(rng, dim, dim, 2, tol)
    try:
        kkm_distance(p_a, p_b, tol)
    except MatchedProjectionError as exc:
        yield boolean_check("projection-distance-equality", False), str(exc)
    else:
        yield boolean_check("projection-distance-equality", True)


def _continuity_probe(rng, dim, tol) -> tuple[Check, float]:
    """The probe's check and its ratio ||m(Q1) - m(Q0)|| / ||Q1 - Q0|| for a 1e-6 step in A."""
    rank = int(rng.integers(1, dim))
    nu = float(10.0 ** rng.uniform(-1, 1))
    sub = np.random.default_rng(int(rng.integers(2**32)))
    a = complex_gaussian(sub, rank, dim - rank)
    a *= nu / operator_norm(a)
    u = random_unitary(dim, sub)
    delta = complex_gaussian(sub, rank, dim - rank)
    delta *= 1e-6 / operator_norm(delta)
    q0, q1 = (as_idempotent(block_idempotent(u, block), tol) for block in (a, a + delta))
    m0 = matched_projection(q0).projection.matrix
    m1 = matched_projection(q1).projection.matrix
    ratio = operator_norm(m1 - m0) / operator_norm(q1.matrix - q0.matrix)
    return boolean_check("matched-map-continuity-probe", np.isfinite(ratio)), ratio


def _two_by_two(rng, tol):
    mod = float(10.0 ** rng.uniform(-2, 2))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    a = mod * np.exp(1j * phase)
    gm = grid_minimize(a, 64, tol)
    gap = gm.problem.p0.matrix - matched_projection(gm.q).projection.matrix
    yield norm_check("closed-form-is-matched", gap, tol.route_gate(mod))
    # analytic objective against a direct norm computation
    x = float(rng.uniform(-1.0, 1.0))
    t = float(rng.uniform(0.0, np.pi))
    z = complex(x, np.sqrt(max(1.0 - x * x, 0.0)))
    p = halmos_projection(HalmosPoint(z=z, t=t), phase, tol)
    direct = operator_norm(p.matrix - gm.q.matrix) ** 2
    objective = abs(distance_objective(a, x, t) - direct)
    yield Check("objective-matches-norm", objective, tol.quadratic(mod))
    yield from _prefixed("grid", gm.checks)


def _family_point(mod: float, tol: Tolerances):
    """The 512-point grid's checks at ``a = mod``, then its argmin against the closed form."""
    gm = grid_minimize(mod, 512, tol)
    yield from _prefixed("family-grid", gm.checks)
    p_grid = halmos_projection(HalmosPoint(z=1.0 + 0j, t=gm.argmin_t), 0.0, tol)
    frob = float(np.linalg.norm(p_grid.matrix - gm.problem.p0.matrix))
    yield Check("family-argmin-matches-closed-form", frob, tol.above(4.0 * (np.pi / 511)))


def _static_checks(tol: Tolerances):
    """One-shot checks that do not depend on the trial loop, as (context, records) per modulus."""
    for mod, target in ((1e-3, 0.5), (1e3, 1.0)):
        q = canonical_idempotent(mod, tol)
        d_matched = matched_distance(q)
        d_range = operator_norm(range_projection(q).matrix - q.matrix)
        yield f"a={mod:g}", [Check("distance-ratio-asymptotics", abs(d_matched / d_range - target), tol.limit)]

    for mod in np.logspace(-2, 2, 20):
        yield f"a={mod:.3g}", _family_point(float(mod), tol)


def sabotaged(q: Idempotent) -> Idempotent:
    """A copy of Q whose cached pencil is (w, 2V): the harness self-test input.

    The production route then builds m(Q) = 4 V_+ V_+*, so m(Q) and the
    witness fail their certificates.  Q's SVD and its values (||Q||, the
    rank, |Q|, |Q*|, P_R(Q), P_N(Q)) do not see the scaling, nor do the
    eigenvalues that Koliha's singularity test reads, and the oracles never
    read V.  The copy, ``replace(q)``, keeps Q's tolerance and has its own
    analysis, so Q's is left as it was.
    """
    w, v = q.pencil
    copy = replace(q)
    vars(copy)["pencil"] = (w, 2.0 * v)
    return copy


def run_battery(
    dim_max: int,
    trials: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
    sabotage: bool = False,
) -> BatteryReport:
    """Drive every invariant suite over seeded random inputs (on ``sabotaged`` Q if asked)."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if dim_max < 2:
        raise ValueError(f"dim_max must be at least 2, not {dim_max}")
    report = BatteryReport()
    if trials == 0:
        return report
    try:
        for context, records in _static_checks(tol):
            _record_checks(report, context, records)
    except MatchedProjectionError as exc:
        _record_checks(report, "(one-shot)", [(boolean_check("static-checks", False), repr(exc))])

    for trial in range(trials):
        trial_seed = (seed ^ trial) & (2**63 - 1)
        rng = np.random.default_rng(trial_seed)
        dim = int(rng.integers(2, dim_max + 1))
        rank = int(rng.integers(1, dim))
        nu = float(10.0 ** rng.uniform(-2.0, 1.0))
        context = Trial(trial_seed, dim)
        try:
            q = random_idempotent(dim, rank, nu, int(rng.integers(2**32)), tol)
            if sabotage:
                q = sabotaged(q)
            q2 = random_idempotent(
                dim, int(rng.integers(1, dim)), float(10.0 ** rng.uniform(-2.0, 1.0)),
                int(rng.integers(2**32)), tol,
            )
            _record_checks(report, context, _core_kernels(rng, dim, tol))
            for suite in (_projection_structure, _matched_identities, _qpp_suite, _homotopy,
                          _ranges_and_powers):
                _record_checks(report, context, suite(rng, dim, q, tol))
            _record_checks(report, context, _norm_suite(rng, dim, q, q2, tol))
            probe, ratio = _continuity_probe(rng, dim, tol)
            report.continuity_constant = max(report.continuity_constant or 0.0, ratio)
            _record_checks(report, context, [probe])
            _record_checks(report, context, _two_by_two(rng, tol))
        except MatchedProjectionError as exc:
            _record_checks(report, context, [(boolean_check("trial-completed", False), repr(exc))])
        else:
            _record_checks(report, context, [boolean_check("trial-completed", True)])
    return report
