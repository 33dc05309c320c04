"""Randomized verification battery behind the ``verify`` command.

Each named check exercises one family of identities on fresh seeded inputs.
Per-trial seeds are derived as ``seed XOR trial`` so results are independent
of execution order; a check failure records the (check, seed, dim) triple
that broke it.  Trial 0 of a battery at seed S is the trial with seed S, so
``run_battery(dim_max, 1, S)`` replays the trial that had seed S.  Every
record is a ``report.Check`` tallied by ``_record_checks``: a residual
against its gate is a ``norm_check`` (decided from O(n^2) bounds where they
settle it), a value against a closed form an exact ``Check``, and a yes/no
verdict a ``boolean_check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MatchedProjectionError
from .idempotents import (
    Idempotent,
    adjoint_of,
    as_idempotent,
    block_form,
    complement_of,
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
    operator_norm,
    psd_power,
)
from .matched import (
    factor_oracle,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    homotopy_witness_block,
    matched_projection,
    matched_projection_closed_form,
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
from .report import Check, all_passed, boolean_check, norm_check
from .two_by_two import (
    canonical_idempotent,
    closed_form_p0,
    distance_objective,
    grid_minimize,
    halmos_projection,
    HalmosPoint,
)

EXPONENT_GRID = [2**k for k in range(11)]


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
    tallies: dict[str, CheckTally] = field(default_factory=dict)
    notes: dict[str, float] = field(default_factory=dict)

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


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _record_checks(
    report: BatteryReport, context: Trial | str, *checks: Check, prefix: str = "", note: str = ""
):
    """Tally each check, in order, as ``prefix:name`` (its own name without a prefix).

    The battery's one recorder.  Suites call it as they go, so a trial that
    raises keeps the records made before the raise; in one call only the
    first check may come from a call that can raise.
    """
    for c in checks:
        report.tally(f"{prefix}:{c.name}" if prefix else c.name).record(c, context, note)


def _core_kernels(report: BatteryReport, rng, dim, tol, context):
    m = _complex_gaussian(rng, dim)
    norm = operator_norm(m)
    scale = tol.check * (1.0 + norm**2)
    abs_m = abs_value(m)
    _record_checks(
        report, context,
        boolean_check("adjoint-involution", np.array_equal(adjoint(adjoint(m)), m)),
        Check("adjoint-isometry", abs(operator_norm(adjoint(m)) - norm), tol.check * (1.0 + norm)),
        Check("cstar-identity", abs(operator_norm(adjoint(m) @ m) - norm**2), scale),
        norm_check("abs-value-square", abs_m @ abs_m - adjoint(m) @ m, scale),
    )

    # pseudoinverse involution on a full-rank and a rank-deficient input
    deficient = m.copy()
    deficient[:, 0] = deficient[:, 1] if dim > 1 else 0.0
    for label, mat, mat_norm in (("full", m, norm), ("deficient", deficient, operator_norm(deficient))):
        back = moore_penrose(moore_penrose(mat, tol), tol)
        involution = norm_check("pseudoinverse-involution", back - mat, tol.check * (1.0 + mat_norm))
        _record_checks(report, context, involution, note=label)

    h = adjoint(m) @ m
    root, quarter = psd_power(h, [0.5, 0.25], tol)
    twice = psd_power(root, 0.5, tol)
    _record_checks(report, context, norm_check("sqrt-composition", twice - quarter, scale))


def _projection_structure(report: BatteryReport, rng, dim, q, tol, context):
    qm = q.matrix
    scale = tol.check * (1.0 + q.norm)
    p_r = range_projection(q, tol)
    p_n = null_projection(q, tol)
    _record_checks(
        report, context,
        norm_check("range-projection-absorbs", p_r.matrix @ qm - qm, scale),
        norm_check("range-projection-fixed", qm @ p_r.matrix - p_r.matrix, scale),
    )
    # the SVD routes against Koliha's pencil, P_N(Q) = I - P_R(Q*)
    k_r, k_rs = koliha_projections(q, tol)
    routes = np.stack([p_r.matrix - k_r.matrix, p_n.matrix - (identity(dim) - k_rs.matrix)])
    _record_checks(report, context, norm_check("range-projection-routes-agree", routes, scale))
    gap = p_n.matrix - range_projection(complement_of(q, tol), tol).matrix
    _record_checks(report, context, norm_check("null-is-range-of-complement", gap, scale))

    t_mat = _complex_gaussian(rng, dim)
    p_rand = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
    form = block_form(t_mat, p_rand, tol)
    gate = tol.check * (1.0 + operator_norm(t_mat))
    _record_checks(report, context, norm_check("block-roundtrip", form.reassemble() - t_mat, gate))
    # the two lower blocks differ in shape, so their larger norm is taken exactly
    lower = max(operator_norm(b) for b in block_form(qm, p_r, tol).blocks[2:])
    _record_checks(report, context, Check("range-block-form-upper-triangular", lower, scale))


def _matched_identities(report: BatteryReport, rng, dim, q, tol, context):
    qm = q.matrix
    eye = identity(dim)
    scale = tol.check * (1.0 + q.norm)
    m = matched_projection(q, tol).projection.matrix

    # the production SVD route against the three oracles, pairwise
    tt, vv = matched_via_factor(q, tol)
    closed = matched_projection_closed_form(q, tol)
    routes = np.stack([m, closed, tt, vv, homotopy_witness_block(q, tol).projection.matrix])
    first, second = np.triu_indices(len(routes), 1)
    gaps = routes[first] - routes[second]
    gate = 10.0 * tol.check
    _record_checks(report, context, norm_check("matched-routes-agree", gaps, gate))

    fo = factor_oracle(q, tol)
    p_r = range_projection(q, tol).matrix
    recovered = np.stack([fo.t_pinv @ fo.t - p_r, adjoint(fo.v) @ fo.v - p_r])
    _record_checks(report, context, norm_check("factor-recovers-range-projection", recovered, scale))

    m_star = matched_projection(adjoint_of(q, tol), tol).projection.matrix
    _record_checks(report, context, norm_check("matched-of-adjoint", m_star - m, scale))
    comp = complement_of(q, tol)
    m_comp = matched_projection(comp, tol).projection.matrix
    reflect = 2.0 * m - eye
    _record_checks(
        report, context,
        norm_check("matched-of-complement", m_comp - (eye - m), scale),
        norm_check("reflection-gives-abs", reflect @ qm - q.abs_q, scale),
        norm_check(
            "reflection-gives-abs-sum", reflect @ (2.0 * qm - eye) - (q.abs_q + comp.abs_q), scale
        ),
        norm_check("abs-product-gives-q", q.abs_q_star @ q.abs_q - qm, scale),
        norm_check("abs-product-gives-qstar", q.abs_q @ q.abs_q_star - adjoint(qm), scale),
        norm_check("sandwich-pinv-gives-abs", adjoint(qm) @ q.abs_q_star_pinv @ qm - q.abs_q, scale),
        norm_check(
            "pinv-abs-route-agreement",
            fo.abs_q_star_pinv - moore_penrose(fo.abs_q_star, tol),
            tol.check,
        ),
        norm_check("pinv-abs-contraction", fo.abs_q_star_pinv, 1.0 + tol.check),
    )

    u = random_unitary(dim, rng)
    _record_checks(
        report, context,
        Check("unitary-equivariance", unitary_equivariance(q, u, tol), scale),
        norm_check("pair-factor-invariants", np.stack([m - tt, m - vv]), gate),
        norm_check("pair-reflection-invariant", adjoint(qm) - reflect @ qm @ reflect, scale),
    )


def _characterizations_agree(checks: list[Check]) -> bool:
    """Whether the three block conditions and each reflection of ``qpp_checks`` give one verdict."""
    return all_passed(checks[:3]) == checks[3].passed == checks[4].passed


def _qpp_suite(report: BatteryReport, rng, dim, q, tol, context):
    pair = matched_projection(q, tol)
    checks = list(qpp_checks(pair.projection, q, tol))
    holds = all_passed(checks)
    _record_checks(
        report, context,
        boolean_check("matched-pair-is-qpp", holds),
        boolean_check("qpp-characterizations-agree", _characterizations_agree(checks)),
    )
    if holds:
        closure = qpp_symmetry_closure(pair.projection, q, tol)
        _record_checks(report, context, boolean_check("qpp-symmetry-closure", closure))
    # a non-pair must fail all three characterizations coherently
    if not norm_at_most(q.matrix - adjoint(q.matrix), 1e-6):
        bad = list(qpp_checks(range_projection(q, tol), q, tol))
        _record_checks(
            report, context,
            boolean_check("qpp-characterizations-agree", _characterizations_agree(bad)),
            boolean_check("range-partner-not-qpp", not all_passed(bad)),
            note="range-projection partner",
        )

    p_qpp, q_qpp = random_qpp_pair(dim, int(rng.integers(2**32)), tol)
    m_qpp = matched_projection(q_qpp, tol).projection.matrix
    commute = p_qpp.matrix @ m_qpp - m_qpp @ p_qpp.matrix
    gate = tol.check * (1.0 + q_qpp.norm)
    _record_checks(report, context, norm_check("qpp-partner-commutes-with-matched", commute, gate))
    mini = qpp_minimality(p_qpp, q_qpp, tol)
    _record_checks(report, context, *mini.checks, prefix="qpp-minimality")
    _record_checks(report, context, boolean_check("generated-qpp-pair-holds", mini.qpp_holds))


def _homotopy(report: BatteryReport, rng, dim, q, tol, context):
    wit = homotopy_witness(q, tol)
    recon = np.linalg.inv(wit.w) @ wit.projection.matrix @ wit.w - q.matrix
    _record_checks(
        report, context,
        boolean_check("witness-contraction", wit.contraction_norm < 1.0),
        # the bound is b / (b + 1) for b = sqrt(1 + ||A||^2), which is ||Q||
        Check("witness-contraction-bound", wit.contraction_norm**2, q.norm / (q.norm + 1.0) + tol.check),
        norm_check("witness-reconstructs", recon, 1e-9),
    )

    path = homotopy_path(q, 11, tol)
    defects = np.stack([p.matrix @ p.matrix - p.matrix for p in path])
    ends = np.stack([path[0].matrix - wit.projection.matrix, path[-1].matrix - q.matrix])
    _record_checks(
        report, context,
        norm_check("path-idempotency", defects, 1e-9),
        norm_check("path-endpoints", ends, tol.check * (1.0 + q.norm)),
    )


def _ranges_and_powers(report: BatteryReport, rng, dim, q, tol, context):
    _record_checks(report, context, *range_identities(q, tol), prefix="ranges")
    dists = fractional_power_limit(q, EXPONENT_GRID, tol)
    _record_checks(
        report, context,
        Check("fractional-power-monotone", max([0.0, *np.diff(dists)]), tol.check),
        Check("fractional-power-limit", dists[-1], 1e-2),
    )


def _norm_suite(report: BatteryReport, rng, dim, q, q2, tol, context):
    rep = distance_report(q, tol)
    _record_checks(report, context, *rep.checks, prefix="distance")

    m = matched_projection(q, tol).projection.matrix
    for k in range(20):
        p = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
        mini = qpp_minimality(p, q, tol)
        closer = norm_check("projection-closer-to-matched", p.matrix - m, mini.d_candidate + 1e-9)
        _record_checks(report, context, closer, note=f"trial {k}")
        _record_checks(report, context, *mini.checks, prefix="any-projection")

    bounds = matched_lipschitz_bounds(q, q2, tol)
    _record_checks(report, context, *bounds.checks, prefix="lipschitz")

    conv = convergence_report(q, q2, EXPONENT_GRID, tol)
    _record_checks(report, context, *conv.checks, prefix="convergence")

    p1 = random_projection(dim, int(rng.integers(0, max(dim // 2, 1) + 1)), int(rng.integers(2**32)), tol)
    p2 = random_projection(dim, int(rng.integers(0, max(dim // 2, 1) + 1)), int(rng.integers(2**32)), tol)
    if norm_at_most(p1.matrix @ p2.matrix, 0.999):
        _, _, checks = two_projection_construction(p1, p2, tol)
        _record_checks(report, context, *checks, prefix="two-projections")

    p_a = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
    p_b = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
    try:
        kkm_distance(p_a, p_b, tol)
    except MatchedProjectionError as exc:
        ok, note = False, str(exc)
    else:
        ok, note = True, ""
    _record_checks(report, context, boolean_check("projection-distance-equality", ok), note=note)


def _continuity_probe(report: BatteryReport, rng, dim, tol, context):
    rank = int(rng.integers(1, dim))
    nu = float(10.0 ** rng.uniform(-1, 1))
    seed = int(rng.integers(2**32))
    sub = np.random.default_rng(seed)
    a = sub.standard_normal((rank, dim - rank)) + 1j * sub.standard_normal((rank, dim - rank))
    a *= nu / operator_norm(a)
    u = random_unitary(dim, sub)

    def build(block_a):
        base = np.zeros((dim, dim), dtype=np.complex128)
        base[:rank, :rank] = np.eye(rank)
        base[:rank, rank:] = block_a
        return as_idempotent(u @ base @ adjoint(u), tol)

    delta = sub.standard_normal((rank, dim - rank)) + 1j * sub.standard_normal(
        (rank, dim - rank)
    )
    delta *= 1e-6 / operator_norm(delta)
    q0, q1 = build(a), build(a + delta)
    m0 = matched_projection(q0, tol).projection.matrix
    m1 = matched_projection(q1, tol).projection.matrix
    ratio = operator_norm(m1 - m0) / operator_norm(q1.matrix - q0.matrix)
    report.notes["continuity_constant"] = max(
        report.notes.get("continuity_constant", 0.0), ratio
    )
    _record_checks(report, context, boolean_check("matched-map-continuity-probe", np.isfinite(ratio)))


def _two_by_two(report: BatteryReport, rng, tol, context):
    mod = float(10.0 ** rng.uniform(-2, 2))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    a = mod * np.exp(1j * phase)
    problem = closed_form_p0(a, tol)
    pair = matched_projection(canonical_idempotent(a, tol), tol)
    gap = problem.p0.matrix - pair.projection.matrix
    gate = 10.0 * tol.check * (1.0 + mod)
    _record_checks(report, context, norm_check("closed-form-is-matched", gap, gate))
    # analytic objective against a direct norm computation
    x = float(rng.uniform(-1.0, 1.0))
    t = float(rng.uniform(0.0, np.pi))
    z = complex(x, np.sqrt(max(1.0 - x * x, 0.0)))
    p = halmos_projection(HalmosPoint(z=z, t=t), phase, tol)
    direct = operator_norm(p.matrix - canonical_idempotent(a, tol).matrix) ** 2
    objective = abs(distance_objective(a, x, t) - direct)
    _record_checks(report, context, Check("objective-matches-norm", objective, tol.check * (1.0 + mod**2)))
    gm = grid_minimize(a, 64, tol)
    _record_checks(report, context, *gm.checks, prefix="grid")


def _static_checks(report: BatteryReport, tol: Tolerances):
    """One-shot checks that do not depend on the trial loop."""
    for mod, target in ((1e-3, 0.5), (1e3, 1.0)):
        q = canonical_idempotent(mod, tol)
        m = matched_projection(q, tol).projection.matrix
        ratio = operator_norm(m - q.matrix) / operator_norm(
            range_projection(q, tol).matrix - q.matrix
        )
        asymptote = Check("distance-ratio-asymptotics", abs(ratio - target), 1e-2)
        _record_checks(report, f"a={mod:g}", asymptote)

    for mod in np.logspace(-2, 2, 20):
        context = f"a={mod:.3g}"
        gm = grid_minimize(float(mod), 512, tol)
        _record_checks(report, context, *gm.checks, prefix="family-grid")
        problem = closed_form_p0(float(mod), tol)
        p_grid = halmos_projection(
            HalmosPoint(z=1.0 + 0j, t=gm.argmin_t), 0.0, tol
        )
        frob = float(np.linalg.norm(p_grid.matrix - problem.p0.matrix))
        step = np.pi / 511
        argmin = Check("family-argmin-matches-closed-form", frob, 4.0 * step + tol.check)
        _record_checks(report, context, argmin)


def sabotaged(q: Idempotent) -> Idempotent:
    """A copy of Q whose cached SVD is (U, s, -V*): the harness self-test input.

    The production route then builds W = U_r - V_r, so m(Q) and the witness
    fail their certificates.  ||Q||, the rank, |Q|, |Q*|, P_R(Q) and P_N(Q)
    do not see the sign, and the oracles never read the SVD.  The copy has
    its own analysis, so Q's is left as it was.
    """
    u, s, vh = q.svd
    copy = Idempotent(q.matrix)
    vars(copy)["svd"] = (u, s, -vh)
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
    report = BatteryReport()
    if trials == 0:
        return report
    try:
        _static_checks(report, tol)
    except MatchedProjectionError as exc:
        _record_checks(report, "(one-shot)", boolean_check("static-checks", False), note=repr(exc))

    for trial in range(trials):
        trial_seed = (seed ^ trial) & (2**63 - 1)
        rng = np.random.default_rng(trial_seed)
        dim = int(rng.integers(2, max(dim_max, 2) + 1))
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
            _core_kernels(report, rng, dim, tol, context)
            _projection_structure(report, rng, dim, q, tol, context)
            _matched_identities(report, rng, dim, q, tol, context)
            _qpp_suite(report, rng, dim, q, tol, context)
            _homotopy(report, rng, dim, q, tol, context)
            _ranges_and_powers(report, rng, dim, q, tol, context)
            _norm_suite(report, rng, dim, q, q2, tol, context)
            _continuity_probe(report, rng, dim, tol, context)
            _two_by_two(report, rng, tol, context)
        except MatchedProjectionError as exc:
            _record_checks(report, context, boolean_check("trial-completed", False), note=repr(exc))
        else:
            _record_checks(report, context, boolean_check("trial-completed", True))
    return report
