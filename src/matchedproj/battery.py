"""Randomized verification battery behind the ``verify`` command.

Each named check exercises one family of identities on fresh seeded inputs.
Per-trial seeds are derived as ``seed XOR trial`` so results are independent
of execution order; a check failure records the (check, seed, dim) triple
that broke it.
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
    is_quasi_projection_pair,
    matched_projection,
    matched_projection_closed_form,
    matched_via_factor,
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
from .report import Check
from .two_by_two import (
    canonical_idempotent,
    closed_form_p0,
    distance_objective,
    grid_minimize,
    halmos_projection,
    HalmosPoint,
)

EXPONENT_GRID = [2**k for k in range(11)]


@dataclass
class CheckTally:
    """Pass/fail counts for one named check across all trials."""

    name: str
    passed: int = 0
    failed: int = 0
    first_failure: str | None = None

    def record(self, ok: bool, context: str, detail: str = ""):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{context} {detail}".strip()


@dataclass
class BatteryReport:
    tallies: dict[str, CheckTally] = field(default_factory=dict)
    notes: dict[str, float] = field(default_factory=dict)

    def tally(self, name: str) -> CheckTally:
        return self.tallies.setdefault(name, CheckTally(name))

    @property
    def all_passed(self) -> bool:
        return all(t.failed == 0 for t in self.tallies.values())

    def first_failure(self) -> str | None:
        for t in self.tallies.values():
            if t.first_failure is not None:
                return f"{t.name}: {t.first_failure}"
        return None


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _record_checks(report: BatteryReport, prefix: str, checks: list[Check], context: str):
    for c in checks:
        report.tally(f"{prefix}:{c.name}").record(
            c.passed, context, f"residual={c.residual:.3e} tol={c.tolerance:.3e}"
        )


def _core_kernels(report: BatteryReport, rng, dim, tol, context):
    m = _complex_gaussian(rng, dim)
    norm = operator_norm(m)
    scale = tol.check * (1.0 + norm**2)
    report.tally("adjoint-involution").record(
        operator_norm(adjoint(adjoint(m)) - m) == 0.0, context
    )
    report.tally("adjoint-isometry").record(
        abs(operator_norm(adjoint(m)) - norm) <= tol.check * (1.0 + norm), context
    )
    report.tally("cstar-identity").record(
        abs(operator_norm(adjoint(m) @ m) - norm**2) <= scale, context
    )
    abs_m = abs_value(m)
    report.tally("abs-value-square").record(
        operator_norm(abs_m @ abs_m - adjoint(m) @ m) <= scale, context
    )

    # pseudoinverse involution on a full-rank and a rank-deficient input
    deficient = m.copy()
    deficient[:, 0] = deficient[:, 1] if dim > 1 else 0.0
    cases = (("full", m, norm), ("deficient", deficient, operator_norm(deficient)))
    for label, mat, mat_norm in cases:
        back = moore_penrose(moore_penrose(mat, tol), tol)
        report.tally("pseudoinverse-involution").record(
            operator_norm(back - mat) <= tol.check * (1.0 + mat_norm),
            context,
            label,
        )

    h = adjoint(m) @ m
    twice = psd_power(psd_power(h, 0.5, tol), 0.5, tol)
    quarter = psd_power(h, 0.25, tol)
    report.tally("sqrt-composition").record(
        operator_norm(twice - quarter) <= scale, context
    )


def _projection_structure(report: BatteryReport, rng, dim, q, tol, context):
    qm = q.matrix
    scale = tol.check * (1.0 + q.norm)
    p_r = range_projection(q, tol)
    p_n = null_projection(q, tol)
    report.tally("range-projection-absorbs").record(
        operator_norm(p_r.matrix @ qm - qm) <= scale, context
    )
    report.tally("range-projection-fixed").record(
        operator_norm(qm @ p_r.matrix - p_r.matrix) <= scale, context
    )
    # the SVD routes against Koliha's pencil, P_N(Q) = I - P_R(Q*)
    k_r, k_rs = koliha_projections(q, tol)
    routes = max(
        operator_norm(p_r.matrix - k_r.matrix),
        operator_norm(p_n.matrix - (identity(dim) - k_rs.matrix)),
    )
    report.tally("range-projection-routes-agree").record(
        routes <= scale, context, f"max gap {routes:.3e}"
    )
    report.tally("null-is-range-of-complement").record(
        operator_norm(p_n.matrix - range_projection(complement_of(q, tol), tol).matrix) <= scale,
        context,
    )

    t_mat = _complex_gaussian(rng, dim)
    p_rand = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
    form = block_form(t_mat, p_rand, tol)
    report.tally("block-roundtrip").record(
        operator_norm(form.reassemble() - t_mat)
        <= tol.check * (1.0 + operator_norm(t_mat)),
        context,
    )
    form_q = block_form(qm, p_r, tol)
    lower = max(operator_norm(form_q.blocks[2]), operator_norm(form_q.blocks[3]))
    report.tally("range-block-form-upper-triangular").record(lower <= scale, context)


def _matched_identities(report: BatteryReport, rng, dim, q, tol, context):
    qm = q.matrix
    eye = identity(dim)
    scale = tol.check * (1.0 + q.norm)
    m = matched_projection(q, tol).projection.matrix

    # the production SVD route against the three oracles, pairwise
    tt, vv = matched_via_factor(q, tol)
    routes = {
        "svd": m,
        "closed": matched_projection_closed_form(q, tol),
        "tt": tt,
        "vv": vv,
        "block": homotopy_witness_block(q, tol).projection.matrix,
    }
    names = list(routes)
    gaps = {
        (a, b): operator_norm(routes[a] - routes[b])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    agree = max(gaps.values())
    report.tally("matched-routes-agree").record(
        agree <= 10.0 * tol.check, context, f"max gap {agree:.3e}"
    )

    fo = factor_oracle(q, tol)
    p_r = range_projection(q, tol).matrix
    report.tally("factor-recovers-range-projection").record(
        operator_norm(fo.t_pinv @ fo.t - p_r) <= scale
        and operator_norm(adjoint(fo.v) @ fo.v - p_r) <= scale,
        context,
    )

    m_star = matched_projection(adjoint_of(q, tol), tol).projection.matrix
    report.tally("matched-of-adjoint").record(operator_norm(m_star - m) <= scale, context)
    comp = complement_of(q, tol)
    m_comp = matched_projection(comp, tol).projection.matrix
    report.tally("matched-of-complement").record(
        operator_norm(m_comp - (eye - m)) <= scale, context
    )

    reflect = 2.0 * m - eye
    report.tally("reflection-gives-abs").record(
        operator_norm(reflect @ qm - q.abs_q) <= scale, context
    )
    report.tally("reflection-gives-abs-sum").record(
        operator_norm(reflect @ (2.0 * qm - eye) - (q.abs_q + comp.abs_q)) <= scale,
        context,
    )
    report.tally("abs-product-gives-q").record(
        operator_norm(q.abs_q_star @ q.abs_q - qm) <= scale, context
    )
    report.tally("abs-product-gives-qstar").record(
        operator_norm(q.abs_q @ q.abs_q_star - adjoint(qm)) <= scale, context
    )
    report.tally("sandwich-pinv-gives-abs").record(
        operator_norm(adjoint(qm) @ q.abs_q_star_pinv @ qm - q.abs_q) <= scale,
        context,
    )

    report.tally("pinv-abs-route-agreement").record(
        operator_norm(fo.abs_q_star_pinv - moore_penrose(fo.abs_q_star, tol)) <= tol.check,
        context,
    )
    report.tally("pinv-abs-contraction").record(
        operator_norm(fo.abs_q_star_pinv) <= 1.0 + tol.check, context
    )

    u = random_unitary(dim, rng)
    report.tally("unitary-equivariance").record(
        unitary_equivariance(q, u, tol) <= scale, context
    )

    report.tally("pair-factor-invariants").record(
        gaps["svd", "tt"] <= 10.0 * tol.check and gaps["svd", "vv"] <= 10.0 * tol.check,
        context,
    )
    report.tally("pair-reflection-invariant").record(
        operator_norm(adjoint(qm) - reflect @ qm @ reflect) <= scale, context
    )


def _qpp_suite(report: BatteryReport, rng, dim, q, tol, context):
    pair = matched_projection(q, tol)
    verdict = is_quasi_projection_pair(pair.projection, q, tol)
    report.tally("matched-pair-is-qpp").record(verdict.holds, context)
    report.tally("qpp-characterizations-agree").record(
        verdict.blocks_hold == verdict.reflection_holds == verdict.abs_reflection_holds,
        context,
    )
    if verdict.holds:
        report.tally("qpp-symmetry-closure").record(
            qpp_symmetry_closure(pair.projection, q, tol), context
        )
    # a non-pair must fail all three characterizations coherently
    if not norm_at_most(q.matrix - adjoint(q.matrix), 1e-6):
        bad = is_quasi_projection_pair(range_projection(q, tol), q, tol)
        report.tally("qpp-characterizations-agree").record(
            bad.blocks_hold == bad.reflection_holds == bad.abs_reflection_holds,
            context,
            "range-projection partner",
        )
        report.tally("range-partner-not-qpp").record(not bad.holds, context)

    p_qpp, q_qpp = random_qpp_pair(dim, int(rng.integers(2**32)), tol)
    m_qpp = matched_projection(q_qpp, tol).projection.matrix
    commute = operator_norm(p_qpp.matrix @ m_qpp - m_qpp @ p_qpp.matrix)
    report.tally("qpp-partner-commutes-with-matched").record(
        commute <= tol.check * (1.0 + q_qpp.norm), context
    )
    mini = qpp_minimality(p_qpp, q_qpp, tol)
    _record_checks(report, "qpp-minimality", mini.checks, context)
    report.tally("generated-qpp-pair-holds").record(mini.qpp_holds, context)


def _homotopy(report: BatteryReport, rng, dim, q, tol, context):
    wit = homotopy_witness(q, tol)
    report.tally("witness-contraction").record(wit.contraction_norm < 1.0, context)
    # the bound is b / (b + 1) for b = sqrt(1 + ||A||^2), which is ||Q||
    report.tally("witness-contraction-bound").record(
        wit.contraction_norm**2 <= q.norm / (q.norm + 1.0) + tol.check, context
    )
    w_inv = np.linalg.inv(wit.w)
    recon = operator_norm(w_inv @ wit.projection.matrix @ wit.w - q.matrix)
    report.tally("witness-reconstructs").record(recon <= 1e-9, context)

    path = homotopy_path(q, 11, tol)
    report.tally("path-idempotency").record(
        all(norm_at_most(p.matrix @ p.matrix - p.matrix, 1e-9) for p in path), context
    )
    ends = max(
        operator_norm(path[0].matrix - wit.projection.matrix),
        operator_norm(path[-1].matrix - q.matrix),
    )
    report.tally("path-endpoints").record(
        ends <= tol.check * (1.0 + q.norm), context
    )


def _ranges_and_powers(report: BatteryReport, rng, dim, q, tol, context):
    _record_checks(report, "ranges", range_identities(q, tol), context)
    dists = fractional_power_limit(q, EXPONENT_GRID, tol)
    drops = max(
        [0.0] + [dists[i + 1] - dists[i] for i in range(len(dists) - 1)]
    )
    report.tally("fractional-power-monotone").record(drops <= tol.check, context)
    report.tally("fractional-power-limit").record(dists[-1] <= 1e-2, context)


def _norm_suite(report: BatteryReport, rng, dim, q, q2, tol, context):
    rep = distance_report(q, tol)
    _record_checks(report, "distance", rep.checks, context)

    m = matched_projection(q, tol).projection.matrix
    for k in range(20):
        p = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
        lhs = operator_norm(p.matrix - m)
        mini = qpp_minimality(p, q, tol)
        report.tally("projection-closer-to-matched").record(
            lhs <= mini.d_candidate + 1e-9, context, f"trial {k}"
        )
        _record_checks(report, "any-projection", mini.checks, context)

    bounds = matched_lipschitz_bounds(q, q2, tol)
    _record_checks(report, "lipschitz", bounds.checks, context)

    conv = convergence_report(q, q2, EXPONENT_GRID, tol)
    _record_checks(report, "convergence", conv.checks, context)

    p1 = random_projection(dim, int(rng.integers(0, max(dim // 2, 1) + 1)), int(rng.integers(2**32)), tol)
    p2 = random_projection(dim, int(rng.integers(0, max(dim // 2, 1) + 1)), int(rng.integers(2**32)), tol)
    if operator_norm(p1.matrix @ p2.matrix) < 0.999:
        _, _, checks = two_projection_construction(p1, p2, tol)
        _record_checks(report, "two-projections", checks, context)

    p_a = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
    p_b = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
    try:
        kkm_distance(p_a, p_b, tol)
        report.tally("projection-distance-equality").record(True, context)
    except MatchedProjectionError as exc:
        report.tally("projection-distance-equality").record(False, context, str(exc))


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
    report.tally("matched-map-continuity-probe").record(np.isfinite(ratio), context)


def _two_by_two(report: BatteryReport, rng, tol, context):
    mod = float(10.0 ** rng.uniform(-2, 2))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    a = mod * np.exp(1j * phase)
    problem = closed_form_p0(a, tol)
    pair = matched_projection(canonical_idempotent(a, tol), tol)
    report.tally("closed-form-is-matched").record(
        operator_norm(problem.p0.matrix - pair.projection.matrix)
        <= 10.0 * tol.check * (1.0 + mod),
        context,
    )
    # analytic objective against a direct norm computation
    x = float(rng.uniform(-1.0, 1.0))
    t = float(rng.uniform(0.0, np.pi))
    z = complex(x, np.sqrt(max(1.0 - x * x, 0.0)))
    p = halmos_projection(HalmosPoint(z=z, t=t), phase, tol)
    direct = operator_norm(p.matrix - canonical_idempotent(a, tol).matrix) ** 2
    report.tally("objective-matches-norm").record(
        abs(distance_objective(a, x, t) - direct) <= tol.check * (1.0 + mod**2),
        context,
    )
    gm = grid_minimize(a, 64, 64, tol)
    _record_checks(report, "grid", gm.checks, context)


def _static_checks(report: BatteryReport, tol: Tolerances):
    """One-shot checks that do not depend on the trial loop."""
    for mod, target in ((1e-3, 0.5), (1e3, 1.0)):
        q = canonical_idempotent(mod, tol)
        m = matched_projection(q, tol).projection.matrix
        ratio = operator_norm(m - q.matrix) / operator_norm(
            range_projection(q, tol).matrix - q.matrix
        )
        report.tally("distance-ratio-asymptotics").record(
            abs(ratio - target) <= 1e-2, f"a={mod:g}", f"ratio={ratio:.6f}"
        )

    for mod in np.logspace(-2, 2, 20):
        gm = grid_minimize(float(mod), 512, 512, tol)
        _record_checks(report, "family-grid", gm.checks, f"a={mod:.3g}")
        problem = closed_form_p0(float(mod), tol)
        p_grid = halmos_projection(
            HalmosPoint(z=1.0 + 0j, t=gm.argmin_t), 0.0, tol
        )
        frob = float(np.linalg.norm(p_grid.matrix - problem.p0.matrix))
        step = np.pi / 511
        report.tally("family-argmin-matches-closed-form").record(
            frob <= 4.0 * step + tol.check, f"a={mod:.3g}", f"frobenius={frob:.3e}"
        )


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
        report.tally("static-checks").record(False, "(one-shot)", repr(exc))

    for trial in range(trials):
        trial_seed = (seed ^ trial) & (2**63 - 1)
        rng = np.random.default_rng(trial_seed)
        dim = int(rng.integers(2, max(dim_max, 2) + 1))
        rank = int(rng.integers(1, dim))
        nu = float(10.0 ** rng.uniform(-2.0, 1.0))
        context = f"(seed={trial_seed}, dim={dim})"
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
            report.tally("trial-completed").record(False, context, repr(exc))
        else:
            report.tally("trial-completed").record(True, context)
    return report
