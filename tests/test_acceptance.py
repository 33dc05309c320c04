"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

The heavy criteria share a single pass over 500 seeded random idempotents
with dimensions up to 16 and off-diagonal norms spanning [1e-2, 1e2]
(endpoints included), collecting worst-case residuals per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import numpy as np
import pytest

from matchedproj import (
    abs_value,
    adjoint,
    all_passed,
    as_idempotent,
    canonical_idempotent,
    closed_form_p0,
    convergence_report,
    grid_minimize,
    homotopy_path,
    homotopy_witness,
    homotopy_witness_block,
    matched_projection,
    matched_projection_closed_form,
    matched_via_factor,
    offdiag_distance,
    operator_norm,
    qpp_checks,
    qpp_symmetry_closure,
    random_idempotent,
    random_projection,
    random_qpp_pair,
    range_projection,
    null_projection,
)
from matchedproj.battery import run_battery
from matchedproj.cli import main
from matchedproj.matched import _qpp_matrices

RT2 = np.sqrt(2.0)
TRIALS = 500
MASTER_SEED = 20240817


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def stress():
    """One pass over the 500 shared inputs, collecting worst residuals."""
    rng = np.random.default_rng(MASTER_SEED)
    worst = {
        "closed_form": 0.0,
        "routes": 0.0,
        "structural": 0.0,
        "qpp_residual_margin": 0.0,
        "qpp_closure_failures": 0,
        "qpp_equivalence_disagreements": 0,
        "witness_contraction": 0.0,
        "witness_reconstruction": 0.0,
        "path_defect": 0.0,
        "sandwich": 0.0,
        "chain": 0.0,
        "projection_bound": 0.0,
    }

    for trial in range(TRIALS):
        dim = int(rng.integers(2, 17))
        rank = int(rng.integers(1, dim))
        if trial == 0:
            nu = 1e-2
        elif trial == 1:
            nu = 1e2
        else:
            nu = float(10.0 ** rng.uniform(-2.0, 2.0))
        q = random_idempotent(dim, rank, nu, int(rng.integers(2**32)))
        qm = q.matrix
        eye = np.eye(dim)
        norm_q = operator_norm(qm)

        pair = matched_projection(q)
        m = pair.projection.matrix

        # criterion 2: closed-form distance
        gap = abs(operator_norm(m - qm) - offdiag_distance(q.offdiag_norm)) / (1.0 + norm_q)
        worst["closed_form"] = max(worst["closed_form"], gap)

        # criterion 3: route agreement
        tt, vv = matched_via_factor(q)
        block = homotopy_witness_block(q).projection.matrix
        routes = [m, tt, vv, matched_projection_closed_form(q), block]
        agree = max(
            operator_norm(routes[i] - routes[j])
            for i in range(len(routes))
            for j in range(i + 1, len(routes))
        )
        worst["routes"] = max(worst["routes"], agree)

        # criterion 4: structural identities
        m_star = matched_projection(as_idempotent(adjoint(qm))).projection.matrix
        m_comp = matched_projection(as_idempotent(eye - qm)).projection.matrix
        reflect = 2.0 * m - eye
        structural = max(
            operator_norm(m_star - m),
            operator_norm(m_comp - (eye - m)),
            operator_norm(reflect @ qm - q.abs_q),
            operator_norm(
                reflect @ (2.0 * qm - eye) - (q.abs_q + abs_value(eye - qm))
            ),
            operator_norm(q.abs_q_star @ q.abs_q - qm),
        )
        worst["structural"] = max(worst["structural"], structural)

        # criterion 5: quasi-projection-pair suite
        checks = list(qpp_checks(pair.projection, q))
        residuals = [operator_norm(mat) for _, mat in _qpp_matrices(pair.projection, q)]
        margin = max(residuals) - checks[0].tolerance
        worst["qpp_residual_margin"] = max(worst["qpp_residual_margin"], margin)
        if not qpp_symmetry_closure(pair.projection, q):
            worst["qpp_closure_failures"] += 1
        partners = [
            checks,
            list(qpp_checks(range_projection(q), q)),
            list(qpp_checks(
                random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32))),
                q,
            )),
        ]
        for c in partners:
            if not (all_passed(c[:3]) == c[3].passed == c[4].passed):
                worst["qpp_equivalence_disagreements"] += 1

        # criterion 6: homotopy
        wit = homotopy_witness(q)
        worst["witness_contraction"] = max(
            worst["witness_contraction"], wit.contraction_norm
        )
        recon = np.linalg.inv(wit.w) @ wit.projection.matrix @ wit.w
        worst["witness_reconstruction"] = max(
            worst["witness_reconstruction"], operator_norm(recon - qm)
        )
        path = homotopy_path(q, 11)
        worst["path_defect"] = max(worst["path_defect"], max(s.defect for s in path))

        # criterion 7: sandwich, chain, and arbitrary projections
        d_matched = operator_norm(m - qm)
        d_range = operator_norm(range_projection(q).matrix - qm)
        d_null = operator_norm(null_projection(q).matrix - qm)
        norm_comp = operator_norm(eye - qm)
        worst["sandwich"] = max(
            worst["sandwich"],
            0.5 * d_range - d_matched,
            d_matched - d_range,
        )
        worst["chain"] = max(
            worst["chain"],
            d_matched - norm_q,
            abs(norm_q - norm_comp),
            norm_q - d_null,
        )
        # 20 projections, drawn as one stack and measured by two stacked norms
        draws = [(int(rng.integers(0, dim + 1)), int(rng.integers(2**32))) for _ in range(20)]
        stack = np.stack([p.matrix for p in random_projection(dim, *zip(*draws))])
        bound_gap = operator_norm(stack - m) - operator_norm(stack - qm)
        worst["projection_bound"] = max(worst["projection_bound"], float(bound_gap.max()))

    return worst


class TestCriterion1:
    def test_closed_form_and_grid(self):
        pair = matched_projection(canonical_idempotent(1.0))
        expect = np.array([[RT2 + 1.0, 1.0], [1.0, RT2 - 1.0]]) / (2.0 * RT2)
        entry_gap = np.abs(pair.projection.matrix - expect).max()

        gm = grid_minimize(1.0, 2048)
        t0 = closed_form_p0(1.0).t0
        step_t = np.pi / 2047
        step_x = 2.0 / 2047
        t_gap = min(abs(gm.argmin_t - t0), abs(np.pi - gm.argmin_t - t0))
        ok = (
            entry_gap <= 1e-12
            and abs(gm.min_value - 0.5) <= 5e-3
            and abs(gm.argmin_x - 1.0) <= step_x
            and t_gap <= step_t
        )
        report(
            1,
            "2x2 closed form matches the grid oracle",
            ok,
            f"entry gap {entry_gap:.2e}, grid min {gm.min_value:.6f}",
        )


class TestCriterion2:
    def test_closed_form_distance(self, stress):
        report(
            2,
            "closed-form distance on 500 random idempotents",
            stress["closed_form"] <= 1e-8,
            f"worst relative gap {stress['closed_form']:.2e}",
        )


class TestCriterion3:
    def test_route_agreement(self, stress):
        report(
            3,
            "closed formula, factorization, and block routes agree",
            stress["routes"] <= 1e-9,
            f"worst pairwise gap {stress['routes']:.2e}",
        )


class TestCriterion4:
    def test_structural_identities(self, stress):
        report(
            4,
            "adjoint/complement/reflection/absolute-value identities",
            stress["structural"] <= 1e-9,
            f"worst residual {stress['structural']:.2e}",
        )


class TestCriterion5:
    def test_quasi_projection_pair_suite(self, stress):
        ok = (
            stress["qpp_residual_margin"] <= 0.0
            and stress["qpp_closure_failures"] == 0
            and stress["qpp_equivalence_disagreements"] == 0
        )
        report(
            5,
            "matched pair passes all residuals, closure, and equivalences",
            ok,
            f"margin {stress['qpp_residual_margin']:.2e}, "
            f"closure fails {stress['qpp_closure_failures']}, "
            f"disagreements {stress['qpp_equivalence_disagreements']}",
        )


class TestCriterion6:
    def test_homotopy(self, stress):
        ok = (
            stress["witness_contraction"] < 1.0
            and stress["witness_reconstruction"] <= 1e-9
            and stress["path_defect"] <= 1e-9
        )
        report(
            6,
            "similarity witness and 11-sample homotopy path",
            ok,
            f"contraction {stress['witness_contraction']:.6f}, "
            f"reconstruction {stress['witness_reconstruction']:.2e}, "
            f"path defect {stress['path_defect']:.2e}",
        )


class TestCriterion7:
    def test_norm_inequalities(self, stress):
        ok = (
            stress["sandwich"] <= 1e-9
            and stress["chain"] <= 1e-9
            and stress["projection_bound"] <= 1e-9
        )
        report(
            7,
            "sandwich, chain, and arbitrary-projection bounds",
            ok,
            f"sandwich {stress['sandwich']:.2e}, chain {stress['chain']:.2e}, "
            f"projection {stress['projection_bound']:.2e}",
        )


class TestCriterion8:
    def test_optimal_constant_asymptotics(self):
        ratios = {}
        for mod in (1e-3, 1e3):
            q = canonical_idempotent(mod)
            m = matched_projection(q).projection.matrix
            ratios[mod] = operator_norm(m - q.matrix) / operator_norm(
                range_projection(q).matrix - q.matrix
            )
        ok = abs(ratios[1e-3] - 0.5) <= 1e-2 and abs(ratios[1e3] - 1.0) <= 1e-2
        report(
            8,
            "distance ratio tends to 1/2 and 1 at the extremes",
            ok,
            f"ratio(1e-3) = {ratios[1e-3]:.6f}, ratio(1e3) = {ratios[1e3]:.6f}",
        )


class TestCriterion9:
    def test_small_distance_rigidity(self):
        rng = np.random.default_rng(MASTER_SEED + 9)
        survivors = 0
        worst_gap = 0.0
        worst_norm = 0.0
        attempts = 0
        while survivors < 100 and attempts < 3000:
            attempts += 1
            dim = int(rng.integers(2, 9))
            p, q = random_qpp_pair(dim, int(rng.integers(2**32)))
            if operator_norm(p.matrix - q.matrix) >= 1.0 - 1e-6:
                continue
            survivors += 1
            m = matched_projection(q).projection.matrix
            worst_gap = max(worst_gap, operator_norm(p.matrix - m))
            worst_norm = max(worst_norm, operator_norm(q.matrix))
        ok = (
            survivors == 100
            and worst_gap <= 1e-9
            and worst_norm < 5.0 / 3.0 + 1e-9
        )
        report(
            9,
            "near pairs force the matched projection and norm below 5/3",
            ok,
            f"{survivors} pairs, worst gap {worst_gap:.2e}, worst norm {worst_norm:.6f}",
        )


class TestCriterion10:
    def test_convergence_tables(self):
        rng = np.random.default_rng(MASTER_SEED + 10)
        worst_tail = 0.0
        worst_floor = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            q1 = random_idempotent(
                dim, int(rng.integers(1, dim)), float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            q2 = random_idempotent(
                dim, int(rng.integers(1, dim)), float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            # the residuals are |beta[-1] - target| and max(0, target - grid minimum)
            checks = {c.name: c for c in convergence_report(q1, q2)}
            worst_tail = max(worst_tail, checks["beta_tail_near_target"].residual)
            worst_floor = max(worst_floor, checks["grid_bounds_target_below"].residual)
        ok = worst_tail <= 1e-2 and worst_floor <= 1e-9
        report(
            10,
            "exponent tables converge to the matched-projection distance",
            ok,
            f"worst tail {worst_tail:.2e}, worst floor violation {worst_floor:.2e}",
        )


class TestCriterion11:
    def test_sabotage_self_test(self):
        battery = run_battery(dim_max=4, trials=2, seed=1, sabotage=True)
        cli_exit = main(
            ["verify", "--dim-max", "4", "--trials", "2", "--seed", "1", "--sabotage"]
        )
        ok = (not battery.all_passed) and cli_exit == 1
        report(
            11,
            "sign-flip sabotage trips the verification harness",
            ok,
            f"battery failed as expected, cli exit {cli_exit}",
        )
