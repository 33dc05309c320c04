"""Tests for the norm identities, bounds, and convergence tables."""

import numpy as np
import pytest

from matchedproj import (
    HalmosPoint,
    InapplicableHypothesisError,
    NotHermitianError,
    adjoint,
    all_passed,
    as_idempotent,
    as_projection,
    canonical_idempotent,
    convergence_report,
    distance_report,
    failures,
    halmos_projection,
    identity,
    kkm_distance,
    matched_lipschitz_bounds,
    matched_projection,
    null_projection,
    offdiag_distance,
    operator_norm,
    psd_power,
    qpp_minimality,
    random_idempotent,
    random_projection,
    random_qpp_pair,
    range_projection,
    two_projection_construction,
)
from matchedproj import norms
from matchedproj.linalg import EPS, hermitian_eigvals, require_hermitian
from matchedproj.matched import EXPONENT_GRID

from conftest import envelope_inputs

RT2 = np.sqrt(2.0)


def random_stress_idempotent(rng, dim_max=8, nu_range=(-2, 1)):
    dim = int(rng.integers(2, dim_max + 1))
    return random_idempotent(
        dim,
        int(rng.integers(1, dim)),
        float(10.0 ** rng.uniform(*nu_range)),
        int(rng.integers(2**32)),
    )


def hermitian_operands(q):
    """The operands whose norms ``distance_report`` reads from eigenvalues, built as it builds them.

    D, -m (I - Q) m, -(I - m) Q (I - m), X = (m - Q)(m - Q)*, Y = (m - Q)*(m - Q)
    and X + Y, for m = m(Q).
    """
    qm, eye = q.matrix, identity(q.dim)
    m = matched_projection(q).projection.matrix
    cross_range = m @ (eye - qm) @ m
    cross_null = (eye - m) @ qm @ (eye - m)
    diff = m - qm
    x_op, y_op = diff @ adjoint(diff), adjoint(diff) @ diff
    return -cross_range - cross_null, -cross_range, -cross_null, x_op, y_op, x_op + y_op


def norm_form_distance(norm_q):
    """The paper's ||m(Q) - Q|| = (||Q|| - 1 + sqrt(||Q||^2 - 1)) / 2; 0 for ||Q|| <= 1 (Q = 0)."""
    norm_q = max(norm_q, 1.0)
    return 0.5 * (norm_q - 1.0 + np.sqrt(norm_q**2 - 1.0))


class TestClosedFormDistance:
    # the ||Q|| form at ||Q|| = sqrt(1 + nu^2) against offdiag_distance(nu)
    def test_zero_for_projections(self):
        assert norm_form_distance(0.0) == 0.0
        assert norm_form_distance(1.0) == offdiag_distance(0.0) == 0.0

    def test_canonical_value(self):
        assert norm_form_distance(RT2) == pytest.approx(RT2 / 2.0, abs=1e-15)
        assert offdiag_distance(1.0) == pytest.approx(norm_form_distance(RT2), abs=1e-15)


class TestOffdiagDistance:
    def test_values(self):
        assert offdiag_distance(0.0) == 0.0
        assert offdiag_distance(1.0) == pytest.approx(RT2 / 2.0, abs=1e-15)

    def test_is_the_norm_closed_form(self):
        for nu in (1e-2, 0.5, 3.0, 1e3):
            expect = norm_form_distance(np.hypot(1.0, nu))
            assert offdiag_distance(nu) == pytest.approx(expect, rel=1e-12)

    def test_no_cancellation_near_a_projection(self):
        # from ||Q|| = hypot(1, nu) the closed form loses every digit below ~1e-8
        for nu in (1e-10, 1e-8, 1e-6):
            assert offdiag_distance(nu) == pytest.approx(0.5 * nu, rel=1e-5)


class TestKkmDistance:
    def test_equal_projections(self):
        p = random_projection(4, 2, 5)
        assert kkm_distance(p, p) <= 1e-14

    def test_orthogonal_rank_one(self):
        p1 = as_projection(np.diag([1.0, 0.0]))
        p2 = as_projection(np.diag([0.0, 1.0]))
        assert kkm_distance(p1, p2) == pytest.approx(1.0, abs=1e-14)

    def test_halmos_quarter_turn(self):
        p1 = as_projection(np.diag([1.0, 0.0]))
        p2 = halmos_projection(HalmosPoint(z=1.0 + 0j, t=np.pi / 4), 0.0)
        d = kkm_distance(p1, p2)
        assert d == pytest.approx(RT2 / 2.0, abs=1e-12)
        assert d == pytest.approx(operator_norm(p1.matrix - p2.matrix), abs=1e-12)

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            p1 = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)))
            p2 = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)))
            d = kkm_distance(p1, p2)
            assert d == pytest.approx(operator_norm(p1.matrix - p2.matrix), abs=1e-12)


class TestDistanceReport:
    def test_projection_input(self):
        p = random_projection(5, 2, 13)
        rep = distance_report(as_idempotent(p.matrix))
        assert rep.d_matched <= 1e-12
        assert rep.d_range <= 1e-12
        assert operator_norm(rep.v_sim - np.eye(5)) <= 1e-12
        assert operator_norm(rep.d_op) <= 1e-12
        assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_canonical_frozen_values(self):
        rep = distance_report(canonical_idempotent(1.0))
        assert rep.norm_q == pytest.approx(RT2, abs=1e-14)
        assert rep.d_matched == pytest.approx(RT2 / 2.0, abs=1e-12)
        assert rep.d_matched_closed == pytest.approx(RT2 / 2.0, abs=1e-14)
        assert rep.d_range == pytest.approx(1.0, abs=1e-12)
        assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_canonical_sandwich_strict(self):
        rep = distance_report(canonical_idempotent(1.0))
        assert 0.5 * rep.d_range < rep.d_matched - 1e-3
        assert rep.d_matched < rep.d_range - 1e-3

    def test_eigenvalue_oracle_for_distance(self):
        # ||m(Q) - Q||^2 equals (b - 1)(b + a) / 2 on the canonical family
        for a in (0.3, 1.0, 2.5, 10.0):
            rep = distance_report(canonical_idempotent(a))
            b = np.sqrt(1 + a * a)
            assert rep.d_matched**2 == pytest.approx(0.5 * (b - 1) * (b + a), rel=1e-10)

    def test_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            rep = distance_report(random_stress_idempotent(rng))
            assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_closed_forms_near_a_projection(self):
        # the closed forms read nu = ||Y||; taken from ||Q|| they missed their
        # gate by up to 180x at ||A|| = 1e-10 and on every identity with n >= 8
        for q in envelope_inputs((0.0, 1e-10, 1e-8, 1e-6, 1e-4), dims=(2, 8, 16)):
            checks = {c.name: c for c in distance_report(q).checks}
            for name in ("closed_form_agreement", "range_gap_closed_form"):
                assert checks[name].passed, (q.dim, q.rank, checks[name])

    def test_sandwich_decided_near_a_projection(self):
        # the sandwich's lower gap, about nu^2 / 4, is below every gate from
        # nu = 1e-8 down, so a verdict on whether it was within the gate
        # called such a Q a projection and failed the check
        for q in envelope_inputs((0.0, 1e-10, 1e-8, 1e-6, 1e-4), dims=(2, 8, 16)):
            sandwich = {c.name: c for c in distance_report(q).checks}["sandwich_equality_iff_projection"]
            assert sandwich.passed, (q.dim, q.rank, sandwich)

    @pytest.mark.parametrize("nu", [0.0, 1e-8, 2.0])
    def test_sandwich_fails_off_its_closed_forms(self, monkeypatch, nu):
        # ||m(Q) - Q|| moved 1e-6 off its closed form opens gaps that the
        # closed forms in nu do not have, on a projection (nu = 0) as elsewhere
        exact = norms.matched_distance
        monkeypatch.setattr(norms, "matched_distance", lambda q: exact(q) + 1e-6)
        checks = {c.name: c for c in distance_report(random_idempotent(8, 3, nu, 5)).checks}
        sandwich = checks["sandwich_equality_iff_projection"]
        assert not sandwich.passed and sandwich.residual == pytest.approx(1e-6, rel=1e-6), sandwich

    def test_eigenvalue_norms_within_the_skew_part_and_rounding(self):
        """max |lambda| of ``hermitian_eigvals(M)`` is within ||M - M*|| / 2 + 4 n eps ||M|| of ||M||.

        M is each of ``hermitian_operands``.  With H = (M + M*) / 2 and
        K = (M - M*) / 2, ||H|| <= ||M|| <= ||H|| + ||K||, so the exact norms
        differ by at most ||K|| = ||M - M*|| / 2.  eigvalsh and the SVD are each
        backward stable, which 4 n eps ||M|| covers to first order, as the slack
        of ``norm_bounds`` does.  On these inputs the gap reaches more than
        half the bound, so the test fails with the bound halved.  An operand
        too far from Hermitian for ``require_hermitian`` is skipped:
        ``distance_report`` takes its exact norm.
        """
        worst = 0.0
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e4, 1e6), every_rank=True):
            for m in hermitian_operands(q):
                try:
                    w = hermitian_eigvals(m)
                except NotHermitianError:
                    continue
                exact = operator_norm(m)
                bound = 0.5 * operator_norm(m - adjoint(m)) + 4.0 * q.dim * EPS * exact
                gap = abs(float(np.abs(w).max()) - exact)
                assert gap <= bound, (q.dim, q.rank, q.offdiag_norm, gap, bound)
                if bound > 0.0:
                    worst = max(worst, gap / bound)
        assert worst > 0.5, worst

    def test_trivial_idempotents(self):
        for mat in (np.zeros((3, 3)), np.eye(3), np.eye(8)):
            rep = distance_report(as_idempotent(mat))
            assert rep.d_matched <= 1e-13
            assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]


class TestLipschitzBounds:
    def test_identical_inputs(self):
        q = canonical_idempotent(1.0)
        out = matched_lipschitz_bounds(q, q)
        assert out.lhs <= 1e-12
        assert all_passed(out.checks)

    def test_projection_first_argument_zeroes_alpha(self):
        p = random_projection(4, 2, 19)
        q1 = as_idempotent(p.matrix)
        q2 = random_idempotent(4, 2, 1.0, 21)
        out = matched_lipschitz_bounds(q1, q2)
        assert out.alpha <= 1e-12
        assert out.scaled_bound is not None
        # with alpha = 0 the scaled bound reduces to the plain gap
        assert out.scaled_bound == pytest.approx(
            operator_norm(q1.matrix - q2.matrix), rel=1e-9
        )
        assert all_passed(out.checks), [c.name for c in failures(out.checks)]

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            dim = int(rng.integers(2, 8))
            q1 = random_idempotent(dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32)))
            q2 = random_idempotent(dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32)))
            out = matched_lipschitz_bounds(q1, q2)
            assert all_passed(out.checks), [c.name for c in failures(out.checks)]


class TestConvergenceReport:
    def test_equal_projections(self):
        p = random_projection(4, 2, 29)
        q = as_idempotent(p.matrix)
        rep = convergence_report(q, q)
        assert rep.target <= 1e-12
        assert rep.alpha.max() <= 1e-10
        assert rep.beta.max() <= 1e-10

    def test_canonical_pair_beta_drops_to_zero(self):
        q = canonical_idempotent(1.0)
        rep = convergence_report(q, q)
        assert rep.target <= 1e-12
        assert rep.beta[0] > 0.1  # the compression is visibly above m(Q) at n = 1
        assert rep.beta[-1] <= 3e-3
        assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            dim = int(rng.integers(2, 8))
            q1 = random_idempotent(dim, int(rng.integers(1, dim)), 2.0, int(rng.integers(2**32)))
            q2 = random_idempotent(dim, int(rng.integers(1, dim)), 2.0, int(rng.integers(2**32)))
            rep = convergence_report(q1, q2)
            assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]
            assert rep.alpha.min() >= rep.target - 1e-10

    def test_tables_equal_per_slice_norms(self):
        # a stacked SVD runs the same LAPACK call on each slice as operator_norm
        rng = np.random.default_rng(37)
        roots = [1.0 / n for n in EXPONENT_GRID]
        for _ in range(60):
            q1 = random_stress_idempotent(rng, dim_max=12)
            q2 = random_idempotent(
                q1.dim, int(rng.integers(1, q1.dim)), float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            rep = convergence_report(q1, q2)
            m1 = matched_projection(q1).projection.matrix
            m2 = matched_projection(q2).projection.matrix
            pow1 = psd_power(require_hermitian(m1 @ q1.matrix @ m1), roots)
            pow2 = psd_power(require_hermitian(m2 @ q2.matrix @ m2), roots)
            np.testing.assert_array_equal(
                rep.alpha, [[operator_norm(a - b) for b in pow2] for a in pow1]
            )
            np.testing.assert_array_equal(rep.beta, [operator_norm(a - m2) for a in pow1])
            np.testing.assert_array_equal(rep.gamma, [operator_norm(m1 - b) for b in pow2])
            assert rep.target == operator_norm(m1 - m2)


class TestTwoProjectionConstruction:
    def test_zero_first_projection(self):
        p1 = as_projection(np.zeros((3, 3)))
        p2 = random_projection(3, 1, 37)
        q1, q2, checks = two_projection_construction(p1, p2)
        assert operator_norm(q1.matrix) <= 1e-14
        assert operator_norm(q2.matrix - p2.matrix) <= 1e-12
        assert all_passed(checks)

    def test_orthogonal_ranges_dim_three(self):
        p1 = as_projection(np.diag([1.0, 0.0, 0.0]))
        v = np.array([[0.0], [1.0], [1.0]]) / RT2
        p2 = as_projection(v @ v.T)
        assert operator_norm(p1.matrix @ p2.matrix) <= 1e-14
        q1, q2, checks = two_projection_construction(p1, p2)
        np.testing.assert_allclose(q1.matrix, p1.matrix, atol=1e-13)
        np.testing.assert_allclose(q2.matrix, p2.matrix, atol=1e-13)
        assert operator_norm(q1.matrix - q2.matrix) == pytest.approx(1.0, abs=1e-12)
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_overlapping_ranges_rejected(self):
        p = random_projection(4, 2, 41)
        with pytest.raises(InapplicableHypothesisError):
            two_projection_construction(p, p)

    def test_random_applicable_pairs(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 40:
            dim = int(rng.integers(2, 9))
            p1 = random_projection(dim, int(rng.integers(0, dim // 2 + 1)), int(rng.integers(2**32)))
            p2 = random_projection(dim, int(rng.integers(0, dim // 2 + 1)), int(rng.integers(2**32)))
            if operator_norm(p1.matrix @ p2.matrix) >= 0.999:
                continue
            _, _, checks = two_projection_construction(p1, p2)
            assert all_passed(checks), [c.name for c in failures(checks)]
            done += 1


class TestQppMinimality:
    def test_matched_pair_detected_as_equality_case(self):
        q = canonical_idempotent(1.0)
        pair = matched_projection(q)
        rep = qpp_minimality(pair.projection, q)
        assert rep.qpp_holds
        names = {c.name: c for c in rep.checks}
        assert names["dominance_equality_iff_matched"].passed
        assert names["small_distance_forces_matched"].passed
        assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_range_partner_two_times_bound(self):
        q = canonical_idempotent(1.0)
        rep = qpp_minimality(range_projection(q), q)
        assert not rep.qpp_holds
        assert rep.d_matched == pytest.approx(RT2 / 2.0, abs=1e-12)
        assert rep.d_candidate == pytest.approx(1.0, abs=1e-12)
        assert rep.d_matched <= 2.0 * rep.d_candidate + 1e-12
        assert all_passed(rep.checks)

    def test_null_partner(self):
        q = canonical_idempotent(1.0)
        rep = qpp_minimality(null_projection(q), q)
        assert rep.d_matched <= 2.0 * rep.d_candidate + 1e-12
        assert all_passed(rep.checks)

    def test_generated_qpp_pairs(self):
        for seed in range(40):
            p, q = random_qpp_pair(6, seed)
            rep = qpp_minimality(p, q)
            assert rep.qpp_holds
            assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_any_projection_twice_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            dim = int(rng.integers(2, 8))
            q = random_stress_idempotent(rng, dim_max=dim)
            p = random_projection(q.dim, int(rng.integers(0, q.dim + 1)), int(rng.integers(2**32)))
            rep = qpp_minimality(p, q)
            assert all_passed(rep.checks), [c.name for c in failures(rep.checks)]

    def test_no_candidates_give_no_reports(self):
        assert qpp_minimality([], random_idempotent(4, 2, 1.0, 5)) == []

    def test_stacked_reports_are_the_single_reports_bitwise(self):
        # random candidates with m(Q) and both range partners spliced in, so
        # the quasi-projection-pair branch runs; each ||P - Q|| is the 2-D norm
        rng = np.random.default_rng(59)
        for _ in range(8):
            q = random_stress_idempotent(rng, dim_max=12)
            ranks = [int(r) for r in rng.integers(0, q.dim + 1, size=12)]
            candidates = random_projection(q.dim, ranks, [int(s) for s in rng.integers(2**32, size=12)])
            candidates[3:3] = [matched_projection(q).projection, range_projection(q), null_projection(q)]
            reports = qpp_minimality(candidates, q)
            assert reports[3].qpp_holds
            for p, rep in zip(candidates, reports):
                single = qpp_minimality(p, q)
                assert rep.d_candidate.hex() == operator_norm(p.matrix - q.matrix).hex()
                assert (rep.d_matched, rep.d_candidate, rep.qpp_holds) == (
                    single.d_matched, single.d_candidate, single.qpp_holds
                )
                assert rep.checks == single.checks


class TestProjectionDistanceBound:
    def test_matched_is_closer_than_q_for_any_projection(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            q = random_stress_idempotent(rng)
            m = matched_projection(q).projection.matrix
            p = random_projection(q.dim, int(rng.integers(0, q.dim + 1)), int(rng.integers(2**32)))
            lhs = operator_norm(p.matrix - m)
            rhs = operator_norm(p.matrix - q.matrix)
            assert lhs <= rhs + 1e-9
