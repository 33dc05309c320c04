"""Tests for the norm identities, bounds, convergence checks and the distances Q keeps."""

import numpy as np
import pytest

from matchedproj import (
    Projection,
    Tolerances,
    ValidationError,
    adjoint,
    all_passed,
    as_idempotent,
    as_projection,
    canonical_idempotent,
    complement_of,
    convergence_report,
    distance_report,
    failures,
    halmos_projection,
    identity,
    is_quasi_projection_pair,
    kkm_distance,
    matched_distance,
    matched_lipschitz_bounds,
    matched_projection,
    null_distance,
    null_projection,
    offdiag_distance,
    operator_norm,
    psd_power,
    qpp_minimality,
    random_idempotent,
    random_projection,
    random_qpp_pair,
    range_distance,
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


def assert_equality_holds(check, p1):
    """``kkm_distance``'s check passes, its residual below 1e-14 at the gate ``p1.tol.check``."""
    assert check.name == "projection_distance_equality"
    assert check.passed and check.residual <= 1e-14
    assert check.tolerance == p1.tol.check


class TestKkmDistance:
    def test_equal_projections(self):
        p = random_projection(4, 2, 5)
        assert_equality_holds(kkm_distance(p, p), p)

    def test_orthogonal_rank_one(self):
        p1 = as_projection(np.diag([1.0, 0.0]))
        p2 = as_projection(np.diag([0.0, 1.0]))
        assert_equality_holds(kkm_distance(p1, p2), p1)
        assert operator_norm(p1.matrix - p2.matrix) == pytest.approx(1.0, abs=1e-14)

    def test_halmos_quarter_turn(self):
        p1 = as_projection(np.diag([1.0, 0.0]))
        p2 = halmos_projection(1.0, np.pi / 4, 0.0)
        assert_equality_holds(kkm_distance(p1, p2), p1)
        assert operator_norm(p1.matrix - p2.matrix) == pytest.approx(RT2 / 2.0, abs=1e-12)

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            p1 = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)))
            p2 = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)))
            assert_equality_holds(kkm_distance(p1, p2), p1)

    def test_uncertified_idempotents_break_the_equality(self):
        # two non-Hermitian idempotents: both products have norm sqrt 2, their difference 1
        p1 = Projection(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        p2 = Projection(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))
        check = kkm_distance(p1, p2)
        assert not check.passed
        assert check.residual == pytest.approx(RT2 - 1.0, abs=1e-14)
        assert check.tolerance == p1.tol.check


class TestDistanceReport:
    def test_projection_input(self):
        p = random_projection(5, 2, 13)
        q = as_idempotent(p.matrix)
        checks = distance_report(q)
        assert matched_distance(q) <= 1e-12
        assert range_distance(q) <= 1e-12
        # the similarity V = (|Q| + |I - Q| + I)/2 and the defect operator
        # D = -m (I - Q) m - (I - m) Q (I - m), built as distance_report builds them
        eye, m = np.eye(5), matched_projection(q).projection.matrix
        v_sim = 0.5 * (q.abs_q + complement_of(q).abs_q + eye)
        d_op = -m @ (eye - q.matrix) @ m - (eye - m) @ q.matrix @ (eye - m)
        assert operator_norm(v_sim - eye) <= 1e-12
        assert operator_norm(d_op) <= 1e-12
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_canonical_frozen_values(self):
        q = canonical_idempotent(1.0)
        checks = distance_report(q)
        assert q.norm == pytest.approx(RT2, abs=1e-14)
        assert matched_distance(q) == pytest.approx(RT2 / 2.0, abs=1e-12)
        assert offdiag_distance(q.offdiag_norm) == pytest.approx(RT2 / 2.0, abs=1e-14)
        assert range_distance(q) == pytest.approx(1.0, abs=1e-12)
        # P_N(Q) - Q = [[-1, -3], [-1, 1]] / 2, whose norm is the golden ratio
        assert null_distance(q) == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_canonical_sandwich_strict(self):
        q = canonical_idempotent(1.0)
        assert 0.5 * range_distance(q) < matched_distance(q) - 1e-3
        assert matched_distance(q) < range_distance(q) - 1e-3

    def test_eigenvalue_oracle_for_distance(self):
        # ||m(Q) - Q||^2 equals (b - 1)(b + a) / 2 on the canonical family
        for a in (0.3, 1.0, 2.5, 10.0):
            b = np.sqrt(1 + a * a)
            d_matched = matched_distance(canonical_idempotent(a))
            assert d_matched**2 == pytest.approx(0.5 * (b - 1) * (b + a), rel=1e-10)

    def test_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            checks = distance_report(random_stress_idempotent(rng))
            assert all_passed(checks), [c.name for c in failures(checks)]

    def test_distances_are_memoized_exact_norms(self, factorizations):
        # on a cold memo each distance is one exact 2-norm of P - Q, and a
        # second read takes none; Q's SVD and partners are built beforehand
        rng = np.random.default_rng(19)
        for _ in range(8):
            q = random_stress_idempotent(rng, dim_max=12)
            range_projection(q), null_projection(q)
            for distance, p in ((range_distance, range_projection(q)), (null_distance, null_projection(q))):
                factorizations.clear()
                d = distance(q)
                assert dict(factorizations) == {"svdvals": 1}
                assert distance(q) is d and dict(factorizations) == {"svdvals": 1}
                assert d.hex() == operator_norm(p.matrix - q.matrix).hex()

    def test_closed_forms_near_a_projection(self):
        # the closed forms read nu = ||Y||; taken from ||Q|| they missed their
        # gate by up to 180x at ||A|| = 1e-10 and on every identity with n >= 8
        for q in envelope_inputs((0.0, 1e-10, 1e-8, 1e-6, 1e-4), dims=(2, 8, 16)):
            checks = {c.name: c for c in distance_report(q)}
            for name in ("closed_form_agreement", "range_gap_closed_form"):
                assert checks[name].passed, (q.dim, q.rank, checks[name])

    def test_sandwich_decided_near_a_projection(self):
        # the sandwich's lower gap, about nu^2 / 4, is below every gate from
        # nu = 1e-8 down, so a verdict on whether it was within the gate
        # called such a Q a projection and failed the check
        for q in envelope_inputs((0.0, 1e-10, 1e-8, 1e-6, 1e-4), dims=(2, 8, 16)):
            sandwich = {c.name: c for c in distance_report(q)}["sandwich_equality_iff_projection"]
            assert sandwich.passed, (q.dim, q.rank, sandwich)

    @pytest.mark.parametrize("nu", [0.0, 1e-8, 2.0])
    def test_sandwich_fails_off_its_closed_forms(self, monkeypatch, nu):
        # ||m(Q) - Q|| moved 1e-6 off its closed form opens gaps that the
        # closed forms in nu do not have, on a projection (nu = 0) as elsewhere
        exact = norms.matched_distance
        monkeypatch.setattr(norms, "matched_distance", lambda q: exact(q) + 1e-6)
        checks = {c.name: c for c in distance_report(random_idempotent(8, 3, nu, 5))}
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
                except ValidationError:
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
            q = as_idempotent(mat)
            checks = distance_report(q)
            assert matched_distance(q) <= 1e-13
            assert all_passed(checks), [c.name for c in failures(checks)]


class TestLipschitzBounds:
    def test_identical_inputs(self):
        q = canonical_idempotent(1.0)
        assert all_passed(matched_lipschitz_bounds(q, q))

    def test_projection_first_argument_zeroes_alpha(self, monkeypatch):
        p = random_projection(4, 2, 19)
        q1 = as_idempotent(p.matrix)
        q2 = random_idempotent(4, 2, 1.0, 21)
        checks = matched_lipschitz_bounds(q1, q2)
        assert all_passed(checks), [c.name for c in failures(checks)]

        # lift ||m(Q1) - m(Q2)|| to 2 ||Q1 - Q2||, so the scaled-gap residual
        # is lhs - ||Q1 - Q2|| / (1 - alpha) > 0 and reads alpha
        stacked, norms_seen = norms.operator_norm, []

        def lifted(m):
            out = stacked(m)
            out[0] = 2.0 * out[2]
            norms_seen.append(out)
            return out

        monkeypatch.setattr(norms, "operator_norm", lifted)
        lifted_checks = {c.name: c for c in matched_lipschitz_bounds(q1, q2)}
        (norms_of_stack,) = norms_seen
        lhs, alpha, gap = norms_of_stack[:3].tolist()
        # m(Q1) = Q1, so alpha = ||(1 - Q1) Q1 (1 - Q1)|| is rounding and the
        # scaled bound is ||Q1 - Q2|| to within it
        assert alpha <= 4.0 * EPS
        assert gap == pytest.approx(operator_norm(q1.matrix - q2.matrix), rel=1e-15)
        residual = lifted_checks["bounded_by_scaled_gap"].residual
        assert residual.hex() == (lhs - gap / (1.0 - alpha)).hex()
        assert residual == pytest.approx(gap, rel=8.0 * EPS)

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            dim = int(rng.integers(2, 8))
            q1 = random_idempotent(dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32)))
            q2 = random_idempotent(dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32)))
            checks = matched_lipschitz_bounds(q1, q2)
            assert all_passed(checks), [c.name for c in failures(checks)]


class TestConvergenceReport:
    def test_equal_projections(self):
        p = random_projection(4, 2, 29)
        q = as_idempotent(p.matrix)
        checks = {c.name: c for c in convergence_report(q, q)}
        # the target is 0, so the tail residual is the last beta itself
        assert checks["beta_tail_near_target"].residual <= 1e-10
        assert all_passed(checks.values())

    def test_canonical_pair_beta_drops_to_zero(self):
        q = canonical_idempotent(1.0)
        checks = convergence_report(q, q)
        assert {c.name: c for c in checks}["beta_tail_near_target"].residual <= 3e-3
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            dim = int(rng.integers(2, 8))
            q1 = random_idempotent(dim, int(rng.integers(1, dim)), 2.0, int(rng.integers(2**32)))
            q2 = random_idempotent(dim, int(rng.integers(1, dim)), 2.0, int(rng.integers(2**32)))
            checks = convergence_report(q1, q2)
            assert all_passed(checks), [c.name for c in failures(checks)]
            assert {c.name: c for c in checks}["grid_bounds_target_below"].residual <= 1e-10

    def test_checks_equal_per_slice_norms(self):
        # a stacked SVD runs the same LAPACK call on each slice as operator_norm
        rng = np.random.default_rng(37)
        roots = [1.0 / n for n in EXPONENT_GRID]
        for _ in range(60):
            q1 = random_stress_idempotent(rng, dim_max=12)
            q2 = random_idempotent(
                q1.dim, int(rng.integers(1, q1.dim)), float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            m1 = matched_projection(q1).projection.matrix
            m2 = matched_projection(q2).projection.matrix
            pow1 = psd_power(require_hermitian(m1 @ q1.matrix @ m1), roots)
            pow2 = psd_power(require_hermitian(m2 @ q2.matrix @ m2), roots)
            alpha = [operator_norm(a - b) for a in pow1 for b in pow2]
            beta = [operator_norm(a - m2) for a in pow1]
            gamma = [operator_norm(m1 - b) for b in pow2]
            target = operator_norm(m1 - m2)
            expected = [
                ("grid_bounds_target_below", max(0.0, target - min(alpha + beta + gamma)), q1.tol.check),
                ("beta_tail_near_target", abs(beta[-1] - target), q1.tol.limit),
                ("beta_nonincreasing", max([0.0, *np.diff(beta)]), q1.tol.check),
            ]
            got = [(c.name, c.residual, c.tolerance) for c in convergence_report(q1, q2)]
            assert [(n, float(r).hex(), t) for n, r, t in got] == [(n, float(r).hex(), t) for n, r, t in expected]


class TestTwoProjectionConstruction:
    @staticmethod
    def construction(p1, p2, monkeypatch):
        """(Q1, Q2, checks): the two idempotents as the construction certifies them, and its checks."""
        built = []

        def spy(m, tol):
            built.append(as_idempotent(m, tol))
            return built[-1]

        monkeypatch.setattr(norms, "as_idempotent", spy)
        checks = two_projection_construction(p1, p2)
        q1, q2 = built
        return q1, q2, checks

    def test_zero_first_projection(self, monkeypatch):
        p1 = as_projection(np.zeros((3, 3)))
        p2 = random_projection(3, 1, 37)
        q1, q2, checks = self.construction(p1, p2, monkeypatch)
        assert operator_norm(q1.matrix) <= 1e-14
        assert operator_norm(q2.matrix - p2.matrix) <= 1e-12
        assert checks and all_passed(checks)

    def test_orthogonal_ranges_dim_three(self, monkeypatch):
        p1 = as_projection(np.diag([1.0, 0.0, 0.0]))
        v = np.array([[0.0], [1.0], [1.0]]) / RT2
        p2 = as_projection(v @ v.T)
        assert operator_norm(p1.matrix @ p2.matrix) <= 1e-14
        q1, q2, checks = self.construction(p1, p2, monkeypatch)
        np.testing.assert_allclose(q1.matrix, p1.matrix, atol=1e-13)
        np.testing.assert_allclose(q2.matrix, p2.matrix, atol=1e-13)
        assert operator_norm(q1.matrix - q2.matrix) == pytest.approx(1.0, abs=1e-12)
        assert [c.name for c in checks] == ["matched_gap_bounded_by_gap", "gap_at_least_one"]
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_overlapping_ranges_rejected(self):
        # ||P P|| = 1: outside the hypothesis, so no records
        p = random_projection(4, 2, 41)
        assert two_projection_construction(p, p) == []

    def test_margin_is_fixed_at_every_tolerance(self):
        # ||P1 P2|| = cos(theta): the hypothesis is ||P1 P2|| <= 0.999 at the
        # default tolerance and at the looser one alike
        for tol in (Tolerances(), Tolerances(check=1e-6)):
            for cos, applies in ((0.9995, False), (0.998, True)):
                theta = np.arccos(cos)
                v = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
                p1, p2 = as_projection(np.diag([1.0, 0.0, 0.0]), tol), as_projection(v @ v.T, tol)
                checks = two_projection_construction(p1, p2)
                assert bool(checks) == applies, (tol, cos)
                assert all_passed(checks), (tol, cos, [c.name for c in failures(checks)])

    def test_random_applicable_pairs(self):
        # at this seed every pair is within the hypothesis, so all 40 get records
        rng = np.random.default_rng(43)
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            p1 = random_projection(dim, int(rng.integers(0, dim // 2 + 1)), int(rng.integers(2**32)))
            p2 = random_projection(dim, int(rng.integers(0, dim // 2 + 1)), int(rng.integers(2**32)))
            checks = two_projection_construction(p1, p2)
            assert checks and all_passed(checks), [c.name for c in failures(checks)]


class TestQppMinimality:
    def test_matched_pair_detected_as_equality_case(self):
        q = canonical_idempotent(1.0)
        pair = matched_projection(q)
        assert is_quasi_projection_pair(pair.projection, q)
        checks = qpp_minimality(pair.projection, q)
        names = {c.name: c for c in checks}
        assert names["dominance_equality_iff_matched"].passed
        assert names["small_distance_forces_matched"].passed
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_range_partner_two_times_bound(self):
        # P_R(Q) is no partner of Q, so only the factor-2 record applies to it
        q = canonical_idempotent(1.0)
        p = range_projection(q)
        assert not is_quasi_projection_pair(p, q)
        assert matched_distance(q) == pytest.approx(RT2 / 2.0, abs=1e-12)
        assert operator_norm(p.matrix - q.matrix) == pytest.approx(1.0, abs=1e-12)
        twice = qpp_minimality(p, q)[0]
        assert twice.name == "matched_within_twice_candidate"
        assert twice.residual == 0.0 and twice.passed

    def test_null_partner(self):
        q = canonical_idempotent(1.0)
        twice = qpp_minimality(null_projection(q), q)[0]
        assert twice.name == "matched_within_twice_candidate"
        assert twice.residual == 0.0 and twice.passed

    def test_generated_qpp_pairs(self):
        for seed in range(40):
            p, q = random_qpp_pair(6, seed)
            assert is_quasi_projection_pair(p, q)
            checks = qpp_minimality(p, q)
            assert all_passed(checks), [c.name for c in failures(checks)]

    def test_any_projection_twice_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            dim = int(rng.integers(2, 8))
            q = random_stress_idempotent(rng, dim_max=dim)
            p = random_projection(q.dim, int(rng.integers(0, q.dim + 1)), int(rng.integers(2**32)))
            twice = qpp_minimality(p, q)[0]
            assert twice.name == "matched_within_twice_candidate"
            assert twice.passed, twice

    def test_candidate_distance_is_the_exact_norm(self):
        # random candidates and Q's three distinguished partners: the
        # factor-2 residual is built from the 2-D operator_norm of P - Q,
        # bit for bit
        rng = np.random.default_rng(59)
        for _ in range(8):
            q = random_stress_idempotent(rng, dim_max=12)
            p = random_projection(q.dim, int(rng.integers(0, q.dim + 1)), int(rng.integers(2**32)))
            for c in (p, matched_projection(q).projection, range_projection(q), null_projection(q)):
                want = max(0.0, matched_distance(q) - 2.0 * operator_norm(c.matrix - q.matrix))
                assert qpp_minimality(c, q)[0].residual.hex() == want.hex()

    def test_conclusions_are_listed_for_any_projection(self):
        # for [[1, 1], [0, 0]] P_R(Q) is no partner, and the theorem's
        # dominance fails for it; m(Q), the partner, passes every record
        q = canonical_idempotent(1.0)
        full = [
            "matched_within_twice_candidate", "psd_dominance_left", "psd_dominance_right",
            "matched_within_candidate", "dominance_equality_iff_matched",
        ]
        p = range_projection(q)
        checks = {c.name: c for c in qpp_minimality(p, q)}
        assert list(checks) == full
        assert not checks["psd_dominance_left"].passed
        assert checks["matched_within_twice_candidate"].passed
        m = matched_projection(q).projection
        checks = qpp_minimality(m, q)
        assert [c.name for c in checks] == full + ["small_distance_forces_matched", "small_distance_bounds_norm"]
        assert all_passed(checks), [c.name for c in failures(checks)]


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
