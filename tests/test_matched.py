"""Tests for the matched projection, its routes, and the pair predicates."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from matchedproj import (
    DEFAULT_TOL,
    Check,
    Idempotent,
    NotQuasiProjectionPairError,
    NotUnitaryError,
    Projection,
    Tolerances,
    ValidationError,
    abs_value,
    adjoint,
    adjoint_of,
    all_passed,
    as_idempotent,
    as_projection,
    block_form,
    closed_form_p0,
    complement_of,
    convergence_report,
    distance_report,
    factor_oracle,
    failures,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    homotopy_witness_block,
    identity,
    is_projection,
    is_quasi_projection_pair,
    koliha_projections,
    matched_distance,
    matched_lipschitz_bounds,
    matched_projection,
    matched_projection_closed_form,
    matched_via_factor,
    moore_penrose,
    norm_bracket,
    null_projection,
    numerical_rank,
    operator_norm,
    psd_power,
    qpp_checks,
    qpp_symmetry_closure,
    random_idempotent,
    random_projection,
    random_qpp_pair,
    random_unitary,
    range_identities,
    range_projection,
    unitary_equivariance,
)
from matchedproj import battery as battery_module
from matchedproj import matched as matched_module
from matchedproj import report as report_module
from matchedproj.battery import _characterizations_agree, run_battery, sabotaged

from conftest import envelope_inputs

RT2 = np.sqrt(2.0)
EPS = np.finfo(np.float64).eps
CANONICAL = [[1.0, 1.0], [0.0, 0.0]]
# nearest projection to the canonical idempotent, from the 2x2 closed form
MATCHED_CANONICAL = np.array([[RT2 + 1.0, 1.0], [1.0, RT2 - 1.0]]) / (2.0 * RT2)


def canonical():
    return as_idempotent(CANONICAL)


class TestMpInverseAbsQstar:
    def test_projection_fixed(self):
        p = random_projection(5, 2, 3)
        q = as_idempotent(p.matrix)
        assert operator_norm(factor_oracle(q).abs_q_star_pinv - p.matrix) <= 1e-12

    def test_canonical_frozen(self):
        # oracle: P_R(Q)) = diag(1, 0) and P_R(Q*) projects onto span{(1,1)},
        # so the triple product is diag(1/2, 0) and its square root follows
        v = np.array([[1.0], [1.0]]) / RT2
        triple = np.diag([1.0, 0.0]) @ (v @ v.T) @ np.diag([1.0, 0.0])
        np.testing.assert_allclose(triple, np.diag([0.5, 0.0]), atol=1e-15)
        out = factor_oracle(canonical()).abs_q_star_pinv
        np.testing.assert_allclose(out, np.diag([1.0 / RT2, 0.0]), atol=1e-13)

    def test_agrees_with_direct_pseudoinverse(self):
        for seed in range(25):
            q = random_idempotent(6, 3, 2.0, seed)
            direct = moore_penrose(abs_value(adjoint(q.matrix)))
            assert operator_norm(factor_oracle(q).abs_q_star_pinv - direct) <= 1e-10

    def test_contraction_200_trials(self):
        rng = np.random.default_rng(5150)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim,
                int(rng.integers(1, dim)),
                float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            assert operator_norm(factor_oracle(q).abs_q_star_pinv) <= 1.0 + 1e-10


class TestMatchedProjection:
    def test_projection_is_its_own_match(self):
        for seed in range(10):
            p = random_projection(5, 2, seed)
            q = as_idempotent(p.matrix)
            pair = matched_projection(q)
            assert operator_norm(pair.projection.matrix - p.matrix) <= 1e-12

    def test_canonical_frozen(self):
        pair = matched_projection(canonical())
        np.testing.assert_allclose(pair.projection.matrix, MATCHED_CANONICAL, atol=1e-13)

    def test_complement_rule_canonical(self):
        comp = as_idempotent(np.eye(2) - np.array(CANONICAL))
        pair = matched_projection(comp)
        np.testing.assert_allclose(
            pair.projection.matrix, np.eye(2) - MATCHED_CANONICAL, atol=1e-13
        )

    def test_adjoint_and_complement_rules_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim,
                int(rng.integers(1, dim)),
                float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            m = matched_projection(q).projection.matrix
            scale = 1e-10 * (1 + operator_norm(q.matrix))
            m_star = matched_projection(as_idempotent(adjoint(q.matrix))).projection.matrix
            assert operator_norm(m_star - m) <= scale
            m_comp = matched_projection(
                as_idempotent(np.eye(dim) - q.matrix)
            ).projection.matrix
            assert operator_norm(m_comp - (np.eye(dim) - m)) <= scale

    def test_invariant_residuals(self):
        for seed in range(15):
            q = random_idempotent(6, 2, 1.5, seed)
            pair = matched_projection(q)
            m = pair.projection.matrix
            tt, vv = matched_via_factor(q)
            reflection = list(qpp_checks(pair.projection, q))[3].residual
            assert operator_norm(m - tt) <= 1e-10
            assert operator_norm(m - vv) <= 1e-10
            assert reflection <= 1e-10 * (1 + operator_norm(q.matrix))

    def test_reflection_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim, int(rng.integers(1, dim)), 2.0, int(rng.integers(2**32))
            )
            pair = matched_projection(q)
            m, qm = pair.projection.matrix, q.matrix
            eye = np.eye(dim)
            scale = 1e-10 * (1 + operator_norm(qm))
            assert operator_norm((2 * m - eye) @ qm - q.abs_q) <= scale
            rhs = q.abs_q + abs_value(eye - qm)
            assert operator_norm((2 * m - eye) @ (2 * qm - eye) - rhs) <= scale
            assert operator_norm(q.abs_q_star @ q.abs_q - qm) <= scale
            assert operator_norm(q.abs_q @ q.abs_q_star - adjoint(qm)) <= scale
            sandwich = adjoint(qm) @ q.abs_q_star_pinv @ qm
            assert operator_norm(sandwich - q.abs_q) <= scale


def route_tolerance(q):
    # backward-stable routes differ by O(n eps ||Q||) in Q, and m is
    # Lipschitz in Q with a constant of order 1 + ||Q||
    return 16 * q.dim * EPS * (1.0 + operator_norm(q.matrix)) ** 2


class TestProductionRoute:
    def test_agrees_with_oracles(self):
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e2)):
            m = matched_projection(q).projection.matrix
            tt, _ = matched_via_factor(q)
            tol = route_tolerance(q)
            assert operator_norm(m - matched_projection_closed_form(q)) <= tol
            assert operator_norm(m - tt) <= tol

    def test_certified_at_large_offdiag_norm(self):
        # the closed formula fails projection validation from ||A|| ~ 1e3 up;
        # V_+ V_+* from the pencil is a projection to the orthonormality of
        # the computed eigenvectors, so its defect stays at round-off level
        # whatever ||Q||
        for q in envelope_inputs((1e3, 1e4, 1e6)):
            pair = matched_projection(q)
            assert isinstance(pair.projection, Projection)
            assert pair.projection.defect <= 16 * q.dim * EPS


    def test_every_production_check_holds_at_large_offdiag_norm(self):
        # the distance report, the matched pair's quasi-projection-pair
        # conditions, the range identities and the witness, at every rank of
        # n = 16 and 32 and ||A|| = 1e4 and 1e6; m(Q) from the SVD failed 3 of
        # these 100 inputs, and its witness raised on one
        for q in envelope_inputs((1e4, 1e6), dims=(16, 32), every_rank=True):
            checks = [
                *distance_report(q).checks,
                *qpp_checks(matched_projection(q).projection, q),
                *range_identities(q),
            ]
            assert all_passed(checks), (q.dim, q.rank, q.norm, [c.name for c in failures(checks)])
            homotopy_witness(q)


class TestWitnessRoute:
    def test_agrees_with_block_oracle(self):
        # for 2r > n the witness is built on I - Q's side, where the block
        # oracle of I - Q builds the same W: W (I - Q) W^(-1) = I - m(Q)
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e2, 1e3, 1e4, 1e5), every_rank=True):
            wit, block = homotopy_witness(q), homotopy_witness_block(q)
            side = homotopy_witness_block(complement_of(q)) if 2 * q.rank > q.dim else block
            tol = route_tolerance(q)
            assert operator_norm(wit.projection.matrix - block.projection.matrix) <= tol
            assert operator_norm(wit.w - side.w) <= tol

    def test_block_oracle_is_the_2x2_closed_form_per_angle(self):
        # in the oracle's basis x_i = U_1 g_i, y_i = U_2 h_i, from A = G S H*,
        # m(Q) is closed_form_p0(s_i) on each (x_i, y_i) and 1 on an unpaired x_i
        for q in envelope_inputs((1e-4, 1.0, 1e2, 1e4), dims=(2, 3, 8), every_rank=True):
            form = block_form(q.matrix, koliha_projections(q)[0])
            r = form.rank
            if r in (0, q.dim):
                continue
            g, s, hh = np.linalg.svd(form.blocks[1])
            x, y = form.u[:, :r] @ g, form.u[:, r:] @ adjoint(hh)
            m = homotopy_witness_block(q).projection.matrix
            for i, sigma in enumerate(s):
                basis = np.column_stack([x[:, i], y[:, i]])
                block = adjoint(basis) @ m @ basis
                assert np.abs(block - closed_form_p0(sigma).p0.matrix).max() <= 1e-12
            unpaired = x[:, s.size :]
            assert np.abs(m @ unpaired - unpaired).max(initial=0.0) <= 1e-12

    def test_block_oracle_takes_no_solve_inverse_or_root(self, factorizations):
        # with Koliha's pencil memoized: one eigh for the basis, one SVD of A
        q = random_idempotent(12, 5, 2.0, 3)
        koliha_projections(q)
        factorizations.clear()
        homotopy_witness_block(q)
        assert factorizations["solve"] == 0, dict(factorizations)
        assert factorizations["inv"] == 0, dict(factorizations)
        assert factorizations["eigh"] <= 1, dict(factorizations)
        assert factorizations["svd"] == 1, dict(factorizations)
        # the shared certificate adds no exact 2-norm on clean input
        assert factorizations["svdvals"] <= 3, dict(factorizations)

    def test_block_oracle_carries_its_path(self):
        # the certificate both witnesses share keeps the rank-r path: it
        # starts at the oracle's own m(Q) and ends at Q
        for q in envelope_inputs((1e-4, 1.0, 1e2, 1e4), dims=(2, 3, 8), every_rank=True):
            wit = homotopy_witness_block(q)
            start, end = wit.samples(np.array([0.0, 1.0]))
            np.testing.assert_array_equal(start, wit.projection.matrix)
            assert operator_norm(end - q.matrix) <= route_tolerance(q)

    def test_path_certified_at_large_offdiag_norm(self):
        # at ||A|| up to 1e6 the pencil's witness keeps the whole path
        # certified, its ends within the route tolerance of m(Q) and of Q
        for q in envelope_inputs((1e3, 1e4, 1e5, 1e6), dims=(4, 8, 16, 32)):
            path = homotopy_path(q, 11)
            assert len(path) == 11
            assert all(isinstance(sample, Idempotent) for sample in path)
            tol = route_tolerance(q)
            m = matched_projection(q).projection.matrix
            assert operator_norm(path[0].matrix - m) <= tol
            assert operator_norm(path[-1].matrix - q.matrix) <= tol

    def test_path_agrees_with_per_sample_solve(self):
        # the rank-r samples and solve(W_t, m W_t) are two backward-stable
        # evaluations of X_t m W_t with ||X_t|| <= 1 + 3 ||Q|| and ||W_t|| <= 3,
        # so they differ by O(n eps (1 + ||Q||)^2); measured at most 3.7 n eps
        # (1 + ||Q||)^2 over 600 seeded inputs, n <= 32, ||A|| in [1e-10, 1e6]
        for q in envelope_inputs((1e-4, 1.0, 1e2, 1e4), dims=(2, 8, 32)):
            path = homotopy_path(q, 11)
            wit = homotopy_witness(q)
            eye = np.eye(q.dim)
            np.testing.assert_array_equal(path[0].matrix, wit.projection.matrix)
            tol = route_tolerance(q)
            for t, sample in zip(np.linspace(0.0, 1.0, 11), path):
                w_t = eye + t * (wit.w - eye)
                ref = np.linalg.solve(w_t, wit.projection.matrix @ w_t)
                assert operator_norm(sample.matrix - ref) <= tol


class TestFactorizationCount:
    def test_one_per_call(self, factorizations):
        # the pencil's eigh; the certificate takes no 2-norm on clean input.
        # Q's values of its own come from the one SVD beside it
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        matched_projection(q)
        per_call = sum(factorizations.values())
        assert per_call <= 1, dict(factorizations)
        for name in ("abs_q", "abs_q_star", "abs_q_star_pinv"):
            getattr(q, name)
        assert sum(factorizations.values()) == per_call + 1, dict(factorizations)

    def test_witness_at_most_nine(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        homotopy_witness(q)
        assert sum(factorizations.values()) <= 9, dict(factorizations)

    def test_path_at_most_twelve(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        homotopy_path(q, 11)
        assert sum(factorizations.values()) <= 12, dict(factorizations)

    @pytest.mark.parametrize("first", [matched_projection, homotopy_witness])
    def test_warm_memo_runs_no_svd(self, factorizations, first):
        q = random_idempotent(8, 3, 2.0, 5)
        first(q)
        factorizations.clear()
        matched_projection(q)
        assert sum(factorizations.values()) == 0, dict(factorizations)
        homotopy_witness(q)
        assert factorizations["svd"] == 0, dict(factorizations)

    def test_path_reuses_the_witness(self, linalg_calls):
        # the samples are rank-r updates, certified from norm bounds
        q = random_idempotent(8, 3, 2.0, 5)
        wit = homotopy_witness(q)
        linalg_calls.clear()
        assert homotopy_witness(q) is wit
        homotopy_path(q, 11)
        assert linalg_calls == []

    def test_witness_takes_only_its_contraction_norm(self, factorizations):
        # with Q's pencil warm, the witness's one factorization is the reported
        # 2-norm ||I - W|| = ||E||; no inverse, no solve, anywhere on the path
        for q in envelope_inputs((1e-4, 1.0, 1e4), dims=(2, 8, 32)):
            if q.rank in (0, q.dim):
                continue
            matched_projection(q)
            factorizations.clear()
            homotopy_witness(q)
            assert dict(factorizations) == {"svdvals": 1}, dict(factorizations)
            homotopy_path(q, 11)
            assert factorizations["inv"] == factorizations["solve"] == 0

    def test_v_factor_built_once_on_first_read(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        before = sum(factorizations.values())
        first = factor_oracle(q).v
        after_first = sum(factorizations.values())
        assert after_first > before
        assert factor_oracle(q).v is first
        assert sum(factorizations.values()) == after_first

    def test_factor_oracle_takes_one_eigendecomposition(self, factorizations):
        # |Q*|^dag and its square root from one psd_power; |Q*| and
        # (I + |Q*|)^(-1/2) from one SVD of Q*, and T^dag from one more
        q = random_idempotent(8, 3, 2.0, 5)
        koliha_projections(q)
        factorizations.clear()
        factor_oracle(q)
        assert factorizations["eigh"] == 1, dict(factorizations)
        assert factorizations["svd"] == 2, dict(factorizations)

    def test_factor_oracle_never_reads_the_svd(self):
        q = random_idempotent(8, 3, 2.0, 5)
        factor_oracle(q)
        assert "svd" not in vars(q)

    def test_oracles_share_one_record(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        oracles = (
            lambda q: factor_oracle(q).abs_q_star_pinv,
            matched_projection_closed_form,
            matched_via_factor,
        )
        for oracle in oracles:
            oracle(q)
        factorizations.clear()
        for oracle in oracles:
            oracle(q)
        assert factorizations["svd"] == factorizations["eigh"] == 0, dict(factorizations)


class TestMemo:
    def test_q_freed_by_refcount(self):
        # nothing kept in Q's memo may refer back to Q, or Q would live on in
        # a cycle that only the cyclic collector frees
        gc.disable()
        try:
            q = random_idempotent(8, 3, 2.0, 5)
            alive = weakref.ref(q)
            matched_projection(q)
            homotopy_path(q, 3)
            distance_report(q)
            range_identities(q)
            fractional_power_limit(q)
            convergence_report(q, random_idempotent(8, 4, 1.0, 6))
            del q
            assert alive() is None
        finally:
            gc.enable()

    def test_sabotaged_copy_leaves_memo_unchanged(self):
        q = random_idempotent(8, 3, 2.0, 5)

        def results():
            return (*q.svd, matched_projection(q).projection.matrix,
                    homotopy_witness(q).w, distance_report(q).d_matched)

        def analysis():
            return {**vars(q), **q._memo}

        before = [np.copy(x) for x in results()]
        memo = analysis()
        bad = sabotaged(q)
        with pytest.raises(ValidationError):
            matched_projection(bad)
        with pytest.raises(ValidationError):
            homotopy_witness(bad)
        assert analysis().keys() == memo.keys()
        assert all(analysis()[k] is v for k, v in memo.items())
        assert all(np.array_equal(a, b) for a, b in zip(results(), before))

    def test_pair_memoized_per_tolerance(self):
        q = random_idempotent(8, 3, 2.0, 5)
        pair = matched_projection(q)
        assert matched_projection(q) is pair
        assert matched_projection(replace(q, tol=Tolerances(check=1e-9))) is not pair
        assert homotopy_witness(q).projection is pair.projection

    def test_internal_reads_bypass_the_public_name(self, monkeypatch):
        # the module reads m(Q) through matched._matched_pair, so a traced
        # matched_projection counts callers' requests only
        q = random_idempotent(8, 3, 2.0, 5)
        calls = []
        monkeypatch.setattr(matched_module, "matched_projection", lambda *args: calls.append(args))
        homotopy_witness(q)
        matched_distance(q)
        homotopy_path(q, 3)
        range_identities(q)
        fractional_power_limit(q)
        unitary_equivariance(q, np.eye(8))
        random_qpp_pair(6, 3)
        assert calls == []

    def test_analysis_runs_at_the_tolerance_of_q(self):
        # Q's tolerance reaches its partners, its path and the sabotaged copy,
        # and the memo is keyed on the function alone
        loose = Tolerances(check=1e-9)
        q = as_idempotent(random_idempotent(8, 3, 2.0, 5).matrix, loose)
        assert q.tol is loose and replace(q).tol is loose and sabotaged(q).tol is loose
        assert adjoint_of(q).tol is loose and adjoint_of(complement_of(q)).tol is loose
        assert all(sample.tol is loose for sample in homotopy_path(q, 3))
        assert next(qpp_checks(matched_projection(q).projection, q)).tolerance == loose.relative(q.norm)
        # a function of two idempotents gates at the first one's tolerance
        other = random_idempotent(8, 4, 1.0, 6)
        assert {c.tolerance for c in matched_lipschitz_bounds(q, other).checks} == {loose.check}
        assert convergence_report(q, other).checks[0].tolerance == loose.check
        distance_report(q), range_identities(q), matched_via_factor(q)
        assert q._memo and all(callable(key) for key in q._memo)

    def test_core_keyed_on_tolerance(self):
        q = random_idempotent(8, 3, 2.0, 5)
        matched_projection(q)
        with pytest.raises(ValidationError):
            matched_projection(replace(q, tol=Tolerances(check=1e-18)))


class TestMatchedViaFactor:
    def test_projection_factors(self):
        p = as_projection(np.diag([1.0, 0.0]))
        q = as_idempotent(p.matrix)
        fo = factor_oracle(q)
        np.testing.assert_allclose(fo.t, 2 * p.matrix, atol=1e-14)
        np.testing.assert_allclose(fo.t_pinv, 0.5 * p.matrix, atol=1e-14)
        tt, vv = matched_via_factor(q)
        np.testing.assert_allclose(tt, p.matrix, atol=1e-13)
        np.testing.assert_allclose(vv, p.matrix, atol=1e-13)

    def test_canonical_both_routes(self):
        tt, vv = matched_via_factor(canonical())
        np.testing.assert_allclose(tt, MATCHED_CANONICAL, atol=1e-12)
        np.testing.assert_allclose(vv, MATCHED_CANONICAL, atol=1e-12)

    def test_one_svd_of_q_star_matches_the_eigh_route(self):
        # |Q*| is abs_value(Q*) bit for bit; (I + |Q*|)^(-1/2) from the same
        # SVD differs from psd_power's eigh of I + |Q*| by rounding alone, at
        # most 0.84 n eps (1 + ||Q||) in V over n <= 64, every rank and these
        # norms, so 4 n eps (1 + ||Q||) bounds it
        for q in envelope_inputs((1e-10, 1e-2, 1.0, 1e2, 1e4)):
            fo = factor_oracle(q)
            abs_qs = abs_value(adjoint(q.matrix))
            assert np.array_equal(fo.abs_q_star, abs_qs)
            p_r, p_rs = (p.matrix for p in koliha_projections(q))
            root = psd_power(p_r @ p_rs @ p_r, [0.5, 0.25], q.tol)[1]
            eigh_route = np.sqrt(0.5) * fo.t @ root @ psd_power(identity(q.dim) + abs_qs, -0.5, q.tol)
            gap = operator_norm(fo.v - eigh_route)
            assert gap <= 4 * q.dim * EPS * (1.0 + operator_norm(q.matrix)), (q.dim, gap)

    def test_gram_sides_give_range_projection(self):
        fo = factor_oracle(canonical())
        np.testing.assert_allclose(fo.t_pinv @ fo.t, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(adjoint(fo.v) @ fo.v, np.diag([1.0, 0.0]), atol=1e-12)

    def test_routes_agree_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim,
                int(rng.integers(1, dim)),
                float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            m = matched_projection(q).projection.matrix
            tt, vv = matched_via_factor(q)
            assert operator_norm(tt - m) <= 1e-9
            assert operator_norm(vv - m) <= 1e-9


class TestQuasiProjectionPair:
    def test_projection_with_itself(self):
        p = random_projection(4, 2, 9)
        assert is_quasi_projection_pair(p, as_idempotent(p.matrix))

    def test_range_partner_fails_with_unit_residual(self):
        # (2P - I) Q (2P - I) = [[1,-1],[0,0]] against Q* = [[1,0],[1,0]]
        q = canonical()
        p = range_projection(q)
        assert not is_quasi_projection_pair(p, q)
        expect = operator_norm(
            np.array([[1.0, 0.0], [1.0, 0.0]]) - np.array([[1.0, -1.0], [0.0, 0.0]])
        )
        residual = operator_norm(dict(matched_module._qpp_matrices(p, q))["adjoint_reflection"])
        assert residual == pytest.approx(expect, abs=1e-12)
        reflection = list(qpp_checks(p, q))[3]
        assert reflection.name == "adjoint_reflection"
        assert reflection.lower <= residual <= reflection.residual

    def test_matched_pair_holds_random(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim,
                int(rng.integers(1, dim)),
                float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            pair = matched_projection(q)
            assert is_quasi_projection_pair(pair.projection, q)
            assert all_passed(list(qpp_checks(pair.projection, q)))

    def test_characterizations_never_disagree(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            q = random_idempotent(
                dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32))
            )
            p = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)))
            c = list(qpp_checks(p, q))
            assert all_passed(c[:3]) == c[3].passed == c[4].passed


QPP_NAMES = ["block_range", "block_cross", "block_null", "adjoint_reflection", "abs_reflection"]


def qpp_layout_errors(checks, q, tol=DEFAULT_TOL):
    """How a list of checks differs from the five bracketed conditions, in order, under one gate."""
    errors = []
    if [c.name for c in checks] != QPP_NAMES:
        errors.append(f"names {[c.name for c in checks]}")
    if {c.tolerance for c in checks} != {tol.check * (1.0 + q.norm)}:
        errors.append(f"gates {sorted({c.tolerance for c in checks})}")
    if any(c.lower is None for c in checks):
        errors.append("an unbracketed residual")
    return errors


QPP_MATRICES = matched_module._qpp_matrices


def residual_matrices_built(monkeypatch, decide, p, q):
    """How many residual matrices of ``_qpp_matrices`` ``decide(p, q)`` has built."""
    built = []

    def counted(p, q):
        for item in QPP_MATRICES(p, q):
            built.append(item[0])
            yield item

    monkeypatch.setattr(matched_module, "_qpp_matrices", counted)
    decide(p, q)
    return len(built)


class TestQppChecks:
    def test_five_conditions_in_order_under_one_gate(self):
        for p, q in TestQppHolds.pairs():
            assert not qpp_layout_errors(list(qpp_checks(p, q)), q)
        tol = Tolerances(check=1e-12)
        q = replace(canonical(), tol=tol)
        assert not qpp_layout_errors(list(qpp_checks(range_projection(q), q)), q, tol)

    def test_the_layout_check_sees_each_spelling(self):
        q = canonical()
        checks = list(qpp_checks(matched_projection(q).projection, q))
        gate = checks[0].tolerance
        spellings = [
            checks[::-1],
            checks[:4],
            [*checks[:4], replace(checks[4], tolerance=2.0 * gate)],
            [*checks[:4], replace(checks[4], name="reflection_abs")],
            [*checks[:4], Check("abs_reflection", checks[4].residual, gate)],
        ]
        assert not qpp_layout_errors(checks, q)
        for spelled in spellings:
            assert qpp_layout_errors(spelled, q), [c.name for c in spelled]

    def test_characterizations_are_read_by_name(self):
        # the battery's agreement of the block conditions with each reflection
        # reads the conditions by name: in any order, three failing blocks and
        # two passing reflections disagree (by position, [adj, abs, blocks]
        # would compare the failing blocks with each other)
        q = canonical()
        checks = list(qpp_checks(matched_projection(q).projection, q))
        blocks_fail = [replace(c, residual=1.0) if c.name.startswith("block") else c for c in checks]
        for shift in range(5):
            assert _characterizations_agree(checks[shift:] + checks[:shift])
            assert not _characterizations_agree(blocks_fail[shift:] + blocks_fail[:shift]), shift
        for p in (range_projection(q), as_projection(np.eye(2))):
            listed = list(qpp_checks(p, q))
            assert _characterizations_agree(listed[::-1]) == _characterizations_agree(listed)

    def test_a_failing_block_range_builds_one_residual(self, monkeypatch):
        # P = I meets P (Q* - Q) P = Q* - Q, of norm |a| = 1, so the first condition fails
        q = canonical()
        p = as_projection(np.eye(2))
        assert not list(qpp_checks(p, q))[0].passed
        assert residual_matrices_built(monkeypatch, is_quasi_projection_pair, p, q) == 1

    def test_the_residual_count_sees_each_spelling(self, monkeypatch):
        q = canonical()
        p = as_projection(np.eye(2))
        spellings = {
            "lazy": (lambda p, q: all(c.passed for c in qpp_checks(p, q)), 1),
            "listed": (lambda p, q: all_passed(list(qpp_checks(p, q))), 5),
            "list comprehension": (lambda p, q: all([c.passed for c in qpp_checks(p, q)]), 5),
            "matrices": (lambda p, q: dict(matched_module._qpp_matrices(p, q)), 5),
        }
        for name, (decide, count) in spellings.items():
            assert residual_matrices_built(monkeypatch, decide, p, q) == count, name


class TestQppHolds:
    """The yes/no verdict decides as the exact residual norms do."""

    @staticmethod
    def pairs():
        """Seeded pairs and non-pairs: matched, generated, range and random partners."""
        rng = np.random.default_rng(47)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim, int(rng.integers(1, dim)), float(10.0 ** rng.uniform(-3, 3)),
                int(rng.integers(2**32)),
            )
            yield matched_projection(q).projection, q
            yield range_projection(q), q
            yield random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32))), q
            yield random_qpp_pair(dim, int(rng.integers(2**32)))

    @staticmethod
    def exact_verdict(p, q, tol=DEFAULT_TOL):
        gate = tol.check * (1.0 + q.norm)
        return all(operator_norm(mat) <= gate for _, mat in matched_module._qpp_matrices(p, q))

    def test_agrees_with_the_verdict(self):
        held = 0
        for p, q in self.pairs():
            holds = self.exact_verdict(p, q)
            assert is_quasi_projection_pair(p, q) == holds
            assert all_passed(list(qpp_checks(p, q))) == holds
            held += holds
        assert 0 < held < 120

    def test_agrees_with_gates_straddling_each_residual(self):
        # gates placed just above and just below every residual of the verdict
        for p, q in self.pairs():
            for r in (operator_norm(mat) for _, mat in matched_module._qpp_matrices(p, q)):
                for factor in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
                    check = factor * r / (1.0 + q.norm)
                    if not 0.0 < check < np.inf:
                        continue
                    tol = Tolerances(check=check)
                    assert is_quasi_projection_pair(p, replace(q, tol=tol)) == self.exact_verdict(p, q, tol)


def recorded_brackets(monkeypatch):
    """The (m, gate, bracket) of every norm_bracket the checks of matched, norms and battery take."""
    seen = []

    def recorded(m, gate):
        bracket = norm_bracket(m, gate)
        seen.append((m, gate, bracket))
        return bracket

    monkeypatch.setattr(report_module, "norm_bracket", recorded)
    monkeypatch.setattr(battery_module, "norm_bracket", recorded)
    return seen


def assert_brackets_decide_exactly(seen):
    # each bracket holds the exact norm (of a stack, each slice's, and its
    # fold (max lower, max upper) the largest), and decides as the exact norm
    # does at its gate and at gates on either side of it
    for m, gate, (lower, upper) in seen:
        norms = operator_norm(m)
        assert np.all(lower <= norms) and np.all(norms <= upper), (m.shape, lower, norms, upper)
        assert np.array_equal(upper <= gate, norms <= gate)
        exact, top_lower, top_upper = float(np.max(norms)), float(np.max(lower)), float(np.max(upper))
        assert top_lower <= exact <= top_upper, (m.shape, top_lower, exact, top_upper)
        if np.ndim(gate) == 0:
            assert (top_upper <= gate) == (exact <= gate)
        for factor in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
            g = factor * exact
            assert (np.max(norm_bracket(m, g)[1]) <= g) == (exact <= g), (factor, exact)


class TestNormBracket:
    def test_brackets_of_the_analysis_hold_the_norm_and_decide_exactly(self, monkeypatch):
        # the distance report, the range identities and the three
        # quasi-projection-pair verdicts that analyze takes
        seen = recorded_brackets(monkeypatch)
        brackets = 0
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e4, 1e6), every_rank=True):
            seen.clear()
            distance_report(q)
            range_identities(q)
            for p in (matched_projection(q).projection, range_projection(q), null_projection(q)):
                list(qpp_checks(p, q))
            assert_brackets_decide_exactly(seen)
            brackets += len(seen)
        assert brackets == 27 * sum(1 for _ in envelope_inputs((1.0,), every_rank=True)) * 5

    def test_brackets_of_the_battery_hold_the_largest_norm_and_decide_exactly(self, monkeypatch):
        # the battery's compound records bracket a (k, n, n) stack of residuals
        # slice by slice, and the 20 candidates each against its own gate
        seen = recorded_brackets(monkeypatch)
        run_battery(8, 3, 7)
        assert_brackets_decide_exactly(seen)
        # 15: the pairs of the six routes to m(Q) in matched-routes-agree
        stacks = [m.shape[0] for m, _, _ in seen if m.ndim == 3]
        assert {2, 11, 15, 20} <= set(stacks), stacks
        assert sum(np.ndim(gate) == 1 for _, gate, _ in seen) == 3


class TestSymmetryClosure:
    def test_projection_pair(self):
        p = random_projection(4, 2, 13)
        assert qpp_symmetry_closure(p, as_idempotent(p.matrix))

    def test_matched_pairs_random(self):
        for seed in range(20):
            q = random_idempotent(6, 3, 2.0, seed)
            pair = matched_projection(q)
            assert qpp_symmetry_closure(pair.projection, q)

    def test_generated_pairs(self):
        for seed in range(20):
            p, q = random_qpp_pair(6, seed)
            assert qpp_symmetry_closure(p, q)

    def test_clean_closure_takes_no_norm(self, factorizations):
        # the nine verdicts decide from norm bounds; the only factorizations
        # are the memoized SVDs of the fresh Q*, I - Q and I - Q* wrappers and
        # Q's own, for ||Q||, which m(Q) from the pencil did not take
        q = random_idempotent(8, 3, 2.0, 5)
        p = matched_projection(q).projection
        factorizations.clear()
        assert qpp_symmetry_closure(p, q)
        assert dict(factorizations) == {"svd": 4}

    def test_warm_partners_take_no_svd(self, factorizations):
        # Q*, I - Q and I - Q* are memoized on Q with their SVDs; the one SVD
        # left is Q's own, for ||Q||, which m(Q) from the pencil did not take
        q = random_idempotent(8, 3, 2.0, 5)
        p = matched_projection(q).projection
        for partner in (adjoint_of(q), complement_of(q), adjoint_of(complement_of(q))):
            partner.svd
        factorizations.clear()
        assert qpp_symmetry_closure(p, q)
        assert dict(factorizations) == {"svd": 1}

    def test_non_pair_raises(self):
        q = canonical()
        with pytest.raises(NotQuasiProjectionPairError):
            qpp_symmetry_closure(range_projection(q), q)

    def test_perturbed_idempotent_hits_validation_gate(self):
        rng = np.random.default_rng(3)
        noisy = np.array(CANONICAL) + 1e-2 * rng.standard_normal((2, 2))
        with pytest.raises(ValidationError):
            as_idempotent(noisy)


class TestHomotopy:
    def test_full_rank_non_projection_is_numerically_trivial(self):
        # certified as an idempotent but not as a projection, with both pencil
        # eigenvalues 1 +- 1.5e-10 positive: rank 2 = n, in the defect band
        q = as_idempotent(np.array([[1.0, 1.5e-10], [0.0, 1.0]]))
        assert not is_projection(q.matrix, q.tol)
        with pytest.raises(ValidationError, match="^idempotent is numerically trivial but not a projection$"):
            homotopy_witness(q)

    def test_projection_gives_trivial_witness(self):
        p = random_projection(5, 2, 19)
        wit = homotopy_witness(as_idempotent(p.matrix))
        np.testing.assert_allclose(wit.w, np.eye(5), atol=1e-14)
        assert wit.contraction_norm == 0.0
        assert operator_norm(wit.projection.matrix - p.matrix) <= 1e-12

    def test_canonical_contraction_bound(self):
        # ||I - W||^2 <= ||B|| / (||B|| + 1) with ||B|| = sqrt(2)
        wit = homotopy_witness(canonical())
        assert wit.contraction_norm < 1.0
        assert wit.contraction_norm**2 <= RT2 / (RT2 + 1.0) + 1e-12
        np.testing.assert_allclose(wit.projection.matrix, MATCHED_CANONICAL, atol=1e-12)

    def test_similarity_reconstruction_random(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim,
                int(rng.integers(1, dim)),
                float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            wit = homotopy_witness(q)
            assert wit.contraction_norm < 1.0
            recon = np.linalg.inv(wit.w) @ wit.projection.matrix @ wit.w
            assert operator_norm(recon - q.matrix) <= 1e-10

    def test_block_route_matches_closed_formula(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim, int(rng.integers(1, dim)), 2.0, int(rng.integers(2**32))
            )
            wit = homotopy_witness_block(q)
            pair = matched_projection(q)
            assert operator_norm(wit.projection.matrix - pair.projection.matrix) <= 1e-9

    def test_path_endpoints(self):
        q = canonical()
        path = homotopy_path(q, 2)
        np.testing.assert_allclose(path[0].matrix, MATCHED_CANONICAL, atol=1e-12)
        np.testing.assert_allclose(path[1].matrix, CANONICAL, atol=1e-12)

    def test_path_constant_for_projection(self):
        p = random_projection(4, 2, 61)
        path = homotopy_path(as_idempotent(p.matrix), 5)
        for sample in path:
            assert operator_norm(sample.matrix - p.matrix) <= 1e-12

    def test_path_samples_are_idempotent(self):
        path = homotopy_path(canonical(), 11)
        assert len(path) == 11
        assert max(s.defect for s in path) <= 1e-10

    @pytest.mark.parametrize("rank", [0, 2, 5])
    def test_projection_path_is_constant_bitwise(self, rank):
        q = as_idempotent(random_projection(5, rank, 71).matrix)
        path = homotopy_path(q, 4)
        assert all(np.array_equal(sample.matrix, q.matrix) for sample in path)

    def test_one_and_two_samples(self):
        q = random_idempotent(6, 2, 3.0, 73)
        m = matched_projection(q).projection.matrix
        (only,) = homotopy_path(q, 1)
        np.testing.assert_array_equal(only.matrix, m)
        start, end = homotopy_path(q, 2)
        np.testing.assert_array_equal(start.matrix, m)
        assert operator_norm(end.matrix - q.matrix) <= route_tolerance(q)

    def test_envelope_edges_at_n32(self):
        # ||A|| = 1e-10 puts Q within tol.check of Hermitian, so the witness
        # short-circuits and the path starts at Q itself.  At 1e6 the witness,
        # built on the side with no unpaired range direction, keeps the path
        # certified
        for q in envelope_inputs((1e-10, 1e6), dims=(32,)):
            path = homotopy_path(q, 11)
            short_circuit = homotopy_witness(q).contraction_norm == 0.0
            start = q.matrix if short_circuit else matched_projection(q).projection.matrix
            tol = route_tolerance(q)
            assert operator_norm(path[0].matrix - start) <= tol
            assert operator_norm(path[-1].matrix - q.matrix) <= tol
            for sample in path:
                gate = DEFAULT_TOL.check * (1.0 + operator_norm(sample.matrix) ** 2)
                assert sample.defect <= gate

    def test_inverse_certificate_rejects_a_corrupted_factor(self):
        # shifting E along U_r makes F = U_r* E - (D - I) = 1e-3 I, so the
        # Woodbury inverse no longer inverts W and the bound ||E|| ||D^-1|| ||F||
        # exceeds its gate; the clean factor, built from the pencil as the
        # route builds it (2r < n, so on Q's own side), passes
        q = random_idempotent(8, 3, 2.0, 5)
        w, v = q.pencil
        s = w[w > 0.0]
        u_r = (q.matrix @ v[:, w > 0.0]) / np.sqrt(0.5 * s * (s + 1.0))
        p = matched_projection(q).projection
        d = 0.5 / s
        e = (p.matrix @ u_r) / (1.0 + s) - u_r
        clean = matched_module._certified_witness(q, p, u_r, e, d)
        np.testing.assert_array_equal(clean.w, homotopy_witness(q).w)
        with pytest.raises(ValidationError, match="inverse defect"):
            matched_module._certified_witness(q, p, u_r, e + 1e-3 * u_r, d)

    def test_path_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            homotopy_path(canonical(), 0)


class TestRangeIdentities:
    def test_projection_input(self):
        p = random_projection(5, 2, 67)
        checks = range_identities(as_idempotent(p.matrix))
        assert all_passed(checks), [c.name for c in failures(checks)]

    def test_canonical_strict_inclusion(self):
        checks = {c.name: c for c in range_identities(canonical())}
        assert checks["range_equality_iff_projection"].passed
        # m(Q) has rank 1 while Q + Q* has rank 2, so inclusion is strict
        q = canonical()
        m = matched_projection(q).projection.matrix
        s = q.matrix + adjoint(q.matrix)
        assert np.linalg.matrix_rank(m) == 1
        assert np.linalg.matrix_rank(s) == 2
        assert checks["range_mq_inside_range_q_plus_qstar"].passed

    def test_random(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim,
                int(rng.integers(1, dim)),
                float(10.0 ** rng.uniform(-2, 1)),
                int(rng.integers(2**32)),
            )
            checks = range_identities(q)
            assert all_passed(checks), [c.name for c in failures(checks)]

    def test_overlap_verdicts_equal_the_stacked_basis_verdicts(self):
        """Each trivial-intersection verdict reads the overlap of two bases Q holds.

        The reference is the rule the overlaps replaced: A meets B trivially
        iff the stacked bases [A | B] have full column rank, at
        ``numerical_rank``'s cutoff for n, decided here by one SVD of the
        n x (dim A + dim B) stack.  The overlaps are V_r* V_+ (range m(Q) and
        null Q) and U_perp* V_- (null m(Q) and range Q); in the Halmos form
        their singular values are cos(theta_i / 2) >= 1/sqrt 2.
        """
        smallest = []
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e4, 1e6), dims=(1, 2, 8, 16, 32), every_rank=True):
            checks = {c.name: c.passed for c in range_identities(q)}
            w, v = q.pencil
            u, _, vh = q.svd
            range_m, null_m = v[:, w > 0.0], v[:, w <= 0.0]
            range_q, null_q = u[:, : q.rank], adjoint(vh)[:, q.rank :]
            for name, a, b, overlap in (
                ("range_mq_meets_null_q_trivially", range_m, null_q, vh[: q.rank] @ range_m),
                ("null_mq_meets_range_q_trivially", null_m, range_q, adjoint(u[:, q.rank :]) @ null_m),
            ):
                stacked = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
                reference = numerical_rank(stacked, q.dim) == a.shape[1] + b.shape[1]
                assert checks[name] == reference, (name, q.dim, q.rank, q.offdiag_norm)
                if overlap.size:
                    smallest.append(np.linalg.svd(overlap, compute_uv=False).min())
        assert min(smallest) >= 1.0 / RT2 - 1e-12, min(smallest)


class TestFractionalPower:
    def test_projection_all_zero(self):
        p = random_projection(4, 2, 73)
        dists = fractional_power_limit(as_idempotent(p.matrix))
        assert max(dists) <= 1e-12

    def test_canonical_gap_positive(self):
        # the compression m(Q) Q m(Q) is rank one with trace (1 + sqrt 2)/2,
        # so its gap to m(Q) is that eigenvalue minus 1
        dists = fractional_power_limit(canonical())
        assert dists[0] == pytest.approx((RT2 - 1.0) / 2.0, abs=1e-12)

    def test_monotone_decrease(self):
        dists = fractional_power_limit(canonical())
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-2

    def test_tables_share_one_eigh_of_the_compression(self, factorizations):
        # Q's m(Q) Q m(Q) and its powers are memoized, so the convergence
        # table takes an eigh for Q2 alone (3 while each table took its own)
        q, q2 = random_idempotent(8, 3, 2.0, 5), random_idempotent(8, 4, 1.0, 6)
        matched_projection(q), matched_projection(q2)
        factorizations.clear()
        fractional_power_limit(q)
        convergence_report(q, q2)
        assert factorizations["eigh"] == 2, dict(factorizations)

    def test_dominance_certified_on_every_call(self, monkeypatch):
        # the memo keeps K and its powers, never the verdicts on them
        q = canonical()
        fractional_power_limit(q)
        monkeypatch.setattr(matched_module, "psd_order", lambda *args: False)
        with pytest.raises(ValidationError, match=r"^m\(Q\) Q m\(Q\) does not dominate m\(Q\)$"):
            fractional_power_limit(q)


class TestUnitaryEquivariance:
    def test_identity(self):
        assert unitary_equivariance(canonical(), np.eye(2)) <= 1e-14

    def test_reflection_gives_adjoint_invariance(self):
        q = canonical()
        m = matched_projection(q).projection.matrix
        u = 2.0 * m - np.eye(2)
        assert unitary_equivariance(q, u) <= 1e-10

    def test_random_unitary(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            q = random_idempotent(
                dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32))
            )
            u = random_unitary(dim, rng)
            assert unitary_equivariance(q, u) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            unitary_equivariance(canonical(), 2.0 * np.eye(2))


class TestGeneratedQppPairs:
    def test_pairs_are_valid(self):
        for seed in range(30):
            p, q = random_qpp_pair(7, seed)
            assert is_quasi_projection_pair(p, q)

    def test_dimension_one(self):
        for seed in range(6):
            p, q = random_qpp_pair(1, seed)
            assert p.matrix.shape == q.matrix.shape == (1, 1)
            assert np.array_equal(p.matrix, q.matrix)
            assert is_quasi_projection_pair(p, q)

    def test_partner_commutes_with_matched(self):
        for seed in range(30):
            p, q = random_qpp_pair(6, seed)
            m = matched_projection(q).projection.matrix
            gap = operator_norm(p.matrix @ m - m @ p.matrix)
            assert gap <= 1e-10 * (1 + operator_norm(q.matrix))


class TestSabotageHook:
    def test_partners_have_clean_svds(self):
        # a partner is certified and factored from its own matrix, so the
        # copy's scaled V never reaches it
        bad = sabotaged(random_idempotent(8, 3, 2.0, 5))
        for partner in (adjoint_of(bad), complement_of(bad)):
            clean = np.linalg.svd(partner.matrix)
            assert all(np.array_equal(a, b) for a, b in zip(partner.svd, clean))
            pm = partner.matrix
            clean = np.linalg.eigh(pm + adjoint(pm) - np.eye(8))
            assert all(np.array_equal(a, b) for a, b in zip(partner.pencil, clean))
            matched_projection(partner)

    def test_copy_fails_original_intact(self):
        q = canonical()
        with pytest.raises(ValidationError):
            matched_projection(sabotaged(q))
        pair = matched_projection(q)
        np.testing.assert_allclose(pair.projection.matrix, MATCHED_CANONICAL, atol=1e-13)

    def test_closed_form_oracle_untouched(self):
        bad = sabotaged(canonical())
        with pytest.raises(ValidationError):
            matched_projection(bad)
        closed = matched_projection_closed_form(bad)
        np.testing.assert_allclose(closed, MATCHED_CANONICAL, atol=1e-13)

    def test_witness_fails_block_oracle_untouched(self):
        bad = sabotaged(canonical())
        with pytest.raises(ValidationError):
            homotopy_witness(bad)
        block = homotopy_witness_block(bad)
        np.testing.assert_allclose(block.projection.matrix, MATCHED_CANONICAL, atol=1e-13)

    def test_builds_four_v_plus_v_plus_star(self, monkeypatch):
        # the copy's core is the production one with V scaled by 2, bitwise:
        # 4 V_+ V_+*, which fails the projection certificate
        q = random_idempotent(8, 3, 2.0, 5)
        w, v = q.pencil
        candidates = []
        certify = matched_module.as_projection

        def spy(m, tol=None):
            candidates.append(m)
            return certify(m, tol)

        monkeypatch.setattr(matched_module, "as_projection", spy)
        with pytest.raises(ValidationError):
            matched_projection(sabotaged(q))
        v_plus = 2.0 * v[:, w > 0.0]
        assert np.array_equal(candidates, [v_plus @ adjoint(v_plus)])
