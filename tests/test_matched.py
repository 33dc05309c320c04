"""Tests for the matched projection, its routes, and the pair predicates."""

import gc
import weakref

import numpy as np
import pytest

from matchedproj import (
    DEFAULT_TOL,
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
    complement_of,
    distance_report,
    factor_oracle,
    failures,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    homotopy_witness_block,
    is_quasi_projection_pair,
    matched_distance,
    matched_projection,
    matched_projection_closed_form,
    matched_via_factor,
    moore_penrose,
    operator_norm,
    qpp_holds,
    qpp_symmetry_closure,
    random_idempotent,
    random_projection,
    random_qpp_pair,
    random_unitary,
    range_identities,
    range_projection,
    unitary_equivariance,
)
from matchedproj import matched as matched_module
from matchedproj.battery import sabotaged

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
            verdict = is_quasi_projection_pair(pair.projection, q)
            reflection = verdict.residuals["adjoint_reflection"]
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
        # the production route's Newton step on the Gram matrix leaves a
        # projection defect at round-off level whatever ||Q||
        for q in envelope_inputs((1e3, 1e4, 1e6)):
            pair = matched_projection(q)
            assert isinstance(pair.projection, Projection)
            assert pair.projection.defect <= 16 * q.dim * EPS


class TestWitnessRoute:
    def test_agrees_with_block_oracle(self):
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e2), every_rank=True):
            wit, block = homotopy_witness(q), homotopy_witness_block(q)
            tol = route_tolerance(q)
            assert operator_norm(wit.projection.matrix - block.projection.matrix) <= tol
            assert operator_norm(wit.w - block.w) <= tol

    def test_path_certified_at_large_offdiag_norm(self):
        # the block construction's m(Q) fails projection validation from
        # ||A|| ~ 1e3 up; the SVD witness keeps the whole path certified
        for q in envelope_inputs((1e3, 1e4, 1e5), dims=(4, 8, 16, 32)):
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
        # the SVD of Q; the certificate takes no 2-norm on clean input
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        matched_projection(q)
        per_call = sum(factorizations.values())
        assert per_call <= 1, dict(factorizations)
        for name in ("abs_q", "abs_q_star", "abs_q_star_pinv"):
            getattr(q, name)
        assert sum(factorizations.values()) == per_call

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
        # with Q's SVD warm, the witness's one factorization is the reported
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
        assert matched_projection(q, Tolerances(check=1e-9)) is not pair
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
        assert calls == []

    def test_core_keyed_on_tolerance(self):
        q = random_idempotent(8, 3, 2.0, 5)
        matched_projection(q)
        with pytest.raises(ValidationError):
            matched_projection(q, Tolerances(check=1e-18))


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
        verdict = is_quasi_projection_pair(p, as_idempotent(p.matrix))
        assert verdict.holds

    def test_range_partner_fails_with_unit_residual(self):
        # (2P - I) Q (2P - I) = [[1,-1],[0,0]] against Q* = [[1,0],[1,0]]
        q = canonical()
        verdict = is_quasi_projection_pair(range_projection(q), q)
        assert not verdict.holds
        expect = operator_norm(
            np.array([[1.0, 0.0], [1.0, 0.0]]) - np.array([[1.0, -1.0], [0.0, 0.0]])
        )
        assert verdict.residuals["adjoint_reflection"] == pytest.approx(expect, abs=1e-12)

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
            verdict = is_quasi_projection_pair(pair.projection, q)
            assert verdict.holds
            assert verdict.blocks_hold and verdict.reflection_holds
            assert verdict.abs_reflection_holds

    def test_characterizations_never_disagree(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            q = random_idempotent(
                dim, int(rng.integers(1, dim)), 1.5, int(rng.integers(2**32))
            )
            p = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)))
            v = is_quasi_projection_pair(p, q)
            assert v.blocks_hold == v.reflection_holds == v.abs_reflection_holds


class TestQppHolds:
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

    def test_agrees_with_the_verdict(self):
        held = 0
        for p, q in self.pairs():
            holds = is_quasi_projection_pair(p, q).holds
            assert qpp_holds(p, q) == holds
            held += holds
        assert 0 < held < 120

    def test_agrees_with_gates_straddling_each_residual(self):
        # gates placed just above and just below every residual of the verdict
        for p, q in self.pairs():
            for r in is_quasi_projection_pair(p, q).residuals.values():
                for factor in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
                    check = factor * r / (1.0 + q.norm)
                    if not 0.0 < check < np.inf:
                        continue
                    tol = Tolerances(check=check)
                    assert qpp_holds(p, q, tol) == is_quasi_projection_pair(p, q, tol).holds


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
        # are the memoized SVDs of the fresh Q*, I - Q and I - Q* wrappers
        q = random_idempotent(8, 3, 2.0, 5)
        p = matched_projection(q).projection
        factorizations.clear()
        assert qpp_symmetry_closure(p, q)
        assert dict(factorizations) == {"svd": 3}

    def test_warm_partners_take_no_svd(self, factorizations):
        # Q*, I - Q and I - Q* are memoized on Q with their SVDs
        q = random_idempotent(8, 3, 2.0, 5)
        p = matched_projection(q).projection
        for partner in (adjoint_of(q), complement_of(q), adjoint_of(complement_of(q))):
            partner.svd
        factorizations.clear()
        assert qpp_symmetry_closure(p, q)
        assert dict(factorizations) == {}

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
        # short-circuits and the path starts at Q itself.  At 1e6 the
        # similarity gate may reject an input: the open envelope defect of
        # the witness (the SVD meets S_r V_r* U_r = I only to ~ n eps ||Q||^2),
        # which is the only failure allowed here
        for q in envelope_inputs((1e-10, 1e6), dims=(32,)):
            try:
                path = homotopy_path(q, 11)
            except ValidationError as exc:
                assert q.norm > 1e5 and "similarity residual" in str(exc)
                continue
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
        # exceeds its gate; the clean factor passes
        q = random_idempotent(8, 3, 2.0, 5)
        u, s, vh = q.svd
        r = q.rank
        u_r, u_perp = u[:, :r], u[:, r:]
        d = 0.5 / s[:r]
        e = u_r * (d - 1.0) + u_perp @ (0.5 * (adjoint(u_perp) @ adjoint(vh[:r])) / (1.0 + s[:r]))
        w_inv = matched_module._certified_inverse(e, u_r, d, operator_norm(e), DEFAULT_TOL)
        np.testing.assert_allclose(w_inv @ homotopy_witness(q).w, np.eye(8), atol=1e-13)
        bad = e + 1e-3 * u_r
        with pytest.raises(ValidationError, match="inverse defect"):
            matched_module._certified_inverse(bad, u_r, d, operator_norm(bad), DEFAULT_TOL)

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


class TestFractionalPower:
    def test_projection_all_zero(self):
        p = random_projection(4, 2, 73)
        dists = fractional_power_limit(as_idempotent(p.matrix), [1, 2, 4])
        assert max(dists) <= 1e-12

    def test_canonical_gap_positive(self):
        # the compression m(Q) Q m(Q) is rank one with trace (1 + sqrt 2)/2,
        # so its gap to m(Q) is that eigenvalue minus 1
        dists = fractional_power_limit(canonical(), [1])
        assert dists[0] == pytest.approx((RT2 - 1.0) / 2.0, abs=1e-12)

    def test_monotone_decrease(self):
        exponents = [2**k for k in range(11)]
        dists = fractional_power_limit(canonical(), exponents)
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-2


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
            assert is_quasi_projection_pair(p, q).holds

    def test_dimension_one(self):
        for seed in range(6):
            p, q = random_qpp_pair(1, seed)
            assert p.matrix.shape == q.matrix.shape == (1, 1)
            assert np.array_equal(p.matrix, q.matrix)
            assert is_quasi_projection_pair(p, q).holds

    def test_partner_commutes_with_matched(self):
        for seed in range(30):
            p, q = random_qpp_pair(6, seed)
            m = matched_projection(q).projection.matrix
            gap = operator_norm(p.matrix @ m - m @ p.matrix)
            assert gap <= 1e-10 * (1 + operator_norm(q.matrix))


class TestSabotageHook:
    def test_partners_have_clean_svds(self):
        # a partner is certified and factored from its own matrix, so the
        # copy's negated V never reaches it
        bad = sabotaged(random_idempotent(8, 3, 2.0, 5))
        for partner in (adjoint_of(bad), complement_of(bad)):
            clean = np.linalg.svd(partner.matrix)
            assert all(np.array_equal(a, b) for a, b in zip(partner.svd, clean))
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

    def test_builds_u_minus_v(self, monkeypatch):
        # the copy's core is the production one with W = U_r - V_r, bitwise
        q = random_idempotent(8, 3, 2.0, 5)
        u, s, vh = q.svd
        r = q.rank
        candidates = []
        certify = matched_module.as_projection

        def spy(m, tol=None):
            candidates.append(m)
            return certify(m, tol)

        monkeypatch.setattr(matched_module, "as_projection", spy)
        with pytest.raises(ValidationError):
            matched_projection(sabotaged(q))
        w = u[:, :r] - adjoint(vh[:r])
        d = 2.0 * (1.0 + 1.0 / s[:r])
        x = w / d
        assert np.array_equal(candidates, [x @ (np.diag(2.0 * d) - adjoint(w) @ w) @ adjoint(x)])
