"""Tests for the matched projection, its routes, and the pair predicates."""

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from matchedproj import (
    DEFAULT_TOL,
    Check,
    Idempotent,
    Projection,
    Tolerances,
    ValidationError,
    abs_q_star_pinv,
    abs_value,
    adjoint,
    adjoint_of,
    all_passed,
    as_idempotent,
    as_matrix,
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
    null_distance,
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
    range_distance,
    range_identities,
    range_projection,
    unitary_equivariance,
)
from matchedproj import battery as battery_module
from matchedproj import matched as matched_module
from matchedproj import report as report_module
from matchedproj.battery import _characterizations_agree, run_battery, sabotaged
from matchedproj.idempotents import complex_gaussian
from matchedproj.linalg import require_hermitian

from conftest import envelope_inputs, projection_defect

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
        assert operator_norm(abs_q_star_pinv(q) - p.matrix) <= 1e-12

    def test_canonical_frozen(self):
        # oracle: P_R(Q)) = diag(1, 0) and P_R(Q*) projects onto span{(1,1)},
        # so the triple product is diag(1/2, 0) and its square root follows
        v = np.array([[1.0], [1.0]]) / RT2
        triple = np.diag([1.0, 0.0]) @ (v @ v.T) @ np.diag([1.0, 0.0])
        np.testing.assert_allclose(triple, np.diag([0.5, 0.0]), atol=1e-15)
        out = abs_q_star_pinv(canonical())
        np.testing.assert_allclose(out, np.diag([1.0 / RT2, 0.0]), atol=1e-13)

    def test_agrees_with_direct_pseudoinverse(self):
        for seed in range(25):
            q = random_idempotent(6, 3, 2.0, seed)
            direct = moore_penrose(abs_value(adjoint(q.matrix)))
            assert operator_norm(abs_q_star_pinv(q) - direct) <= 1e-10

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
            assert operator_norm(abs_q_star_pinv(q)) <= 1.0 + 1e-10

    def test_battery_sandwich_reads_this_record(self):
        # the battery holds Q* |Q*|^dag Q = |Q| with this |Q*|^dag against Q's
        # SVD, so a copy of Q whose memo holds it scaled by 1 + 1e-6 fails
        q = random_idempotent(6, 3, 2.0, 7)
        scaled = (1.0 + 1e-6) * abs_q_star_pinv(q)
        bad = replace(q)
        bad._memo[abs_q_star_pinv.__wrapped__] = scaled

        def sandwich(q):
            checks = battery_module._matched_identities(np.random.default_rng(0), q.dim, q, q.tol)
            return next(c for c in checks if c.name == "sandwich-pinv-gives-abs")

        assert sandwich(q).passed
        assert not sandwich(bad).passed
        assert abs_q_star_pinv(bad) is scaled


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
            sandwich = adjoint(qm) @ abs_q_star_pinv(q) @ qm
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
            assert projection_defect(pair.projection) <= 16 * q.dim * EPS


    def test_every_production_check_holds_at_large_offdiag_norm(self):
        # the distance report, the matched pair's quasi-projection-pair
        # conditions, the range identities and the witness, at every rank of
        # n = 16 and 32 and ||A|| = 1e4 and 1e6; m(Q) from the SVD failed 3 of
        # these 100 inputs, and its witness raised on one
        for q in envelope_inputs((1e4, 1e6), dims=(16, 32), every_rank=True):
            checks = [
                *distance_report(q),
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
        for name in ("abs_q", "abs_q_star"):
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

    def test_factor_oracle_takes_two_svds(self, factorizations):
        # |Q*|, T and V from one SVD of Q*, and T^dag from one more; no
        # Koliha solve and no eigendecomposition
        q = random_idempotent(8, 3, 2.0, 5)
        factor_oracle(q)
        assert factorizations["eigh"] == factorizations["solve"] == 0, dict(factorizations)
        assert factorizations["svd"] == 2, dict(factorizations)

    def test_factor_oracle_never_reads_the_svd(self):
        q = random_idempotent(8, 3, 2.0, 5)
        factor_oracle(q)
        assert "svd" not in vars(q)

    def test_oracles_share_one_record(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        oracles = (
            abs_q_star_pinv,
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
                    homotopy_witness(q).w, matched_distance(q), range_distance(q), null_distance(q))

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
        assert {c.tolerance for c in matched_lipschitz_bounds(q, other)} == {loose.check}
        assert convergence_report(q, other)[0].tolerance == loose.check
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

    def test_both_factors_within_the_rounding_envelope(self):
        # |Q*| is abs_value(Q*) bit for bit, and T T^dag and V V* come from
        # one SVD of Q*: over n <= 64, ranks on both sides of 2r > n and
        # these norms, each was within 1.6 n eps (1 + ||Q||) of m(Q)
        for q in envelope_inputs((1e-10, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6), dims=(2, 8, 32, 64)):
            fo = factor_oracle(q)
            assert np.array_equal(fo.abs_q_star, abs_value(adjoint(q.matrix)))
            m = matched_projection(q).projection.matrix
            bound = 4 * q.dim * EPS * (1.0 + operator_norm(q.matrix))
            for name, route in zip(("T T^dag", "V V*"), matched_via_factor(q)):
                gap = operator_norm(m - route)
                assert gap <= bound, (name, q.dim, q.rank, gap, bound)

    def test_record_owns_its_arrays(self):
        # a field that is a view keeps its whole base alive in Q's memo, as
        # |Q*|^dag did while it was slice 0 of psd_power's (2, n, n) stack
        q = random_idempotent(8, 3, 2.0, 5)
        fo = factor_oracle(q)
        for value in [getattr(fo, field.name) for field in fields(fo)] + [abs_q_star_pinv(q)]:
            assert value.base is None or value.base.nbytes <= value.nbytes
        # Koliha's |Q*|^dag is the power itself, bit for bit
        p_r, p_rs = (p.matrix for p in koliha_projections(q))
        assert np.array_equal(abs_q_star_pinv(q), psd_power(p_r @ p_rs @ p_r, 0.5, q.tol))

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
        # 24 per input: the three range records that share range W's gap
        # read its one bracket (27 while each took its own)
        assert brackets == 24 * sum(1 for _ in envelope_inputs((1.0,), every_rank=True)) * 5

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

    def test_range_partner_of_a_non_projection_fails_every_pair(self):
        # P_R(Q) is no partner of a Q that is not a projection, and no pair of
        # {P_R(Q), I - P_R(Q)} x {Q, Q*, I - Q, I - Q*} is one on its own
        for q in [canonical()] + [random_idempotent(6, 3, 2.0, seed) for seed in range(5)]:
            p = range_projection(q)
            assert not qpp_symmetry_closure(p, q)
            complement = complement_of(q)
            for a in (p, as_projection(identity(q.dim) - p.matrix)):
                for b in (q, adjoint_of(q), complement, adjoint_of(complement)):
                    assert not is_quasi_projection_pair(a, b)

    def test_perturbed_idempotent_hits_validation_gate(self):
        rng = np.random.default_rng(3)
        noisy = np.array(CANONICAL) + 1e-2 * rng.standard_normal((2, 2))
        with pytest.raises(ValidationError):
            as_idempotent(noisy)


def witness_factors(q):
    """(m(Q), U_r, E, D) built from the pencil as ``homotopy_witness`` builds them (2r < n)."""
    w, v = q.pencil
    s = w[w > 0.0]
    u_r = (q.matrix @ v[:, w > 0.0]) / np.sqrt(0.5 * s * (s + 1.0))
    p = matched_projection(q).projection
    return p, u_r, (p.matrix @ u_r) / (1.0 + s) - u_r, 0.5 / s


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

    def test_trivial_witness_keeps_the_tolerance_of_q(self):
        loose = Tolerances(check=1e-6)
        q = as_idempotent(random_projection(5, 2, 19).matrix, loose)
        assert homotopy_witness(q).projection.tol == loose

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
        p, u_r, e, d = witness_factors(q)
        clean = matched_module._certified_witness(q, p, u_r, e, d)
        np.testing.assert_array_equal(clean.w, homotopy_witness(q).w)
        with pytest.raises(ValidationError, match="inverse defect"):
            matched_module._certified_witness(q, p, u_r, e + 1e-3 * u_r, d)

    def test_contraction_certificate_rejects_a_long_factor(self):
        # a part (I - X X*) Z of E leaves X* E = D - I, so the inverse gate
        # passes, but ||E|| >= 2 is no contraction
        q = random_idempotent(8, 3, 2.0, 5)
        wit = homotopy_witness(q)
        x = wit.x
        z = np.random.default_rng(3).standard_normal(x.shape)
        long_part = z - x @ (adjoint(x) @ z)
        e = wit.e + 2.0 * long_part / operator_norm(long_part)
        assert operator_norm(adjoint(x) @ (e - wit.e)) <= 1e-14
        with pytest.raises(ValidationError, match="witness contraction norm"):
            matched_module._certified_witness(q, wit.projection, x, e, wit.d)

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

    def test_nu_sweep_holds_every_range_identity_and_the_iff(self):
        """Every decade of nu from 1e-14 to 1e6, and nu = 0, for n in {16, 32, 64}, two ranks, two seeds.

        Every record passes at every nu, the "iff" too: both of its sides
        compare nu with tol.check.  At nu = tol.check itself the two routes
        to nu, ||Q - Q*|| and the tangents of the angles from Q's SVD, round
        to either side of the cutoff, so that decade is held at 0.1% either
        side of it instead.
        """
        check = DEFAULT_TOL.check
        nus = (0.0, *(10.0**e for e in range(-14, 7) if 10.0**e != check), 0.999 * check, 1.001 * check)
        assert len(nus) == 23
        for dim in (16, 32, 64):
            for rank in (dim // 4, 3 * dim // 4):
                for seed in (1, 2):
                    for nu in nus:
                        q = random_idempotent(dim, rank, nu, 1000 * dim + 10 * rank + seed)
                        checks = {c.name: c.passed for c in range_identities(q)}
                        assert all(checks.values()), (dim, rank, seed, nu, [k for k, v in checks.items() if not v])

    @staticmethod
    def _rotated(m, eps, seed):
        """e^(i eps H) m e^(-i eps H) for a seeded Hermitian H of norm 1: a projection whose range moved by about eps."""
        h = complex_gaussian(np.random.default_rng(seed), *m.shape)
        lam, v = np.linalg.eigh(h + adjoint(h))
        u = (v * np.exp(1j * eps * lam / np.abs(lam).max())) @ adjoint(v)
        return u @ m @ adjoint(u)

    def test_each_mended_check_fails_when_m_is_rotated(self, monkeypatch):
        # range m(Q) moved by 1e-6 out of range W and range X (rank 5 of 16,
        # so range X is a proper subspace), and, for a projection input, out
        # of range Q + Q* = range Q: each gap exceeds Tolerances.subspace
        mended = ["range_mq_eq_range_absqstar_plus_qstar", "range_mq_eq_range_absq_plus_q",
                  "kernel_mq_eq_kernel_absqstar_plus_q", "range_mq_inside_range_q_plus_qstar",
                  "range_mq_eq_range_four_term_sum"]
        for q, names in ((random_idempotent(16, 5, 1.0, 3), mended),
                         (as_idempotent(random_projection(16, 5, 3).matrix), ["range_equality_iff_projection"])):
            assert all_passed(range_identities(q))
            rotated = matched_module.MatchedPair(Projection(self._rotated(
                matched_projection(q).projection.matrix, 1e-6, 4), q.tol))
            with monkeypatch.context() as patch:
                patch.setattr(matched_module, "_matched_pair", lambda _: rotated)
                checks = {c.name: c.passed for c in range_identities(q)}
            assert not any(checks[name] for name in names), checks

    def test_each_range_record_fails_when_q_leaves_its_svd(self):
        # V of Q's SVD rotated by 1e-6, or Q moved by 1e-6 after its SVD,
        # pencil, m(Q) and P_R(Q) are kept: the residual of Q = U_r S_r V_r*
        # exceeds relative(||Q||) and every range record fails.  Moving Q
        # leaves every gap passing, so there the residual slice alone fails them
        e = complex_gaussian(np.random.default_rng(6), 16, 16)
        for part in ("svd", "matrix"):
            q = random_idempotent(16, 5, 1.0, 3)
            assert all_passed(range_identities(q))
            u, s, vh = q.svd
            moved = q.matrix + 1e-6 * e / np.linalg.norm(e, 2)
            vars(q)[part] = (u, s, self._rotated(vh, 1e-6, 5)) if part == "svd" else moved
            checks = {c.name: c.passed for c in range_identities(q)}
            held = [name for name in checks if name.startswith(("range_mq_eq", "kernel", "range_mq_inside", "range_q_"))]
            assert len(held) == 6 and not any(checks[name] for name in held), (part, checks)

    def test_iff_fails_for_a_q_above_the_band_called_a_projection(self):
        # nu = 1e-6 is far from a projection at the default tolerances, and Q
        # certified at check 1e-5 is a projection to that tolerance, but m(Q)
        # is nu / 2 from P_R(Q), above Tolerances.subspace: a check above
        # 2 subspace opens the band (2 subspace, check] the docstring derives
        q = as_idempotent(random_idempotent(16, 5, 1e-6, 3).matrix, Tolerances(check=1e-5))
        assert is_projection(q.matrix, q.tol)
        checks = {c.name: c.passed for c in range_identities(q)}
        assert not checks["range_equality_iff_projection"]

    def test_warm_q_takes_no_svd_of_an_n_by_n_operand(self, monkeypatch):
        # with Q's SVD, its off-diagonal block's thin SVD, the pencil, m(Q)
        # and P_R(Q) memoized, the column spaces come from them: the only
        # SVDs left are the singular values of the two trivial-intersection
        # overlaps
        q = random_idempotent(64, 20, 1.0, 9)
        range_identities(q)
        shapes, svd = [], np.linalg.svd

        def recorded(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            shapes.append((a.shape, compute_uv))
            return svd(a, full_matrices, compute_uv, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        range_identities(q)
        assert shapes == [((20, 20), False), ((44, 44), False)], shapes


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
        with pytest.raises(ValidationError, match=r"^unitarity defect 3\.000e\+00 exceeds 1\.000e-10$"):
            unitary_equivariance(canonical(), 2.0 * np.eye(2))


class TestCertificateMessages:
    """Each certificate names its quantity's exact norm and the bound it exceeds."""

    @staticmethod
    def raised(exc_type, call):
        with pytest.raises(exc_type) as info:
            call()
        return str(info.value)

    def test_idempotency(self):
        # ||Q^2 - Q|| = 1/4 against check (1 + ||Q||^2) = 2e-10
        message = self.raised(ValidationError, lambda: as_idempotent([[1, 0], [0, 0.5]]))
        assert message == "idempotency defect 2.500e-01 exceeds 2.000e-10"

    def test_closed_form_inverse(self):
        # E shifted along U_r: F = U_r* E - (D - I) moves by 1e-3 I, and the
        # bound ||E|| ||D^-1|| ||F|| exceeds relative(||D^-1||)
        q = random_idempotent(8, 3, 2.0, 5)
        p, u_r, e, d = witness_factors(q)
        e = e + 1e-3 * u_r
        f = adjoint(u_r) @ e - np.diag(d - 1.0)
        defect = operator_norm(e) * (1.0 / d).max() * operator_norm(f)
        bound = q.tol.relative((1.0 / d).max())
        message = self.raised(ValidationError, lambda: matched_module._certified_witness(q, p, u_r, e, d))
        assert message == f"closed-form inverse defect {defect:.3e} exceeds {bound:.3e}"

    def test_similarity(self):
        # the factors of Q with another idempotent's m(Q): W is still a
        # certified contraction, but W^-1 P W is not Q
        q = random_idempotent(8, 3, 2.0, 5)
        _, u_r, e, d = witness_factors(q)
        p = matched_projection(random_idempotent(8, 3, 2.0, 6)).projection
        witness = matched_module.SimilarityWitness(p, e, u_r, d, operator_norm(e))
        residual = operator_norm(witness.samples(np.ones(1))[0] - q.matrix)
        w_inv = identity(8) - (e * (1.0 / d)) @ adjoint(u_r)
        bound = q.tol.relative(operator_norm(w_inv) * operator_norm(witness.w))
        message = self.raised(ValidationError, lambda: matched_module._certified_witness(q, p, u_r, e, d))
        assert message == f"similarity residual {residual:.3e} exceeds {bound:.3e}"

    def test_asymmetry(self):
        m = as_matrix([[1.0, 1e-3], [0.0, 1.0]])
        gap, bound = operator_norm(m - adjoint(m)), DEFAULT_TOL.relative(operator_norm(m))
        message = self.raised(ValidationError, lambda: require_hermitian(m))
        assert message == f"asymmetry {gap:.3e} exceeds {bound:.3e}"

    def test_block_round_trip(self):
        # an exactly Hermitian P, and a gate below the round trip's rounding;
        # the same blocks at a loose gate give the residual
        rng = np.random.default_rng(3)
        t_mat, p = complex_gaussian(rng, 6, 6), random_projection(6, 3, 11).matrix
        p = (p + adjoint(p)) / 2.0
        tight = Tolerances(check=1e-30)
        form = block_form(t_mat, Projection(p, Tolerances(check=1.0)))
        gap = operator_norm(form.reassemble() - t_mat)
        bound = tight.relative(operator_norm(t_mat))
        assert gap > bound
        message = self.raised(ValidationError, lambda: block_form(t_mat, Projection(p, tight)))
        assert message == f"block round-trip residual {gap:.3e} exceeds {bound:.3e}"

    def test_four_term_identity(self):
        # a copy of Q whose |Q*| is off by 1e-3 I; m(Q) and K come from the pencil
        q = random_idempotent(5, 2, 1.5, 8)
        copy = replace(q)
        vars(copy)["abs_q_star"] = q.abs_q_star + 1e-3 * identity(5)
        k = matched_module.fractional_powers(copy)[0]
        gap = operator_norm(k - 0.25 * (copy.abs_q_star + q.abs_q + q.matrix + adjoint(q.matrix)))
        bound = q.tol.relative(q.norm)
        message = self.raised(ValidationError, lambda: fractional_power_limit(copy))
        assert message == f"four-term identity residual {gap:.3e} exceeds {bound:.3e}"

    def test_unitarity(self):
        u = 1.001 * np.eye(2)
        gap = operator_norm(adjoint(u) @ u - identity(2))
        message = self.raised(ValidationError, lambda: unitary_equivariance(canonical(), u))
        assert message == f"unitarity defect {gap:.3e} exceeds {DEFAULT_TOL.check:.3e}"


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
