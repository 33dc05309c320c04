"""Tests for the matched projection, its routes, and the pair predicates."""

from collections import Counter

import numpy as np
import pytest

from matchedproj import (
    NotQuasiProjectionPairError,
    NotUnitaryError,
    Projection,
    ValidationError,
    abs_value,
    adjoint,
    all_passed,
    as_idempotent,
    as_projection,
    failures,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    is_quasi_projection_pair,
    matched_projection,
    matched_projection_closed_form,
    matched_via_factor,
    moore_penrose,
    mp_inverse_abs_qstar,
    operator_norm,
    qpp_symmetry_closure,
    random_idempotent,
    random_projection,
    random_qpp_pair,
    random_unitary,
    range_identities,
    range_projection,
    unitary_equivariance,
)
from matchedproj.matched import sabotaged_formula

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
        assert operator_norm(mp_inverse_abs_qstar(q) - p.matrix) <= 1e-12

    def test_canonical_frozen(self):
        # oracle: P_R(Q)) = diag(1, 0) and P_R(Q*) projects onto span{(1,1)},
        # so the triple product is diag(1/2, 0) and its square root follows
        v = np.array([[1.0], [1.0]]) / RT2
        triple = np.diag([1.0, 0.0]) @ (v @ v.T) @ np.diag([1.0, 0.0])
        np.testing.assert_allclose(triple, np.diag([0.5, 0.0]), atol=1e-15)
        out = mp_inverse_abs_qstar(canonical())
        np.testing.assert_allclose(out, np.diag([1.0 / RT2, 0.0]), atol=1e-13)

    def test_agrees_with_direct_pseudoinverse(self):
        for seed in range(25):
            q = random_idempotent(6, 3, 2.0, seed)
            direct = moore_penrose(abs_value(adjoint(q.matrix)))
            assert operator_norm(mp_inverse_abs_qstar(q) - direct) <= 1e-10

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
            assert operator_norm(mp_inverse_abs_qstar(q)) <= 1.0 + 1e-10


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
            res = pair.invariant_residuals()
            assert res["factor_tt"] <= 1e-10
            assert res["factor_vv"] <= 1e-10
            assert res["adjoint_reflection"] <= 1e-10 * (1 + operator_norm(q.matrix))

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
            assert operator_norm((2 * m - eye) @ qm - pair.abs_q) <= scale
            rhs = pair.abs_q + abs_value(eye - qm)
            assert operator_norm((2 * m - eye) @ (2 * qm - eye) - rhs) <= scale
            assert operator_norm(pair.abs_q_star @ pair.abs_q - qm) <= scale
            assert operator_norm(pair.abs_q @ pair.abs_q_star - adjoint(qm)) <= scale
            sandwich = adjoint(qm) @ pair.abs_q_star_pinv @ qm
            assert operator_norm(sandwich - pair.abs_q) <= scale


def envelope_inputs(norms):
    """Seeded idempotents: n in {1, 2, 8, 32}, rank 0, mixed and full, each ||A||."""
    for dim in (1, 2, 8, 32):
        for rank in sorted({0, dim // 4, dim // 2, 3 * dim // 4, dim}):
            for nu in norms:
                yield random_idempotent(dim, rank, nu, 1000 * dim + rank)


class TestProductionRoute:
    def test_agrees_with_oracles(self):
        for q in envelope_inputs((1e-10, 1e-4, 1.0, 1e2)):
            m = matched_projection(q).projection.matrix
            tt, _ = matched_via_factor(q)
            # backward-stable routes differ by O(n eps ||Q||) in Q, and m is
            # Lipschitz in Q with a constant of order 1 + ||Q||
            tol = 16 * q.dim * EPS * (1.0 + operator_norm(q.matrix)) ** 2
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


@pytest.fixture
def factorizations(monkeypatch):
    """Count dense factorizations in numpy.linalg; norm(., 2) is an SVD."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "solve", "inv",
                 "qr", "cholesky", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2, "nuc"):
            counts["norm2"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


class TestFactorizationCount:
    def test_at_most_three_per_call(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        pair = matched_projection(q)
        per_call = sum(factorizations.values())
        assert per_call <= 3, dict(factorizations)
        for name in ("abs_q", "abs_q_star", "abs_q_star_pinv", "t_factor"):
            getattr(pair, name)
        assert sum(factorizations.values()) == per_call

    def test_v_factor_built_once_on_first_read(self, factorizations):
        pair = matched_projection(random_idempotent(8, 3, 2.0, 5))
        before = sum(factorizations.values())
        first = pair.v_factor
        after_first = sum(factorizations.values())
        assert after_first > before
        assert pair.v_factor is first
        assert sum(factorizations.values()) == after_first


class TestMatchedViaFactor:
    def test_projection_factors(self):
        p = as_projection(np.diag([1.0, 0.0]))
        q = as_idempotent(p.matrix)
        pair = matched_projection(q)
        np.testing.assert_allclose(pair.t_factor, 2 * p.matrix, atol=1e-14)
        np.testing.assert_allclose(
            moore_penrose(pair.t_factor), 0.5 * p.matrix, atol=1e-14
        )
        tt, vv = matched_via_factor(q)
        np.testing.assert_allclose(tt, p.matrix, atol=1e-13)
        np.testing.assert_allclose(vv, p.matrix, atol=1e-13)

    def test_canonical_both_routes(self):
        tt, vv = matched_via_factor(canonical())
        np.testing.assert_allclose(tt, MATCHED_CANONICAL, atol=1e-12)
        np.testing.assert_allclose(vv, MATCHED_CANONICAL, atol=1e-12)

    def test_gram_sides_give_range_projection(self):
        q = canonical()
        pair = matched_projection(q)
        t_dag = moore_penrose(pair.t_factor)
        np.testing.assert_allclose(t_dag @ pair.t_factor, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(
            adjoint(pair.v_factor) @ pair.v_factor, np.diag([1.0, 0.0]), atol=1e-12
        )

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
            wit = homotopy_witness(q)
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

    def test_partner_commutes_with_matched(self):
        for seed in range(30):
            p, q = random_qpp_pair(6, seed)
            m = matched_projection(q).projection.matrix
            gap = operator_norm(p.matrix @ m - m @ p.matrix)
            assert gap <= 1e-10 * (1 + operator_norm(q.matrix))


class TestSabotageHook:
    def test_flips_and_restores(self):
        q = canonical()
        with sabotaged_formula():
            with pytest.raises(ValidationError):
                matched_projection(q)
        pair = matched_projection(q)
        np.testing.assert_allclose(pair.projection.matrix, MATCHED_CANONICAL, atol=1e-13)

    def test_closed_form_oracle_untouched(self):
        q = canonical()
        with sabotaged_formula():
            closed = matched_projection_closed_form(q)
        np.testing.assert_allclose(closed, MATCHED_CANONICAL, atol=1e-13)
