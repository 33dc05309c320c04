"""Tests for validated idempotents, range/null projections, the Koliha oracle, and block forms."""

import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest

from matchedproj import (
    Tolerances,
    ValidationError,
    abs_value,
    adjoint,
    adjoint_of,
    as_idempotent,
    as_matrix,
    as_projection,
    block_form,
    complement_of,
    is_projection,
    koliha_projections,
    norm_at_most,
    null_projection,
    operator_norm,
    random_idempotent,
    random_projection,
    range_projection,
)
from matchedproj import idempotents

from conftest import envelope_inputs, projection_defect

RT2 = np.sqrt(2.0)
EPS = np.finfo(np.float64).eps
CANONICAL = [[1.0, 1.0], [0.0, 0.0]]
NORM_LADDER = (1e-10, 1e-7, 1e-4, 1e-2, 1.0, 1e2, 1e4)


def no_draw(*args, **kwargs):
    raise AssertionError("a random generator was made")


def no_certify(*args, **kwargs):
    raise AssertionError("certify was called")


class TestValidation:
    def test_accepts_exact_idempotent(self):
        q = as_idempotent(CANONICAL)
        assert q.defect == 0.0
        assert q.dim == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            as_idempotent([[1.0, 1.0], [0.0, 0.5]])

    def test_projection_rejects_oblique(self):
        with pytest.raises(ValidationError):
            as_projection(CANONICAL)

    def test_projection_accepts_orthogonal(self):
        p = as_projection(0.5 * np.array([[1, 1], [1, 1]]))
        assert projection_defect(p) <= 1e-15

    def test_projection_certified_without_factorization(self, linalg_calls):
        u = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 5)))[0]
        linalg_calls.clear()
        as_projection(u @ u.T)
        assert linalg_calls == []

    def test_projection_rejection_reports_the_exact_defect(self):
        pm = as_matrix([[1.0, 1e-6], [0.0, 0.0]])
        exact = max(operator_norm(pm @ pm - pm), operator_norm(pm - adjoint(pm)))
        with pytest.raises(ValidationError, match=f"projection defect {exact:.3e} exceeds"):
            as_projection(pm)


class TestIsProjection:
    def inputs(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2, 5, 9):
            yield random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32))).matrix
            yield random_idempotent(dim, int(rng.integers(0, dim + 1)), 1.0, int(rng.integers(2**32))).matrix
            h = rng.standard_normal((dim, dim))
            yield h + h.T + 0j

    def test_decides_as_the_exact_defect(self):
        for m in self.inputs():
            defect = max(operator_norm(m @ m - m), operator_norm(m - adjoint(m)))
            for check in (0.5 * defect, 2.0 * defect, 1e-10, 1.0):
                if check > 0.0:
                    assert is_projection(m, Tolerances(check=check)) == (defect <= check)

    def test_as_projection_accepts_exactly_the_projections(self):
        for m in self.inputs():
            if is_projection(m):
                assert np.array_equal(as_projection(m).matrix, m)
            else:
                with pytest.raises(ValidationError):
                    as_projection(m)

    def test_hermitian_test_first(self, monkeypatch):
        # an oblique idempotent fails ||M - M*|| and pays no product M M
        tested = []
        gate = idempotents.norm_at_most
        monkeypatch.setattr(
            idempotents, "norm_at_most", lambda m, bound: tested.append(m) or gate(m, bound)
        )
        q = random_idempotent(6, 2, 1.0, 3).matrix
        assert not is_projection(q)
        assert len(tested) == 1 and np.array_equal(tested[0], q - adjoint(q))


class TestStackedValidation:
    def test_matches_single_validation(self):
        stack = np.stack([random_idempotent(4, 2, nu, 7).matrix for nu in (0.1, 1.0, 10.0)])
        for sample, q in zip(as_idempotent(stack), stack):
            single = as_idempotent(q)
            np.testing.assert_array_equal(sample.matrix, single.matrix)
            assert sample.defect == single.defect

    def test_clean_input_takes_no_factorization(self, factorizations):
        # the certificate decides from norm bounds; the defect waits for a read
        m = random_idempotent(256, 100, 3.0, 21).matrix
        stacked = np.linalg.norm(m[np.newaxis] @ m - m, 2, axis=(-2, -1))[0]
        factorizations.clear()
        q = as_idempotent(m)
        assert dict(factorizations) == {}
        # exact on first read, bitwise the stacked norm, and kept
        assert q.defect == stacked
        assert q.defect == stacked
        assert dict(factorizations) == {"svdvals": 1}

    def test_bounds_decide_as_the_exact_test(self):
        # gates just above and below each sample's exact defect ratio
        stack = np.stack([random_idempotent(6, 3, nu, 8).matrix for nu in (1e-3, 1.0, 1e3)])
        for q in stack:
            ratio = operator_norm(q @ q - q) / (1.0 + operator_norm(q) ** 2)
            for factor, ok in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
                tol = Tolerances(check=factor * ratio)
                if ok:
                    as_idempotent(q, tol)
                else:
                    with pytest.raises(ValidationError, match="idempotency defect"):
                        as_idempotent(q, tol)

    def test_rejects_any_bad_sample(self):
        stack = np.array([CANONICAL, [[1.0, 1.0], [0.0, 0.5]]], dtype=np.complex128)
        with pytest.raises(ValidationError, match="idempotency defect"):
            as_idempotent(stack)

    def test_rejects_non_finite_sample(self):
        stack = np.array([CANONICAL, [[np.nan, 0.0], [0.0, 0.0]]], dtype=np.complex128)
        with pytest.raises(ValueError, match="finite"):
            as_idempotent(stack)

    def test_empty_stack_gives_no_samples(self):
        assert as_idempotent(np.empty((0, 3, 3), dtype=np.complex128)) == []

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 0, 0)], ids=["non_square", "empty_matrices"])
    def test_rejects_a_stack_of_non_square_or_empty_matrices(self, shape):
        for certifier in (as_idempotent, as_projection):
            with pytest.raises(ValueError, match=re.escape(f"expected a stack of square matrices, got shape {shape}")):
                certifier(np.zeros(shape))

    def test_matrix_is_certified_as_one_2d_residual(self, monkeypatch):
        # a matrix is certified as itself, never as a stack of one
        residuals = []
        kernel = idempotents.certify
        monkeypatch.setattr(
            idempotents, "certify",
            lambda residual, *args, **kwargs: residuals.append(residual.shape) or kernel(residual, *args, **kwargs),
        )
        q = random_idempotent(5, 2, 1.0, 4).matrix
        residuals.clear()
        assert isinstance(as_idempotent(q), idempotents.Idempotent)
        assert residuals == [(5, 5)]
        residuals.clear()
        assert len(as_idempotent(np.stack([q, q, q]))) == 3
        assert residuals == [(3, 5, 5)]

    def test_integer_input_is_certified_complex(self):
        (q,) = as_idempotent(np.array([[[1, 0], [0, 0]]]))
        assert q.matrix.dtype == np.complex128
        # a nested list is read as one matrix, so a 3-D one is not square
        with pytest.raises(ValueError, match="expected a square matrix"):
            as_idempotent([[[1, 0], [0, 0]]])


class TestStackedProjections:
    @staticmethod
    def reference(dim, rank, seed):
        """U_r U_r* from one 2-D QR of the seed's Gaussian, columns phase-fixed by diag(R)."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        qmat, r = np.linalg.qr(g)
        d = np.diag(r)
        u = (qmat * (d / np.abs(d)))[:, :rank]
        return u @ adjoint(u)

    def test_each_slice_keeps_the_tolerance(self):
        loose = Tolerances(check=1e-6)
        stack = np.stack([p.matrix for p in random_projection(4, [1, 2, 3], [5, 6, 7])])
        assert [p.tol for p in as_projection(stack, loose)] == [loose] * 3
        assert as_projection(stack[0], loose).tol == loose
        assert [p.tol for p in random_projection(4, [1, 2], [5, 6], loose)] == [loose] * 2

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 16])
    def test_each_slice_is_its_stack_of_one_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        ranks = [int(r) for r in rng.integers(0, dim + 1, size=20)]
        seeds = [int(s) for s in rng.integers(2**32, size=20)]
        for p, rank, seed in zip(random_projection(dim, ranks, seeds), ranks, seeds):
            single = random_projection(dim, rank, seed).matrix
            assert p.matrix.tobytes() == single.tobytes()
            assert single.tobytes() == self.reference(dim, rank, seed).tobytes()

    def test_bad_rank_anywhere_in_the_stack(self):
        with pytest.raises(ValueError, match=r"^rank 5 outside \[0, 4\]$"):
            random_projection(4, [2, 5], [0, 1])

    @pytest.mark.parametrize("ranks, seeds", [([1, 2], [5]), ([1], [5, 6])], ids=["more_ranks", "more_seeds"])
    def test_ranks_and_seeds_of_different_lengths(self, ranks, seeds):
        # each rank is paired with one seed: none is dropped without an error
        with pytest.raises(ValueError, match=f"differ in length: {len(ranks)} and {len(seeds)}"):
            random_projection(4, ranks, seeds)

    @pytest.mark.parametrize("dim, ranks, seeds", [(0, [0], [1]), (-1, [0], [1]), (0, [], [])])
    def test_dim_below_one_before_any_draw(self, monkeypatch, dim, ranks, seeds):
        # numpy would fail only at the reshape of an empty draw, or return an empty list
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=f"^dim must be at least 1, not {dim}$"):
            random_projection(dim, ranks, seeds)

    def test_one_stacked_qr(self, factorizations):
        random_projection(8, [0, 3, 8] * 7, range(21))
        assert dict(factorizations) == {"qr": 1}

    def test_unsettled_slices_get_the_single_decision(self):
        # at a gate just above or below P's exact defect the bounds settle
        # nothing, and each slice is decided, and worded, as as_projection does
        p = random_projection(6, 3, 3)
        defect = projection_defect(p)
        assert defect > 0.0
        stack = np.stack([p.matrix, p.matrix])
        above = Tolerances(check=defect * (1.0 + 1e-9))
        assert [s.matrix.tobytes() for s in as_projection(stack, above)] == [p.matrix.tobytes()] * 2
        below = Tolerances(check=defect * (1.0 - 1e-9))
        with pytest.raises(ValidationError) as stacked:
            as_projection(stack, below)
        with pytest.raises(ValidationError) as single:
            as_projection(p.matrix, below)
        assert str(stacked.value) == str(single.value)

    def test_rejects_oblique_and_non_finite_slices(self):
        p = random_projection(2, 1, 3).matrix
        with pytest.raises(ValidationError, match="projection defect"):
            as_projection(np.stack([p, np.array(CANONICAL, dtype=complex)]))
        with pytest.raises(ValueError, match="finite"):
            as_projection(np.stack([p, np.full((2, 2), np.nan + 0j)]))

    def test_empty_stack_gives_no_projections(self):
        assert as_projection(np.empty((0, 3, 3), dtype=np.complex128)) == []

    def test_empty_draw_gives_no_projections(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        assert random_projection(4, [], []) == []

    def test_matrix_is_certified_as_2d_residuals(self, monkeypatch):
        # as_projection takes is_projection's verdict: a matrix gives two 2-D
        # residuals, a stack two stacked ones, and no certify is called
        bracketed = []
        verdict = idempotents.norm_at_most
        monkeypatch.setattr(
            idempotents, "norm_at_most", lambda m, bound: bracketed.append(m.shape) or verdict(m, bound)
        )
        monkeypatch.setattr(idempotents, "certify", no_certify)
        p = random_projection(5, 2, 4).matrix
        bracketed.clear()
        as_projection(p)
        assert bracketed == [(5, 5), (5, 5)]
        bracketed.clear()
        as_projection(np.stack([p, p, p]))
        assert bracketed == [(3, 5, 5), (3, 5, 5)]

    def test_first_failing_slice_is_named_whichever_test_it_fails(self):
        # P_0 fails only idempotency and P_1 only Hermiticity, which the
        # stacked verdict tests first; the message is P_0's
        p0 = 2.0 * random_projection(3, 1, 5).matrix
        p1 = random_projection(3, 2, 6).matrix
        p1[0, 1] += 1e-3
        assert norm_at_most(p0 - adjoint(p0), 1e-10) and not norm_at_most(p0 @ p0 - p0, 1e-10)
        assert not norm_at_most(p1 - adjoint(p1), 1e-10)
        with pytest.raises(ValidationError) as stacked:
            as_projection(np.stack([p0, p1]))
        with pytest.raises(ValidationError) as first:
            as_projection(p0)
        assert str(stacked.value) == str(first.value)
        assert f"projection defect {operator_norm(p0 @ p0 - p0):.3e}" in str(stacked.value)


class TestMemo:
    def test_replace_starts_a_fresh_memo(self):
        q = random_idempotent(6, 2, 3.0, 11)
        other = random_idempotent(6, 4, 0.5, 12)
        q.norm, range_projection(q)
        q.defect
        moved = dataclasses.replace(q, matrix=other.matrix)
        assert moved.norm == other.norm
        assert moved.defect == other.defect
        np.testing.assert_array_equal(
            range_projection(moved).matrix, range_projection(other).matrix
        )

    def test_q_only_values_from_one_svd(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        q.norm, q.rank, q.abs_q, q.abs_q_star
        assert dict(factorizations) == {"svd": 1}

    def test_q_only_values_match_independent_routes(self):
        q = random_idempotent(8, 3, 2.0, 5)
        qm = q.matrix
        scale = 1e-12 * (1 + operator_norm(qm))
        assert q.rank == 3
        assert abs(q.norm - operator_norm(qm)) <= scale
        assert operator_norm(q.abs_q - abs_value(qm)) <= scale
        assert operator_norm(q.abs_q_star - abs_value(adjoint(qm))) <= scale

    def test_projections_from_the_one_svd(self, factorizations):
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        range_projection(q), null_projection(q)
        # certified from norm bounds: no 2-norm on clean input
        assert dict(factorizations) == {"svd": 1}

    def test_projections_keyed_on_tolerance(self):
        # certified at the default gate, the same projections cannot meet 1e-18:
        # a copy of Q at that tolerance has its own memo and certifies afresh
        q = random_idempotent(6, 2, 3.0, 11)
        range_projection(q), null_projection(q)
        strict = dataclasses.replace(q, tol=Tolerances(check=1e-18))
        with pytest.raises(ValidationError):
            range_projection(strict)
        with pytest.raises(ValidationError):
            null_projection(strict)


class TestOffdiagNorm:
    def test_is_the_constructed_offdiag_norm(self):
        # random_idempotent scales A to the given norm; nu reads it back
        for nu in NORM_LADDER:
            for dim, rank in ((2, 1), (8, 3), (32, 16), (32, 31)):
                q = random_idempotent(dim, rank, nu, 100 * dim + rank)
                assert q.offdiag_norm == pytest.approx(nu, rel=1e-12)
                assert np.hypot(1.0, q.offdiag_norm) == pytest.approx(q.norm, rel=1e-12)

    def test_zero_without_an_offdiagonal_block(self):
        for dim, rank in ((1, 0), (1, 1), (8, 0), (8, 8)):
            assert random_idempotent(dim, rank, 1.0, 3).offdiag_norm == 0.0

    def test_memoized_from_the_one_svd(self, factorizations):
        # one thin SVD of the (n - r) x r block, then none: nu and the
        # range identities' column spaces read the same memoized factors
        q = random_idempotent(8, 3, 2.0, 5)
        q.svd
        factorizations.clear()
        first = q.offdiag_norm
        assert dict(factorizations) == {"svd": 1}
        g, sigma = q.offdiag_svd
        assert g.shape == (5, 3) and first == sigma[0]
        assert q.offdiag_norm == first and q.offdiag_svd[0] is g
        assert dict(factorizations) == {"svd": 1}


class TestPartners:
    def test_memoized_per_tolerance(self):
        q = random_idempotent(8, 3, 2.0, 5)
        assert complement_of(q) is complement_of(q)
        assert adjoint_of(q) is adjoint_of(q)
        loose = dataclasses.replace(q, tol=Tolerances(check=1e-9))
        assert adjoint_of(loose) is not adjoint_of(q)
        assert complement_of(loose) is not complement_of(q)

    def test_matrices_are_exact(self):
        q = random_idempotent(8, 3, 2.0, 5)
        comp = np.eye(8) - q.matrix
        assert np.array_equal(adjoint_of(q).matrix, adjoint(q.matrix))
        assert np.array_equal(complement_of(q).matrix, comp)
        assert np.array_equal(adjoint_of(complement_of(q)).matrix, adjoint(comp))

    def test_each_partner_certified_at_its_tolerance(self):
        strict = dataclasses.replace(random_idempotent(8, 3, 2.0, 5), tol=Tolerances(check=1e-30))
        with pytest.raises(ValidationError):
            adjoint_of(strict)
        with pytest.raises(ValidationError):
            complement_of(strict)

    def test_never_q_itself(self):
        # a partner's partner is a new idempotent of the same matrix, so no
        # memo refers back to Q and Q is freed by refcount
        gc.disable()
        try:
            for matrix in (random_idempotent(8, 3, 2.0, 5).matrix, random_projection(8, 3, 5).matrix):
                q = as_idempotent(matrix)
                alive = weakref.ref(q)
                twice = adjoint_of(adjoint_of(q))
                assert twice is not q and np.array_equal(twice.matrix, q.matrix)
                assert complement_of(complement_of(q)) is not q
                del q
                assert alive() is None
        finally:
            gc.enable()


class TestRangeProjection:
    def test_fixed_point_on_projection(self):
        # (2P - I)^(-1) = 2P - I and P (2P - I) = P
        p = as_idempotent(np.diag([1.0, 0.0]))
        out = range_projection(p)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_canonical(self):
        # oracle: (Q + Q* - I)^(-1) computed directly, then Q times it
        q = as_idempotent(CANONICAL)
        pencil = q.matrix + adjoint(q.matrix) - np.eye(2)
        expect = q.matrix @ np.linalg.inv(pencil)
        np.testing.assert_allclose(expect, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(range_projection(q).matrix, expect, atol=1e-13)

    def test_zero(self):
        out = range_projection(as_idempotent(np.zeros((3, 3))))
        np.testing.assert_allclose(out.matrix, np.zeros((3, 3)), atol=1e-14)

    def test_projects_onto_range(self):
        for seed in range(30):
            q = random_idempotent(6, 3, 1.5, seed)
            p = range_projection(q).matrix
            scale = 1e-10 * (1 + operator_norm(q.matrix))
            assert operator_norm(p @ q.matrix - q.matrix) <= scale
            assert operator_norm(q.matrix @ p - p) <= scale

    def test_certified_at_large_offdiag_norm(self):
        # Koliha's Q (Q + Q* - I)^(-1) fails projection validation on 7 of
        # these 20 inputs; U_r U_r* and I - V_r V_r* are exact to round-off
        for q in envelope_inputs((1e6,), dims=(4, 8, 16, 32)):
            p_r, p_n = range_projection(q), null_projection(q)
            assert max(projection_defect(p_r), projection_defect(p_n)) <= 16 * q.dim * EPS
            scale = 1e-10 * (1 + q.norm)
            assert operator_norm(p_r.matrix @ q.matrix - q.matrix) <= scale
            assert operator_norm(q.matrix @ p_n.matrix) <= scale


class TestKolihaProjections:
    def test_routes_agree(self):
        # both routes are backward stable for P_R(Q), whose condition grows
        # like ||Q||; measured gaps stay below 5.5e-15 (1 + ||Q||)
        for q in envelope_inputs(NORM_LADDER, dims=(8, 16, 32), every_rank=True):
            k_r, k_rs = koliha_projections(q)
            bound = 1e-13 * (1 + q.norm)
            assert operator_norm(range_projection(q).matrix - k_r.matrix) <= bound
            complement = np.eye(q.dim) - k_rs.matrix
            assert operator_norm(null_projection(q).matrix - complement) <= bound

    def test_one_pencil_per_q(self, factorizations):
        # the singularity test reads the eigenvalues of Q's memoized pencil,
        # the eigh that m(Q) is built from, not an eigvalsh of its own
        q = random_idempotent(8, 3, 2.0, 5)
        factorizations.clear()
        koliha_projections(q)
        koliha_projections(q)
        assert dict(factorizations) == {"eigh": 1, "solve": 1}

    def test_singular_pencil_on_defective_input(self):
        # a "validated" non-idempotent (loose gate) makes Q + Q* - I singular
        loose = Tolerances(check=1.0)
        half = as_idempotent(0.5 * np.eye(2), loose)
        with pytest.raises(ValidationError, match=r"^Q \+ Q\* - I is numerically singular$"):
            koliha_projections(half)

    def test_failure_is_not_memoized(self, factorizations):
        # each call raises again and no verdict is kept; the pencil's eigh is
        # a value of Q alone, kept on Q, so the second call factors nothing
        loose = Tolerances(check=1.0)
        half = as_idempotent(0.5 * np.eye(2), loose)
        for calls in (1, 2):
            with pytest.raises(ValidationError, match=r"^Q \+ Q\* - I is numerically singular$"):
                koliha_projections(half)
            assert factorizations["eigh"] == 1
        assert half._memo == {}

    def test_singular_pencil_under_rank_override(self):
        # Q + Q* - I = diag(1, 2e-3) is numerically singular only under a cutoff above 2e-3
        near = as_idempotent(np.diag([1.0, 0.501]), Tolerances(check=1.0, rank=1e-2))
        with pytest.raises(ValidationError, match=r"^Q \+ Q\* - I is numerically singular$"):
            koliha_projections(near)


class TestNullProjection:
    def test_projection_input(self):
        p = as_idempotent(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(null_projection(p).matrix, np.diag([0.0, 1.0]), atol=1e-14)

    def test_canonical(self):
        q = as_idempotent(CANONICAL)
        expect = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(null_projection(q).matrix, expect, atol=1e-13)
        # projects onto the null space: Q annihilates it
        out = null_projection(q).matrix
        assert operator_norm(q.matrix @ out) <= 1e-13

    def test_identity_input(self):
        out = null_projection(as_idempotent(np.eye(4)))
        np.testing.assert_allclose(out.matrix, np.zeros((4, 4)), atol=1e-14)

    def test_equals_range_of_complement(self):
        for seed in range(30):
            q = random_idempotent(7, 4, 2.0, seed)
            comp = as_idempotent(np.eye(7) - q.matrix)
            gap = operator_norm(
                null_projection(q).matrix - range_projection(comp).matrix
            )
            assert gap <= 1e-10 * (1 + operator_norm(q.matrix))


class TestRandomIdempotent:
    def test_rank_zero_is_zero(self):
        q = random_idempotent(5, 0, 2.0, 11)
        np.testing.assert_allclose(q.matrix, np.zeros((5, 5)), atol=1e-15)

    def test_full_rank_is_identity(self):
        q = random_idempotent(5, 5, 2.0, 11)
        np.testing.assert_allclose(q.matrix, np.eye(5), atol=1e-14)

    def test_norm_formula_dim_two(self):
        for seed in range(10):
            q = random_idempotent(2, 1, 1.0, seed)
            assert abs(operator_norm(q.matrix) - RT2) <= 1e-12

    def test_norm_formula_general(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            dim = int(rng.integers(2, 11))
            rank = int(rng.integers(1, dim))
            nu = float(10.0 ** rng.uniform(-2, 2))
            q = random_idempotent(dim, rank, nu, int(rng.integers(2**32)))
            assert abs(operator_norm(q.matrix) - np.sqrt(1 + nu**2)) <= 1e-10

    def test_bad_rank(self):
        with pytest.raises(ValueError, match=r"^rank 5 outside \[0, 4\]$"):
            random_idempotent(4, 5, 1.0, 0)
        with pytest.raises(ValueError, match=r"^rank -1 outside \[0, 4\]$"):
            random_idempotent(4, -1, 1.0, 0)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_before_any_draw(self, monkeypatch, dim):
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=f"^dim must be at least 1, not {dim}$"):
            random_idempotent(dim, 0, 1.0, 0)

    def test_negative_offdiag_norm(self):
        with pytest.raises(ValueError):
            random_idempotent(4, 2, -1.0, 0)

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_non_finite_offdiag_norm(self, nu):
        # NaN compares false with everything, so a sign test alone lets it
        # through and returns the projection of an empty off-diagonal block
        with pytest.raises(ValueError, match="finite"):
            random_idempotent(4, 2, nu, 1)

    def test_projection_bad_rank(self):
        with pytest.raises(ValueError, match=r"^rank 5 outside \[0, 4\]$"):
            random_projection(4, 5, 0)
        with pytest.raises(ValueError, match=r"^rank -1 outside \[0, 4\]$"):
            random_projection(4, -1, 0)

    def test_deterministic(self):
        a = random_idempotent(8, 3, 2.0, 42)
        b = random_idempotent(8, 3, 2.0, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seed_changes_output(self):
        a = random_idempotent(8, 3, 2.0, 42)
        b = random_idempotent(8, 3, 2.0, 43)
        assert operator_norm(a.matrix - b.matrix) > 1e-3


class TestBlockForm:
    def test_projection_blocks(self):
        p = random_projection(6, 2, 5)
        form = block_form(p.matrix, p)
        assert form.rank == 2
        np.testing.assert_allclose(form.blocks[0], np.eye(2), atol=1e-12)
        for b in form.blocks[1:]:
            assert operator_norm(b) <= 1e-12

    def test_identity_blocks(self):
        p = random_projection(5, 3, 6)
        form = block_form(np.eye(5, dtype=complex), p)
        np.testing.assert_allclose(form.blocks[0], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(form.blocks[3], np.eye(2), atol=1e-12)

    def test_idempotent_is_upper_triangular_over_its_range(self):
        for seed in range(20):
            q = random_idempotent(6, 3, 1.0, seed)
            form = block_form(q.matrix, range_projection(q))
            assert operator_norm(form.blocks[0] - np.eye(3)) <= 1e-10
            assert operator_norm(form.blocks[2]) <= 1e-10
            assert operator_norm(form.blocks[3]) <= 1e-10

    def test_roundtrip_200_trials(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            rank = int(rng.integers(0, dim + 1))
            t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            p = random_projection(dim, rank, int(rng.integers(2**32)))
            form = block_form(t, p)
            assert operator_norm(form.u @ adjoint(form.u) - np.eye(dim)) <= 1e-12
            assert operator_norm(form.reassemble() - t) <= 1e-10 * (
                1 + operator_norm(t)
            )

    def test_analysed_at_the_tolerance_of_the_projection(self):
        # P + K with K skew-Hermitian, ||K|| = 1e-8: an asymmetry of 2e-8, which a
        # 1e-6 certificate accepts and the default 1e-10 would not
        k = idempotents.complex_gaussian(np.random.default_rng(11), 6, 6)
        k -= adjoint(k)
        k *= 1e-8 / operator_norm(k)
        loose = Tolerances(check=1e-6)
        p = as_projection(random_projection(6, 3, 4).matrix + k, loose)
        with pytest.raises(ValidationError):
            as_projection(p.matrix)
        form = block_form(p.matrix, p)
        assert form.rank == 3
        assert operator_norm(form.reassemble() - p.matrix) <= loose.relative(operator_norm(p.matrix))

    def test_split_matches_projection_rank(self):
        p = as_projection(np.diag([1.0, 1.0, 0.0]))
        form = block_form(as_matrix(np.diag([5.0, 6.0, 7.0])), p)
        assert form.rank == 2
