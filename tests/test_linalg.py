"""Tests for the dense complex kernels."""

import dataclasses

import numpy as np
import pytest

from matchedproj import (
    NotHermitianError,
    Tolerances,
    abs_value,
    adjoint,
    as_matrix,
    canonical_idempotent,
    hermitian_eigen,
    matched_projection,
    moore_penrose,
    norm_at_most,
    norm_bounds,
    norm_bracket,
    numerical_rank,
    operator_norm,
    psd_order,
    psd_power,
)
from matchedproj.linalg import certify, hermitian_eigvals, is_psd_spectrum, require_hermitian

RT2 = np.sqrt(2.0)


def random_complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestAsMatrix:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 0)))


class TestTolerances:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(check=0.0)
        with pytest.raises(ValueError):
            Tolerances(rank=0.0)

    @pytest.mark.parametrize("field", ["check", "rank"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            Tolerances(**{field: value})

    def test_default_rank_factor_scales_with_dim(self):
        eps = np.finfo(np.float64).eps
        assert Tolerances().rank_factor(16) == 16 * eps
        assert Tolerances(rank=1e-9).rank_factor(16) == 1e-9

    def test_fixed_gates_are_class_constants(self):
        # the gates that were literals or module constants, with their values; no new field
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["check", "rank"]
        fixed = {"psd": 1e-10, "subspace": 1e-8, "route": 10.0, "absolute": 1e-9, "limit": 1e-2}
        assert {name: getattr(Tolerances, name) for name in fixed} == fixed

    @pytest.mark.parametrize("s", [0.0, 1e-10, 1.0, 1e6, 1e12])
    def test_gate_methods_are_the_inline_expressions_bitwise(self, s):
        # each method against the expression it replaced at its call sites,
        # on a float, a numpy scalar and an array of norms
        for tol in (Tolerances(), Tolerances(check=2e-15), Tolerances(check=3.7e-7, rank=1e-9)):
            c = tol.check
            for x in (s, np.float64(s), np.array([s, 2.0 * s])):
                pairs = [
                    (tol.relative(x), c * (1.0 + x)),
                    (tol.quadratic(x), c * (1.0 + x**2)),
                    (tol.route_gate(x), 10.0 * c * (1.0 + x)),
                    (tol.route_gate(0.0), 10.0 * c),
                    (tol.above(x), x + c),
                    (tol.above_absolute(x), x + 1e-9),
                    (tol.below(x), x - c),
                    (tol.psd_slack(x), 1e-10 * (1.0 + x)),
                ]
                for got, inline in pairs:
                    assert np.asarray(got).tobytes() == np.asarray(inline, dtype=np.float64).tobytes(), (s, x)


class TestAdjoint:
    def test_conjugate_transpose(self):
        m = as_matrix([[1.0, 1j], [0.0, 0.0]])
        expect = as_matrix([[1.0, 0.0], [-1j, 0.0]])
        assert operator_norm(adjoint(m) - expect) == 0.0

    def test_hermitian_fixed_point(self):
        m = as_matrix([[2.0, 1 - 1j], [1 + 1j, 3.0]])
        assert operator_norm(adjoint(m) - m) == 0.0

    def test_involution_and_isometry(self):
        rng = np.random.default_rng(1)
        for dim in (1, 3, 8):
            m = random_complex(rng, dim)
            assert operator_norm(adjoint(adjoint(m)) - m) == 0.0
            assert abs(operator_norm(adjoint(m)) - operator_norm(m)) < 1e-12

    def test_stack_gives_each_slice_adjoint_bitwise(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_complex(rng, 4) for _ in range(3)])
        out = adjoint(stack)
        assert out.shape == (3, 4, 4)
        assert out.tobytes() == np.stack([m.conj().T for m in stack]).tobytes()


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_projection_has_norm_one(self):
        p = as_matrix(0.5 * np.array([[1, 1], [1, 1]]))
        assert operator_norm(p) == pytest.approx(1.0, abs=1e-14)

    def test_canonical_idempotent(self):
        # eigenvalues of Q Q* are {2, 0}
        q = as_matrix([[1.0, 1.0], [0.0, 0.0]])
        assert operator_norm(q) == pytest.approx(RT2, abs=1e-14)

    def test_cstar_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = random_complex(rng, int(rng.integers(1, 9)))
            n = operator_norm(m)
            assert abs(operator_norm(adjoint(m) @ m) - n**2) < 1e-11 * (1 + n**2)

    def test_stack_is_bitwise_per_slice(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 7, 16):
            stack = np.array([random_complex(rng, dim) for _ in range(5)])
            stack[2] = 0.0
            norms = operator_norm(stack)
            assert norms.shape == (5,)
            assert norms.tolist() == [operator_norm(m) for m in stack]
            m = stack[0]
            assert type(operator_norm(m)) is float
            assert operator_norm(m) == float(np.linalg.norm(m, 2))


KERNEL_SCALES = (1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150)


def kernel_inputs():
    """2-D matrices and (k, ., .) stacks for n = 1..64, the entry scale cycling 1e-150..1e150.

    Real and complex, contiguous and not: adjoint views, r x (n - r) slices,
    every other slice of a stack and its sliced blocks; a zero matrix at
    every n and a zero slice in every stack.
    """
    rng = np.random.default_rng(17)
    for dim in range(1, 65):
        scale = KERNEL_SCALES[dim % len(KERNEL_SCALES)]
        m = scale * random_complex(rng, dim)
        stack = scale * np.array([random_complex(rng, dim) for _ in range(5)])
        stack[2] = 0.0
        yield m
        yield m.real
        yield adjoint(m)
        yield np.zeros((dim, dim), dtype=complex)
        yield stack
        yield stack[::2]
        yield stack.real
        yield adjoint(stack)
        if dim > 1:
            r = dim // 3 + 1
            yield m[:r, r:]
            yield stack[:, :r, r:]


class TestKernels:
    def test_operator_norm_is_numpy_2_norm_bitwise(self):
        for m in kernel_inputs():
            norms = operator_norm(m)
            expect = np.linalg.norm(m, 2, axis=(-2, -1))
            if m.ndim == 2:
                assert type(norms) is float
                assert norms == float(expect)
            else:
                assert norms.shape == (m.shape[0],)
                np.testing.assert_array_equal(norms, expect)

    def test_bounds_bracket_the_computed_norm(self):
        for m in kernel_inputs():
            lower, upper = norm_bounds(m)
            norms = operator_norm(m)
            if m.ndim == 2:
                assert type(lower) is float and type(upper) is float
            else:
                assert lower.shape == upper.shape == (m.shape[0],)
            assert np.all(lower <= norms) and np.all(norms <= upper)
            assert np.all(0.0 <= lower)

    def test_norm_at_most_is_the_exact_comparison(self):
        # at the computed norm and one ulp either side of it
        for m in kernel_inputs():
            if m.ndim != 2:
                continue
            exact = operator_norm(m)
            for bound in (np.nextafter(exact, -np.inf), exact, np.nextafter(exact, np.inf)):
                assert norm_at_most(m, float(bound)) == (exact <= bound)

    def test_stack_bracket_holds_the_largest_norm_and_decides_exactly(self):
        # a (k, n, n) stack is bracketed slice by slice; the fold that
        # report.norm_check takes, (max lower, max upper), holds the largest
        # norm and decides max(operator_norm(stack)) <= gate exactly
        for m in kernel_inputs():
            if m.ndim != 3:
                continue
            norms = operator_norm(m)
            exact = float(np.max(norms))
            for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
                gate = factor * exact
                lower, upper = norm_bracket(m, gate)
                assert lower.shape == upper.shape == (m.shape[0],)
                assert np.all(lower <= norms) and np.all(norms <= upper), (m.shape, lower, norms, upper)
                assert np.array_equal(upper <= gate, norms <= gate), (m.shape, factor)
                top_lower, top_upper = float(lower.max()), float(upper.max())
                assert top_lower <= exact <= top_upper, (m.shape, top_lower, exact, top_upper)
                assert (top_upper <= gate) == (exact <= gate), (m.shape, factor)
                assert norm_at_most(m, gate) == (exact <= gate)

    def test_straddling_stack_takes_one_stacked_norm(self, linalg_calls):
        # gates clear of both slices' bounds take no factorization; the
        # identity's bounds (1, 2) straddle a gate of 1.5, the half
        # identity's (0.5, 1) do not, so only the identity's norm is taken
        stack = np.stack([np.eye(4), 0.5 * np.eye(4)]).astype(complex)
        assert np.all(norm_bracket(stack, 3.0)[1] <= 3.0)
        assert np.all(norm_bracket(stack, 0.4)[0] > 0.4)
        assert linalg_calls == []
        lower, upper = norm_bracket(stack, 1.5)
        assert (lower[0], upper[0]) == (1.0, 1.0)
        assert (lower[1], upper[1]) == norm_bounds(stack[1])
        assert linalg_calls == ["svd"]

    def test_per_slice_brackets_are_the_single_brackets_bitwise(self):
        # each slice against one gate or its own gate, near and far from its norm
        rng = np.random.default_rng(23)
        for dim in (1, 2, 5, 12, 16):
            stack = np.stack([random_complex(rng, dim) for _ in range(10)])
            exact = operator_norm(stack)
            for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
                for gates in (factor * exact, factor * float(exact.mean())):
                    brackets = list(zip(*norm_bracket(stack, gates)))
                    singles = [norm_bracket(m, float(g)) for m, g in zip(stack, np.broadcast_to(gates, 10))]
                    assert [tuple(map(float.hex, map(float, b))) for b in brackets] == [
                        tuple(map(float.hex, b)) for b in singles
                    ], (dim, factor)

    def test_per_slice_brackets_take_one_stacked_norm(self, linalg_calls):
        # the identity's bounds (1, 2) straddle a gate of 1.5, the half
        # identity's (0.5, 1) do not; both identities share one stacked SVD
        stack = np.stack([np.eye(4), 0.5 * np.eye(4), np.eye(4)]).astype(complex)
        gates = np.array([3.0, 1.5, 0.9])
        assert list(zip(*norm_bracket(stack, gates))) == [
            norm_bracket(m, g) for m, g in zip(stack, gates.tolist())
        ]
        assert linalg_calls == []
        lower, upper = norm_bracket(stack, np.array([1.5, 1.5, 1.5]))
        assert list(zip(lower, upper)) == [(1.0, 1.0), norm_bounds(stack[1]), (1.0, 1.0)]
        assert linalg_calls == ["svd"]


def norm_test_matrices(rng, dim):
    """A random matrix, a rank-one one (Frobenius norm = 2-norm) and zero."""
    x, y = random_complex(rng, dim)[:, :1], random_complex(rng, dim)[:, :1]
    return {"random": random_complex(rng, dim), "rank_one": x @ adjoint(y),
            "zero": np.zeros((dim, dim), dtype=complex)}


class TestNormAtMost:
    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_agrees_with_exact_comparison(self, dim):
        # at the computed norm and one ulp either side of it
        rng = np.random.default_rng(dim)
        for m in norm_test_matrices(rng, dim).values():
            exact = operator_norm(m)
            for bound in (np.nextafter(exact, -np.inf), exact, np.nextafter(exact, np.inf)):
                assert norm_at_most(m, bound) == (exact <= bound)

    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_bounds_bracket_the_norm(self, dim):
        rng = np.random.default_rng(100 + dim)
        for m in norm_test_matrices(rng, dim).values():
            lower, upper = norm_bounds(m)
            assert lower <= operator_norm(m) <= upper

    def test_clear_cases_take_no_factorization(self, linalg_calls):
        # one nonzero column: both bounds are within their slack of the norm
        m = np.zeros((8, 8), dtype=complex)
        m[:, 2] = random_complex(np.random.default_rng(7), 8)[:, 0]
        exact = operator_norm(m)
        linalg_calls.clear()
        assert norm_at_most(m, exact * (1 + 1e-9))
        assert not norm_at_most(m, exact * (1 - 1e-9))
        assert norm_at_most(np.zeros((8, 8)), 0.0)
        assert linalg_calls == []


class TestRequireHermitian:
    def test_clean_input_takes_no_factorization(self, linalg_calls):
        rng = np.random.default_rng(5)
        x = random_complex(rng, 16)
        h = x @ adjoint(x)
        linalg_calls.clear()
        np.testing.assert_array_equal(require_hermitian(h), (h + adjoint(h)) / 2.0)
        assert linalg_calls == []

    def test_rejection_reports_the_exact_gap(self):
        m = as_matrix([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(NotHermitianError, match=f"asymmetry {operator_norm(m - adjoint(m)):.3e} "):
            require_hermitian(m)

    def test_near_gate_decided_exactly(self):
        # ||M - M*|| just inside and just outside tol.check (1 + ||M||), where
        # the Frobenius bound (sqrt 2 times the gap) cannot accept
        check = Tolerances().check
        for scale, ok in ((0.999, True), (1.001, False)):
            m = np.diag([1.0, 0.5]).astype(complex)
            m[0, 1] = scale * check * 2.0
            assert (operator_norm(m - adjoint(m)) <= check * (1.0 + operator_norm(m))) == ok
            if ok:
                require_hermitian(m)
            else:
                with pytest.raises(NotHermitianError):
                    require_hermitian(m)


class Failed(Exception):
    """What ``certify`` raises in these tests: the failing norm, its gate and its slice."""


def failed(norm, bound, k):
    return Failed(norm, bound, k)


# each gate shape, as a function of the tolerances, and how many operands it reads
GATE_SHAPES = {
    "relative": (lambda tol: tol.relative, 1),
    "quadratic": (lambda tol: tol.quadratic, 1),
    "product": (lambda tol: lambda a, b: tol.relative(a * b), 2),
    "constant": (lambda tol: lambda: tol.check, 0),
}


def exact_failure(residual, gate, operands, scale=1.0):
    """(k, norm, bound) of the first slice with scale ||R_k|| > gate(||A_k||, ...), all exact, or None."""
    r, *ops = (m.reshape(-1, *m.shape[-2:]) for m in (residual, *operands))
    for k in range(len(r)):
        norm = scale * operator_norm(r[k])
        bound = gate(*(operator_norm(a[k]) for a in ops))
        if not norm <= bound:
            return k, norm, bound
    return None


def certify_inputs(shape, stacked, seed=31):
    """A residual and its operands for a gate shape: one 6 x 6 matrix each, or (5, 6, 6) stacks.

    The slices' residual norms and operand norms spread over decades, so
    their ratios to the gate differ and a cut between them fails some
    slices and passes others.
    """
    rng = np.random.default_rng(seed)
    k = 5 if stacked else 1
    residual = np.stack([10.0 ** rng.uniform(-12, -6) * random_complex(rng, 6) for _ in range(k)])
    operands = [np.stack([10.0 ** rng.uniform(-2, 3) * random_complex(rng, 6) for _ in range(k)])
                for _ in range(GATE_SHAPES[shape][1])]
    if not stacked:
        residual, operands = residual[0], [a[0] for a in operands]
    return residual, operands


def unit_ratio(shape, residual, operands, k):
    """||R_k|| over slice k's gate at check = 1, all exact: the check at which slice k sits on its gate."""
    r, *ops = (m.reshape(-1, *m.shape[-2:]) for m in (residual, *operands))
    gate = GATE_SHAPES[shape][0](Tolerances(check=1.0))
    return operator_norm(r[k]) / gate(*(operator_norm(a[k]) for a in ops))


class TestCertify:
    def test_clear_cases_take_no_factorization(self, linalg_calls):
        # bounds far inside the gate settle it without a norm; far outside,
        # the exact norm is taken once, for the message
        m = np.diag([2.0, 1.0]).astype(complex)
        r = np.zeros((2, 2), dtype=complex)
        r[0, 1] = 1e-3
        certify(r, Tolerances(check=1e-2).relative, failed, m)
        assert linalg_calls == []
        with pytest.raises(Failed) as info:
            certify(r, Tolerances(check=1e-5).relative, failed, m)
        assert info.value.args == (operator_norm(r), 1e-5 * (1.0 + operator_norm(m)), 0)

    def test_near_gate_decided_exactly(self):
        # ||r|| just inside and just outside check (1 + ||m||), where the
        # Frobenius bound of r (sqrt 2 times its norm) cannot accept
        m = np.diag([1.0, 0.5]).astype(complex)
        r = np.eye(2, dtype=complex)
        certify(r, Tolerances(check=1.0 / 1.999).relative, failed, m)
        with pytest.raises(Failed) as info:
            certify(r, Tolerances(check=1.0 / 2.001).relative, failed, m)
        assert info.value.args[0] == 1.0

    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    @pytest.mark.parametrize("shape", sorted(GATE_SHAPES))
    def test_verdict_is_the_exact_test_at_the_gate(self, shape, stacked):
        # with the check at 1 -/+ 1e-9 of each slice's exact ratio, that slice
        # just fails or just passes; the kernel names the first failing
        # slice, with its exact norm and gate, as the exact test does
        residual, operands = certify_inputs(shape, stacked)
        slices = len(residual) if stacked else 1
        failures = 0
        for k in range(slices):
            ratio = unit_ratio(shape, residual, operands, k)
            for factor in (1.0 - 1e-9, 1.0 + 1e-9):
                gate = GATE_SHAPES[shape][0](Tolerances(check=factor * ratio))
                expected = exact_failure(residual, gate, operands)
                if factor < 1.0:
                    assert expected is not None and expected[0] <= k, (shape, k)
                    failures += 1
                if expected is None:
                    certify(residual, gate, failed, *operands)
                    continue
                with pytest.raises(Failed) as info:
                    certify(residual, gate, failed, *operands)
                assert [float(x).hex() for x in info.value.args[:2]] == [float(x).hex() for x in expected[1:]]
                assert info.value.args[2] == expected[0], (shape, k, factor)
        assert failures == slices

    def test_scaled_residual_is_compared_bitwise(self):
        # scale ||R|| against the gate, with the scaled norm in the message
        residual, _ = certify_inputs("constant", True)
        scale = 3.0
        ratio = max(scale * operator_norm(residual))
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            gate = GATE_SHAPES["constant"][0](Tolerances(check=factor * ratio))
            expected = exact_failure(residual, gate, [], scale)
            assert (expected is None) == (factor > 1.0)
            if expected is None:
                certify(residual, gate, failed, scale=scale)
                continue
            with pytest.raises(Failed) as info:
                certify(residual, gate, failed, scale=scale)
            assert info.value.args == (*expected[1:], expected[0])

    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    @pytest.mark.parametrize("shape", sorted(GATE_SHAPES))
    def test_settled_slices_take_no_factorization(self, shape, stacked, linalg_calls):
        # a check 100 times every slice's ratio: the bounds (within sqrt 6 of
        # each norm) settle every slice
        residual, operands = certify_inputs(shape, stacked)
        ratio = max(unit_ratio(shape, residual, operands, k) for k in range(len(residual) if stacked else 1))
        linalg_calls.clear()
        certify(residual, GATE_SHAPES[shape][0](Tolerances(check=100.0 * ratio)), failed, *operands)
        assert linalg_calls == []

    def test_unsettled_slices_take_one_stacked_norm_per_quantity(self, linalg_calls):
        # the identities' bounds (1, 2) straddle a gate of 1.5, the half
        # identity's (0.5, 1) do not: one stacked SVD of the two identities,
        # one of their operands
        eye = np.eye(4, dtype=complex)
        residual = np.stack([eye, 0.5 * eye, eye])
        certify(residual, Tolerances(check=1.5).relative, failed, np.zeros_like(residual))
        assert linalg_calls == ["svd", "svd"]


class TestHermitianEigvals:
    def test_eigenvalues_of_the_symmetrized_matrix(self):
        m = np.diag([3.0, -1.0]).astype(complex)
        m[0, 1] = 1e-12
        np.testing.assert_array_equal(hermitian_eigvals(m), np.linalg.eigvalsh(require_hermitian(m)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigvals(as_matrix([[0.0, 1.0], [0.0, 0.0]]))

    def test_psd_order_decides_from_it(self):
        # the slack is tol.psd (1 + max |lambda|) below zero, on each side of it
        psd = Tolerances.psd
        for low, ok in ((-0.999 * psd * 3.0, True), (-1.001 * psd * 3.0, False)):
            b = np.diag([2.0, low]).astype(complex)
            w = hermitian_eigvals(b)
            assert is_psd_spectrum(w) == psd_order(np.zeros((2, 2)), b) == ok
            assert psd_order(np.eye(2), b + np.eye(2)) == ok


class TestHermitianEigen:
    def test_diagonal(self):
        lam, _ = hermitian_eigen(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(lam, [1.0, 3.0], atol=1e-14)

    def test_rank_one_projection(self):
        lam, _ = hermitian_eigen(as_matrix(0.5 * np.array([[1, 1], [1, 1]])))
        np.testing.assert_allclose(lam, [0.0, 1.0], atol=1e-14)

    def test_two_by_two_symmetric(self):
        # oracle: roots of the characteristic polynomial det(lambda I - M)
        m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        expect = np.sort(np.roots(np.poly(m)).real)
        lam, _ = hermitian_eigen(m)
        np.testing.assert_allclose(lam, expect, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(1, 10))
            m = random_complex(rng, dim)
            h = m + adjoint(m)
            lam, v = hermitian_eigen(h)
            recon = (v * lam) @ adjoint(v)
            assert operator_norm(recon - h) <= 1e-10 * (1 + operator_norm(h))
            assert operator_norm(adjoint(v) @ v - np.eye(dim)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(as_matrix([[0.0, 1.0], [0.0, 0.0]]))


class TestAbsValue:
    def test_projection_fixed(self):
        p = as_matrix(0.5 * np.array([[1, 1], [1, 1]]))
        assert operator_norm(abs_value(p) - p) <= 1e-14

    def test_abs_of_adjoint(self):
        q = as_matrix([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(abs_value(adjoint(q)), np.diag([RT2, 0.0]), atol=1e-14)

    def test_abs_of_canonical(self):
        # Q*Q = [[1,1],[1,1]] has eigenpairs (0, 2); the square root is
        # (1/sqrt(2)) [[1,1],[1,1]]
        q = as_matrix([[1.0, 1.0], [0.0, 0.0]])
        expect = np.array([[1.0, 1.0], [1.0, 1.0]]) / RT2
        np.testing.assert_allclose(abs_value(q), expect, atol=1e-14)

    def test_square_recovers_gram(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_complex(rng, int(rng.integers(1, 9)))
            a = abs_value(m)
            assert operator_norm(a @ a - adjoint(m) @ m) <= 1e-11 * (
                1 + operator_norm(m) ** 2
            )


class TestNumericalRank:
    def test_zero_matrix(self):
        s = np.linalg.svd(np.zeros((3, 3), dtype=complex), compute_uv=False)
        assert numerical_rank(s, 3) == 0
        assert numerical_rank(np.zeros(0), 3) == 0

    def test_rank_deficient(self):
        m = random_complex(np.random.default_rng(10), 5)
        m[:, 0] = m[:, 1]
        assert numerical_rank(np.linalg.svd(m, compute_uv=False), 5) == 4

    def test_rank_override(self):
        s = np.array([1.0, 1e-3, 1e-12])
        assert numerical_rank(s, 3) == 3
        assert numerical_rank(s, 3, Tolerances(rank=1e-6)) == 2
        assert numerical_rank(s, 3, Tolerances(rank=1e-2)) == 1
        # the cutoff itself is dropped
        assert numerical_rank(s, 3, Tolerances(rank=1e-3)) == 1

    def test_pseudoinverse_follows_the_rule(self):
        m = np.diag([1.0, 1e-3]).astype(complex)
        np.testing.assert_allclose(
            moore_penrose(m, Tolerances(rank=1e-2)), np.diag([1.0, 0.0]), atol=1e-14
        )


class TestMoorePenrose:
    def test_invertible(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 5) + 5 * np.eye(5)
        assert operator_norm(moore_penrose(m) - np.linalg.inv(m)) <= 1e-10

    def test_diagonal_rank_deficient(self):
        out = moore_penrose(np.diag([2.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_abs_qstar_pinv_gives_range_projection(self):
        a = np.diag([RT2, 0.0]).astype(complex)
        dag = moore_penrose(a)
        np.testing.assert_allclose(dag, np.diag([1 / RT2, 0.0]), atol=1e-14)
        np.testing.assert_allclose(dag @ a, np.diag([1.0, 0.0]), atol=1e-14)

    def test_four_penrose_identities(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            m = random_complex(rng, dim)
            if rng.integers(0, 2) and dim > 1:
                m[:, 0] = m[:, 1]  # force rank deficiency
            d = moore_penrose(m)
            scale = 1e-10 * (1 + operator_norm(m) ** 2)
            assert operator_norm(m @ d @ m - m) <= scale
            assert operator_norm(d @ m @ d - d) <= scale
            assert operator_norm(adjoint(m @ d) - m @ d) <= scale
            assert operator_norm(adjoint(d @ m) - d @ m) <= scale

    def test_involution(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            m = random_complex(rng, dim)
            if rng.integers(0, 2) and dim > 1:
                m[0, :] = 0.0
            back = moore_penrose(moore_penrose(m))
            assert operator_norm(back - m) <= 1e-10 * (1 + operator_norm(m))


class TestPsdOrder:
    def test_zero_below_projection(self):
        p = as_matrix(np.diag([1.0, 0.0]))
        assert psd_order(np.zeros((2, 2)), p)

    def test_identity_not_below_zero(self):
        assert not psd_order(np.eye(2, dtype=complex), np.zeros((2, 2)))

    def test_matched_compression_dominates(self):
        # m(Q) Q m(Q) >= m(Q) for the canonical 2x2 idempotent
        q = canonical_idempotent(1.0)
        m = matched_projection(q).projection.matrix
        assert psd_order(m, m @ q.matrix @ m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_order(as_matrix([[0.0, 1.0], [0.0, 0.0]]), np.eye(2, dtype=complex))


class TestPsdPower:
    def test_zeroes_junk_eigenvalues(self):
        m = np.diag([4.0, 1e-17]).astype(complex)
        out = psd_power(m, 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_negative_power_on_definite_part(self):
        m = np.diag([4.0, 1.0]).astype(complex)
        out = psd_power(m, -0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-14)

    def test_cutoff_from_its_own_eigenvalues(self, factorizations):
        # the Hermiticity gate accepts from norm bounds; the cutoff takes no norm
        m = np.diag([4.0, 1e-17, -1e-17]).astype(complex)
        factorizations.clear()
        out = psd_power(m, -0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0, 0.0]), atol=1e-14)
        assert dict(factorizations) == {"eigh": 1}

    def test_stacked_powers_equal_single_calls(self, factorizations):
        rng = np.random.default_rng(83)
        for dim in (1, 2, 5, 12, 33):
            x = random_complex(rng, dim)[:, : max(dim // 2, 1)]
            m = x @ adjoint(x)
            powers = [1.0 / 2**k for k in range(11)] + [-0.5]
            factorizations.clear()
            stack = psd_power(m, powers)
            assert stack.shape == (len(powers), dim, dim)
            assert factorizations["eigh"] == 1
            for p, got in zip(powers, stack):
                np.testing.assert_array_equal(got, psd_power(m, p))

    def test_sqrt_diagonal(self):
        out = psd_power(np.diag([4.0, 9.0]).astype(complex), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_sqrt_of_gram(self):
        q = as_matrix([[1.0, 1.0], [0.0, 0.0]])
        out = psd_power(q @ adjoint(q), 0.5)
        np.testing.assert_allclose(out, np.diag([RT2, 0.0]), atol=1e-14)

    def test_sqrt_composes_to_fourth_root(self):
        # on a rank-deficient Gram matrix (a column of M repeated) the
        # round-off eigenvalues must be cut, not taken to a fractional power
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_complex(rng, 6)
            deficient = m.copy()
            deficient[:, 0] = deficient[:, 1]
            for x in (m, deficient):
                h = adjoint(x) @ x
                twice = psd_power(psd_power(h, 0.5), 0.5)
                quarter = psd_power(h, 0.25)
                assert operator_norm(twice - quarter) <= 1e-10 * (1 + operator_norm(h))
