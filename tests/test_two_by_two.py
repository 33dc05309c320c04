"""Tests for the 2x2 closed-form minimization and its brute-force oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from matchedproj import (
    Tolerances,
    ValidationError,
    all_passed,
    canonical_idempotent,
    closed_form_p0,
    distance_objective,
    failures,
    grid_minimize,
    halmos_projection,
    matched_projection,
    operator_norm,
    range_projection,
    two_by_two,
)

from conftest import projection_defect

RT2 = np.sqrt(2.0)


def same_bits(x, y):
    """Whether x and y are equal bit for bit: each compared field of a dataclass, or as arrays."""
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            same_bits(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x) if f.compare
        )
    if x is None or y is None:
        return x is y
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def row_loop_minimum(a, points):
    """Reference scan, one t-row at a time: (min_value, argmin_x, argmin_t)."""
    xs = np.linspace(-1.0, 1.0, points)
    ts = np.linspace(0.0, np.pi, points)
    best, best_x, best_t = np.inf, xs[0], ts[0]
    for t in ts:
        vals = distance_objective(a, xs, t)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_x, best_t = float(vals[i]), float(xs[i]), float(t)
    return best, best_x, best_t


def full_grid_minimum(a, points):
    """Reference scan, the whole grid in one broadcast: (min_value, argmin_x, argmin_t).

    ``np.argmin`` of the row-major array gives the first row-major minimum.
    """
    xs = np.linspace(-1.0, 1.0, points)
    ts = np.linspace(0.0, np.pi, points)
    vals = distance_objective(a, xs[None, :], ts[:, None])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return float(vals[i, j]), float(xs[j]), float(ts[i])


class TestCanonicalIdempotent:
    def test_unit_parameter(self):
        q = canonical_idempotent(1.0)
        np.testing.assert_allclose(q.matrix, [[1.0, 1.0], [0.0, 0.0]], atol=1e-15)
        assert operator_norm(q.matrix) == pytest.approx(RT2, abs=1e-14)

    def test_norm_depends_on_modulus_only(self):
        assert operator_norm(canonical_idempotent(1j).matrix) == pytest.approx(
            RT2, abs=1e-14
        )

    def test_range_gap_is_modulus(self):
        q = canonical_idempotent(3.0)
        gap = operator_norm(range_projection(q).matrix - q.matrix)
        assert gap == pytest.approx(3.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^parameter a must be nonzero$"):
            canonical_idempotent(0.0)


class TestHalmosProjection:
    def test_rejects_off_circle(self):
        # |z| = 2 puts the point off the family; the projection certificate rejects it at tol.check
        with pytest.raises(ValidationError, match=r"^projection defect 5\.311e-01 exceeds 1\.000e-10$"):
            halmos_projection(2.0, 0.5, 0.0)

    @pytest.mark.parametrize("z", [complex("nan"), complex("nan+nanj")], ids=["nan", "nan_nan"])
    def test_rejects_nan_z(self, z):
        # NaN fails every comparison, so it must be rejected before any certificate reads it
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            halmos_projection(z, 0.5, 0.0)

    def test_angle_zero(self):
        p = halmos_projection(1j, 0.0, 0.7)
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_right_angle(self):
        p = halmos_projection(1j, np.pi / 2, 0.7)
        np.testing.assert_allclose(p.matrix, np.diag([0.0, 1.0]), atol=1e-14)

    def test_optimal_point_reproduces_closed_form(self):
        problem = closed_form_p0(1.0)
        p = halmos_projection(1.0, problem.t0, 0.0)
        np.testing.assert_allclose(p.matrix, problem.p0.matrix, atol=1e-13)

    def test_all_points_are_projections(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = np.exp(1j * rng.uniform(0, 2 * np.pi))
            t = float(rng.uniform(0, np.pi))
            p = halmos_projection(complex(z), t, float(rng.uniform(0, 2 * np.pi)))
            assert projection_defect(p) <= 1e-12


class TestDistanceObjective:
    def test_angle_zero_gives_squared_modulus(self):
        for a in (0.5, 1.0, 2.0, 1j):
            assert distance_objective(a, 0.3, 0.0) == pytest.approx(
                abs(a) ** 2, abs=1e-14
            )

    def test_optimal_value_unit_parameter(self):
        problem = closed_form_p0(1.0)
        assert distance_objective(1.0, 1.0, problem.t0) == pytest.approx(0.5, abs=1e-13)

    def test_decreasing_in_x(self):
        low = distance_objective(1.0, -1.0, np.pi / 4)
        high = distance_objective(1.0, 1.0, np.pi / 4)
        assert low >= high

    def test_matches_direct_norm(self):
        # the analytic expression against an independent norm computation
        rng = np.random.default_rng(7)
        for _ in range(60):
            mod = float(10.0 ** rng.uniform(-2, 2))
            theta = float(rng.uniform(0, 2 * np.pi))
            a = mod * np.exp(1j * theta)
            x = float(rng.uniform(-1, 1))
            t = float(rng.uniform(0, np.pi))
            z = complex(x, np.sqrt(max(1 - x * x, 0.0)))
            p = halmos_projection(z, t, theta)
            q = canonical_idempotent(a)
            direct = operator_norm(p.matrix - q.matrix) ** 2
            assert distance_objective(a, x, t) == pytest.approx(
                direct, abs=1e-10 * (1 + mod**2)
            )


class TestClosedFormP0:
    def test_unit_parameter_frozen(self):
        problem = closed_form_p0(1.0)
        expect = np.array([[RT2 + 1.0, 1.0], [1.0, RT2 - 1.0]]) / (2.0 * RT2)
        np.testing.assert_allclose(problem.p0.matrix, expect, atol=1e-14)
        assert problem.b == pytest.approx(RT2, abs=1e-15)
        assert problem.theta0 == pytest.approx(np.pi / 4, abs=1e-14)

    def test_imaginary_parameter(self):
        problem = closed_form_p0(1j)
        assert problem.p0.matrix[0, 1] == pytest.approx(1j / (2 * RT2), abs=1e-14)
        assert problem.p0.matrix[1, 0] == pytest.approx(-1j / (2 * RT2), abs=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = complex(rng.standard_normal(), rng.standard_normal())
            if a == 0:
                continue
            problem = closed_form_p0(a)
            assert np.trace(problem.p0.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_matched_projection(self):
        for mod in np.logspace(-2, 2, 9):
            problem = closed_form_p0(mod)
            pair = matched_projection(canonical_idempotent(mod))
            assert operator_norm(problem.p0.matrix - pair.projection.matrix) <= 1e-10 * (
                1 + mod
            )

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^parameter a must be nonzero$"):
            closed_form_p0(0.0)

    def test_half_angle_identity_checked(self):
        # sin(t0) cos(t0) = |a| / 2b holds to rounding, not to 1e-300
        with pytest.raises(ValidationError, match="half-angle identity failed"):
            closed_form_p0(1.0, Tolerances(check=1e-300))


class TestGridMinimize:
    def test_unit_parameter_fine_grid(self):
        gm = grid_minimize(1.0, 512)
        assert gm.min_value == pytest.approx(0.5, abs=5e-3)
        assert gm.argmin_x == pytest.approx(1.0, abs=1e-12)
        t0 = closed_form_p0(1.0).t0
        step = np.pi / 511
        assert min(abs(gm.argmin_t - t0), abs(np.pi - gm.argmin_t - t0)) <= step
        assert all_passed(gm.checks), [c.name for c in failures(gm.checks)]

    def test_degenerate_grid_stays_above_optimum(self):
        gm = grid_minimize(1.0, 2)
        assert gm.gap >= -1e-12
        assert gm.min_value == pytest.approx(1.0, abs=1e-12)  # corners give |a|^2

    def test_brute_force_oracle_for_matched_projection(self):
        # the grid argmin maps through the projection family onto m(Q)
        gm = grid_minimize(1.0, 1024)
        t_low = min(gm.argmin_t, np.pi - gm.argmin_t)
        p = halmos_projection(1.0, t_low, 0.0)
        m = matched_projection(canonical_idempotent(1.0)).projection.matrix
        assert np.linalg.norm(p.matrix - m) <= 4.0 * np.pi / 1023

    def test_family_sweep(self):
        for mod in np.logspace(-2, 2, 20):
            gm = grid_minimize(float(mod), 256)
            assert abs(gm.gap) <= gm.grid_tolerance
            assert all_passed(gm.checks), (mod, [c.name for c in failures(gm.checks)])

    def test_phase_invariance(self):
        flat = grid_minimize(2.0, 128)
        turned = grid_minimize(2j, 128)
        assert flat.min_value == pytest.approx(turned.min_value, abs=1e-12)

    SHARED_CASES = [(a, points) for a in (1e-3, 1 + 1j, 1e3) for points in (1, 64, 512)]

    @pytest.mark.parametrize("a, points", SHARED_CASES, ids=[f"{a}-{p}" for a, p in SHARED_CASES])
    def test_carries_the_problem_and_q_it_built(self, a, points):
        # the battery and min2x2 read these, so they must be what the
        # builders give, every field bit for bit
        gm = grid_minimize(a, points)
        assert same_bits(gm.problem, closed_form_p0(a))
        assert same_bits(gm.q, canonical_idempotent(a))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^parameter a must be nonzero$"):
            grid_minimize(0.0, 16)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_minimize(1.0, 0)
        with pytest.raises(ValueError):
            grid_minimize(1.0, -8)

    BLOCK_CASES = [(float(mod), 512) for mod in np.logspace(-2, 2, 20)] + [
        (0.7 * np.exp(0.3j), 100), (3.0, 1), (1e-2, 33), (2.0, 17), (1e-300, 97)
    ]

    # each id names the grid, points x points
    @pytest.mark.parametrize("a, points", BLOCK_CASES, ids=[f"{a}-{p}-{p}" for a, p in BLOCK_CASES])
    def test_blocks_equal_the_row_loop(self, a, points):
        gm = grid_minimize(a, points)
        assert (gm.min_value, gm.argmin_x, gm.argmin_t) == row_loop_minimum(a, points)

    # |a| across the range a double resolves, both ends of the argmin checks'
    # failures (1e-16, 3e12, 1e14), where the slack swamps the objective's
    # spread (1e14 and up), and the extremes 1e-300 and 1e150
    EXACT_MODULI = [1e-18, 1e-16, 1e-9, 1e-3, 0.37, 1.0, 42.0, 1e5, 1e9, 3e12, 1e14, 3e14, 1e-300, 1e150]
    EXACT_POINTS = (1, 2, 31, 32, 33, 64, 100, 512, 513)

    @pytest.mark.parametrize("mod", EXACT_MODULI, ids=[f"{m:g}" for m in EXACT_MODULI])
    def test_skipping_blocks_changes_no_bit(self, mod, monkeypatch):
        # against the whole grid as one block, which no floor can skip: every
        # output and every check's residual and gate compare by ==
        for a in (mod, complex(mod * np.exp(2.1j))):
            for points in self.EXACT_POINTS:
                gm = grid_minimize(a, points)
                with monkeypatch.context() as whole_grid:
                    whole_grid.setattr(two_by_two, "GRID_ROWS", points)
                    whole = grid_minimize(a, points)
                assert (gm.min_value, gm.argmin_x, gm.argmin_t) == full_grid_minimum(a, points)
                assert (gm.min_value, gm.argmin_x, gm.argmin_t, gm.optimum, gm.gap) == (
                    whole.min_value, whole.argmin_x, whole.argmin_t, whole.optimum, whole.gap
                ), (a, points)
                assert [(c.name, c.residual, c.tolerance, c.lower) for c in gm.checks] == [
                    (c.name, c.residual, c.tolerance, c.lower) for c in whole.checks
                ], (a, points)

    def test_battery_moduli_scan_few_blocks(self, monkeypatch):
        # the twenty 512-point grids of the battery's static checks: the floor
        # leaves the blocks around t0 and pi - t0, at most 4 of 16
        blocks = []

        def counted(a, x, t):
            vals = distance_objective(a, x, t)
            if np.ndim(vals) == 2:
                blocks.append(vals.shape)
            return vals

        monkeypatch.setattr(two_by_two, "distance_objective", counted)
        for mod in np.logspace(-2, 2, 20):
            blocks.clear()
            grid_minimize(float(mod), 512)
            assert 1 <= len(blocks) <= 4, (mod, len(blocks))
            assert all(shape == (two_by_two.GRID_ROWS, 512) for shape in blocks)

    def test_peak_allocation_stays_small(self):
        # one 512 x 512 broadcast peaks near 6 MB; blocks of 32 rows near 0.6 MB
        grid_minimize(1.0, 512)
        tracemalloc.start()
        try:
            grid_minimize(1.0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
