"""Closed-form 2x2 minimization: which projection is nearest to [[1, a], [0, 0]].

Every non-projection 2x2 idempotent is unitarily equivalent to
Q = [[1, a], [0, 0]] with a != 0, and every non-trivial 2x2 projection sits
in a one-parameter Halmos family indexed by an angle t and a unimodular
scalar z.  The squared distance ||P - Q||^2 has an explicit expression in
(|a|, Re z, t) whose minimum over the family is attained at z = 1 and half
the angle theta_0 with sin(theta_0) = |a| / sqrt(1 + |a|^2).  The grid
minimizer here is the brute-force oracle for that closed form.  It skips
the blocks of t-rows that a rounding-error floor shows cannot hold the grid
minimum, and scans every other block in full, so its minimum and argmin are
those of the full scan bit for bit (``grid_minimize`` gives the argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .idempotents import Idempotent, Projection, as_idempotent, as_projection
from .linalg import DEFAULT_TOL, EPS, Tolerances, adjoint, operator_norm
from .report import Check, boolean_check

# t-rows per block of ``grid_minimize``: a block of 32 x 512 objective values
# stays small where the whole grid at once would add megabytes of temporaries
GRID_ROWS = 32


def canonical_idempotent(a: complex, tol: Tolerances = DEFAULT_TOL) -> Idempotent:
    """The 2x2 idempotent [[1, a], [0, 0]]; its norm is sqrt(1 + |a|^2)."""
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    return as_idempotent([[1.0, a], [0.0, 0.0]], tol)


def halmos_projection(
    z: complex, t: float, theta: float, tol: Tolerances = DEFAULT_TOL
) -> Projection:
    """The projection at (z, t), rotated by diag(1, e^(-i theta)); certified, so |z| must be 1."""
    c, s = np.cos(t), np.sin(t)
    w = abs(c * s)
    inner = np.array(
        [[c**2, np.conj(z) * w], [z * w, s**2]], dtype=np.complex128
    )
    u = np.diag([1.0, np.exp(-1j * theta)])
    return as_projection(u @ inner @ adjoint(u), tol)


def distance_objective(
    a: complex, x: float | np.ndarray, t: float | np.ndarray
) -> float | np.ndarray:
    """||P - Q||^2 for the Halmos projection at (x, t) against [[1, a], [0, 0]].

    ``x`` and ``t`` may be arrays, which broadcast: an x-row against a t-column
    gives the objective on that block of the grid.

    Analytic form: (2 sin^2 t + |a| (mu + sqrt(mu^2 + 4 sin^4 t))) / 2 with
    mu = |a| - 2 |cos t sin t| x.
    """
    mod = abs(a)
    s2 = np.sin(t) ** 2
    mu = mod - 2.0 * abs(np.cos(t) * np.sin(t)) * x
    return 0.5 * (2.0 * s2 + mod * (mu + np.sqrt(mu**2 + 4.0 * s2**2)))


@dataclass(frozen=True)
class TwoByTwoProblem:
    """Closed-form minimizer data for the parameter a."""

    b: float
    theta0: float
    t0: float
    p0: Projection


def closed_form_p0(a: complex, tol: Tolerances = DEFAULT_TOL) -> TwoByTwoProblem:
    """The nearest projection (1/2b) [[b+1, a], [conj(a), b-1]], b = sqrt(1+|a|^2)."""
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    mod = abs(a)
    b = np.sqrt(1.0 + mod**2)
    theta0 = np.arctan(mod)  # sin = |a|/b, cos = 1/b
    t0 = theta0 / 2.0
    if abs(np.sin(t0) * np.cos(t0) - mod / (2.0 * b)) > tol.check:
        raise ValidationError("half-angle identity failed")
    p0 = np.array(
        [[b + 1.0, a], [np.conjugate(a), b - 1.0]], dtype=np.complex128
    ) / (2.0 * b)
    return TwoByTwoProblem(b=b, theta0=theta0, t0=t0, p0=as_projection(p0, tol))


@dataclass(frozen=True)
class GridMinimum:
    """Brute-force minimum of the distance objective over [-1, 1] x [0, pi].

    It carries the certified ``closed_form_p0(a)`` it was compared with and
    Q = ``canonical_idempotent(a)``, so a caller reads them here, not rebuilt.
    """

    min_value: float
    argmin_x: float
    argmin_t: float
    optimum: float
    gap: float
    grid_tolerance: float
    checks: list[Check]
    problem: TwoByTwoProblem
    q: Idempotent


def grid_minimize(a: complex, points: int, tol: Tolerances = DEFAULT_TOL) -> GridMinimum:
    """Scan the objective on a uniform ``points`` x ``points`` grid; compare with the closed form.

    The objective is Lipschitz on the compact domain, so the grid minimum
    must land within an O(step) band above the true optimum; it can never
    fall below it, being a minimum over a subset.

    The grid is scanned in blocks of ``GRID_ROWS`` t-rows.  A block is
    skipped only when every value it would compute exceeds the grid's
    computed minimum, so ``min_value``, ``argmin_x`` and ``argmin_t``, and
    every check built from them, are those of the full scan bit for bit.

    Why a block can be skipped.  With s = sin t, W = 2|cos t sin t| and
    M = |a|, the objective at fixed t is F(x) = s^2 + M g(mu)/2 with
    mu = M - W x and g(mu) = mu + sqrt(mu^2 + 4 s^4); g' lies in [0, 2], so
    F is nonincreasing in x, and no x <= 1 = xs[-1] gives less than x = 1.
    One call ``distance_objective(a, 1.0, ts)`` gives f_i, the computed
    value at x = 1, for every row i.  Rounding, to first order with
    u = eps/2 per operation and |x| <= 1, W <= 1, s^2 <= 1:

    - mu is one product and one difference, within 2u(M + W); g is
      2-Lipschitz, so g(mu) moves by 4u(M + W);
    - the squares, the sum, the root and mu + root add u(4(M + W) + 6 s^2).
      These are absolute errors in |mu| and s^2, so the cancellation of
      mu + root when mu < 0 is covered;
    - times M and halved, that is M u(4(M + W) + 3 s^2) <= 2 eps (1 + M)^2;
      the product by M and the final sum add eps f.

    So a computed value is within 2 eps (1 + M)^2 + eps f of F.  The column
    and a (GRID_ROWS, 1) block may take np.sin and np.cos through different
    loops; each is within 1 ulp (numpy's accuracy tests hold float64 sin and
    cos to 1 ulp), so they differ by 2 eps relative, which moves s^2 and W by
    5 eps and F by 5 eps (1 + 2M) <= 5 eps (1 + M)^2.  Chaining the three,
    every value of row i is at least f_i - s_i, and row i's value at x = 1,
    which is on the grid for points >= 2, at most f_i + s_i, with
    s_i = 9 eps (1 + M)^2 + 2 eps f_i to first order.  The slack taken,
    eps (10 (1 + M)^2 + 3 f_i), adds one eps (1 + M)^2 and one eps f_i for
    the O(eps^2) terms and the rounding of s_i and f_i -+ s_i; underflow
    adds absolute errors below 1e-300.  A block whose smallest floor
    f_i - s_i exceeds the ceiling min_i (f_i + s_i) holds no value at or
    below the minimum and is skipped.  A non-finite floor or ceiling
    (overflow at huge |a|) skips nothing.  With one block (points <= 32)
    its floor is at most the ceiling, so the single block is scanned.
    """
    problem = closed_form_p0(a, tol)
    if points < 1:
        raise ValueError("grid size must be positive")
    mod = abs(a)
    xs = np.linspace(-1.0, 1.0, points)
    ts = np.linspace(0.0, np.pi, points)

    # each t-row's floor and the grid minimum's ceiling, from the rows at x = 1
    at_one = distance_objective(a, 1.0, ts)
    slack = EPS * (10.0 * (1.0 + mod) ** 2 + 3.0 * at_one)
    ceiling = np.min(at_one + slack)
    floors = np.minimum.reduceat(at_one - slack, np.arange(0, points, GRID_ROWS))

    # blocks of t-rows, each scanned row-major; a later block replaces the best
    # only on a strict improvement, so the first row-major minimum wins
    best = np.inf
    best_x, best_t = xs[0], ts[0]
    for lo, floor in zip(range(0, points, GRID_ROWS), floors):
        if -np.inf < ceiling < floor < np.inf:
            continue  # every value of the block exceeds the grid minimum
        vals = distance_objective(a, xs[None, :], ts[lo : lo + GRID_ROWS, None])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best:
            best, best_x, best_t = float(vals[i, j]), float(xs[j]), float(ts[lo + i])
    max_g = np.max(np.cos(2.0 * ts) + mod * np.abs(np.sin(2.0 * ts)))

    optimum = distance_objective(a, 1.0, problem.t0)
    gap = best - optimum
    dx = 2.0 / (points - 1) if points > 1 else 2.0
    dt = np.pi / (points - 1) if points > 1 else np.pi
    lipschitz = (2.0 + 3.0 * mod) * dt + mod * dx

    q = canonical_idempotent(a, tol)
    norm_q, norm_comp = operator_norm(np.stack([q.matrix, np.eye(2) - q.matrix])).tolist()
    scale = tol.relative(problem.b)

    checks = [
        Check("grid_min_above_optimum", max(0.0, -gap), tol.check),
        Check("grid_min_near_optimum", abs(gap), lipschitz),
        Check("norm_is_b", abs(norm_q - problem.b), scale),
        Check("complement_norm_is_b", abs(norm_comp - problem.b), scale),
        boolean_check("trivial_projections_farther", min(norm_q, norm_comp) > np.sqrt(optimum)),
        Check("angle_bound_attained", problem.b - max_g, (2.0 + 2.0 * mod) * dt),
        Check("angle_bound_holds", max(0.0, max_g - problem.b), tol.check),
    ]
    if points >= 8:
        # on coarse grids the argmin is not forced anywhere near the optimum;
        # t and pi - t parametrize the same projection, so both count
        t_gap = min(abs(best_t - problem.t0), abs(np.pi - best_t - problem.t0))
        checks.append(Check("argmin_x_at_one", abs(best_x - 1.0), tol.above(dx)))
        checks.append(Check("argmin_t_near_half_angle", t_gap, tol.above(dt)))
    return GridMinimum(
        min_value=best,
        argmin_x=best_x,
        argmin_t=best_t,
        optimum=optimum,
        gap=gap,
        grid_tolerance=lipschitz,
        checks=checks,
        problem=problem,
        q=q,
    )
