"""Norm identities, inequalities, closed forms and convergence checks for m(Q).

Each report returns its checks, a list of ``report.Check`` (``kkm_distance``
its one), and no other value.  ``two_projection_construction`` decides its
own hypothesis, ||P1 P2|| < 1 with a margin, and returns no record for a
pair outside it.  ``qpp_minimality`` lists the minimality theorem's
conclusions for a partner P of Q, which its caller decides; of a projection
that is no partner, a caller reads the first record, the factor-2 bound,
alone.  The values of Q alone that the reports compare are read from where
Q keeps them: ||Q|| and ||I - Q|| from the SVDs of Q and
``complement_of(q)``, ||m(Q) - Q||, ||P_R(Q) - Q|| and ||P_N(Q) - Q|| from
their memos on Q (``matched.matched_distance``, ``range_distance``,
``null_distance``), and the closed form of the first from
``offdiag_distance(q.offdiag_norm)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .idempotents import (
    Idempotent,
    Projection,
    as_idempotent,
    complement_of,
)
from .linalg import (
    adjoint,
    hermitian_eigvals,
    identity,
    is_psd_spectrum,
    norm_at_most,
    operator_norm,
    psd_order,
)
from .matched import (
    fractional_powers,
    matched_distance,
    matched_projection,
    null_distance,
    range_distance,
)
from .report import Check, boolean_check, norm_check


def offdiag_distance(nu: float) -> float:
    """||m(Q) - Q|| from nu = ``Idempotent.offdiag_norm``: (nu + nu^2 / (1 + sqrt(1 + nu^2))) / 2.

    This is the paper's (||Q|| - 1 + sqrt(||Q||^2 - 1)) / 2 at
    ||Q|| = sqrt(1 + nu^2), with ||Q|| - 1 written as
    nu^2 / (1 + sqrt(1 + nu^2)) and sqrt(||Q||^2 - 1) as nu, so a small nu
    loses no digits to cancellation.
    """
    return 0.5 * (nu + nu**2 / (1.0 + np.sqrt(1.0 + nu**2)))


def kkm_distance(p1: Projection, p2: Projection) -> Check:
    """The check ||P1 - P2|| = max(||P1 (I - P2)||, ||(I - P1) P2||), within p1.tol.check, from one stacked norm."""
    eye = identity(p1.dim)
    a, b = p1.matrix, p2.matrix
    left, right, direct = operator_norm(np.stack([a @ (eye - b), (eye - a) @ b, a - b])).tolist()
    return Check("projection_distance_equality", abs(max(left, right) - direct), p1.tol.check)


def distance_report(q: Idempotent) -> list[Check]:
    """All distance identities and inequalities for a single idempotent.

    Covers the closed-form distance (``offdiag_distance`` of nu =
    ``q.offdiag_norm``; the range gap's closed form is nu itself), the
    sandwich (1/2) ||P_R(Q) - Q|| <= ||m(Q) - Q|| <= ||P_R(Q) - Q||, with
    equality on either side iff Q is a projection, the chain
    through ||Q|| = ||I - Q||, the similarity through
    V = (|Q| + |I - Q| + I)/2, and the quadratic identities tying
    (Q* - Q)(Q* - Q)* to the defect operator D.  The residuals of the
    similarity and of the identities in D are bracketed checks
    (``norm_check``); every distance and norm compared with a closed form is
    exact.

    Each operand is factored once.  ||Q|| and ||I - Q|| are the largest
    singular values of the SVDs that Q and ``complement_of(q)`` keep (the
    latter also gives |I - Q|).  The five PSD operands, D, -m (I - Q) m,
    -(I - m) Q (I - m), X and Y, and the Hermitian X + Y, are factored by
    ``hermitian_eigvals`` alone: its eigenvalues give the Loewner verdict
    (``is_psd_spectrum``, as ``psd_order`` decides) and the norm max |lambda|,
    which is the 2-norm of the symmetrized operand and so within
    ||M - M*|| / 2, plus rounding, of ||M||.  An operand too far from
    Hermitian for ``require_hermitian`` fails its PSD check and its norm is
    the exact ``operator_norm``.

    ``sandwich_equality_iff_projection`` holds each gap of the sandwich to
    its closed form in nu: the lower gap ||m(Q) - Q|| - ||P_R(Q) - Q|| / 2 to
    ``offdiag_distance(nu)`` - nu / 2, and the upper gap
    ||P_R(Q) - Q|| - ||m(Q) - Q|| to nu - ``offdiag_distance(nu)``.  Both
    closed forms vanish iff nu = 0, that is iff Q is a projection, so one
    residual at the gate relative(||Q||) decides the statement at every nu;
    a yes/no verdict on whether the lower gap, about nu^2 / 4, is within a
    gate cannot once nu is small.
    """
    qm, tol = q.matrix, q.tol
    eye = identity(q.dim)
    m = matched_projection(q).projection.matrix
    complement = complement_of(q)

    norm_q = q.norm
    norm_c = complement.norm
    d_matched = matched_distance(q)
    nu = q.offdiag_norm
    d_closed = offdiag_distance(nu)
    d_range = range_distance(q)
    d_null = null_distance(q)

    v_sim = 0.5 * (q.abs_q + complement.abs_q + eye)

    cross_range = m @ (eye - qm) @ m
    cross_null = (eye - m) @ qm @ (eye - m)
    d_op = -cross_range - cross_null
    diff = m - qm
    x_op = diff @ adjoint(diff)
    y_op = adjoint(diff) @ diff
    gap_adj = adjoint(qm) - qm
    norm_gap_adj = operator_norm(gap_adj)

    def spectrum(x: np.ndarray) -> tuple[np.ndarray | None, float]:
        """(eigenvalues, ||x||) from ``hermitian_eigvals``, or (None, ``operator_norm(x)``) if x is not Hermitian."""
        try:
            w = hermitian_eigvals(x, tol)
        except ValidationError:
            return None, operator_norm(x)
        return w, float(np.abs(w).max())

    def psd_check(name: str, w: np.ndarray | None) -> Check:
        """0 <= x in the Loewner order, from x's ``spectrum``; an x too far from Hermitian fails it."""
        return boolean_check(name, w is not None and is_psd_spectrum(w))

    (w_d, norm_d), (w_range, norm_range), (w_null, norm_null), (w_x, norm_x), (w_y, norm_y) = (
        spectrum(x) for x in (d_op, -cross_range, -cross_null, x_op, y_op)
    )
    norm_xy = spectrum(x_op + y_op)[1]

    scale, scale_sq = tol.relative(norm_q), tol.quadratic(norm_q)
    four_d_sq = 4.0 * d_op @ d_op

    checks = [
        Check("closed_form_agreement", abs(d_matched - d_closed), scale),
        Check("range_gap_equals_adjoint_gap", abs(d_range - norm_gap_adj), scale),
        Check("range_gap_closed_form", abs(d_range - nu), scale),
        Check("sandwich_lower", max(0.0, 0.5 * d_range - d_matched), scale),
        Check("sandwich_upper", max(0.0, d_matched - d_range), scale),
        Check("chain_matched_below_norm", max(0.0, d_matched - norm_q), scale),
        Check("chain_norm_below_null_gap", max(0.0, norm_q - d_null), scale),
        norm_check("similarity_conjugates_matched", v_sim @ qm - m @ v_sim, scale_sq),
        norm_check(
            "similarity_defect_square", (eye - v_sim) @ (eye - v_sim) - y_op, scale_sq
        ),
        norm_check(
            "defect_operator_identity",
            four_d_sq + 4.0 * d_op - gap_adj @ adjoint(gap_adj),
            scale_sq,
        ),
        norm_check("xy_sum_identity", x_op + y_op - four_d_sq - 2.0 * d_op, scale_sq),
        psd_check("defect_operator_psd", w_d),
        psd_check("range_compression_psd", w_range),
        psd_check("null_compression_psd", w_null),
        psd_check("x_psd", w_x),
        psd_check("y_psd", w_y),
        Check("compression_norms_equal", abs(norm_range - norm_null), scale),
        Check("x_norm_is_distance_squared", abs(norm_x - d_matched**2), scale_sq),
        Check("y_norm_is_distance_squared", abs(norm_y - d_matched**2), scale_sq),
        Check(
            "xy_norm_identity",
            abs(norm_xy - (4.0 * norm_d**2 + 2.0 * norm_d)),
            scale_sq,
        ),
        Check(
            "adjoint_gap_norm_identity",
            abs(norm_gap_adj**2 - (4.0 * norm_d**2 + 4.0 * norm_d)),
            scale_sq,
        ),
    ]

    # the norm equality ||Q|| = ||I - Q|| needs a non-trivial idempotent
    if norm_q > 0.5 and norm_c > 0.5:
        checks.append(Check("norm_equals_complement_norm", abs(norm_q - norm_c), scale))

    lower_gap, upper_gap = d_matched - 0.5 * d_range, d_range - d_matched
    sandwich = max(abs(lower_gap - (d_closed - 0.5 * nu)), abs(upper_gap - (nu - d_closed)))
    checks.append(Check("sandwich_equality_iff_projection", sandwich, scale))
    return checks


def matched_lipschitz_bounds(q1: Idempotent, q2: Idempotent) -> list[Check]:
    """Compare ||m(Q1) - m(Q2)|| against its proven upper bounds.

    The scaled bound ||Q1 - Q2|| / (1 - alpha) applies only when the
    compression norm alpha is safely below 1; near 1 it is left out rather
    than asserted against a meaningless bound.  The gates are Q1's
    (``q1.tol``); each m(Q) comes from its own Q's analysis.
    """
    eye, tol = identity(q1.dim), q1.tol
    m1 = matched_projection(q1).projection.matrix
    m2 = matched_projection(q2).projection.matrix
    comp = eye - m1
    a, b = q1.matrix, q2.matrix
    lhs, alpha, gap, cross_left, cross_right, mixed_left, mixed_right = operator_norm(np.stack([
        m1 - m2, comp @ a @ comp, a - b, m1 - b, a - m2, m1 @ a - m2 @ b, a @ m1 - b @ m2,
    ])).tolist()

    checks = [
        Check("bounded_by_min_of_cross_gaps", max(0.0, lhs - min(cross_left, cross_right)), tol.check),
        Check("bounded_by_mixed_left", max(0.0, lhs - mixed_left), tol.check),
        Check("bounded_by_mixed_right", max(0.0, lhs - mixed_right), tol.check),
    ]
    if alpha <= 1.0 - 1e-6:
        checks.append(Check("bounded_by_scaled_gap", max(0.0, lhs - gap / (1.0 - alpha)), tol.check))
    return checks


def convergence_report(q1: Idempotent, q2: Idempotent) -> list[Check]:
    """Check the three distance families over ``matched.EXPONENT_GRID``.

    Every entry bounds ||m(Q1) - m(Q2)|| from above, and the one-sided
    family converges to it as the exponent grows, so the grid certifies the
    infimum from both sides.  Each operand's powers are its memoized
    ``fractional_powers``, taken at its own tolerance; the gates are Q1's
    (``q1.tol``).
    """
    m1 = matched_projection(q1).projection.matrix
    m2 = matched_projection(q2).projection.matrix
    pow1, pow2 = fractional_powers(q1)[1], fractional_powers(q2)[1]

    # 2-norms from stacked SVDs, one per row of the alpha table and one for
    # beta, gamma and the target, so no stack holds more than 2k + 1 matrices
    alpha = np.array([operator_norm(a - pow2) for a in pow1])
    rest = operator_norm(np.concatenate([pow1 - m2, m1 - pow2, [m1 - m2]]))
    k = len(pow1)
    beta, gamma, target = rest[:k], rest[k:-1], float(rest[-1])

    tabulated_min = min(alpha.min(), beta.min(), gamma.min())
    monotone_slack = max([0.0, *np.diff(beta)])
    return [
        Check("grid_bounds_target_below", max(0.0, target - tabulated_min), q1.tol.check),
        Check("beta_tail_near_target", abs(beta[-1] - target), q1.tol.limit),
        Check("beta_nonincreasing", monotone_slack, q1.tol.check),
    ]


def two_projection_construction(p1: Projection, p2: Projection) -> list[Check]:
    """The bounds on the idempotents (I - P1 P2)^(-1) P1 (I - P2) and its mirror, if ||P1 P2|| < 1.

    The hypothesis is decided with a margin, ||P1 P2|| <= 0.999 by
    ``norm_at_most``; a pair outside it gets no records.  Both idempotents
    are certified, and the bounds gated, at ``p1.tol``.  For the resulting
    pair the matched projections satisfy ||m(Q1) - m(Q2)|| <= ||Q1 - Q2||,
    and if both projections are nonzero the gap ||Q1 - Q2|| is at least 1.
    """
    eye, tol = identity(p1.dim), p1.tol
    a, b = p1.matrix, p2.matrix
    if not norm_at_most(a @ b, 0.999):
        return []
    q1 = as_idempotent(np.linalg.solve(eye - a @ b, a @ (eye - b)), tol)
    q2 = as_idempotent(np.linalg.solve(eye - b @ a, b @ (eye - a)), tol)

    m1 = matched_projection(q1).projection.matrix
    m2 = matched_projection(q2).projection.matrix
    lhs, gap = operator_norm(np.stack([m1 - m2, q1.matrix - q2.matrix])).tolist()
    checks = [Check("matched_gap_bounded_by_gap", max(0.0, lhs - gap), tol.check)]
    if not norm_at_most(a, 0.5) and not norm_at_most(b, 0.5):
        checks.append(Check("gap_at_least_one", max(0.0, 1.0 - gap), tol.check))
    return checks


def qpp_minimality(p: Projection, q: Idempotent) -> list[Check]:
    """Distance-minimality of m(Q) among the quasi-projection-pair partners of Q.

    P must be a partner of Q, which the caller decides with
    ``is_quasi_projection_pair``; the records are the theorem's conclusions
    under that hypothesis.  The first, ||m(Q) - Q|| <= 2 ||P - Q||, holds for
    any projection P, so it alone applies to a P that is no partner.  The
    rest are the PSD dominance of (P - Q)(P - Q)* and of (P - Q)*(P - Q) over
    their matched counterparts (with equality exactly at P = m(Q)), the sharp
    factor-one bound, and the small-distance rigidity: ||P - Q|| < 1 forces
    P = m(Q) and ||Q|| < 5/3.
    """
    m = matched_projection(q).projection.matrix
    qm, tol = q.matrix, q.tol
    d_matched = matched_distance(q)
    diff_m, diff_p = m - qm, p.matrix - qm
    d_candidate = operator_norm(diff_p)
    to_matched = operator_norm(p.matrix - m)
    scale, scale_sq = tol.relative(q.norm), tol.quadratic(q.norm)
    left_m, left_p = diff_m @ adjoint(diff_m), diff_p @ adjoint(diff_p)
    right_m, right_p = adjoint(diff_m) @ diff_m, adjoint(diff_p) @ diff_p
    dominance_tight = norm_at_most(left_p - left_m, scale_sq)

    checks = [
        Check("matched_within_twice_candidate", max(0.0, d_matched - 2.0 * d_candidate), scale),
        boolean_check("psd_dominance_left", psd_order(left_m, left_p, tol)),
        boolean_check("psd_dominance_right", psd_order(right_m, right_p, tol)),
        Check("matched_within_candidate", max(0.0, d_matched - d_candidate), scale),
        boolean_check("dominance_equality_iff_matched", dominance_tight == (to_matched <= scale)),
    ]
    # strict hypotheses degenerate at round-off; require a real margin below 1
    if d_candidate < 1.0 - 1e-6:
        checks.append(Check("small_distance_forces_matched", to_matched, scale))
        checks.append(Check("small_distance_bounds_norm", max(0.0, q.norm - 5.0 / 3.0), tol.check))
    return checks
