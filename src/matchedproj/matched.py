"""The matched projection of an idempotent, its oracles, and its identities.

For an idempotent Q the matched projection m(Q) is a projection that is
similar and homotopic to Q and commutes with every quasi-projection-pair
partner of Q.  The production route, ``matched_projection``, takes it from
one SVD Q = U S V*.  Idempotency gives V_r* U_r = S_r^(-1) on the nonzero
singular values (the Halmos two-subspace form: Q is a direct sum of I, 0
and 2x2 blocks), so the columns u_i + v_i are mutually orthogonal and

    m(Q) = sum_{s_i > 0} s_i / (2 (s_i + 1)) (u_i + v_i)(u_i + v_i)*,

while the same SVD gives the similarity witness W = I + E U_r* with
Q = W^(-1) m(Q) W, ||I - W|| < 1 (``homotopy_witness``).  W^(-1) has a
closed form, so ``homotopy_path`` samples the homotopy as rank-r updates of
m(Q), with no inverse and no solve.  The SVD is the one ``Idempotent``
keeps; ||Q||, |Q| = V S V*, |Q*| = U S U*, |Q*|^dag = U_r S_r^(-1) U_r*
and P_R(Q) = U_r U_r* come from it, and every function here reads them from
Q.  m(Q) (a ``MatchedPair``), its distance to Q, its witness and the oracle
record are each memoized on Q per tolerance (``idempotents.per_tolerance``).
Relative rank cutoffs all go through ``linalg.numerical_rank``.  The module
keeps no state of its own: the harness self-test corrupts an input instead,
a copy of Q whose cached SVD has V negated (``battery.sabotaged``).

Three further routes are kept only as independent oracles for ``verify``
and the tests, never built from Q's SVD.  The first two read one record
per Q, ``factor_oracle``: |Q*| from its own ``abs_value(Q*)``, |Q*|^dag
from the memoized Koliha pencil of ``koliha_projections``, T = |Q*| + Q*,
T^dag and V; the block witness takes P_R(Q) from the same pencil:

- the closed formula (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q)
  (``matched_projection_closed_form``);
- T T^dag and V V* for T = |Q*| + Q* (``matched_via_factor``);
- the 2x2 block construction over range(Q), which yields both m(Q) and W
  (``homotopy_witness_block``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import (
    NotQuasiProjectionPairError,
    NotUnitaryError,
    ValidationError,
)
from .idempotents import (
    Idempotent,
    Projection,
    adjoint_of,
    as_idempotent,
    as_idempotents,
    as_projection,
    block_form,
    complement_of,
    is_projection,
    koliha_projections,
    per_tolerance,
    random_idempotent,
    random_unitary,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    abs_value,
    adjoint,
    identity,
    moore_penrose,
    norm_at_most,
    norm_bounds,
    numerical_rank,
    operator_norm,
    psd_order,
    psd_power,
    require_hermitian,
)
from .report import Check, boolean_check

# Gate on the gap between two orthoprojectors for "these subspaces are equal".
SUBSPACE_TOL = 1e-8

@dataclass(frozen=True)
class FactorOracle:
    """Oracle values of Q: |Q*|, |Q*|^dag, T = |Q*| + Q*, T^dag and V; T T^dag = V V* = m(Q)."""

    abs_q_star: np.ndarray
    abs_q_star_pinv: np.ndarray
    t: np.ndarray
    t_pinv: np.ndarray
    v: np.ndarray


@per_tolerance
def factor_oracle(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> FactorOracle:
    """The ``FactorOracle`` of Q, never read from Q's SVD; memoized on Q per tolerance.

    |Q*| is ``abs_value(Q*)``, |Q*|^dag = (P_R(Q) P_R(Q*) P_R(Q))^(1/2) from
    ``koliha_projections`` and V = T (|Q*|^dag)^(1/2) (I + |Q*|)^(-1/2) / sqrt 2.
    """
    abs_qs = abs_value(adjoint(q.matrix))
    p_r, p_rs = (p.matrix for p in koliha_projections(q, tol))
    dag = psd_power(p_r @ p_rs @ p_r, 0.5, tol)
    t = abs_qs + adjoint(q.matrix)
    dag_root = psd_power(dag, 0.5, tol)
    v = np.sqrt(0.5) * t @ dag_root @ psd_power(identity(q.dim) + abs_qs, -0.5, tol)
    return FactorOracle(abs_qs, dag, t, moore_penrose(t, tol), v)


@dataclass(frozen=True)
class MatchedPair:
    """The certified m(Q) of an idempotent; values of Q alone are read from Q itself."""

    projection: Projection


def matched_projection(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> MatchedPair:
    """The certified m(Q), memoized on Q per tolerance (``_matched_pair``)."""
    return _matched_pair(q, tol)


@per_tolerance
def _matched_pair(q: Idempotent, tol: Tolerances) -> MatchedPair:
    """The certified m(Q) from Q's SVD Q = U S V*.

    With W = U_r + V_r over the r = ``q.rank`` singular values s_i > 1/2,
    m(Q) is the orthogonal projection W (W* W)^(-1) W*, and in exact
    arithmetic W* W = D = 2 (I + S_r^(-1)).  Computed singular vectors
    satisfy that only to about n eps ||Q||, so W D^(-1) W* misses
    idempotency by as much (3e-10 at ||A|| = 1e6, n = 32).  (W* W)^(-1) is
    therefore taken as one Newton step from D^(-1), D^(-1) (2D - W* W) D^(-1),
    which leaves a projection defect of order (n eps ||Q||)^2 plus
    round-off, without a second factorization.

    The pair is memoized on Q per tolerance and does not refer to Q.  This
    module reads it by this private name, so perfbench counts a call of
    ``matched_projection`` only where a caller asks for m(Q).
    """
    u, s, vh = q.svd
    r = q.rank
    w = u[:, :r] + adjoint(vh[:r])
    d = 2.0 * (1.0 + 1.0 / s[:r])
    x = w / d
    return MatchedPair(as_projection(x @ (np.diag(2.0 * d) - adjoint(w) @ w) @ adjoint(x), tol))


@per_tolerance
def matched_distance(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> float:
    """||m(Q) - Q||, memoized on Q per tolerance as m(Q) is."""
    return operator_norm(_matched_pair(q, tol).projection.matrix - q.matrix)


def matched_projection_closed_form(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Oracle: m(Q) = (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q).

    Built from ``factor_oracle`` and a solve, never from the production SVD.
    Returned uncertified so that a comparison reports its gap: from
    ||A|| ~ 1e3 up its projection defect exceeds the default check tolerance.
    """
    fo = factor_oracle(q, tol)
    right = np.linalg.solve(fo.abs_q_star + identity(q.dim), fo.abs_q_star + q.matrix)
    return 0.5 * fo.t @ fo.abs_q_star_pinv @ right


def matched_via_factor(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (T T^dag, V V*) from ``factor_oracle``; both equal m(Q)."""
    fo = factor_oracle(q, tol)
    return fo.t @ fo.t_pinv, fo.v @ adjoint(fo.v)


@dataclass(frozen=True)
class QppVerdict:
    """Residuals of the five quasi-projection-pair conditions for (P, Q)."""

    holds: bool
    residuals: dict[str, float]
    gate: float

    @property
    def blocks_hold(self) -> bool:
        names = ("block_range", "block_cross", "block_null")
        return all(self.residuals[n] <= self.gate for n in names)

    @property
    def reflection_holds(self) -> bool:
        return self.residuals["adjoint_reflection"] <= self.gate

    @property
    def abs_reflection_holds(self) -> bool:
        return self.residuals["abs_reflection"] <= self.gate


def _qpp_matrices(p: Projection, q: Idempotent) -> Iterator[tuple[str, np.ndarray]]:
    """The residual matrices of the five quasi-projection-pair conditions, built one at a time."""
    pm, qm = p.matrix, q.matrix
    eye = identity(q.dim)
    comp = eye - pm
    reflect = 2.0 * pm - eye
    yield "block_range", pm @ (adjoint(qm) - qm) @ pm
    yield "block_cross", pm @ adjoint(qm) @ comp + pm @ qm @ comp
    yield "block_null", comp @ (adjoint(qm) - qm) @ comp
    yield "adjoint_reflection", adjoint(qm) - reflect @ qm @ reflect
    yield "abs_reflection", q.abs_q_star - reflect @ q.abs_q @ reflect


def is_quasi_projection_pair(
    p: Projection, q: Idempotent, tol: Tolerances = DEFAULT_TOL
) -> QppVerdict:
    """Test the three block conditions plus both reflection characterizations.

    Every residual is an exact 2-norm; ``qpp_holds`` gives ``holds`` alone
    for less.
    """
    residuals = {name: operator_norm(mat) for name, mat in _qpp_matrices(p, q)}
    gate = tol.check * (1.0 + q.norm)
    return QppVerdict(
        holds=all(r <= gate for r in residuals.values()),
        residuals=residuals,
        gate=gate,
    )


def qpp_holds(p: Projection, q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> bool:
    """``is_quasi_projection_pair(p, q, tol).holds``, each condition by ``norm_at_most``.

    Stops at the first condition that fails.
    """
    gate = tol.check * (1.0 + q.norm)
    return all(norm_at_most(mat, gate) for _, mat in _qpp_matrices(p, q))


def qpp_symmetry_closure(p: Projection, q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether all eight pairs {P, I-P} x {Q, Q*, I-Q, I-Q*} are quasi-projection pairs."""
    if not qpp_holds(p, q, tol):
        raise NotQuasiProjectionPairError("(P, Q) is not a quasi-projection pair")
    projections = [p, as_projection(identity(q.dim) - p.matrix, tol)]
    complement = complement_of(q, tol)
    idempotents = [q, adjoint_of(q, tol), complement, adjoint_of(complement, tol)]
    pairs = [(a, b) for a in projections for b in idempotents]
    # pairs[0] is (P, Q), whose verdict the guard has just given
    return all(qpp_holds(a, b, tol) for a, b in pairs[1:])


@dataclass(frozen=True)
class _Homotopy:
    """The rank-r form of Q(t) = W_t^(-1) m W_t, m = m(Q), derived in ``homotopy_path``.

    ``d`` is the diagonal of D, ``g`` is G = m E U_r*, ``u_m`` is U_r* m and
    ``u_g`` is U_r* G; r = 0 gives Q(t) = m.
    """

    m: np.ndarray
    g: np.ndarray
    e: np.ndarray
    d: np.ndarray
    u_m: np.ndarray
    u_g: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray, e: np.ndarray, u_r: np.ndarray, d: np.ndarray) -> _Homotopy:
        g = (m @ e) @ adjoint(u_r)
        return cls(m, g, e, d, adjoint(u_r) @ m, adjoint(u_r) @ g)

    def samples(self, t: np.ndarray) -> np.ndarray:
        """The (k, n, n) stack of Q(t) for the k values in ``t``."""
        (n, r), k = self.e.shape, t.size
        c = -t / (1.0 + np.multiply.outer(self.d - 1.0, t))
        # laid out (r, k, n), so that E times it is one product: update[i, j]
        # is row i of C_t U_r* (m + t G) at t = t[j]
        rows = self.u_m[:, np.newaxis] + t[:, np.newaxis] * self.u_g[:, np.newaxis]
        update = c[:, :, np.newaxis] * rows
        out = np.multiply.outer(t, self.g) + self.m
        out += (self.e @ update.reshape(r, k * n)).reshape(n, k, n).transpose(1, 0, 2)
        return out


@dataclass(frozen=True)
class SimilarityWitness:
    """m(Q) with an invertible W such that Q = W^(-1) m(Q) W and ||I - W|| < 1.

    The production witness also keeps ``_homotopy``, the rank-r form of the
    path that ``homotopy_path`` samples; an oracle's witness keeps None.
    """

    projection: Projection
    w: np.ndarray
    contraction_norm: float
    _homotopy: _Homotopy | None = field(default=None, repr=False)


@per_tolerance
def homotopy_witness(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> SimilarityWitness:
    """(m(Q), W) with Q = W^(-1) m(Q) W and ||I - W|| < 1, from one SVD Q = U S V*.

    In the basis U, Q is [[I, Y], [0, 0]] with Y = S_r V_r* U_perp, and
    (Y Y* + I)^(1/2) = S_r, so the block construction over range(Q) +
    null(Q*) (``homotopy_witness_block``) becomes a closed form in the
    singular values:

        W = U [[D, 0], [L, I]] U*,  D = S_r^(-1) / 2,  L = U_perp* V_r (I + S_r)^(-1) / 2,

    L being Y* (S_r (S_r + I))^(-1) / 2.  So W = I + E U_r* with the n x r
    factor E = U_r (D - I) + U_perp L, and U_r* E = D - I.  The projection is
    the certified m(Q) of the same SVD (``matched_projection``).

    No inverse is factored.  For t in [0, 1], W_t = I + t E U_r* has the
    Woodbury inverse X_t = I - t E Delta_t^(-1) U_r*, Delta_t = I + t (D - I)
    diagonal with entries 1 - t + t / (2 s_i) >= 1 / (2 s_i) > 0, which
    ``_certified_inverse`` certifies.  X_1 = W^(-1) and W enter the
    similarity gate only through their norms: the similarity residual at
    t = 1 is the sample of the rank-r form that ``homotopy_path`` draws from
    (``_Homotopy``), and ||I - W|| = ||E|| is the 2-norm of an n x r matrix.

    A projection input short-circuits to the trivial witness W = I.
    """
    n = q.dim
    if is_projection(q.matrix, tol):
        p = as_projection(q.matrix, tol)
        trivial = _Homotopy.of(p.matrix, np.zeros((n, 0)), np.zeros((n, 0)), np.zeros(0))
        return SimilarityWitness(p, identity(n), 0.0, trivial)

    u, s, vh = q.svd
    r = q.rank
    if r == 0 or r == n:
        # a genuine idempotent with full or empty range is 0 or I and was
        # caught above; reaching here means the input sits in the defect band
        raise ValidationError("idempotent is numerically trivial but not a projection")
    s_r, u_r, u_perp = s[:r], u[:, :r], u[:, r:]
    d = 0.5 / s_r
    lower = 0.5 * (adjoint(u_perp) @ adjoint(vh[:r])) / (1.0 + s_r)
    e = u_r * (d - 1.0) + u_perp @ lower
    projection = _matched_pair(q, tol).projection
    contraction = operator_norm(e)
    w_inv = _certified_inverse(e, u_r, d, contraction, tol)
    path = _Homotopy.of(projection.matrix, e, u_r, d)
    w_mat = identity(n) + e @ adjoint(u_r)
    similar = path.samples(np.ones(1))[0]
    return _certified_witness(q, projection, w_mat, w_inv, contraction, similar, path, tol)


def _certified_inverse(
    e: np.ndarray, u_r: np.ndarray, d: np.ndarray, norm_e: float, tol: Tolerances
) -> np.ndarray:
    """W^(-1) = I - E D^(-1) U_r* for W = I + E U_r*, certified for every W_t on the path.

    Woodbury's inverse assumes U_r* E = D - I.  With the computed r x r
    defect F = U_r* E - (D - I), which is zero in exact arithmetic,

        X_t W_t - I = -t^2 E Delta_t^(-1) F U_r*,

    and t^2 / (1 - t + t d_i) <= 1 / d_i on [0, 1], so
    ||X_t W_t - I|| <= ||E|| ||D^(-1)|| ||F|| for every t.  The gate is
    tol.check (1 + ||D^(-1)||), where ||D^(-1)|| = 2 ||Q|| <= ||W^(-1)|| ||W||:
    the allowance the similarity gate gives any inverse, at its smallest.
    ||E|| is the exact ``norm_e``; ||F|| is bounded by ``norm_bounds`` first
    and taken exactly only when the bound cannot settle the gate.
    """
    d_inv = 1.0 / d
    f = adjoint(u_r) @ e - np.diag(d - 1.0)
    growth = norm_e * d_inv.max()
    gate = tol.check * (1.0 + d_inv.max())
    if growth * norm_bounds(f)[1] > gate:
        bound = growth * operator_norm(f)
        if bound > gate:
            raise ValidationError(f"closed-form inverse defect {bound:.3e} exceeds {gate:.3e}")
    return identity(e.shape[0]) - (e * d_inv) @ adjoint(u_r)


def _certified_witness(
    q: Idempotent,
    projection: Projection,
    w_mat: np.ndarray,
    w_inv: np.ndarray,
    contraction: float,
    similar: np.ndarray,
    path: _Homotopy | None,
    tol: Tolerances,
) -> SimilarityWitness:
    """Check ||I - W|| < 1 and W^(-1) P W = Q, then package the witness.

    The caller gives W, its inverse, ``contraction`` = ||I - W||,
    ``similar``, its computed W^(-1) P W, and the path the witness keeps.
    The similarity gate
    ||W^(-1) P W - Q|| <= tol.check (1 + ||W^(-1)|| ||W||) accepts from
    ``norm_bounds`` (upper bound on the left, lower bounds on the right) and
    otherwise takes all three norms exactly.
    """
    if contraction >= 1.0:
        raise ValidationError(f"witness contraction norm {contraction:.6f} not < 1")
    diff = similar - q.matrix
    fast = tol.check * (1.0 + norm_bounds(w_inv)[0] * norm_bounds(w_mat)[0])
    if norm_bounds(diff)[1] > fast:
        residual = operator_norm(diff)
        bound = tol.check * (1.0 + operator_norm(w_inv) * operator_norm(w_mat))
        if residual > bound:
            raise ValidationError(f"similarity residual {residual:.3e} exceeds {bound:.3e}")
    return SimilarityWitness(projection, w_mat, contraction, path)


def homotopy_witness_block(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> SimilarityWitness:
    """Oracle: the 2x2 block construction of (m(Q), W) over range(Q) + null(Q*).

    Built from the P_R(Q) of ``koliha_projections``, ``block_form`` and
    ``psd_power``, never from the production SVD, so it also serves as an
    m(Q) route in the verification battery.  Its inverse is a general
    ``np.linalg.inv(W)``.  A projection input short-circuits to W = I.
    """
    qm = q.matrix
    if is_projection(qm, tol):
        return SimilarityWitness(as_projection(qm, tol), identity(q.dim), 0.0)

    form = block_form(qm, koliha_projections(q, tol)[0], tol)
    r = form.rank
    if r == 0 or r == q.dim:
        raise ValidationError("idempotent is numerically trivial but not a projection")
    a = form.blocks[1]
    eye_r = np.eye(r, dtype=np.complex128)
    b = psd_power(a @ adjoint(a) + eye_r, 0.5, tol)
    b_inv = np.linalg.solve(b, eye_r)
    bb1_inv = np.linalg.solve(b @ (b + eye_r), eye_r)

    p_block = 0.5 * np.block(
        [
            [(b + eye_r) @ b_inv, b_inv @ a],
            [adjoint(a) @ b_inv, adjoint(a) @ bb1_inv @ a],
        ]
    )
    w_block = 0.5 * np.block(
        [
            [b_inv, np.zeros((r, q.dim - r))],
            [adjoint(a) @ bb1_inv, 2.0 * np.eye(q.dim - r)],
        ]
    )
    projection = as_projection(form.u @ p_block @ adjoint(form.u), tol)
    w_mat = form.u @ w_block @ adjoint(form.u)
    w_inv = np.linalg.inv(w_mat)
    contraction = operator_norm(identity(q.dim) - w_mat)
    similar = w_inv @ projection.matrix @ w_mat
    return _certified_witness(q, projection, w_mat, w_inv, contraction, similar, None, tol)


def homotopy_path(
    q: Idempotent, samples: int, tol: Tolerances = DEFAULT_TOL
) -> list[Idempotent]:
    """Idempotents Q(t) = W_t^(-1) m(Q) W_t on a uniform grid from m(Q) to Q.

    W_t = I + t (W - I) = I + t E U_r* is invertible for t in [0, 1] because
    ||I - W|| < 1, and its Woodbury inverse X_t = I - t E Delta_t^(-1) U_r*
    (``homotopy_witness``) makes every sample a rank-r update: with
    G = m E U_r*, so that m W_t = m + t G,

        Q(t) = X_t m W_t = (m + t G) + E C_t U_r* (m + t G),  C_t = -t Delta_t^(-1).

    The updates of all samples are one (n, r) @ (r, samples n) product, with
    no factorization (``_Homotopy``), and the samples are certified by
    ``as_idempotents`` with one stacked norm per quantity.  The sample at
    t = 0 is m(Q) exactly; a projection input (r = 0) gives m(Q) = Q at every t.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    path = homotopy_witness(q, tol)._homotopy
    return as_idempotents(path.samples(np.linspace(0.0, 1.0, samples)), tol)


def _column_space_projector(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    u, s, _ = np.linalg.svd(m)
    cols = u[:, : numerical_rank(s, m.shape[0], tol)]
    return cols @ adjoint(cols)


def _orthonormal_bases(
    usv: tuple[np.ndarray, np.ndarray, np.ndarray], tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the range and the null space of M = U S V*."""
    u, s, vh = usv
    r = numerical_rank(s, u.shape[0], tol)
    return u[:, :r], adjoint(vh)[:, r:]


def range_identities(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> list[Check]:
    """Range/kernel identities of m(Q), verified through orthogonal projectors.

    Subspace equality is tested as the gap between the corresponding
    orthoprojectors; trivial intersections through the rank of stacked bases.
    """
    qm = q.matrix
    m = matched_projection(q, tol).projection.matrix
    eye = identity(q.dim)
    abs_q, abs_qs = q.abs_q, q.abs_q_star
    sum_qs = qm + adjoint(qm)
    proj_sum = _column_space_projector(sum_qs, tol)

    checks = [
        Check(
            "range_mq_eq_range_absqstar_plus_qstar",
            operator_norm(m - _column_space_projector(abs_qs + adjoint(qm), tol)),
            SUBSPACE_TOL,
        ),
        Check(
            "range_mq_eq_range_absq_plus_q",
            operator_norm(m - _column_space_projector(abs_q + qm, tol)),
            SUBSPACE_TOL,
        ),
        Check(
            "kernel_mq_eq_kernel_absqstar_plus_q",
            operator_norm(
                (eye - m) - (eye - _column_space_projector(adjoint(abs_qs + qm), tol))
            ),
            SUBSPACE_TOL,
        ),
        Check(
            "range_mq_inside_range_q_plus_qstar",
            operator_norm((eye - proj_sum) @ m),
            SUBSPACE_TOL,
        ),
        Check(
            "range_q_plus_qstar_eq_range_absqstar_plus_absq",
            operator_norm(proj_sum - _column_space_projector(abs_qs + abs_q, tol)),
            SUBSPACE_TOL,
        ),
        Check(
            "range_mq_eq_range_four_term_sum",
            operator_norm(m - _column_space_projector(abs_qs + abs_q + sum_qs, tol)),
            SUBSPACE_TOL,
        ),
        Check(
            "mq_times_qstar",
            operator_norm(m @ adjoint(qm) - 0.5 * (abs_qs + adjoint(qm))),
            tol.check * (1.0 + q.norm),
        ),
        Check(
            "mq_times_q",
            operator_norm(m @ qm - 0.5 * (abs_q + qm)),
            tol.check * (1.0 + q.norm),
        ),
    ]

    range_m, null_m = _orthonormal_bases(np.linalg.svd(m), tol)
    range_q, null_q = _orthonormal_bases(q.svd, tol)
    for name, a, b in (
        ("range_mq_meets_null_q_trivially", range_m, null_q),
        ("null_mq_meets_range_q_trivially", null_m, range_q),
    ):
        rank = numerical_rank(np.linalg.svd(np.hstack([a, b]), compute_uv=False), q.dim, tol)
        checks.append(boolean_check(name, rank == a.shape[1] + b.shape[1]))

    ranges_equal = norm_at_most(m - proj_sum, SUBSPACE_TOL)
    hermitian = norm_at_most(qm - adjoint(qm), tol.check)
    checks.append(boolean_check("range_equality_iff_projection", ranges_equal == hermitian))
    return checks


def fractional_power_limit(
    q: Idempotent, n_list: list[int], tol: Tolerances = DEFAULT_TOL
) -> list[float]:
    """Distances ||(m(Q) Q m(Q))^(1/n) - m(Q)|| for the given exponents.

    Verifies on the way that K = m(Q) Q m(Q) is Hermitian, dominates m(Q),
    and equals (|Q*| + |Q| + Q + Q*) / 4.
    """
    m = matched_projection(q, tol).projection.matrix
    qm = q.matrix
    k = require_hermitian(m @ qm @ m, tol)
    if not psd_order(m, k, tol):
        raise ValidationError("m(Q) Q m(Q) does not dominate m(Q)")
    quarter = 0.25 * (q.abs_q_star + q.abs_q + qm + adjoint(qm))
    gap = operator_norm(k - quarter)
    if gap > tol.check * (1.0 + q.norm):
        raise ValidationError(f"four-term identity residual {gap:.3e}")
    return [operator_norm(p - m) for p in psd_power(k, [1.0 / n for n in n_list], tol)]


def unitary_equivariance(
    q: Idempotent, u: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> float:
    """||m(U* Q U) - U* m(Q) U|| for a unitary U; zero in exact arithmetic."""
    u = np.asarray(u, dtype=np.complex128)
    gap = operator_norm(adjoint(u) @ u - identity(q.dim))
    if gap > tol.check:
        raise NotUnitaryError(f"U*U - I has norm {gap:.3e}")
    conjugated = as_idempotent(adjoint(u) @ q.matrix @ u, tol)
    inner = matched_projection(conjugated, tol).projection.matrix
    outer = adjoint(u) @ matched_projection(q, tol).projection.matrix @ u
    return operator_norm(inner - outer)


def random_qpp_pair(
    dim: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
    max_offdiag: float = 2.0,
) -> tuple[Projection, Idempotent]:
    """Seeded quasi-projection pair (P, Q), not always the matched one.

    Built as a unitarily scrambled direct sum Q1 + Q2 paired with a block
    choice from {m(Qi), I - m(Qi)}, which always satisfies the reflection
    identity Q* = (2P - I) Q (2P - I).
    """
    rng = np.random.default_rng(seed)
    if dim < 2:
        q = random_idempotent(1, int(rng.integers(0, 2)), 0.0, seed, tol)
        return as_projection(q.matrix, tol), q

    d1 = int(rng.integers(1, dim))
    d2 = dim - d1
    blocks_q, blocks_p = [], []
    for d in (d1, d2):
        rank = int(rng.integers(0, d + 1))
        nu = float(rng.uniform(0.0, max_offdiag))
        sub = random_idempotent(d, rank, nu, int(rng.integers(0, 2**63)), tol)
        m_sub = matched_projection(sub, tol).projection.matrix
        if rng.integers(0, 2):
            m_sub = np.eye(d) - m_sub
        blocks_q.append(sub.matrix)
        blocks_p.append(m_sub)

    q_full = np.zeros((dim, dim), dtype=np.complex128)
    p_full = np.zeros((dim, dim), dtype=np.complex128)
    q_full[:d1, :d1], q_full[d1:, d1:] = blocks_q
    p_full[:d1, :d1], p_full[d1:, d1:] = blocks_p
    u = random_unitary(dim, rng)
    return (
        as_projection(u @ p_full @ adjoint(u), tol),
        as_idempotent(u @ q_full @ adjoint(u), tol),
    )
