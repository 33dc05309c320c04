"""The matched projection of an idempotent, its oracles, and its identities.

For an idempotent Q the matched projection m(Q) is a projection that is
similar and homotopic to Q and commutes with every quasi-projection-pair
partner of Q.  The production route, ``matched_projection``, takes it from
one SVD Q = U S V*.  Idempotency gives V_r* U_r = S_r^(-1) on the nonzero
singular values (the Halmos two-subspace form: Q is a direct sum of I, 0
and 2x2 blocks), so the columns u_i + v_i are mutually orthogonal and

    m(Q) = sum_{s_i > 0} s_i / (2 (s_i + 1)) (u_i + v_i)(u_i + v_i)*,

while the same SVD gives |Q| = V S V*, |Q*| = U S U* and
|Q*|^dag = U_r S_r^(-1) U_r*.

Three further routes are kept only as independent oracles for ``verify``
and the tests, each built from its own factorizations:

- the closed formula (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q)
  (``matched_projection_closed_form``);
- T T^dag and V V* for T = |Q*| + Q* (``matched_via_factor``);
- the 2x2 block construction over range(Q), which also yields the
  similarity witness W (``homotopy_witness``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NotHermitianError,
    NotQuasiProjectionPairError,
    NotUnitaryError,
    ValidationError,
)
from .idempotents import (
    Idempotent,
    Projection,
    as_idempotent,
    as_projection,
    block_form,
    random_idempotent,
    random_unitary,
    range_projection,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    abs_value,
    adjoint,
    hermitian_gap,
    identity,
    moore_penrose,
    operator_norm,
    psd_order,
    psd_power,
    require_hermitian,
)
from .report import Check, boolean_check

# Self-test hook: the sign of v_i in the columns u_i + v_i of the production
# route.  ``sabotaged_formula`` flips it to u_i - v_i so the verification
# harness can prove it detects a corrupted m(Q); the oracles never read it.
# Never set outside testing.
_PAIR_SIGN = 1.0


@contextmanager
def sabotaged_formula():
    """Temporarily corrupt the production SVD route (harness self-test only)."""
    global _PAIR_SIGN
    _PAIR_SIGN = -1.0
    try:
        yield
    finally:
        _PAIR_SIGN = 1.0


def mp_inverse_abs_qstar(q: Idempotent, tol: Tolerances | None = None) -> np.ndarray:
    """|Q*|^dag computed as (P_R(Q) P_R(Q*) P_R(Q))^(1/2)."""
    tol = tol or DEFAULT_TOL
    p_r = range_projection(q, tol).matrix
    p_rs = range_projection(as_idempotent(adjoint(q.matrix), tol), tol).matrix
    return psd_power(p_r @ p_rs @ p_r, 0.5, tol)


def _v_factor(q: Idempotent, abs_qs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """V = T (|Q*|^dag)^(1/2) (I + |Q*|)^(-1/2) / sqrt 2 for T = |Q*| + Q*; V V* = m(Q)."""
    return (
        np.sqrt(0.5)
        * (abs_qs + adjoint(q.matrix))
        @ psd_power(mp_inverse_abs_qstar(q, tol), 0.5, tol)
        @ psd_power(identity(q.dim) + abs_qs, -0.5, tol)
    )


@dataclass(frozen=True)
class MatchedPair:
    """Q with m(Q) and the spectral factors |Q|, |Q*|, |Q*|^dag and T = |Q*| + Q*."""

    source: Idempotent
    projection: Projection
    t_factor: np.ndarray
    abs_q: np.ndarray
    abs_q_star: np.ndarray
    abs_q_star_pinv: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    @cached_property
    def v_factor(self) -> np.ndarray:
        """V with V V* = m(Q), from Koliha projections and eigh; built on first use."""
        return _v_factor(self.source, self.abs_q_star, self.tol)

    def invariant_residuals(self, tol: Tolerances | None = None) -> dict[str, float]:
        """Residuals of the defining cross-identities of the pair."""
        tol = tol or DEFAULT_TOL
        q = self.source.matrix
        m = self.projection.matrix
        reflect = 2.0 * m - identity(self.source.dim)
        return {
            "factor_tt": operator_norm(m - self.t_factor @ moore_penrose(self.t_factor, tol)),
            "factor_vv": operator_norm(m - self.v_factor @ adjoint(self.v_factor)),
            "adjoint_reflection": operator_norm(adjoint(q) - reflect @ q @ reflect),
        }


def matched_projection(q: Idempotent, tol: Tolerances | None = None) -> MatchedPair:
    """m(Q) from one SVD Q = U S V*, packaged with the factors that SVD gives.

    With W = U_r + V_r over the singular values s_i > 0, m(Q) is the
    orthogonal projection W (W* W)^(-1) W*, and in exact arithmetic
    W* W = D = 2 (I + S_r^(-1)).  Computed singular vectors satisfy that
    only to about n eps ||Q||, so W D^(-1) W* misses idempotency by as much
    (3e-10 at ||A|| = 1e6, n = 32).  (W* W)^(-1) is therefore taken as one
    Newton step from D^(-1), D^(-1) (2D - W* W) D^(-1), which leaves a
    projection defect of order (n eps ||Q||)^2 plus round-off, without a
    second factorization.  The singular values of an idempotent are 0 or at
    least 1, so the cut at 1/2 separates them without a rank tolerance.

    The result is certified by ``as_projection``; the oracle routes are
    compared with it through ``MatchedPair.invariant_residuals`` and by the
    verification battery.
    """
    tol = tol or DEFAULT_TOL
    qm = q.matrix
    u, s, vh = np.linalg.svd(qm)
    keep = s > 0.5
    u_r, s_r = u[:, keep], s[keep]
    w = u_r + _PAIR_SIGN * adjoint(vh[keep])
    d = 2.0 * (1.0 + 1.0 / s_r)
    x = w / d
    m = x @ (np.diag(2.0 * d) - adjoint(w) @ w) @ adjoint(x)
    abs_qs = (u * s) @ adjoint(u)
    return MatchedPair(
        source=q,
        projection=as_projection(m, tol),
        t_factor=abs_qs + adjoint(qm),
        abs_q=(adjoint(vh) * s) @ vh,
        abs_q_star=abs_qs,
        abs_q_star_pinv=(u_r / s_r) @ adjoint(u_r),
        tol=tol,
    )


def matched_projection_closed_form(q: Idempotent, tol: Tolerances | None = None) -> np.ndarray:
    """Oracle: m(Q) = (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q).

    Built from its own SVD of Q*, the Koliha route to |Q*|^dag and a solve,
    never from the production SVD.  Returned uncertified so that a
    comparison reports its gap: from ||A|| ~ 1e3 up its projection defect
    exceeds the default check tolerance.
    """
    tol = tol or DEFAULT_TOL
    qm = q.matrix
    abs_qs = abs_value(adjoint(qm))
    right = np.linalg.solve(abs_qs + identity(q.dim), abs_qs + qm)
    return 0.5 * (abs_qs + adjoint(qm)) @ mp_inverse_abs_qstar(q, tol) @ right


def matched_via_factor(q: Idempotent, tol: Tolerances | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (T T^dag, V V*) for T = |Q*| + Q*; both equal m(Q).

    T comes from its own SVD of Q*, not from the production route.
    """
    tol = tol or DEFAULT_TOL
    abs_qs = abs_value(adjoint(q.matrix))
    t_factor = abs_qs + adjoint(q.matrix)
    v_factor = _v_factor(q, abs_qs, tol)
    return t_factor @ moore_penrose(t_factor, tol), v_factor @ adjoint(v_factor)


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


def is_quasi_projection_pair(
    p: Projection, q: Idempotent, tol: Tolerances | None = None
) -> QppVerdict:
    """Test the three block conditions plus both reflection characterizations."""
    tol = tol or DEFAULT_TOL
    pm, qm = p.matrix, q.matrix
    eye = identity(q.dim)
    comp = eye - pm
    reflect = 2.0 * pm - eye
    residuals = {
        "block_range": operator_norm(pm @ (adjoint(qm) - qm) @ pm),
        "block_cross": operator_norm(pm @ adjoint(qm) @ comp + pm @ qm @ comp),
        "block_null": operator_norm(comp @ (adjoint(qm) - qm) @ comp),
        "adjoint_reflection": operator_norm(adjoint(qm) - reflect @ qm @ reflect),
        "abs_reflection": operator_norm(
            abs_value(adjoint(qm)) - reflect @ abs_value(qm) @ reflect
        ),
    }
    gate = tol.check * (1.0 + operator_norm(qm))
    return QppVerdict(
        holds=all(r <= gate for r in residuals.values()),
        residuals=residuals,
        gate=gate,
    )


def qpp_symmetry_closure(p: Projection, q: Idempotent, tol: Tolerances | None = None) -> bool:
    """Whether all eight pairs {P, I-P} x {Q, Q*, I-Q, I-Q*} are quasi-projection pairs."""
    tol = tol or DEFAULT_TOL
    if not is_quasi_projection_pair(p, q, tol).holds:
        raise NotQuasiProjectionPairError("(P, Q) is not a quasi-projection pair")
    eye = identity(q.dim)
    qm = q.matrix
    projections = [p, as_projection(eye - p.matrix, tol)]
    idempotents = [
        q,
        as_idempotent(adjoint(qm), tol),
        as_idempotent(eye - qm, tol),
        as_idempotent(eye - adjoint(qm), tol),
    ]
    return all(
        is_quasi_projection_pair(a, b, tol).holds
        for a in projections
        for b in idempotents
    )


@dataclass(frozen=True)
class SimilarityWitness:
    """m(Q) with an invertible W such that Q = W^(-1) m(Q) W and ||I - W|| < 1."""

    projection: Projection
    w: np.ndarray
    contraction_norm: float


def homotopy_witness(q: Idempotent, tol: Tolerances | None = None) -> SimilarityWitness:
    """Block construction of (m(Q), W) over range(Q) + null(Q*).

    A projection input short-circuits to the trivial witness W = I.
    """
    tol = tol or DEFAULT_TOL
    qm = q.matrix
    eye = identity(q.dim)
    if hermitian_gap(qm) <= tol.check and q.defect <= tol.check:
        return SimilarityWitness(
            projection=as_projection(qm, tol), w=eye, contraction_norm=0.0
        )

    p_r = range_projection(q, tol)
    form = block_form(qm, p_r, tol)
    r = form.rank
    if r == 0 or r == q.dim:
        # a genuine idempotent with full or empty range is 0 or I and was
        # caught above; reaching here means the input sits in the defect band
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
    p_mat = form.u @ p_block @ adjoint(form.u)
    w_mat = form.u @ w_block @ adjoint(form.u)

    contraction = operator_norm(eye - w_mat)
    if contraction >= 1.0:
        raise ValidationError(f"witness contraction norm {contraction:.6f} not < 1")
    w_inv = np.linalg.inv(w_mat)
    residual = operator_norm(w_inv @ p_mat @ w_mat - qm)
    bound = tol.check * (1.0 + operator_norm(w_inv) * operator_norm(w_mat))
    if residual > bound:
        raise ValidationError(f"similarity residual {residual:.3e} exceeds {bound:.3e}")
    return SimilarityWitness(
        projection=as_projection(p_mat, tol), w=w_mat, contraction_norm=contraction
    )


def homotopy_path(
    q: Idempotent, samples: int, tol: Tolerances | None = None
) -> list[Idempotent]:
    """Idempotents Q(t) = W_t^(-1) m(Q) W_t on a uniform grid from m(Q) to Q."""
    tol = tol or DEFAULT_TOL
    if samples < 1:
        raise ValueError("samples must be positive")
    witness = homotopy_witness(q, tol)
    eye = identity(q.dim)
    p_mat = witness.projection.matrix
    path = []
    for t in np.linspace(0.0, 1.0, samples):
        w_t = eye + t * (witness.w - eye)
        path.append(as_idempotent(np.linalg.solve(w_t, p_mat @ w_t), tol))
    return path


def _column_space_projector(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    u, s, _ = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(m)
    cols = u[:, s > tol.rank_factor(m.shape[0]) * s[0]]
    return cols @ adjoint(cols)


def _orthonormal_basis(m: np.ndarray, tol: Tolerances, of_null: bool = False) -> np.ndarray:
    u, s, vh = np.linalg.svd(m)
    cutoff = tol.rank_factor(m.shape[0]) * (s[0] if s.size and s[0] > 0 else 1.0)
    if of_null:
        return adjoint(vh)[:, s <= cutoff] if s.size else adjoint(vh)
    return u[:, s > cutoff]


def _rank(m: np.ndarray, tol: Tolerances) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_factor(m.shape[0]) * s[0]))


def range_identities(
    q: Idempotent,
    tol: Tolerances | None = None,
    subspace_tol: float = 1e-8,
) -> list[Check]:
    """Range/kernel identities of m(Q), verified through orthogonal projectors.

    Subspace equality is tested as the gap between the corresponding
    orthoprojectors; trivial intersections through the rank of stacked bases.
    """
    tol = tol or DEFAULT_TOL
    pair = matched_projection(q, tol)
    qm = q.matrix
    m = pair.projection.matrix
    eye = identity(q.dim)
    abs_q, abs_qs = pair.abs_q, pair.abs_q_star
    sum_qs = qm + adjoint(qm)
    proj_sum = _column_space_projector(sum_qs, tol)

    checks = [
        Check(
            "range_mq_eq_range_absqstar_plus_qstar",
            operator_norm(m - _column_space_projector(abs_qs + adjoint(qm), tol)),
            subspace_tol,
        ),
        Check(
            "range_mq_eq_range_absq_plus_q",
            operator_norm(m - _column_space_projector(abs_q + qm, tol)),
            subspace_tol,
        ),
        Check(
            "kernel_mq_eq_kernel_absqstar_plus_q",
            operator_norm(
                (eye - m) - (eye - _column_space_projector(adjoint(abs_qs + qm), tol))
            ),
            subspace_tol,
        ),
        Check(
            "range_mq_inside_range_q_plus_qstar",
            operator_norm((eye - proj_sum) @ m),
            subspace_tol,
        ),
        Check(
            "range_q_plus_qstar_eq_range_absqstar_plus_absq",
            operator_norm(proj_sum - _column_space_projector(abs_qs + abs_q, tol)),
            subspace_tol,
        ),
        Check(
            "range_mq_eq_range_four_term_sum",
            operator_norm(m - _column_space_projector(abs_qs + abs_q + sum_qs, tol)),
            subspace_tol,
        ),
        Check(
            "mq_times_qstar",
            operator_norm(m @ adjoint(qm) - 0.5 * (abs_qs + adjoint(qm))),
            tol.check * (1.0 + operator_norm(qm)),
        ),
        Check(
            "mq_times_q",
            operator_norm(m @ qm - 0.5 * (abs_q + qm)),
            tol.check * (1.0 + operator_norm(qm)),
        ),
    ]

    range_m = _orthonormal_basis(m, tol)
    null_q = _orthonormal_basis(qm, tol, of_null=True)
    range_q = _orthonormal_basis(qm, tol)
    null_m = _orthonormal_basis(m, tol, of_null=True)
    checks.append(
        boolean_check(
            "range_mq_meets_null_q_trivially",
            _rank(np.hstack([range_m, null_q]), tol)
            == range_m.shape[1] + null_q.shape[1],
        )
    )
    checks.append(
        boolean_check(
            "null_mq_meets_range_q_trivially",
            _rank(np.hstack([null_m, range_q]), tol)
            == null_m.shape[1] + range_q.shape[1],
        )
    )

    ranges_equal = operator_norm(m - proj_sum) <= subspace_tol
    is_projection = hermitian_gap(qm) <= tol.check
    checks.append(
        boolean_check("range_equality_iff_projection", ranges_equal == is_projection)
    )
    return checks


def fractional_power_limit(
    q: Idempotent, n_list: list[int], tol: Tolerances | None = None
) -> list[float]:
    """Distances ||(m(Q) Q m(Q))^(1/n) - m(Q)|| for the given exponents.

    Verifies on the way that K = m(Q) Q m(Q) is Hermitian, dominates m(Q),
    and equals (|Q*| + |Q| + Q + Q*) / 4.
    """
    tol = tol or DEFAULT_TOL
    pair = matched_projection(q, tol)
    m = pair.projection.matrix
    qm = q.matrix
    k_raw = m @ qm @ m
    if hermitian_gap(k_raw) > tol.check * (1.0 + operator_norm(k_raw)):
        raise NotHermitianError("m(Q) Q m(Q) is not Hermitian within tolerance")
    k = require_hermitian(k_raw, tol)
    if not psd_order(m, k, tol):
        raise ValidationError("m(Q) Q m(Q) does not dominate m(Q)")
    quarter = 0.25 * (pair.abs_q_star + pair.abs_q + qm + adjoint(qm))
    gap = operator_norm(k - quarter)
    if gap > tol.check * (1.0 + operator_norm(qm)):
        raise ValidationError(f"four-term identity residual {gap:.3e}")
    return [operator_norm(psd_power(k, 1.0 / n, tol) - m) for n in n_list]


def unitary_equivariance(
    q: Idempotent, u: np.ndarray, tol: Tolerances | None = None
) -> float:
    """||m(U* Q U) - U* m(Q) U|| for a unitary U; zero in exact arithmetic."""
    tol = tol or DEFAULT_TOL
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
    tol: Tolerances | None = None,
    max_offdiag: float = 2.0,
) -> tuple[Projection, Idempotent]:
    """Seeded quasi-projection pair (P, Q), not always the matched one.

    Built as a unitarily scrambled direct sum Q1 + Q2 paired with a block
    choice from {m(Qi), I - m(Qi)}, which always satisfies the reflection
    identity Q* = (2P - I) Q (2P - I).
    """
    tol = tol or DEFAULT_TOL
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
