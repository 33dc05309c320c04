"""The matched projection of an idempotent, its oracles, and its identities.

For an idempotent Q the matched projection m(Q) is a projection that is
similar and homotopic to Q and commutes with every quasi-projection-pair
partner of Q.  The production route, ``matched_projection``, takes it from
one SVD Q = U S V*.  Idempotency gives V_r* U_r = S_r^(-1) on the nonzero
singular values (the Halmos two-subspace form: Q is a direct sum of I, 0
and 2x2 blocks), so the columns u_i + v_i are mutually orthogonal and

    m(Q) = sum_{s_i > 0} s_i / (2 (s_i + 1)) (u_i + v_i)(u_i + v_i)*,

while the same SVD gives the similarity witness W = I + E U_r* with
Q = W^(-1) m(Q) W, ||I - W|| < 1 (``homotopy_witness``).  The witness, a
``SimilarityWitness``, holds E, X = U_r and the diagonal d of X* E + I.
W^(-1) has a closed form, so its ``samples`` are the homotopy from m(Q) to Q
as rank-r updates of m(Q), with no inverse and no solve, and
``homotopy_path`` certifies them.  The SVD is the one ``Idempotent``
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
- the 2x2 closed form per principal angle over range(Q) + null(Q*), from
  one SVD of Q's off-diagonal block in the pencil's basis, which yields
  m(Q) and W (``homotopy_witness_block``).

Both witnesses come in the factored form W = I + E X* and are certified
by one function, ``_certified_witness``; only the certificate is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    certify,
    hermitian_eigen,
    identity,
    moore_penrose,
    norm_at_most,
    numerical_rank,
    operator_norm,
    psd_order,
    psd_power,
    require_hermitian,
)
from .report import Check, boolean_check, norm_check


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
    ``koliha_projections`` and V = T (|Q*|^dag)^(1/2) (I + |Q*|)^(-1/2) / sqrt 2;
    |Q*|^dag and its square root, the powers 1/2 and 1/4 of the same
    product, come from one ``psd_power``.
    """
    abs_qs = abs_value(adjoint(q.matrix))
    p_r, p_rs = (p.matrix for p in koliha_projections(q, tol))
    dag, dag_root = psd_power(p_r @ p_rs @ p_r, [0.5, 0.25], tol)
    t = abs_qs + adjoint(q.matrix)
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


def _qpp_matrices(p: Projection, q: Idempotent) -> Iterator[tuple[str, np.ndarray]]:
    """The residual matrices of the five quasi-projection-pair conditions, built one at a time."""
    pm, qm = p.matrix, q.matrix
    eye = identity(q.dim)
    comp = eye - pm
    reflect = 2.0 * pm - eye
    yield "block_range", pm @ (adjoint(qm) - qm) @ pm
    yield "block_cross", pm @ (adjoint(qm) + qm) @ comp
    yield "block_null", comp @ (adjoint(qm) - qm) @ comp
    yield "adjoint_reflection", adjoint(qm) - reflect @ qm @ reflect
    yield "abs_reflection", q.abs_q_star - reflect @ q.abs_q @ reflect


def qpp_checks(p: Projection, q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> Iterator[Check]:
    """The five quasi-projection-pair conditions for (P, Q) as ``norm_check``s, built one at a time.

    The three block conditions, then both reflection characterizations,
    each held to the gate tol.relative(||Q||).  A report takes the list;
    ``is_quasi_projection_pair`` stops at the first that fails.
    """
    gate = tol.relative(q.norm)
    for name, mat in _qpp_matrices(p, q):
        yield norm_check(name, mat, gate)


def is_quasi_projection_pair(p: Projection, q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether every condition of ``qpp_checks`` passes; stops at the first that fails."""
    return all(c.passed for c in qpp_checks(p, q, tol))


def qpp_symmetry_closure(p: Projection, q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether all eight pairs {P, I-P} x {Q, Q*, I-Q, I-Q*} are quasi-projection pairs."""
    if not is_quasi_projection_pair(p, q, tol):
        raise NotQuasiProjectionPairError("(P, Q) is not a quasi-projection pair")
    projections = [p, as_projection(identity(q.dim) - p.matrix, tol)]
    complement = complement_of(q, tol)
    idempotents = [q, adjoint_of(q, tol), complement, adjoint_of(complement, tol)]
    pairs = [(a, b) for a in projections for b in idempotents]
    # pairs[0] is (P, Q), whose verdict the guard has just given
    return all(is_quasi_projection_pair(a, b, tol) for a, b in pairs[1:])


@dataclass(frozen=True)
class SimilarityWitness:
    """m(Q) with W = I + E X* such that Q = W^(-1) m(Q) W and ||I - W|| = ||E|| < 1.

    X is n x r with orthonormal columns and X* E = D - I, D diagonal with
    entries ``d`` (``_certified_witness``); r = 0 gives W = I.  ``samples``
    is the path from m(Q) to Q that ``homotopy_path`` samples.
    """

    projection: Projection
    e: np.ndarray
    x: np.ndarray
    d: np.ndarray
    contraction_norm: float

    @property
    def w(self) -> np.ndarray:
        return identity(self.e.shape[0]) + self.e @ adjoint(self.x)

    @cached_property
    def _rank_r_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G = m E X*, X* m and X* G for m = m(Q), so that m W_t = m + t G."""
        m = self.projection.matrix
        g = (m @ self.e) @ adjoint(self.x)
        return g, adjoint(self.x) @ m, adjoint(self.x) @ g

    def samples(self, t: np.ndarray) -> np.ndarray:
        """The (k, n, n) stack of Q(t) = W_t^(-1) m W_t for the k values in ``t``."""
        (n, r), k = self.e.shape, t.size
        g, x_m, x_g = self._rank_r_form
        c = -t / (1.0 + np.multiply.outer(self.d - 1.0, t))
        # laid out (r, k, n), so that E times it is one product: update[i, j]
        # is row i of C_t X* (m + t G) at t = t[j]
        rows = x_m[:, np.newaxis] + t[:, np.newaxis] * x_g[:, np.newaxis]
        update = c[:, :, np.newaxis] * rows
        out = np.multiply.outer(t, g) + self.projection.matrix
        out += (self.e @ update.reshape(r, k * n)).reshape(n, k, n).transpose(1, 0, 2)
        return out


def _trivial_witness(q: Idempotent, tol: Tolerances) -> SimilarityWitness:
    """The witness of a projection input: W = I and the constant path."""
    empty = np.zeros((q.dim, 0))
    return SimilarityWitness(as_projection(q.matrix, tol), empty, empty, np.zeros(0), 0.0)


def _nontrivial_rank(r: int, n: int) -> int:
    """The rank r of a non-projection input, which must be neither 0 nor n."""
    if r == 0 or r == n:
        # a genuine idempotent with full or empty range is 0 or I and is a
        # projection; reaching here means the input sits in the defect band
        raise ValidationError("idempotent is numerically trivial but not a projection")
    return r


@per_tolerance
def homotopy_witness(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> SimilarityWitness:
    """(m(Q), W) with Q = W^(-1) m(Q) W and ||I - W|| < 1, from one SVD Q = U S V*.

    In the basis U, Q is [[I, Y], [0, 0]] with Y = S_r V_r* U_perp, and
    Y Y* = S_r^2 - I is already diagonal: Y's angles have b_i = s_i, so the
    per-angle construction of ``homotopy_witness_block`` needs no rotation
    of U_r and becomes a closed form in the singular values:

        W = U [[D, 0], [L, I]] U*,  D = S_r^(-1) / 2,  L = U_perp* V_r (I + S_r)^(-1) / 2,

    L being Y* (S_r (S_r + I))^(-1) / 2.  So W = I + E U_r* with the n x r
    factor E = U_r (D - I) + U_perp L, and U_r* E = D - I, which
    ``_certified_witness`` certifies with no inverse factored.  The
    projection is the certified m(Q) of the same SVD (``matched_projection``).

    A projection input short-circuits to the trivial witness W = I.
    """
    if is_projection(q.matrix, tol):
        return _trivial_witness(q, tol)
    u, s, vh = q.svd
    r = _nontrivial_rank(q.rank, q.dim)
    s_r, u_r, u_perp = s[:r], u[:, :r], u[:, r:]
    d = 0.5 / s_r
    lower = 0.5 * (adjoint(u_perp) @ adjoint(vh[:r])) / (1.0 + s_r)
    e = u_r * (d - 1.0) + u_perp @ lower
    return _certified_witness(q, _matched_pair(q, tol).projection, u_r, e, d, tol)


def _certified_witness(
    q: Idempotent,
    projection: Projection,
    x: np.ndarray,
    e: np.ndarray,
    d: np.ndarray,
    tol: Tolerances,
) -> SimilarityWitness:
    """Certify W = I + E X* as a witness of Q = W^(-1) P W, P = ``projection``.

    X is n x r with orthonormal columns and X* E = D - I in exact
    arithmetic, D diagonal with entries ``d`` in (0, 1/2].  For t in [0, 1],
    W_t = I + t E X* then has the Woodbury inverse X_t = I - t E Delta_t^(-1) X*,
    Delta_t = I + t (D - I) diagonal with entries 1 - t + t d_i >= d_i > 0.
    Three gates, in this order:

    - the inverse: with the computed r x r defect F = X* E - (D - I),
      X_t W_t - I = -t^2 E Delta_t^(-1) F X*, and t^2 / (1 - t + t d_i)
      <= 1 / d_i on [0, 1], so ||X_t W_t - I|| <= ||E|| ||D^(-1)|| ||F|| for
      every t.  The gate is tol.relative(||D^(-1)||), where ||D^(-1)||
      = 2 ||Q|| <= ||W^(-1)|| ||W||: the allowance the similarity gate gives
      any inverse, at its smallest;
    - the contraction ||I - W|| = ||E|| < 1, the exact 2-norm of an n x r matrix;
    - the similarity ||W^(-1) P W - Q|| <= tol.relative(||W^(-1)|| ||W||),
      with W^(-1) P W the t = 1 sample of the witness's path (``samples``).

    The inverse and similarity gates go through ``certify``, so ||F|| and
    the similarity norms are taken exactly only when their norm bounds
    cannot settle a gate.
    """
    contraction = operator_norm(e)
    d_inv = 1.0 / d
    f = adjoint(x) @ e - np.diag(d - 1.0)
    certify(f, lambda: tol.relative(d_inv.max()), lambda defect, bound, _: ValidationError(
        f"closed-form inverse defect {defect:.3e} exceeds {bound:.3e}"), scale=contraction * d_inv.max())
    if contraction >= 1.0:
        raise ValidationError(f"witness contraction norm {contraction:.6f} not < 1")
    witness = SimilarityWitness(projection, e, x, d, contraction)
    w_inv = identity(q.dim) - (e * d_inv) @ adjoint(x)
    certify(witness.samples(np.ones(1))[0] - q.matrix, lambda a, b: tol.relative(a * b),
            lambda residual, bound, _: ValidationError(
                f"similarity residual {residual:.3e} exceeds {bound:.3e}"), w_inv, witness.w)
    return witness


def homotopy_witness_block(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> SimilarityWitness:
    """Oracle: (m(Q), W) angle by angle over range(Q) + null(Q*), never from Q's SVD.

    The basis [U_1 | U_2] comes from the P_R(Q) of ``koliha_projections``
    (``block_form``), where Q = [[I, A], [0, 0]].  One SVD A = G S H* with
    k = min(r, n - r) angles s_i turns it into X = U_1 G and Y = U_2 H, in
    which Q is a direct sum of the 2x2 blocks [[1, s_i], [0, 0]] on
    (x_i, y_i), I on the r - k unpaired x_i and 0 on the rest of Y.  With
    b_i = sqrt(1 + s_i^2), and s_i = 0 (so b_i = 1) on the unpaired x_i,
    each block gives in closed form

        m(Q) = [[b+1, s], [s, b-1]] / (2b) = z z*,  z = (cos, sin)(theta/2),  tan theta = s,
        W = [[1/(2b), 0], [s/(2b(b+1)), 1]],

    so m(Q) = Z Z* and W = I + E X* with X* E = D - I, D = diag(1/(2b)),
    each a diagonal scaling of X and Y, with no inverse, solve or matrix
    square root.  W is certified by ``_certified_witness``, as the
    production witness is.  A projection input short-circuits to W = I.
    """
    qm, n = q.matrix, q.dim
    if is_projection(qm, tol):
        return _trivial_witness(q, tol)
    form = block_form(qm, koliha_projections(q, tol)[0], tol)
    r = _nontrivial_rank(form.rank, n)
    g, s, hh = np.linalg.svd(form.blocks[1])
    k = s.size
    x = form.u[:, :r] @ g
    # Y's first k columns, padded with zeros against the r - k unpaired x_i
    y = np.hstack([form.u[:, r:] @ adjoint(hh[:k]), np.zeros((n, r - k))])
    s = np.concatenate([s, np.zeros(r - k)])
    b = np.sqrt(1.0 + s**2)
    z = x * np.sqrt((b + 1.0) / (2.0 * b)) + y * (s / np.sqrt(2.0 * b * (b + 1.0)))
    d = 0.5 / b
    e = x * (d - 1.0) + y * (s / (2.0 * b * (b + 1.0)))
    return _certified_witness(q, as_projection(z @ adjoint(z), tol), x, e, d, tol)


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
    no factorization (``SimilarityWitness.samples``), and the samples are
    certified by ``as_idempotents`` with one stacked norm per quantity.  The sample at
    t = 0 is m(Q) exactly; a projection input (r = 0) gives m(Q) = Q at every t.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    path = homotopy_witness(q, tol).samples(np.linspace(0.0, 1.0, samples))
    return as_idempotents(path, tol)


def _hermitian_bases(m: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of range(M) and ker(M) for a Hermitian M, from one ``hermitian_eigen``.

    The singular values of a Hermitian matrix are its |lambda|, so the
    eigenvectors with |lambda| above ``numerical_rank``'s cutoff (applied to
    the |lambda| in descending order) span the column space that the SVD
    gives, and the rest span its orthogonal complement, the kernel.
    """
    w, v = hermitian_eigen(m, tol)
    mags = np.abs(w)
    order = np.argsort(-mags)
    r = numerical_rank(mags[order], m.shape[0], tol)
    return v[:, order[:r]], v[:, order[r:]]


def _column_space_projector(m: np.ndarray, tol: Tolerances, hermitian: bool = False) -> np.ndarray:
    """The orthoprojector onto range(M) at ``numerical_rank``'s cutoff.

    From the SVD's left singular vectors, or for a Hermitian M from one
    ``eigh`` (``_hermitian_bases``).
    """
    if hermitian:
        cols = _hermitian_bases(m, tol)[0]
    else:
        u, s, _ = np.linalg.svd(m)
        cols = u[:, : numerical_rank(s, m.shape[0], tol)]
    return cols @ adjoint(cols)


def range_identities(q: Idempotent, tol: Tolerances = DEFAULT_TOL) -> list[Check]:
    """Range/kernel identities of m(Q), verified through orthogonal projectors.

    Subspace equality is tested as the gap between the corresponding
    orthoprojectors; trivial intersections through the rank of stacked bases.
    Each gap and product residual is a bracketed check (``norm_check``).

    Each operand is factored once, by the cheapest kernel its structure
    allows.  The column spaces of the Hermitian Q + Q*, |Q*| + |Q| and the
    four-term sum, and the range and kernel bases of the certified m(Q), come
    from ``eigh`` (``_hermitian_bases``); only |Q*| + Q* and |Q| + Q, which
    are not Hermitian, take an SVD.  The kernel identity needs no
    factorization of its own: for any M, ker(M) = range(M*)^perp, so
    ker(|Q*| + Q) = range(|Q*| + Q*)^perp, and its orthoprojector is I minus
    the one the first range identity takes.
    """
    qm = q.matrix
    m = matched_projection(q, tol).projection.matrix
    eye = identity(q.dim)
    abs_q, abs_qs = q.abs_q, q.abs_q_star
    sum_qs = qm + adjoint(qm)
    proj_sum = _column_space_projector(sum_qs, tol, hermitian=True)
    proj_absqs_qstar = _column_space_projector(abs_qs + adjoint(qm), tol)

    gate, subspace = tol.relative(q.norm), tol.subspace
    checks = [
        norm_check("range_mq_eq_range_absqstar_plus_qstar", m - proj_absqs_qstar, subspace),
        norm_check("range_mq_eq_range_absq_plus_q", m - _column_space_projector(abs_q + qm, tol), subspace),
        norm_check("kernel_mq_eq_kernel_absqstar_plus_q", (eye - m) - (eye - proj_absqs_qstar), subspace),
        norm_check("range_mq_inside_range_q_plus_qstar", (eye - proj_sum) @ m, subspace),
        norm_check("range_q_plus_qstar_eq_range_absqstar_plus_absq",
                   proj_sum - _column_space_projector(abs_qs + abs_q, tol, hermitian=True), subspace),
        norm_check("range_mq_eq_range_four_term_sum",
                   m - _column_space_projector(abs_qs + abs_q + sum_qs, tol, hermitian=True), subspace),
        norm_check("mq_times_qstar", m @ adjoint(qm) - 0.5 * (abs_qs + adjoint(qm)), gate),
        norm_check("mq_times_q", m @ qm - 0.5 * (abs_q + qm), gate),
    ]

    range_m, null_m = _hermitian_bases(m, tol)
    # Q's bases at its own rank, the cut at 1/2 of P_R(Q) and P_N(Q)
    u, _, vh = q.svd
    range_q, null_q = u[:, : q.rank], adjoint(vh)[:, q.rank :]
    for name, a, b in (
        ("range_mq_meets_null_q_trivially", range_m, null_q),
        ("null_mq_meets_range_q_trivially", null_m, range_q),
    ):
        rank = numerical_rank(np.linalg.svd(np.hstack([a, b]), compute_uv=False), q.dim, tol)
        checks.append(boolean_check(name, rank == a.shape[1] + b.shape[1]))

    ranges_equal = norm_at_most(m - proj_sum, subspace)
    hermitian = norm_at_most(qm - adjoint(qm), tol.check)
    checks.append(boolean_check("range_equality_iff_projection", ranges_equal == hermitian))
    return checks


def fractional_power_limit(
    q: Idempotent, n_list: list[int], tol: Tolerances = DEFAULT_TOL
) -> list[float]:
    """Distances ||(m(Q) Q m(Q))^(1/n) - m(Q)|| for the given exponents, one stacked norm.

    Verifies on the way that K = m(Q) Q m(Q) is Hermitian, dominates m(Q),
    and equals (|Q*| + |Q| + Q + Q*) / 4.
    """
    m = matched_projection(q, tol).projection.matrix
    qm = q.matrix
    k = require_hermitian(m @ qm @ m, tol)
    if not psd_order(m, k, tol):
        raise ValidationError("m(Q) Q m(Q) does not dominate m(Q)")
    gap = k - 0.25 * (q.abs_q_star + q.abs_q + qm + adjoint(qm))
    certify(gap, lambda: tol.relative(q.norm),
            lambda residual, *_: ValidationError(f"four-term identity residual {residual:.3e}"))
    return operator_norm(psd_power(k, [1.0 / n for n in n_list], tol) - m).tolist()


def unitary_equivariance(
    q: Idempotent, u: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> float:
    """||m(U* Q U) - U* m(Q) U|| for a unitary U; zero in exact arithmetic."""
    u = np.asarray(u, dtype=np.complex128)
    certify(adjoint(u) @ u - identity(q.dim), lambda: tol.check,
            lambda gap, *_: NotUnitaryError(f"U*U - I has norm {gap:.3e}"))
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
