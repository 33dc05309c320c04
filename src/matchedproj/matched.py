"""The matched projection of an idempotent, its oracles, and its identities.

For an idempotent Q the matched projection m(Q) is a projection that is
similar and homotopic to Q and commutes with every quasi-projection-pair
partner of Q.  The production route, ``matched_projection``, takes it from
one ``eigh`` of the Hermitian pencil S = Q + Q* - I (``Idempotent.pencil``).
In the Halmos two-subspace form Q is a direct sum of I, 0 and 2x2 blocks
[[1, sigma], [0, 0]], on which S is [[1, sigma], [sigma, -1]], so spec S
avoids (-1, 1) and m(Q) is S's positive spectral projection,

    m(Q) = (I + sign S) / 2 = V_+ V_+*,

the matrix sign function of a Hermitian matrix with a gap of 2 around 0
(N. J. Higham, Functions of Matrices, SIAM 2008, ch. 5).  The same ``eigh``
gives the similarity witness W = I + E X* with Q = W^(-1) m(Q) W,
||I - W|| < 1 (``homotopy_witness``), X the left singular vectors of Q (or
of I - Q, when 2r > n).  The witness, a ``SimilarityWitness``, holds E, X
and the diagonal d of X* E + I.  W^(-1) has a closed form, so its
``samples`` are the homotopy from m(Q) to Q as low-rank updates of m(Q),
with no inverse and no solve, and ``homotopy_path`` certifies them.  Q's SVD
serves the values of Q alone: ||Q||, |Q| = V S V*, |Q*| = U S U*,
|Q*|^dag = U_r S_r^(-1) U_r* and P_R(Q) = U_r U_r* come from it, and every
function here reads them from Q.  m(Q) (a ``MatchedPair``), its distance to
Q, its witness, the oracle record and K = m(Q) Q m(Q) with its powers over
the fixed ``EXPONENT_GRID`` (``fractional_powers``) are each memoized on Q
(``idempotents.memoized_on_q``), and every function here reads m(Q) by
that memo's private name, ``_matched_pair``.  A function of an idempotent
takes no tolerance: Q is analysed at the tolerance it was certified under,
``q.tol``, and another tolerance takes a new certificate,
``as_idempotent(q.matrix, tol)`` or ``dataclasses.replace(q, tol=tol)``.
Relative rank cutoffs all go through ``linalg.numerical_rank``.
``range_identities`` takes one SVD per operand whose column space it
compares, and decides the trivial intersections from overlaps of the
bases that the pencil and Q's SVD already hold.  The module keeps no
state of its own: the harness self-test corrupts an input instead, a
copy of Q whose cached pencil has V scaled by 2 (``battery.sabotaged``).

Four further routes are kept only as independent oracles for ``verify``
and the tests, never built from Q's pencil vectors.  The SVD formula
m(Q) = W D^(-1) W*, W = U_r + V_r, D = 2 (I + S_r^(-1)), reads Q's SVD
(``matched_projection_svd``); S(Q*) is S(Q) bit for bit and S(I - Q) is -S,
so it is what the m of a partner Q* or I - Q is compared with.  The next
two read one record per Q, ``factor_oracle``: |Q*| and (I + |Q*|)^(-1/2)
from one SVD of Q* of its own, |Q*|^dag from the memoized Koliha projections
of ``koliha_projections``, T = |Q*| + Q*, T^dag and V; the block witness
takes P_R(Q) from the same projections:

- the closed formula (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q)
  (``matched_projection_closed_form``);
- T T^dag and V V* for T = |Q*| + Q* (``matched_via_factor``);
- the 2x2 closed form per principal angle over range(Q) + null(Q*), from
  one SVD of Q's off-diagonal block in Koliha's basis, which yields
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
    as_projection,
    block_form,
    complement_of,
    is_projection,
    koliha_projections,
    memoized_on_q,
    random_idempotent,
    random_unitary,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    adjoint,
    certify,
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
    """Oracle values of Q: |Q*|, |Q*|^dag, T = |Q*| + Q*, T^dag and V; T T^dag = V V* = m(Q).

    |Q*| and the factor (I + |Q*|)^(-1/2) of V come from one SVD of Q*
    (``factor_oracle``), never from Q's memoized ``svd``.
    """

    abs_q_star: np.ndarray
    abs_q_star_pinv: np.ndarray
    t: np.ndarray
    t_pinv: np.ndarray
    v: np.ndarray


@memoized_on_q
def factor_oracle(q: Idempotent) -> FactorOracle:
    """The ``FactorOracle`` of Q, never read from Q's SVD; memoized on Q.

    One SVD of its own, Q* = U S V*, gives |Q*| = V S V* (``abs_value``'s
    formula, bit for bit) and (I + |Q*|)^(-1/2) = V (I + S)^(-1/2) V*; the
    eigenvalues 1 + s_i are at least 1, so that power needs no rank cutoff.
    |Q*|^dag = (P_R(Q) P_R(Q*) P_R(Q))^(1/2) from ``koliha_projections`` and
    its square root, the powers 1/2 and 1/4 of the same product, come from
    one ``psd_power``; V = T (|Q*|^dag)^(1/2) (I + |Q*|)^(-1/2) / sqrt 2.
    """
    _, s, vh = np.linalg.svd(adjoint(q.matrix))
    abs_qs = (adjoint(vh) * s) @ vh
    p_r, p_rs = (p.matrix for p in koliha_projections(q))
    dag, dag_root = psd_power(p_r @ p_rs @ p_r, [0.5, 0.25], q.tol)
    t = abs_qs + adjoint(q.matrix)
    v = np.sqrt(0.5) * t @ dag_root @ ((adjoint(vh) / np.sqrt(1.0 + s)) @ vh)
    return FactorOracle(abs_qs, dag, t, moore_penrose(t, q.tol), v)


@dataclass(frozen=True)
class MatchedPair:
    """The certified m(Q) of an idempotent, at the tolerance Q was certified under.

    Values of Q alone are read from Q itself.  m(Q) at another tolerance is
    the m of a new certificate, ``as_idempotent(q.matrix, tol)`` or
    ``dataclasses.replace(q, tol=tol)``.
    """

    projection: Projection


def matched_projection(q: Idempotent) -> MatchedPair:
    """The certified m(Q), memoized on Q (``_matched_pair``)."""
    return _matched_pair(q)


@memoized_on_q
def _matched_pair(q: Idempotent) -> MatchedPair:
    """The certified m(Q), V_+ V_+* from Q's ``pencil`` S = Q + Q* - I.

    On one Halmos angle, S = [[1, sigma], [sigma, -1]] has the eigenvalues
    +-b, b = sqrt(1 + sigma^2), and its +b eigenvector z = (cos, sin)(theta/2),
    tan theta = sigma, gives that angle's m(Q) = z z*; S is 1 on an unpaired
    range direction and -1 on the rest of null(Q).  So m(Q) = (I + sign S) / 2,
    the span of the eigenvectors of positive eigenvalue, and spec S avoids
    (-1, 1): the sign of each computed eigenvalue needs no cutoff, and
    V_+ V_+* is a projection to the orthonormality of the computed V.

    The pair is memoized on Q and does not refer to Q.  This
    module reads it by this private name, so perfbench counts a call of
    ``matched_projection`` only where a caller asks for m(Q).
    """
    w, v = q.pencil
    v_plus = v[:, w > 0.0]
    return MatchedPair(as_projection(v_plus @ adjoint(v_plus), q.tol))


def matched_projection_svd(q: Idempotent) -> np.ndarray:
    """Oracle: m(Q) = W D^(-1) W* from Q's SVD, W = U_r + V_r, D = 2 (I + S_r^(-1)).

    Idempotency gives V_r* U_r = S_r^(-1) on the r = ``q.rank`` singular
    values above 1/2, so the columns of W are orthogonal and W* W = D.  It
    reads Q's memoized SVD, which a partner keeps for its norm anyway, and is
    returned uncertified so that a comparison reports its gap.
    """
    u, s, vh = q.svd
    w = u[:, : q.rank] + adjoint(vh[: q.rank])
    return (w / (2.0 * (1.0 + 1.0 / s[: q.rank]))) @ adjoint(w)


@memoized_on_q
def matched_distance(q: Idempotent) -> float:
    """||m(Q) - Q||, memoized on Q as m(Q) is."""
    return operator_norm(_matched_pair(q).projection.matrix - q.matrix)


def matched_projection_closed_form(q: Idempotent) -> np.ndarray:
    """Oracle: m(Q) = (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q).

    Built from ``factor_oracle`` and a solve, never from the production SVD.
    Returned uncertified so that a comparison reports its gap: from
    ||A|| ~ 1e3 up its projection defect exceeds the default check tolerance.
    """
    fo = factor_oracle(q)
    right = np.linalg.solve(fo.abs_q_star + identity(q.dim), fo.abs_q_star + q.matrix)
    return 0.5 * fo.t @ fo.abs_q_star_pinv @ right


def matched_via_factor(q: Idempotent) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (T T^dag, V V*) from ``factor_oracle``; both equal m(Q)."""
    fo = factor_oracle(q)
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


def qpp_checks(p: Projection, q: Idempotent) -> Iterator[Check]:
    """The five quasi-projection-pair conditions for (P, Q) as ``norm_check``s, built one at a time.

    The three block conditions, then both reflection characterizations,
    each held to the gate q.tol.relative(||Q||).  A report takes the list;
    ``is_quasi_projection_pair`` stops at the first that fails.
    """
    gate = q.tol.relative(q.norm)
    for name, mat in _qpp_matrices(p, q):
        yield norm_check(name, mat, gate)


def is_quasi_projection_pair(p: Projection, q: Idempotent) -> bool:
    """Whether every condition of ``qpp_checks`` passes; stops at the first that fails."""
    return all(c.passed for c in qpp_checks(p, q))


def qpp_symmetry_closure(p: Projection, q: Idempotent) -> bool:
    """Whether all eight pairs {P, I-P} x {Q, Q*, I-Q, I-Q*} are quasi-projection pairs."""
    if not is_quasi_projection_pair(p, q):
        raise NotQuasiProjectionPairError("(P, Q) is not a quasi-projection pair")
    projections = [p, as_projection(identity(q.dim) - p.matrix, q.tol)]
    complement = complement_of(q)
    idempotents = [q, adjoint_of(q), complement, adjoint_of(complement)]
    pairs = [(a, b) for a in projections for b in idempotents]
    # pairs[0] is (P, Q), whose verdict the guard has just given
    return all(is_quasi_projection_pair(a, b) for a, b in pairs[1:])


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


def _trivial_witness(q: Idempotent) -> SimilarityWitness:
    """The witness of a projection input (its caller's ``is_projection`` verdict): W = I and the constant path."""
    empty = np.zeros((q.dim, 0))
    return SimilarityWitness(Projection(q.matrix), empty, empty, np.zeros(0), 0.0)


def _nontrivial_rank(r: int, n: int) -> int:
    """The rank r of a non-projection input, which must be neither 0 nor n."""
    if r == 0 or r == n:
        # a genuine idempotent with full or empty range is 0 or I and is a
        # projection; reaching here means the input sits in the defect band
        raise ValidationError("idempotent is numerically trivial but not a projection")
    return r


@memoized_on_q
def homotopy_witness(q: Idempotent) -> SimilarityWitness:
    """(m(Q), W) with Q = W^(-1) m(Q) W and ||I - W|| < 1, from Q's ``pencil`` S = Q + Q* - I.

    On one Halmos angle the eigenvector z of S for b = sqrt(1 + sigma^2)
    has Q z = ||Q z|| x, x the angle's range vector, and ||Q z||^2 =
    b (b + 1) / 2.  So the columns of Q V_+ (S_+ (S_+ + I) / 2)^(-1/2) are
    Q's left singular vectors U_r, the positive eigenvalues s_r its singular
    values, and V_r = (2 m - I) U_r its right ones (``reflection-gives-abs``).
    The per-angle witness of ``homotopy_witness_block`` is then W = I + E U_r*
    with D = S_r^(-1) / 2 and

        E = U_r (D - I) + (V_r - U_r S_r^(-1)) (I + S_r)^(-1) / 2 = m U_r (I + S_r)^(-1) - U_r,

    since U_r* V_r = S_r^(-1) and U_r + V_r = 2 m U_r; U_r* E = D - I, which
    ``_certified_witness`` certifies with no inverse factored.  When 2r > n,
    r - (n - r) range directions of Q are unpaired, and Q magnifies their
    eigenvector error by ||Q||; I - Q has none.  Its pencil is -S and
    W (I - Q) W^(-1) = I - m(Q) says the same as W Q W^(-1) = m(Q), so W is
    built from I - Q, I - m(Q) and S's negative eigenpairs instead.  The
    projection is the certified m(Q) of the same pencil (``matched_projection``).

    A projection input short-circuits to the trivial witness W = I.
    """
    if is_projection(q.matrix, q.tol):
        return _trivial_witness(q)
    w, v = q.pencil
    projection = _matched_pair(q).projection
    qm, m, n = q.matrix, projection.matrix, q.dim
    if 2 * _nontrivial_rank(int(np.count_nonzero(w > 0.0)), n) > n:
        # I - Q's side: its pencil is -S and its matched projection I - m(Q)
        w, qm, m = -w, identity(n) - qm, identity(n) - m
    side = w > 0.0
    s = w[side]
    x = (qm @ v[:, side]) / np.sqrt(0.5 * s * (s + 1.0))
    e = (m @ x) / (1.0 + s) - x
    return _certified_witness(q, projection, x, e, 0.5 / s)


def _certified_witness(
    q: Idempotent, projection: Projection, x: np.ndarray, e: np.ndarray, d: np.ndarray
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
      every t.  The gate is q.tol.relative(||D^(-1)||), where ||D^(-1)||
      = 2 ||Q|| <= ||W^(-1)|| ||W||: the allowance the similarity gate gives
      any inverse, at its smallest;
    - the contraction ||I - W|| = ||E|| < 1, the exact 2-norm of an n x r matrix;
    - the similarity ||W^(-1) P W - Q|| <= q.tol.relative(||W^(-1)|| ||W||),
      with W^(-1) P W the t = 1 sample of the witness's path (``samples``).

    The inverse and similarity gates go through ``certify``, so ||F|| and
    the similarity norms are taken exactly only when their norm bounds
    cannot settle a gate.
    """
    tol = q.tol
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


def homotopy_witness_block(q: Idempotent) -> SimilarityWitness:
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
    qm, n, tol = q.matrix, q.dim, q.tol
    if is_projection(qm, tol):
        return _trivial_witness(q)
    form = block_form(qm, koliha_projections(q)[0], tol)
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
    return _certified_witness(q, as_projection(z @ adjoint(z), tol), x, e, d)


def homotopy_path(q: Idempotent, samples: int) -> list[Idempotent]:
    """Idempotents Q(t) = W_t^(-1) m(Q) W_t on a uniform grid from m(Q) to Q.

    W_t = I + t (W - I) = I + t E X* is invertible for t in [0, 1] because
    ||I - W|| < 1, and its Woodbury inverse X_t = I - t E Delta_t^(-1) X*
    (``homotopy_witness``; X has k = r columns, or n - r on I - Q's side)
    makes every sample a rank-k update: with G = m E X*, so that
    m W_t = m + t G,

        Q(t) = X_t m W_t = (m + t G) + E C_t X* (m + t G),  C_t = -t Delta_t^(-1).

    The updates of all samples are one (n, k) @ (k, samples n) product, with
    no factorization (``SimilarityWitness.samples``), and ``as_idempotent``
    certifies the samples at ``q.tol`` as one stack, one stacked norm per
    quantity.  The sample at t = 0 is m(Q) exactly; a projection input
    (k = 0) gives m(Q) = Q at every t.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    path = homotopy_witness(q).samples(np.linspace(0.0, 1.0, samples))
    return as_idempotent(path, q.tol)


def _column_space_projector(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The orthoprojector U_r U_r* onto range(M), r the ``numerical_rank`` of M's singular values."""
    u, s, _ = np.linalg.svd(m)
    cols = u[:, : numerical_rank(s, m.shape[0], tol)]
    return cols @ adjoint(cols)


def range_identities(q: Idempotent) -> list[Check]:
    """Range/kernel identities of m(Q), verified through orthogonal projectors.

    Subspace equality is tested as the gap between the corresponding
    orthoprojectors, each from one SVD of its operand
    (``_column_space_projector``); each gap and product residual is a
    bracketed check (``norm_check``).  The kernel identity needs no
    factorization of its own: for any M, ker(M) = range(M*)^perp, so
    ker(|Q*| + Q) = range(|Q*| + Q*)^perp, and its orthoprojector is I minus
    the one the first range identity takes.

    The trivial intersections are read from bases that Q already holds: the
    range and kernel of m(Q) are spanned by V_+ and V_- of the ``pencil``
    that m(Q) is built from, null(Q)^perp = range(Q*) by V_r and
    range(Q)^perp by U_perp of Q's SVD, cut at Q's own rank.  A subspace A
    meets B trivially iff the overlap of A's basis with one of B^perp has
    full column rank: V_r* V_+ for range m(Q) and null Q, U_perp* V_- for
    null m(Q) and range Q.  In the Halmos two-subspace form each overlap's
    singular values are cos(theta_i / 2) >= 1/sqrt 2, so ``numerical_rank``
    decides it with no n x n factorization.  "Q is a projection" is
    ``is_projection``'s verdict.
    """
    qm, tol = q.matrix, q.tol
    m = _matched_pair(q).projection.matrix
    eye = identity(q.dim)
    abs_q, abs_qs = q.abs_q, q.abs_q_star
    sum_qs = qm + adjoint(qm)
    proj_sum = _column_space_projector(sum_qs, tol)
    proj_absqs_qstar = _column_space_projector(abs_qs + adjoint(qm), tol)

    gate, subspace = tol.relative(q.norm), tol.subspace
    checks = [
        norm_check("range_mq_eq_range_absqstar_plus_qstar", m - proj_absqs_qstar, subspace),
        norm_check("range_mq_eq_range_absq_plus_q", m - _column_space_projector(abs_q + qm, tol), subspace),
        norm_check("kernel_mq_eq_kernel_absqstar_plus_q", (eye - m) - (eye - proj_absqs_qstar), subspace),
        norm_check("range_mq_inside_range_q_plus_qstar", (eye - proj_sum) @ m, subspace),
        norm_check("range_q_plus_qstar_eq_range_absqstar_plus_absq",
                   proj_sum - _column_space_projector(abs_qs + abs_q, tol), subspace),
        norm_check("range_mq_eq_range_four_term_sum",
                   m - _column_space_projector(abs_qs + abs_q + sum_qs, tol), subspace),
        norm_check("mq_times_qstar", m @ adjoint(qm) - 0.5 * (abs_qs + adjoint(qm)), gate),
        norm_check("mq_times_q", m @ qm - 0.5 * (abs_q + qm), gate),
    ]

    w, v = q.pencil
    u, _, vh = q.svd
    for name, overlap in (
        ("range_mq_meets_null_q_trivially", vh[: q.rank] @ v[:, w > 0.0]),
        ("null_mq_meets_range_q_trivially", adjoint(u[:, q.rank :]) @ v[:, w <= 0.0]),
    ):
        rank = numerical_rank(np.linalg.svd(overlap, compute_uv=False), q.dim, tol)
        checks.append(boolean_check(name, rank == overlap.shape[1]))

    ranges_equal = norm_at_most(m - proj_sum, subspace)
    checks.append(boolean_check("range_equality_iff_projection", ranges_equal == is_projection(qm, tol)))
    return checks


EXPONENT_GRID = tuple(2**k for k in range(11))


@memoized_on_q
def fractional_powers(q: Idempotent) -> tuple[np.ndarray, np.ndarray]:
    """(K, K^(1/n) for n in ``EXPONENT_GRID``), K = m(Q) Q m(Q); memoized on Q.

    K is certified Hermitian (``require_hermitian``) and its powers are one
    stack from one ``psd_power``, so the distance table of
    ``fractional_power_limit`` and both operands of ``norms.convergence_report``
    share one eigendecomposition of K.
    """
    m = _matched_pair(q).projection.matrix
    k = require_hermitian(m @ q.matrix @ m, q.tol)
    return k, psd_power(k, [1.0 / n for n in EXPONENT_GRID], q.tol)


def fractional_power_limit(q: Idempotent) -> list[float]:
    """Distances ||(m(Q) Q m(Q))^(1/n) - m(Q)|| for n in ``EXPONENT_GRID``, one stacked norm.

    Verifies on the way that K = m(Q) Q m(Q) is Hermitian, dominates m(Q),
    and equals (|Q*| + |Q| + Q + Q*) / 4.  K and its powers are read from
    ``fractional_powers``; the dominance and four-term certificates run on
    every call.
    """
    m = _matched_pair(q).projection.matrix
    qm, tol = q.matrix, q.tol
    k, powers = fractional_powers(q)
    if not psd_order(m, k, tol):
        raise ValidationError("m(Q) Q m(Q) does not dominate m(Q)")
    gap = k - 0.25 * (q.abs_q_star + q.abs_q + qm + adjoint(qm))
    certify(gap, lambda: tol.relative(q.norm),
            lambda residual, *_: ValidationError(f"four-term identity residual {residual:.3e}"))
    return operator_norm(powers - m).tolist()


def unitary_equivariance(q: Idempotent, u: np.ndarray) -> float:
    """||m(U* Q U) - U* m(Q) U|| for a unitary U, U* Q U certified at ``q.tol``; zero in exact arithmetic."""
    u = np.asarray(u, dtype=np.complex128)
    certify(adjoint(u) @ u - identity(q.dim), lambda: q.tol.check,
            lambda gap, *_: NotUnitaryError(f"U*U - I has norm {gap:.3e}"))
    conjugated = as_idempotent(adjoint(u) @ q.matrix @ u, q.tol)
    inner = _matched_pair(conjugated).projection.matrix
    outer = adjoint(u) @ _matched_pair(q).projection.matrix @ u
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
        m_sub = _matched_pair(sub).projection.matrix
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
