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
with no inverse and no solve, and ``homotopy_path`` certifies them.  The
two factorizations of Q have one role each, and no value of Q is built by
both: the pencil makes m(Q), the witness and the path, and Q's SVD is the
reference for the values of Q alone, ||Q||, |Q| = V S V*, |Q*| = U S U* and
P_R(Q) = U_r U_r*, which every function here reads from Q.  |Q*|^dag is
not one of them: ``abs_q_star_pinv`` takes it by Koliha's route (below),
and the battery holds Q* |Q*|^dag Q = |Q| against Q's SVD.  m(Q) (a
``MatchedPair``), its distance to Q, the distances ||P_R(Q) - Q|| and
||P_N(Q) - Q|| (``range_distance``, ``null_distance``), its witness, the
oracle values and K = m(Q) Q m(Q) with its powers over the fixed
``EXPONENT_GRID`` (``fractional_powers``) are each memoized on Q
(``idempotents.memoized_on_q``), and every function here reads m(Q) by
that memo's private name, ``_matched_pair``.  A function of an idempotent
takes no tolerance: Q is analysed at the tolerance it was certified under,
``q.tol``.  A certificate at another tolerance is
``as_idempotent(q.matrix, tol)``; ``dataclasses.replace(q, tol=tol)``
changes the tolerance Q is analysed at without certifying Q again.
Relative rank cutoffs all go through ``linalg.numerical_rank``.
``range_identities`` factors none of the operands whose column spaces it
compares: each factors through Q's SVD bases with a nonsingular middle
factor, so their ranges and projectors come from Q's SVD and one thin SVD
of the (n - r) x r block U_perp* Q* U_r, and the trivial intersections
from overlaps of the bases that the pencil and Q's SVD already hold.  The
module keeps no state of its own: the harness self-test corrupts an input
instead, a copy of Q whose cached pencil has V scaled by 2
(``battery.sabotaged``).

Four further routes are kept only as independent oracles for ``verify``
and the tests, never built from Q's pencil vectors.  The SVD formula
m(Q) = W D^(-1) W*, W = U_r + V_r, D = 2 (I + S_r^(-1)), reads Q's SVD
(``matched_projection_svd``); S(Q*) is S(Q) bit for bit and S(I - Q) is -S,
so it is what the m of a partner Q* or I - Q is compared with.  The next
two read one record per Q, ``factor_oracle``: |Q*|, T = |Q*| + Q*, T^dag
and V, all from one SVD of Q* of its own; the closed formula also reads
|Q*|^dag = (P_R(Q) P_R(Q*) P_R(Q))^(1/2) from the memoized Koliha
projections of ``koliha_projections`` (``abs_q_star_pinv``), and the block
witness takes P_R(Q) from the same projections:

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

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import ValidationError
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
    null_projection,
    random_idempotent,
    random_unitary,
    range_projection,
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
    """Oracle values of Q: |Q*|, T = |Q*| + Q*, T^dag and V; T T^dag = V V* = m(Q).

    Each comes from one SVD of Q* (``factor_oracle``), never from Q's
    memoized ``svd``.
    """

    abs_q_star: np.ndarray
    t: np.ndarray
    t_pinv: np.ndarray
    v: np.ndarray


@memoized_on_q
def factor_oracle(q: Idempotent) -> FactorOracle:
    """The ``FactorOracle`` of Q, never read from Q's SVD; memoized on Q.

    One SVD of its own, Q* = U S V*, gives |Q*| = V S V* (``abs_value``'s
    formula, bit for bit), T = |Q*| + Q* = (U + V) S V* and

        V = T V_r (S_r (I + S_r))^(-1/2) V_r* / sqrt 2,

    r the number of singular values above 1/2, the cut of ``Idempotent.rank``,
    which needs no tolerance.  Idempotency gives U_r* V_r = S_r^(-1), so
    V V* = W S_r (I + S_r)^(-1) W* / 2 for W = U_r + V_r, which is m(Q) as
    ``matched_projection_svd`` writes it, and V* V = V_r V_r* = P_R(Q).
    T^dag is ``moore_penrose``'s.
    """
    _, s, vh = np.linalg.svd(adjoint(q.matrix))
    abs_qs = (adjoint(vh) * s) @ vh
    t = abs_qs + adjoint(q.matrix)
    r = np.count_nonzero(s > 0.5)
    v_r = adjoint(vh[:r])
    v = np.sqrt(0.5) * (t @ v_r / np.sqrt(s[:r] * (1.0 + s[:r]))) @ adjoint(v_r)
    return FactorOracle(abs_qs, t, moore_penrose(t, q.tol), v)


@memoized_on_q
def abs_q_star_pinv(q: Idempotent) -> np.ndarray:
    """Oracle: |Q*|^dag = (P_R(Q) P_R(Q*) P_R(Q))^(1/2), one ``psd_power`` of Koliha's projections; memoized on Q.

    Read from ``koliha_projections``, never from an SVD, so the battery's
    Q* |Q*|^dag Q = |Q| holds it against Q's SVD as an independent route.
    """
    p_r, p_rs = (p.matrix for p in koliha_projections(q))
    return psd_power(p_r @ p_rs @ p_r, 0.5, q.tol)


@dataclass(frozen=True)
class MatchedPair:
    """The certified m(Q) of an idempotent, at the tolerance Q was certified under.

    Values of Q alone are read from Q itself.  m(Q) at another tolerance is
    the m of a new certificate, ``as_idempotent(q.matrix, tol)``, or of
    ``dataclasses.replace(q, tol=tol)``, which is analysed at ``tol``
    without certifying Q again.
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


@memoized_on_q
def range_distance(q: Idempotent) -> float:
    """||P_R(Q) - Q||, memoized on Q; its closed form is nu = ``q.offdiag_norm``."""
    return operator_norm(range_projection(q).matrix - q.matrix)


@memoized_on_q
def null_distance(q: Idempotent) -> float:
    """||P_N(Q) - Q||, memoized on Q."""
    return operator_norm(null_projection(q).matrix - q.matrix)


def matched_projection_closed_form(q: Idempotent) -> np.ndarray:
    """Oracle: m(Q) = (1/2) (|Q*| + Q*) |Q*|^dag (|Q*| + I)^(-1) (|Q*| + Q).

    Built from ``factor_oracle``, ``abs_q_star_pinv`` and a solve, never
    from the production SVD.
    Returned uncertified so that a comparison reports its gap: from
    ||A|| ~ 1e3 up its projection defect exceeds the default check tolerance.
    """
    fo = factor_oracle(q)
    right = np.linalg.solve(fo.abs_q_star + identity(q.dim), fo.abs_q_star + q.matrix)
    return 0.5 * fo.t @ abs_q_star_pinv(q) @ right


def matched_via_factor(q: Idempotent) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (T T^dag, V V*) from ``factor_oracle``; both equal m(Q)."""
    fo = factor_oracle(q)
    return fo.t @ fo.t_pinv, fo.v @ adjoint(fo.v)


def _qpp_matrices(p: Projection, q: Idempotent) -> Iterator[tuple[str, np.ndarray]]:
    """The residual matrices of the five quasi-projection-pair conditions, built one at a time.

    Q* - Q is formed once, I - P only for the two block residuals that read
    it and 2P - I only for the two reflections, so no identity matrix is held
    through all five.
    """
    pm, qm = p.matrix, q.matrix
    skew = adjoint(qm) - qm
    yield "block_range", pm @ skew @ pm
    comp = identity(q.dim) - pm
    yield "block_cross", pm @ (adjoint(qm) + qm) @ comp
    yield "block_null", comp @ skew @ comp
    del skew, comp
    reflect = 2.0 * pm - identity(q.dim)
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
    """Whether all eight pairs {P, I-P} x {Q, Q*, I-Q, I-Q*} are quasi-projection pairs.

    The pairs are decided lazily, (P, Q) first, and the first that is no
    pair gives False.  I - P is certified at ``p.tol``.
    """
    projections = [p, as_projection(identity(q.dim) - p.matrix, p.tol)]
    complement = complement_of(q)
    idempotents = [q, adjoint_of(q), complement, adjoint_of(complement)]
    return all(is_quasi_projection_pair(a, b) for a in projections for b in idempotents)


@dataclass(frozen=True)
class SimilarityWitness:
    """m(Q) with W = I + E X* such that Q = W^(-1) m(Q) W and ||I - W|| = ||E|| < 1.

    X is n x r with orthonormal columns and X* E = D - I, D diagonal with
    entries ``d`` (``_certified_witness``); r = 0 gives W = I.  ``samples``
    is the path from m(Q) to Q that ``homotopy_path`` samples, built from
    the fields alone on each call: the witness keeps no products of them.
    """

    projection: Projection
    e: np.ndarray
    x: np.ndarray
    d: np.ndarray
    contraction_norm: float

    @property
    def w(self) -> np.ndarray:
        return identity(self.e.shape[0]) + self.e @ adjoint(self.x)

    def samples(self, t: np.ndarray) -> np.ndarray:
        """The (k, n, n) stack of Q(t) = M_t + E C_t (X* m + t X* G) for the k values in ``t``.

        M_t = m + t G is m W_t, G = m E X* for m = m(Q), and C_t = -t Delta_t^(-1)
        is diagonal.  X* m and X* G are formed once per call, and the k rank-r
        updates are one batched product, added into the one output stack.
        """
        m, x_star = self.projection.matrix, adjoint(self.x)
        g = (m @ self.e) @ x_star
        x_m, x_g = x_star @ m, x_star @ g
        c = -t / (1.0 + np.multiply.outer(self.d - 1.0, t))
        out = np.multiply.outer(t, g)
        out += m
        out += self.e @ (c.T[:, :, np.newaxis] * (x_m + t[:, np.newaxis, np.newaxis] * x_g))
        return out


def _trivial_witness(q: Idempotent) -> SimilarityWitness:
    """The witness of a projection input (its caller's ``is_projection`` verdict): W = I and the constant path."""
    empty = np.zeros((q.dim, 0))
    return SimilarityWitness(Projection(q.matrix, q.tol), empty, empty, np.zeros(0), 0.0)


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
    certify(f, lambda: tol.relative(d_inv.max()), "closed-form inverse defect", scale=contraction * d_inv.max())
    if contraction >= 1.0:
        raise ValidationError(f"witness contraction norm {contraction:.6f} not < 1")
    witness = SimilarityWitness(projection, e, x, d, contraction)
    w_inv = identity(q.dim) - (e * d_inv) @ adjoint(x)
    certify(witness.samples(np.ones(1))[0] - q.matrix, lambda a, b: tol.relative(a * b),
            "similarity residual", w_inv, witness.w)
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
    form = block_form(qm, koliha_projections(q)[0])
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

    The updates of all samples are one batched product over the stack, with
    no factorization (``SimilarityWitness.samples``), and ``as_idempotent``
    certifies the samples at ``q.tol`` as one stack, one stacked norm per
    quantity.  The sample at t = 0 is m(Q) exactly; a projection input
    (k = 0) gives m(Q) = Q at every t.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    path = homotopy_witness(q).samples(np.linspace(0.0, 1.0, samples))
    return as_idempotent(path, q.tol)


def range_identities(q: Idempotent) -> list[Check]:
    """Range/kernel identities of m(Q), each column space read from Q's SVD, no operand factored.

    With Q = U_r S_r V_r* (r = ``q.rank``), idempotency gives V_r* U_r =
    S_r^(-1), so W = U_r + V_r has orthogonal columns, W* W = D =
    2 (I + S_r^(-1)), and each operand factors through W or X = [U_r | V_r]
    with a nonsingular middle factor:

        |Q*| + Q* = W S_r U_r*,   |Q| + Q = W S_r V_r*,   |Q*| + |Q| + Q + Q* = W S_r W*,
        Q + Q* = U_r S_r V_r* + V_r S_r U_r*,   |Q*| + |Q| = U_r S_r U_r* + V_r S_r V_r*.

    - U_r*, V_r* and S_r W* map onto C^r, so the first three have range W,
      and ker(|Q*| + Q) = ker(U_r S_r W*) = range(W)^perp.
    - |Q*| + |Q| = X diag(S_r, S_r) X* has a positive middle factor, so its
      range is range X.
    - So is that of Q + Q*.  Let (Q + Q*) x = 0 and y = Q x.  Then Q* x = -y,
      so Q y = y and Q* y = y, and |y|^2 = <Q x, y> = <x, Q* y> = <x, y> =
      <x, Q y> = <Q* x, y> = -|y|^2.  So Q x = Q* x = 0: ker(Q + Q*) is
      null Q cap null Q*, and the range of the Hermitian Q + Q* is its
      complement, range Q + range Q* = range X.

    The factorizations all hold when Q = U_r S_r V_r* does, so one residual
    is held, Q - U_r S_r V_r* at q.tol.relative(||Q||): |Q*| = U S U* and
    |Q| = V S V* are built from the same SVD, and their residuals against
    U_r S_r U_r* and V_r S_r V_r* have the same norm s_(r+1).  No rank is
    decided for an operand whose small eigenvalues are about sigma^2 / 2.
    The projectors come from Q's SVD: P_W = W D^(-1) W* onto range W
    (``matched_projection_svd``), and P_X = P_R(Q) + B B* onto range X
    (``range_projection``), B = U_perp G_k for the thin SVD G Sigma H* of
    the (n - r) x r matrix U_perp* V_r S_r = U_perp* Q* U_r, which Q keeps
    (``Idempotent.offdiag_svd``).  On the basis
    [U_r | U_perp], Q = [[I, A], [0, 0]] and this is A*, whose singular
    values are the tangents sigma_i of the angles theta_i between range Q
    and range Q*; its column space is that of the overlap U_perp* V_r,
    whose singular values are their sines.  Each gap compares m(Q) from
    the pencil with one of these projectors, two independent routes, at
    the fixed ``Tolerances.subspace``.  A range identity is one record, a stack of
    its gap and Q's residual, the residual scaled by subspace /
    relative(||Q||) so that each slice meets the record's gate exactly when
    it meets its own.  The three identities with range W, and the kernel
    identity, whose projectors I - m(Q) and I - P_W differ by the same gap,
    share one record's values.  The two products are held at
    relative(||Q||).

    "range m(Q) = range(Q + Q*) iff Q is a projection" compares
    ||m(Q) - P_X|| <= subspace with ``is_projection``, and k is decided by
    the quantity and cutoff ``is_projection`` reads: Q - Q* = [[0, A],
    [-A*, 0]] on the same basis, so ||Q - Q*|| = ||A|| = nu = max sigma_i,
    and k counts the sigma_i > tol.check.  Two projections of different
    rank are at distance 1, and rank m(Q) = r, rank P_X = r + k, so for
    nu > tol.check both sides are false.  For nu <= tol.check, k = 0 and
    P_X = P_R(Q), within sin(arctan(nu) / 2) <= nu / 2 <= tol.check / 2 of
    m(Q), so both sides are true when tol.check <= 2 subspace, as at the
    defaults (1e-10 against 1e-8).  The sides can part only where the two
    routes to nu round to opposite sides of tol.check, and, at a tolerance
    check above 2 subspace, for nu in (2 subspace, tol.check], where Q is a
    projection at its tolerance but m(Q) is not within subspace of P_R(Q).

    The trivial intersections are read from bases that Q already holds: the
    range and kernel of m(Q) are spanned by V_+ and V_- of the ``pencil``
    that m(Q) is built from, null(Q)^perp = range(Q*) by V_r and
    range(Q)^perp by U_perp of Q's SVD, cut at Q's own rank.  A subspace A
    meets B trivially iff the overlap of A's basis with one of B^perp has
    full column rank: V_r* V_+ for range m(Q) and null Q, U_perp* V_- for
    null m(Q) and range Q.  In the Halmos two-subspace form each overlap's
    singular values are cos(theta_i / 2) >= 1/sqrt 2, so ``numerical_rank``
    decides it with no n x n factorization.
    """
    qm, tol, r = q.matrix, q.tol, q.rank
    m = _matched_pair(q).projection.matrix
    u, s, vh = q.svd
    gate, subspace = tol.relative(q.norm), tol.subspace
    # the residual of Q = U_r S_r V_r*, scaled from relative(||Q||) to the records' gate
    r_q = qm - (u[:, :r] * s[:r]) @ vh[:r]
    r_q *= subspace / gate

    def held(name, gap):
        return norm_check(name, np.stack((gap, r_q)), subspace)

    g, tangents = q.offdiag_svd
    b = u[:, r:] @ g[:, : np.count_nonzero(tangents > tol.check)]
    p_x = range_projection(q).matrix + b @ adjoint(b)
    inside = held("range_mq_inside_range_q_plus_qstar", m - p_x @ m)
    ranges_equal = norm_at_most(m - p_x, subspace)
    del p_x
    on_w = held("range_mq_eq_range_absqstar_plus_qstar", m - matched_projection_svd(q))
    checks = [
        on_w,
        replace(on_w, name="range_mq_eq_range_absq_plus_q"),
        replace(on_w, name="kernel_mq_eq_kernel_absqstar_plus_q"),
        inside,
        norm_check("range_q_plus_qstar_eq_range_absqstar_plus_absq", r_q, subspace),
        replace(on_w, name="range_mq_eq_range_four_term_sum"),
        norm_check("mq_times_qstar", m @ adjoint(qm) - 0.5 * (q.abs_q_star + adjoint(qm)), gate),
        norm_check("mq_times_q", m @ qm - 0.5 * (q.abs_q + qm), gate),
    ]

    w, v = q.pencil
    for name, overlap in (
        ("range_mq_meets_null_q_trivially", vh[:r] @ v[:, w > 0.0]),
        ("null_mq_meets_range_q_trivially", adjoint(u[:, r:]) @ v[:, w <= 0.0]),
    ):
        rank = numerical_rank(np.linalg.svd(overlap, compute_uv=False), q.dim, tol)
        checks.append(boolean_check(name, rank == overlap.shape[1]))

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
    certify(gap, lambda: tol.relative(q.norm), "four-term identity residual")
    return operator_norm(powers - m).tolist()


def unitary_equivariance(q: Idempotent, u: np.ndarray) -> float:
    """||m(U* Q U) - U* m(Q) U|| for a unitary U, U* Q U certified at ``q.tol``; zero in exact arithmetic."""
    u = np.asarray(u, dtype=np.complex128)
    certify(adjoint(u) @ u - identity(q.dim), lambda: q.tol.check, "unitarity defect")
    conjugated = as_idempotent(adjoint(u) @ q.matrix @ u, q.tol)
    inner = _matched_pair(conjugated).projection.matrix
    outer = adjoint(u) @ _matched_pair(q).projection.matrix @ u
    return operator_norm(inner - outer)


def random_qpp_pair(dim: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> tuple[Projection, Idempotent]:
    """Seeded quasi-projection pair (P, Q), not always the matched one.

    Built as a unitarily scrambled direct sum Q1 + Q2 paired with a block
    choice from {m(Qi), I - m(Qi)}, which always satisfies the reflection
    identity Q* = (2P - I) Q (2P - I).  Each Qi's off-diagonal norm is
    uniform on [0, 2].
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
        nu = float(rng.uniform(0.0, 2.0))
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
