"""Validated idempotents and projections, range/null projections, the Koliha oracle, block forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import BadRankError, SingularPencilError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    adjoint,
    as_matrix,
    certify,
    hermitian_eigen,
    identity,
    norm_at_most,
    numerical_rank,
    operator_norm,
)


_T = TypeVar("_T")


@dataclass(frozen=True)
class Idempotent:
    """A matrix Q with Q^2 = Q, certified by ``as_idempotent`` under the tolerances ``tol``.

    Q is analysed at the tolerance it was certified under: every function of
    an idempotent reads ``q.tol`` and takes none of its own.  Another
    tolerance takes a new certificate, ``as_idempotent(q.matrix, tol)``, or
    ``dataclasses.replace(q, tol=tol)``.  An idempotent carries its own analysis,
    computed on first use and kept, so every report on the same Q reads it
    instead of factoring Q again.
    Values of Q alone are ``cached_property``s from two factorizations.
    The SVD Q = U S V* (``svd``) gives the values of Q itself: ||Q|| = s_0,
    the rank (the singular values of an idempotent are 0 or at least 1, so
    the cut at 1/2 needs no tolerance), the off-diagonal norm nu
    (``offdiag_norm``), |Q| = V S V*, |Q*| = U S U* and
    |Q*|^dag = U_r S_r^(-1) U_r*.  The ``eigh`` of the Hermitian pencil
    S = Q + Q* - I (``pencil``) gives m(Q) and its witness.  Values that
    need a certificate or a cutoff at ``q.tol`` are kept in the private ``_memo`` by the functions that
    compute them, each decorated with ``memoized_on_q``: P_R(Q) = U_r U_r*,
    P_N(Q) = I - V_r V_r*, the certified m(Q), its witness and distance,
    the oracles' records (Koliha's projections and ``matched.factor_oracle``),
    which never read the SVD, and the partners Q* and I - Q (``adjoint_of``,
    ``complement_of``), each a new ``Idempotent``, never Q itself.
    The idempotent is built from its matrix and ``tol`` alone: the certificate decides
    from O(n^2) norm bounds, and ``defect``, the exact ||Q^2 - Q||, is taken
    on first read and kept.  The matrix must not be mutated: that voids the
    certificate and the analysis alike.  Kept arrays are shared with every
    caller and are read-only by contract.  ``dataclasses.replace`` keeps
    ``tol`` unless told otherwise and starts a fresh analysis.
    """

    matrix: np.ndarray
    tol: Tolerances = DEFAULT_TOL
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def defect(self) -> float:
        """||Q^2 - Q||, the exact 2-norm."""
        qm = self.matrix
        return operator_norm(qm @ qm - qm)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The SVD (U, s, V*) of Q, as ``np.linalg.svd(Q)``."""
        return np.linalg.svd(self.matrix)

    @cached_property
    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) = ``np.linalg.eigh(S)`` for the pencil S = Q + Q* - I, w ascending.

        S is Hermitian bit for bit (each entry is q_ij + conj(q_ji)), so it
        is factored as it is formed.  Its spectrum avoids (-1, 1): in the
        basis (x, y) of one Halmos angle, Q = [[1, sigma], [0, 0]] and
        S = [[1, sigma], [sigma, -1]], of eigenvalues +-sqrt(1 + sigma^2).
        """
        return np.linalg.eigh(self.matrix + adjoint(self.matrix) - identity(self.dim))

    @cached_property
    def norm(self) -> float:
        """||Q||, the largest singular value."""
        return float(self.svd[1][0])

    @cached_property
    def rank(self) -> int:
        """The number of singular values above 1/2."""
        return int(np.count_nonzero(self.svd[1] > 0.5))

    @cached_property
    def offdiag_norm(self) -> float:
        """nu = ||Y|| for Y = S_r V_r* U_perp, the r x (n - r) block of U* Q U = [[I, Y], [0, 0]].

        ||Q|| = sqrt(1 + nu^2), but nu, unlike ||Q|| - 1, carries no
        cancellation when Q is near a projection.  0 when r is 0 or n.
        """
        u, s, vh = self.svd
        r = self.rank
        if r in (0, self.dim):
            return 0.0
        return operator_norm(s[:r, np.newaxis] * (vh[:r] @ u[:, r:]))

    @cached_property
    def abs_q(self) -> np.ndarray:
        """|Q| = (Q* Q)^(1/2) = V S V*."""
        _, s, vh = self.svd
        return (adjoint(vh) * s) @ vh

    @cached_property
    def abs_q_star(self) -> np.ndarray:
        """|Q*| = (Q Q*)^(1/2) = U S U*."""
        u, s, _ = self.svd
        return (u * s) @ adjoint(u)

    @cached_property
    def abs_q_star_pinv(self) -> np.ndarray:
        """|Q*|^dag = U_r S_r^(-1) U_r*."""
        u, s, _ = self.svd
        r = self.rank
        return (u[:, :r] / s[:r]) @ adjoint(u[:, :r])


def memoized_on_q(build: Callable[[Idempotent], _T]) -> Callable[[Idempotent], _T]:
    """Memoize ``build(q)`` on Q: kept in ``q._memo`` under the undecorated function itself.

    ``build`` reads Q's tolerance from ``q.tol``, which is fixed with Q, so a
    kept value depends on Q and the function alone.  An exception is not
    kept: the next call runs ``build`` again.  Never memoize a value that
    refers back to Q (such as a record holding Q): the cycle would outlive
    the last reference to Q.
    """

    @wraps(build)
    def memoized(q: Idempotent) -> _T:
        if build not in q._memo:
            q._memo[build] = build(q)
        return q._memo[build]

    return memoized


@dataclass(frozen=True)
class Projection:
    """A self-adjoint idempotent, certified by max(||P^2 - P||, ||P - P*||) <= tol.check.

    ``as_projection`` certifies from O(n^2) norm bounds and so takes no 2-norm
    on clean input; ``defect``, the exact max(||P^2 - P||, ||P - P*||), is
    taken on first read and kept.  The matrix must not be mutated.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def defect(self) -> float:
        return _projection_defect(self.matrix)


def _projection_defect(p: np.ndarray) -> float:
    return max(operator_norm(p @ p - p), operator_norm(p - adjoint(p)))


def _projection_error(p: np.ndarray, gate: float) -> ValidationError:
    """The rejection of P by a projection certificate, with its exact max(||P^2 - P||, ||P - P*||)."""
    return ValidationError(f"projection defect {_projection_defect(p):.3e} exceeds {gate:.3e}")


def _as_matrix_or_stack(m) -> np.ndarray:
    """A (k, n, n) ndarray as a complex stack, anything else as ``as_matrix``'s matrix."""
    if not (isinstance(m, np.ndarray) and m.ndim == 3):
        return as_matrix(m)
    stack = m.astype(np.complex128, copy=False)
    if stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    return stack


def as_idempotent(m, tol: Tolerances = DEFAULT_TOL) -> Idempotent | list[Idempotent]:
    """Validate ||Q^2 - Q|| <= tol.quadratic(||Q||); a (k, n, n) ndarray gives the list of its k.

    Each idempotent keeps ``tol`` as ``q.tol``, the tolerance it is analysed at.

    ``certify`` holds each ||Q^2 - Q|| to tol.quadratic(||Q||), a matrix as
    one 2-D residual and a stack as one stacked residual: a sample is
    accepted from norm bounds where they settle it, the others take both
    2-norms exactly, stacked, and the first one over its gate raises.
    """
    qs = _as_matrix_or_stack(m)
    certify(qs @ qs - qs, tol.quadratic,
            lambda defect, bound, _: ValidationError(f"idempotency defect {defect:.3e} exceeds {bound:.3e}"),
            qs)
    return Idempotent(qs, tol) if qs.ndim == 2 else [Idempotent(q, tol) for q in qs]


def is_projection(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ||M - M*|| <= tol.check and ||M^2 - M|| <= tol.check, each by ``norm_at_most``.

    A (k, n, n) stack is a projection when every slice is.  The Hermitian
    test comes first: it needs no product, and most non-projections fail it.
    """
    return norm_at_most(m - adjoint(m), tol.check) and norm_at_most(m @ m - m, tol.check)


def as_projection(m, tol: Tolerances = DEFAULT_TOL) -> Projection | list[Projection]:
    """Certify P on ``is_projection``'s verdict; a (k, n, n) ndarray gives the list of its k.

    The verdict decides from norm bounds where they settle it, so clean input
    takes no 2-norm.  A rejected input raises with the exact
    max(||P^2 - P||, ||P - P*||) of its first failing P in index order.
    """
    ps = _as_matrix_or_stack(m)
    if not is_projection(ps, tol):
        bad = next(p for p in ps.reshape(-1, *ps.shape[-2:]) if not is_projection(p, tol))
        raise _projection_error(bad, tol.check)
    return Projection(ps) if ps.ndim == 2 else [Projection(p) for p in ps]


@memoized_on_q
def adjoint_of(q: Idempotent) -> Idempotent:
    """Q*, certified by ``as_idempotent`` at ``q.tol``; memoized on Q.

    Nothing of Q's analysis is carried over: an identity between Q and Q*
    compares two independent computations.
    """
    return as_idempotent(adjoint(q.matrix), q.tol)


@memoized_on_q
def complement_of(q: Idempotent) -> Idempotent:
    """I - Q, certified by ``as_idempotent`` at ``q.tol``; memoized on Q, as ``adjoint_of``.

    I - Q* is ``adjoint_of(complement_of(q))``.
    """
    return as_idempotent(identity(q.dim) - q.matrix, q.tol)


@memoized_on_q
def range_projection(q: Idempotent) -> Projection:
    """Orthogonal projection onto the range of Q, U_r U_r* from Q's SVD (r = ``q.rank``).

    Memoized on Q.
    """
    u_r = q.svd[0][:, : q.rank]
    return as_projection(u_r @ adjoint(u_r), q.tol)


@memoized_on_q
def null_projection(q: Idempotent) -> Projection:
    """Orthogonal projection onto the null space of Q, I - V_r V_r* from Q's SVD.

    Memoized on Q.
    """
    v_r = adjoint(q.svd[2][: q.rank])
    return as_projection(identity(q.dim) - v_r @ adjoint(v_r), q.tol)


@memoized_on_q
def koliha_projections(q: Idempotent) -> tuple[Projection, Projection]:
    """Oracle: (P_R(Q), P_R(Q*)) as (Q S^(-1), Q* S^(-1)) for the pencil S = Q + Q* - I.

    Koliha's formulas, independent of Q's SVD; P_N(Q) = I - P_R(Q*).  S's
    singular values are the |lambda| of Q's memoized ``pencil``, one stacked
    solve S^(-1) [Q* | Q] gives both projections as adjoints, and one stacked
    ``as_projection`` certifies the pair.  Raises ``SingularPencilError``
    if S is numerically singular.  Memoized.
    """
    qm, n = q.matrix, q.dim
    s = qm + adjoint(qm) - identity(n)
    if numerical_rank(np.sort(np.abs(q.pencil[0]))[::-1], n, q.tol) < n:
        raise SingularPencilError("Q + Q* - I is numerically singular")
    x = np.linalg.solve(s, np.hstack([adjoint(qm), qm]))
    return tuple(as_projection(np.stack([adjoint(x[:, :n]), adjoint(x[:, n:])]), q.tol))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix of standard complex Gaussians, all real parts drawn first."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def block_idempotent(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """U [[I, A], [0, 0]] U*, an idempotent of rank r, from a unitary U and an r x (n - r) block A."""
    base = np.zeros(u.shape, dtype=np.complex128)
    base[: len(a)] = np.hstack([np.eye(len(a)), a])
    return u @ base @ adjoint(u)


def _phase_fixed_qr(gaussians: np.ndarray) -> np.ndarray:
    """The Q factor of each Gaussian matrix of a stack, its columns scaled by the phases of diag(R).

    One stacked ``np.linalg.qr``; a single matrix is its own stack.
    """
    qmat, r = np.linalg.qr(gaussians)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return qmat * (d / np.abs(d))[..., np.newaxis, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a complex Gaussian matrix."""
    return _phase_fixed_qr(complex_gaussian(rng, dim, dim))


def random_idempotent(
    dim: int,
    rank: int,
    offdiag_norm: float,
    seed: int,
    tol: Tolerances = DEFAULT_TOL,
) -> Idempotent:
    """Seeded random idempotent with prescribed rank and ||A|| = offdiag_norm.

    Built as the block matrix [[I, A], [0, 0]] and scrambled by a random
    unitary, so the result is an exact idempotent up to round-off and
    ||Q|| = sqrt(1 + offdiag_norm^2).
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, not {dim}")
    if not 0 <= rank <= dim:
        raise BadRankError(f"rank {rank} outside [0, {dim}]")
    if not 0.0 <= offdiag_norm < np.inf:
        raise ValueError(f"offdiag_norm must be finite and nonnegative, not {offdiag_norm}")
    rng = np.random.default_rng(seed)
    a = np.zeros((rank, dim - rank), dtype=np.complex128)
    if a.size and offdiag_norm > 0.0:
        a = complex_gaussian(rng, rank, dim - rank)
        a *= offdiag_norm / operator_norm(a)
    return as_idempotent(block_idempotent(random_unitary(dim, rng), a), tol)


def random_projection(
    dim: int, rank: int | Sequence[int], seed: int | Sequence[int], tol: Tolerances = DEFAULT_TOL
) -> Projection | list[Projection]:
    """Seeded random orthogonal projection of the given rank; sequences of ranks and seeds give a list.

    The batch has one projection per (rank, seed), and ``rank`` and ``seed``
    must be of one length.  The unitaries of all seeds come from one stacked
    QR, and one stacked ``as_projection`` certifies the batch; each
    P_k = U_k U_k* with U_k the first ranks[k] columns is formed alone, so
    P_k does not depend on the other draws.  One (rank, seed) is drawn as a
    batch of one.
    """
    single = isinstance(rank, (int, np.integer))
    ranks, seeds = ([rank], [seed]) if single else (rank, seed)
    if dim < 1:
        raise ValueError(f"dim must be at least 1, not {dim}")
    if len(ranks) != len(seeds):
        raise ValueError(f"ranks and seeds differ in length: {len(ranks)} and {len(seeds)}")
    for r in ranks:
        if not 0 <= r <= dim:
            raise BadRankError(f"rank {r} outside [0, {dim}]")
    if len(seeds) == 0:
        return []
    gaussians = np.stack([complex_gaussian(np.random.default_rng(s), dim, dim) for s in seeds])
    unitaries = _phase_fixed_qr(gaussians)
    projections = as_projection(np.stack([u[:, :r] @ adjoint(u[:, :r]) for u, r in zip(unitaries, ranks)]), tol)
    return projections[0] if single else projections


@dataclass(frozen=True)
class BlockForm:
    """2x2 operator blocks of T in an orthonormal eigenbasis of a projection.

    ``u`` holds the basis columns (range of P first), ``rank`` the split
    index, and ``blocks`` the quadrants of u* T u.
    """

    u: np.ndarray
    rank: int
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def reassemble(self) -> np.ndarray:
        b11, b12, b21, b22 = self.blocks
        top = np.hstack([b11, b12])
        bottom = np.hstack([b21, b22])
        return self.u @ np.vstack([top, bottom]) @ adjoint(self.u)


def block_form(t_mat: np.ndarray, p: Projection, tol: Tolerances = DEFAULT_TOL) -> BlockForm:
    """Block decomposition of T induced by a projection (eigenvalue-1 columns first).

    The blocks must reassemble T within tol.relative(||T||) (``certify``),
    so the exact norms are taken only near that gate.
    """
    t_mat = as_matrix(t_mat)
    lam, v = hermitian_eigen(p.matrix, tol)
    ones = lam > 0.5
    u = np.hstack([v[:, ones], v[:, ~ones]])
    r = int(np.count_nonzero(ones))
    x = adjoint(u) @ t_mat @ u
    form = BlockForm(u=u, rank=r, blocks=(x[:r, :r], x[:r, r:], x[r:, :r], x[r:, r:]))
    certify(form.reassemble() - t_mat, tol.relative,
            lambda gap, *_: ValidationError(f"block round-trip residual {gap:.3e}"), t_mat)
    return form
