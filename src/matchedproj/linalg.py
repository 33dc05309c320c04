"""Dense complex matrix kernels: adjoint, operator norm, Hermitian calculus, pseudoinverse.

Operator norms come in three kinds.  ``operator_norm`` is the exact 2-norm,
the first value of a singular-values-only SVD, ``np.linalg.svd(m,
compute_uv=False)`` (a (k, n, n) stack gives the k norms); it is taken
wherever a number is read as a value and no factorization already gives it:
distances, the norms of non-Hermitian operands compared with a closed form,
idempotency and projection defects (on first read), contraction norms,
convergence tables and the gates scaled by a norm.  A norm that an SVD
taken anyway already holds is read from it: ||Q|| and ||I - Q|| are the
first singular values of the SVDs that Q and its complement keep.

The pencil S = Q + Q* - I, Hermitian bit for bit, is factored once by
``eigh`` (``Idempotent.pencil``): its eigenvectors of positive eigenvalue
give m(Q) and the witness, and its eigenvalues Koliha's singularity test.
A Hermitian operand whose spectrum is needed anyway is factored once, by
``hermitian_eigvals`` (``eigvalsh`` of ``require_hermitian(M)``): its
eigenvalues give the Loewner verdict (``is_psd_spectrum``, by which
``psd_order`` decides too) and the norm max |lambda|, which is the exact
2-norm of the symmetrized operand and so within ||M - M*|| / 2, plus
rounding, of ||M||.  ``norms.distance_report`` reads the norms of D, the two
compressions, X, Y and X + Y this way, and takes ``operator_norm`` of an
operand too far from Hermitian for ``require_hermitian``.

A norm whose only use is a pass/fail against a gate decides from
``norm_bounds`` first, two O(n^2) bounds (Frobenius norm above, largest
column norm below), and takes the exact norm only when they cannot settle
it.  ``norm_bracket`` returns the bounds, or the exact norm twice, and
``norm_at_most`` its verdict.  A (k, n, n) stack is M_n(C^k), normed by its
largest slice, so it is decided slice by slice, against one gate or a gate
per slice.  A check reports such a residual as that bracket (``report.Check``
with a ``lower`` end, of a stack the largest ends): the quasi-projection-pair
conditions (``matched.qpp_checks``, which ``is_quasi_projection_pair``
decides lazily), the range and kernel identities, the similarity and
defect-operator identities of the distance report, ``analyze``'s oracle
comparisons and every residual-against-a-gate record of the ``verify``
battery.  A yes/no verdict that steers a computation decides by
``norm_at_most``: ``idempotents.is_projection`` (behind the witness
short-circuits and every projection certificate), the dominance equality
of ``norms.qpp_minimality``, the ||P|| > 1/2 tests of
``norms.two_projection_construction`` and the battery's branch guards.

A certificate raises where a check would report, and every one but the
projection certificate goes through one kernel, ``certify``: a residual
(a matrix or a stack) against a gate nondecreasing in its operands' norms,
accepted slice by slice from ``norm_bounds``, with exact norms only for
the slices the bounds leave unsettled and the caller's message, carrying
the exact numbers, for the first slice that fails.  Its callers are ``require_hermitian`` (and with
it every Hermitian kernel below), ``block_form``'s round trip,
``idempotents.as_idempotent`` (a matrix as one 2-D residual, a stack as
one stacked residual), the inverse and similarity gates of
``matched._certified_witness``, the four-term identity of
``matched.fractional_power_limit`` and the unitarity gate of
``matched.unitary_equivariance``.  ``idempotents.as_projection`` is no
caller: it raises on ``is_projection``'s verdict, which decides a
projection built alone (P_R(Q), P_N(Q), m(Q) = V_+ V_+* from the pencil,
the witnesses' projections, the 2x2 family) as a matrix and a batch (every
``random_projection`` draw, Koliha's pair P_R(Q), P_R(Q*)) slice by slice.
Every gate, fixed or built from norms, is a member of ``Tolerances``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import NotHermitianError

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Every numerical gate of the package, and every formula that builds a gate.

    ``check`` bounds identity residuals and ``rank`` is the relative
    singular/eigenvalue cutoff factor (``None`` means ``dim * machine
    epsilon``).  The fixed gates are class constants: ``psd``, the slack on
    negative eigenvalues in ``psd_order``; ``subspace``, the gap between two
    orthoprojectors for "these subspaces are equal"; ``route``, the factor
    on ``check`` for two routes to m(Q), fixed though V V*'s error grows
    with ||Q|| (CHANGES.md); ``absolute``, an absolute slack on residuals
    that are zero in exact arithmetic; ``limit``, the distance of a finite
    table's last entry from its limit.  The methods are the gate formulas,
    each nondecreasing in its norm argument, so a gate of lower bounds on
    the norms is a lower bound on the gate (``certify``).
    """

    psd: ClassVar[float] = 1e-10
    subspace: ClassVar[float] = 1e-8
    route: ClassVar[float] = 10.0
    absolute: ClassVar[float] = 1e-9
    limit: ClassVar[float] = 1e-2

    check: float = 1e-10
    rank: float | None = None

    def __post_init__(self):
        # chained comparisons, so that NaN, which fails them all, is rejected too
        if not 0.0 < self.check < np.inf:
            raise ValueError("tolerances must be finite and positive")
        if self.rank is not None and not 0.0 < self.rank < np.inf:
            raise ValueError("rank cutoff factor must be finite and positive")

    def rank_factor(self, dim: int) -> float:
        return self.rank if self.rank is not None else dim * EPS

    def relative(self, s):
        """check (1 + s): a residual linear in an operand of norm s."""
        return self.check * (1.0 + s)

    def quadratic(self, s):
        """check (1 + s^2): a residual quadratic in an operand of norm s."""
        return self.check * (1.0 + s**2)

    def route_gate(self, s):
        """route check (1 + s): two routes to m(Q), s the norm the gap scales with (0 if none)."""
        return self.route * self.check * (1.0 + s)

    def above(self, value):
        """value + check: a bound held up to round-off."""
        return value + self.check

    def above_absolute(self, value):
        """value + absolute: a bound held up to a fixed slack."""
        return value + self.absolute

    def below(self, value):
        """value - check: a strict bound with a margin for round-off."""
        return value - self.check

    def psd_slack(self, s):
        """psd (1 + s): how far below zero a PSD spectrum of norm s may reach."""
        return self.psd * (1.0 + s)


DEFAULT_TOL = Tolerances()


def as_matrix(data) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each slice of a (k, n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def operator_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value (the C*-norm); a (k, n, n) stack gives the k norms.

    LAPACK returns the singular values in descending order, so the first is
    the maximum that ``np.linalg.norm(m, 2)`` takes, bit for bit, without that
    wrapper's axis handling.  It is ``svd``, not ``svdvals``, so that tools
    counting ``np.linalg.svd`` calls see every exact norm.
    """
    norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def norm_bounds(m: np.ndarray) -> tuple[float, float]:
    """(lower, upper) bounds on ``operator_norm(m)`` from O(n^2) work, no factorization.

    A (k, n, n) stack gives two length-k arrays, the bounds of each matrix.

    ||M||_F >= ||M||_2 >= max_j ||M e_j||, and both are taken from one array
    of squared moduli.  Each is pushed outward by the relative slack 4 n eps
    (n the larger dimension, eps = 2u the machine epsilon), so that, to first
    order, the bounds hold for the *computed* 2-norm.  With a = Re m_ij and
    b = Im m_ij, the real part of conj(m_ij) m_ij is a*a - (-b)*b, a sum of
    two nonnegative terms: two roundings without FMA (each product, then the
    sum) and two with it (one product, then the fused multiply-add), so each
    squared modulus is within 2u relative.  No term is negative, so relative
    errors do not grow under addition: a column sum (n - 1 additions in any
    order) is within (n + 1)u and the total of the column sums within 2n u.
    The square root halves that and rounds once, and the product with the
    slack rounds once more: the lower bound is off by at most (n + 5)u/2 and
    the upper by (n + 2)u, below n eps + u.  LAPACK's backward-stable SVD puts
    the computed largest singular value within a few n eps of the exact one,
    and 4 n eps covers both.
    """
    sq = (m.conj() * m).real
    cols = np.add.reduce(sq, axis=-2)
    slack = 4.0 * max(m.shape[-2:]) * EPS
    if m.ndim == 2:
        lower, upper = math.sqrt(np.maximum.reduce(cols)), math.sqrt(np.add.reduce(cols))
    else:
        lower = np.sqrt(np.maximum.reduce(cols, axis=-1))
        upper = np.sqrt(np.add.reduce(cols, axis=-1))
    return lower * (1.0 - slack), upper * (1.0 + slack)


def norm_bracket(m: np.ndarray, gate) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(lower, upper) around ``operator_norm(m)``, narrow enough to decide ``||m|| <= gate``.

    ``norm_bounds(m)`` when they settle the comparison either way (upper <=
    gate, or gate < lower with a finite upper); otherwise, when they straddle
    the gate or the squares overflow, the exact norm, as the pair (exact,
    exact).  So ``upper <= gate`` is the answer the exact comparison gives,
    and the exact norm is taken only near the gate (within the bounds' gap
    and slack).  A matrix gives two floats; a (k, n, n) stack, against one
    gate or one per slice, each slice's bracket as two length-k arrays, the
    unsettled slices' exact norms from one stacked SVD.
    """
    lower, upper = norm_bounds(m)
    if m.ndim == 3 and (upper <= gate).all():
        return lower, upper  # the common stacked verdict, before the five-ufunc mask
    settled = (upper <= gate) | ((gate < lower) & (lower <= upper) & (upper < math.inf))
    if m.ndim == 2:
        if settled:
            return lower, upper
        exact = operator_norm(m)
        return exact, exact
    if not settled.all():
        lower[~settled] = upper[~settled] = operator_norm(m[~settled])
    return lower, upper


def norm_at_most(m: np.ndarray, bound: float) -> bool:
    """Whether ``operator_norm(m) <= bound`` (for every matrix of a stack), decided by ``norm_bracket``."""
    within = norm_bracket(m, bound)[1] <= bound
    return within if m.ndim == 2 else bool(within.all())


def certify(residual: np.ndarray, gate, fail, *operands: np.ndarray, scale: float = 1.0) -> None:
    """Certify scale ||R_k|| <= gate(||A_k||, ...) for each slice k, or raise ``fail(norm, bound, k)``.

    The bound-first rule of every certificate but the projection one
    (``idempotents.as_projection``).  ``residual`` R is a matrix or a
    (k, n, n) stack, each operand A of the same shape, and ``gate`` maps the
    operands' norms (floats, or one array per operand) to the gate; it must
    be nondecreasing in each, so that scale upper(||R_k||)
    <= gate(lower(||A_k||), ...) from ``norm_bounds`` implies the exact test.
    The slices that the bounds leave unsettled take their exact norms, one
    stacked ``operator_norm`` per quantity, and the first slice whose exact
    scale ||R_k|| is not within gate(||A_k||, ...) raises the exception that
    ``fail`` builds from that norm, that gate and k (0 for a matrix).  So a
    message carries exact numbers, and a NaN norm never passes.
    """
    settled = scale * norm_bounds(residual)[1] <= gate(*[norm_bounds(a)[0] for a in operands])
    if settled if residual.ndim == 2 else settled.all():
        return
    unsettled = np.flatnonzero(np.logical_not(settled))
    r, *ops = (m.reshape(-1, *m.shape[-2:])[unsettled] for m in (residual, *operands))
    norms = scale * operator_norm(r)
    bounds = np.broadcast_to(gate(*(operator_norm(a) for a in ops)), norms.shape)
    for k, norm, bound in zip(unsettled, norms, bounds):
        if not norm <= bound:
            raise fail(norm, bound, int(k))


def require_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return the symmetrized matrix, certified ||M - M*|| <= tol.relative(||M||) (``certify``)."""
    certify(m - adjoint(m), tol.relative,
            lambda gap, *_: NotHermitianError(f"asymmetry {gap:.3e} exceeds tolerance"), m)
    return (m + adjoint(m)) / 2.0


def hermitian_eigen(
    m: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """(w, U) with M = U diag(w) U*, w real ascending, of a Hermitian M (symmetrized first)."""
    return np.linalg.eigh(require_hermitian(m, tol))


def hermitian_eigvals(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The eigenvalues, ascending, of ``require_hermitian(M)``; raises ``NotHermitianError`` as it does.

    max |w| is the 2-norm of the symmetrized matrix, within ||M - M*|| / 2 of
    ||M|| before rounding, so a Hermitian operand's norm and its Loewner
    verdict (``is_psd_spectrum``) come from the one ``eigvalsh``.
    """
    return np.linalg.eigvalsh(require_hermitian(m, tol))


def psd_power(
    m: np.ndarray, power: float | Sequence[float], tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Fractional power of a PSD matrix with the relative rank cutoff applied.

    Eigenvalues at or below ``rank_factor * max|eig|`` are treated as exact
    zeros; fractional powers amplify round-off jitter near zero violently, so
    the cutoff is not optional here.  A sequence of k powers gives the k
    results, stacked, from one eigendecomposition.
    """
    lam, v = hermitian_eigen(m, tol)
    keep = lam > tol.rank_factor(m.shape[0]) * np.abs(lam).max()
    powers = np.asarray(power, dtype=np.float64)
    vals = np.zeros(powers.shape + lam.shape)
    for index, p in np.ndenumerate(powers):
        vals[index][keep] = lam[keep] ** float(p)
    return (v * vals[..., np.newaxis, :]) @ adjoint(v)


def numerical_rank(s: np.ndarray, dim: int, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values s_i > f s_0, f the tolerance's rank factor at ``dim``.

    ``s`` is descending, as ``np.linalg.svd`` returns it, so the kept values
    are its first ``rank`` entries.  An empty or zero spectrum has rank 0.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_factor(dim) * s[0]))


def abs_value(m: np.ndarray) -> np.ndarray:
    """Operator absolute value (M*M)^(1/2).

    Computed from the SVD of M itself rather than an eigendecomposition of
    M*M, which would square the condition number.
    """
    _, s, vh = np.linalg.svd(m)
    return (vh.conj().T * s) @ vh


def moore_penrose(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse via SVD with a relative singular-value cutoff."""
    u, s, vh = np.linalg.svd(m)
    r = numerical_rank(s, m.shape[0], tol)
    inv = np.zeros_like(s)
    inv[:r] = 1.0 / s[:r]
    return (vh.conj().T * inv) @ u.conj().T


def is_psd_spectrum(w: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ascending eigenvalues ``w`` are those of a PSD matrix: w_0 >= -tol.psd_slack(max |w|)."""
    scale = float(np.abs(w).max()) if w.size else 0.0
    return bool(w.min() >= -tol.psd_slack(scale))


def psd_order(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner order test A <= B: ``is_psd_spectrum`` of ``hermitian_eigvals(B - A)``.

    A and B are each required Hermitian, from O(n^2) bounds on clean input.
    """
    require_hermitian(a, tol)
    require_hermitian(b, tol)
    return is_psd_spectrum(hermitian_eigvals(b - a, tol), tol)
