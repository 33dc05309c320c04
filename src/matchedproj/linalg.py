"""Dense complex matrix kernels: adjoint, operator norm, Hermitian calculus, pseudoinverse.

Operator norms come in two kinds.  ``operator_norm`` is the exact 2-norm, the
first value of a singular-values-only SVD, ``np.linalg.svd(m,
compute_uv=False)`` (a (k, n, n) stack gives the k norms); it is taken
wherever a number is reported or read: every ``Check`` residual and
distance, quasi-projection-pair residuals, idempotency and projection
defects (on first read), contraction norms, convergence tables and the
battery's tallies.  A pass/fail gate whose number is never reported decides
from ``norm_bounds`` first, two O(n^2) bounds (Frobenius norm above, largest
column norm below), and takes the exact norm only when they cannot settle
it: ``norm_at_most``, ``require_hermitian``, the certificates of
``idempotents.as_idempotent(s)`` and ``as_projection`` (``is_projection``),
``matched.qpp_holds``, the witness projection short-circuit, its closed-form
inverse certificate and its similarity gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotHermitianError

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates used throughout the package.

    ``check`` bounds identity residuals, ``psd`` is the allowed slack on
    negative eigenvalues, and ``rank`` is the relative singular/eigenvalue
    cutoff factor (``None`` means ``dim * machine epsilon``).
    """

    check: float = 1e-10
    psd: float = 1e-10
    rank: float | None = None

    def __post_init__(self):
        # chained comparisons, so that NaN, which fails them all, is rejected too
        if not (0.0 < self.check < np.inf and 0.0 < self.psd < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.rank is not None and not 0.0 < self.rank < np.inf:
            raise ValueError("rank cutoff factor must be finite and positive")

    def rank_factor(self, dim: int) -> float:
        return self.rank if self.rank is not None else dim * EPS


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
    """Conjugate transpose."""
    return m.conj().T


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


def norm_at_most(m: np.ndarray, bound: float) -> bool:
    """Whether ``operator_norm(m) <= bound``, taking the 2-norm only if ``norm_bounds`` cannot tell.

    An answer from the bounds is the one the exact comparison gives; near
    the bound (within the bounds' gap and slack) the exact norm decides.
    """
    lower, upper = norm_bounds(m)
    if upper <= bound:
        return True
    if lower > bound:
        return False
    return operator_norm(m) <= bound


def require_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return the symmetrized matrix, rejecting ||M - M*|| > tol.check (1 + ||M||).

    Accepts from ``norm_bounds`` when upper(||M - M*||) <= tol.check (1 +
    lower(||M||)), which implies the exact test; otherwise both norms are
    taken exactly.
    """
    skew = m - adjoint(m)
    if norm_bounds(skew)[1] > tol.check * (1.0 + norm_bounds(m)[0]):
        gap = operator_norm(skew)
        if gap > tol.check * (1.0 + operator_norm(m)):
            raise NotHermitianError(f"asymmetry {gap:.3e} exceeds tolerance")
    return (m + adjoint(m)) / 2.0


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition U diag(w) U* with real ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix (symmetrized before factoring)."""
    w, v = np.linalg.eigh(require_hermitian(m, tol))
    return HermitianEigen(w, v)


def psd_power(
    m: np.ndarray, power: float | Sequence[float], tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Fractional power of a PSD matrix with the relative rank cutoff applied.

    Eigenvalues at or below ``rank_factor * max|eig|`` are treated as exact
    zeros; fractional powers amplify round-off jitter near zero violently, so
    the cutoff is not optional here.  A sequence of k powers gives the k
    results, stacked, from one eigendecomposition.
    """
    eig = hermitian_eigen(m, tol)
    lam = eig.eigenvalues
    keep = lam > tol.rank_factor(m.shape[0]) * np.abs(lam).max()
    powers = np.asarray(power, dtype=np.float64)
    vals = np.zeros(powers.shape + lam.shape)
    for index, p in np.ndenumerate(powers):
        vals[index][keep] = lam[keep] ** float(p)
    v = eig.eigenvectors
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


def psd_order(a: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner order test A <= B with slack on the smallest eigenvalue of B - A.

    For A = 0, B - A equals B, so B is validated once.
    """
    if a.any():
        require_hermitian(a, tol)
        require_hermitian(b, tol)
        d = require_hermitian(b - a, tol)
    else:
        d = require_hermitian(b, tol)
    w = np.linalg.eigvalsh(d)
    scale = float(np.abs(w).max()) if w.size else 0.0
    return bool(w.min() >= -tol.psd * (1.0 + scale))
