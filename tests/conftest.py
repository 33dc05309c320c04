"""Fixtures and input generators shared by the test modules."""

from collections import Counter

import numpy as np
import pytest

from matchedproj import random_idempotent


@pytest.fixture
def factorizations(monkeypatch):
    """Count dense factorizations in numpy.linalg.

    An SVD without vectors counts as "svdvals" (an exact 2-norm or a rank
    test), a full one as "svd" (a factorization of the matrix).
    """
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve", "inv",
                 "qr", "cholesky", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    svd = np.linalg.svd

    def counted_svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        counts["svd" if compute_uv else "svdvals"] += 1
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return counts


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of every numpy.linalg function called, in order, whatever its arguments."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if not name.startswith("_") and callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recorded(name, fn))
    return calls


def envelope_inputs(norms, dims=(1, 2, 8, 32), every_rank=False):
    """Seeded idempotents: each n in dims, rank 0, mixed and full (or every rank), each ||A||."""
    for dim in dims:
        mixed = {0, dim // 4, dim // 2, 3 * dim // 4, dim}
        for rank in range(dim + 1) if every_rank else sorted(mixed):
            for nu in norms:
                yield random_idempotent(dim, rank, nu, 1000 * dim + rank)
