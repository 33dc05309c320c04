"""Fixtures and input generators shared by the test modules."""

import importlib.util
import os
from pathlib import Path

# One OpenBLAS kernel on every x86 machine, set before numpy loads it: the
# byte-exact golden reports hold their last bits under this kernel, and other
# kernels (Zen, or an AVX-512 one) round some dot products differently.
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import numpy as np
import pytest

from matchedproj import adjoint, operator_norm, random_idempotent

_spec = importlib.util.spec_from_file_location(
    "linalg_calls", Path(__file__).parents[1] / "tools" / "linalg_calls.py")
linalg_calls_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linalg_calls_tool)


@pytest.fixture
def factorizations():
    """Count dense factorizations in numpy.linalg, as ``tools/linalg_calls.py`` counts them.

    An SVD without vectors counts as "svdvals" (an exact 2-norm or a rank
    test), a full one as "svd" (a factorization of the matrix).
    """
    with linalg_calls_tool.counted_linalg() as counts:
        yield counts


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


def projection_defect(p):
    """max(||P^2 - P||, ||P - P*||) of a projection, the exact 2-norms."""
    m = p.matrix
    return max(operator_norm(m @ m - m), operator_norm(m - adjoint(m)))
