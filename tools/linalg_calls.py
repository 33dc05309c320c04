"""Print the numpy.linalg factorizations, by kind, of one cold ``analyze`` and one battery run.

The kinds are those the tests' ``factorizations`` fixture counts: an SVD
without vectors is ``svdvals`` (an exact 2-norm or a rank test), a full one
``svd``, and ``eig``, ``eigh``, ``eigvals``, ``eigvalsh``, ``solve``,
``inv``, ``qr``, ``cholesky``, ``lstsq`` and ``pinv`` each count as
themselves.  Usage::

    PYTHONPATH=src python tools/linalg_calls.py

``analyze`` reads the repository's ``tests/data/q_n8.json``; Q's memo is
cold because ``analyze`` certifies a Q it has just loaded.  The battery is
``run_battery(12, 2, 7)``.  Prints one line per run, its total and then its
count of each kind.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from matchedproj.battery import run_battery
from matchedproj.cli import main as cli_main

INPUT = "tests/data/q_n8.json"
KINDS = ("eig", "eigh", "eigvals", "eigvalsh", "solve", "inv", "qr", "cholesky", "lstsq", "pinv")


@contextlib.contextmanager
def counted_linalg():
    """A Counter of the factorizations called inside the block, by kind; numpy.linalg is restored after."""
    counts = Counter()
    originals = {name: getattr(np.linalg, name) for name in (*KINDS, "svd")}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        counts["svd" if compute_uv else "svdvals"] += 1
        return originals["svd"](a, full_matrices, compute_uv, *args, **kwargs)

    try:
        for name in KINDS:
            setattr(np.linalg, name, counted(name, originals[name]))
        np.linalg.svd = counted_svd
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)


def describe(label: str, counts: Counter) -> str:
    kinds = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
    return f"{label}: {sum(counts.values())} numpy.linalg calls ({kinds})"


def main() -> int:
    with counted_linalg() as counts, contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(["analyze", "--input", str(Path(__file__).parents[1] / INPUT)])
    print(describe(f"analyze {INPUT} (exit {status})", counts))
    with counted_linalg() as counts:
        run_battery(12, 2, 7)
    print(describe("run_battery(12, 2, 7)", counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
