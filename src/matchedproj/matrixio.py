"""JSON matrix files and deterministic report serialization.

Matrix schema: ``{"dim": [n, n], "entries": [[[re, im], ...], ...]}`` with one
``[re, im]`` pair per entry.  Floats are emitted by ``repr``, which
round-trips IEEE doubles exactly, so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixFileError


def matrix_to_obj(m: np.ndarray) -> dict:
    """Serializable form of a square complex matrix."""
    n = m.shape[0]
    entries = [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)] for i in range(n)
    ]
    return {"dim": [n, n], "entries": entries}


def matrix_from_obj(obj) -> np.ndarray:
    """Parse and validate the matrix schema."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise MatrixFileError("expected an object with 'dim' and 'entries'")
    dim = obj["dim"]
    # JSON true/false load as bool, a subclass of int: rejected explicitly
    if (
        not isinstance(dim, list)
        or len(dim) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dim)
        or dim[0] != dim[1]
    ):
        raise MatrixFileError(f"'dim' must be [n, n] with n >= 1, got {dim!r}")
    n = dim[0]
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixFileError(f"'entries' must hold {n} rows")
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFileError(f"row {i} must hold {n} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
                )
            ):
                raise MatrixFileError(f"entry ({i}, {j}) must be an [re, im] pair")
            out[i, j] = complex(pair[0], pair[1])
    if not np.isfinite(out).all():
        raise MatrixFileError("matrix entries must be finite")
    return out


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed layout, trailing newline)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_matrix(path, m: np.ndarray) -> None:
    Path(path).write_text(dumps(matrix_to_obj(m)), encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)
