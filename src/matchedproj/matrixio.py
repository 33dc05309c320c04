"""JSON matrix files and deterministic report serialization.

Matrix schema: ``{"dim": [n, n], "entries": [[[re, im], ...], ...]}`` with one
``[re, im]`` pair per entry.  Floats are emitted by ``repr``, which
round-trips IEEE doubles exactly, so identical inputs produce byte-identical
files.

``dumps`` writes exactly ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
newline, where every square ``np.ndarray`` inside ``obj`` stands for its
matrix object.  json's ``indent`` layout runs its pure-Python encoder, so a
matrix is instead rendered straight from the array with one ``%r`` template
at its nesting depth and spliced into the encoding of the small remainder.
``matrix_from_obj`` checks rows, pairs and value types over the whole input
at once and converts it in one call; only a malformed input is walked entry
by entry, to name the first fault.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import MatrixFileError

# one placeholder string per matrix.  json escapes the NUL, so only a report
# string spelling the same text can collide: then the matches outnumber the
# matrices and json writes the whole report itself.  ``(.*)`` is greedy, so on
# a ``"key": value`` line the value's placeholder is the one matched
_PLACEHOLDER = "\x00matrix{}"
_PLACED = re.compile(r'^( *)(.*)"\\u0000matrix(\d+)"', re.MULTILINE)


def _pairs(m: np.ndarray) -> np.ndarray:
    """(n, n, 2) array of the real and imaginary parts of a matrix."""
    return np.stack([m.real, m.imag], axis=-1, dtype=np.float64)


def _nested(m: np.ndarray) -> dict:
    """The matrix object as plain lists, the form json encodes itself."""
    return {"dim": [m.shape[0], m.shape[1]], "entries": _pairs(m).tolist()}


def _replace_arrays(obj, leaf):
    """Copy of a JSON-like tree with ``leaf(m)`` for every ndarray ``m``."""
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.shape[0] != obj.shape[1] or not obj.size:
            raise TypeError(f"a matrix must be n x n with n >= 1, got shape {obj.shape}")
        return leaf(obj)
    if isinstance(obj, dict):
        return {k: _replace_arrays(v, leaf) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_replace_arrays(v, leaf) for v in obj]
    return obj


def _render(m: np.ndarray, indent: int) -> str:
    """``json.dumps(_nested(m), indent=2)`` for a matrix object at ``indent`` spaces."""
    n = m.shape[0]
    pad = [" " * (indent + k) for k in range(0, 10, 2)]
    pair = f"{pad[3]}[\n{pad[4]}%r,\n{pad[4]}%r\n{pad[3]}]"
    row = f"{pad[2]}[\n" + ",\n".join([pair] * n) + f"\n{pad[2]}]"
    template = (
        f'{{\n{pad[1]}"dim": [\n{pad[2]}{n},\n{pad[2]}{n}\n{pad[1]}],\n'
        f'{pad[1]}"entries": [\n' + ",\n".join([row] * n) + f"\n{pad[1]}]\n{pad[0]}}}"
    )
    pairs = _pairs(m)
    text = template % tuple(pairs.ravel().tolist())
    if not np.isfinite(pairs).all():
        # repr spells nan/inf/-inf; json spells NaN/Infinity/-Infinity, and no
        # other token of the rendered object contains "nan" or "inf"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


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
    values = _flat_values(entries, n)
    if values is None:
        _raise_first_fault(entries, n)
        values = [v for row in entries for pair in row for v in pair]
    out = np.array(values, dtype=np.float64).view(np.complex128).reshape(n, n)
    if not np.isfinite(out).all():
        raise MatrixFileError("matrix entries must be finite")
    return out


def _flat_values(entries: list, n: int) -> list | None:
    """The 2 n^2 numbers in row-major order, or None if any check fails.

    Exact types rather than ``isinstance`` reject bools (a subclass of int);
    list and float subclasses also fail here and are settled by
    ``_raise_first_fault``.
    """
    if not all(isinstance(row, list) and len(row) == n for row in entries):
        return None
    pairs = list(chain.from_iterable(entries))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    values = list(chain.from_iterable(pairs))
    if not set(map(type, values)) <= {int, float}:
        return None
    return values


def _raise_first_fault(entries: list, n: int) -> None:
    """Raise the schema error of the first bad row or entry, in row-major order."""
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


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed layout, trailing newline).

    Square ``np.ndarray`` values anywhere in ``obj`` are written as matrix
    objects, byte for byte as json writes their nested-list form.
    """
    matrices: list[np.ndarray] = []

    def place(m: np.ndarray) -> str:
        matrices.append(m)
        return _PLACEHOLDER.format(len(matrices) - 1)

    text = json.dumps(_replace_arrays(obj, place), indent=2, sort_keys=True)
    placed = list(_PLACED.finditer(text))
    if len(placed) != len(matrices):
        text = json.dumps(_replace_arrays(obj, _nested), indent=2, sort_keys=True)
        return text + "\n"
    parts, end = [], 0
    for match in placed:
        matrix = matrices[int(match.group(3))]
        parts += [text[end : match.end(2)], _render(matrix, len(match.group(1)))]
        end = match.end()
    parts.append(text[end:])
    return "".join(parts) + "\n"


def save_matrix(path, m: np.ndarray) -> None:
    Path(path).write_text(dumps(m), encoding="utf-8")


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
