"""JSON matrix files and deterministic report serialization.

Matrix schema: ``{"dim": [n, n], "entries": [[[re, im], ...], ...]}`` with one
``[re, im]`` pair per entry.  Floats are emitted by ``repr``, which
round-trips IEEE doubles exactly, so identical inputs produce byte-identical
files.

``dumps`` writes exactly ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
newline, where every square ``np.ndarray`` inside ``obj`` stands for its
matrix object.  It walks ``obj`` once in json's layout, renders each matrix
from the array with one ``%r`` template and leaves only scalars to json.
``matrix_from_obj`` checks each row at once by exact type, and walks only a
row that fails that check entry by entry, to name its first fault.
"""

from __future__ import annotations

import io
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import MatrixFileError


def _render(m: np.ndarray, indent: int) -> str:
    """The matrix object of ``m`` in json's ``indent=2`` layout, at ``indent`` spaces."""
    n = m.shape[0]
    pad = [" " * (indent + k) for k in range(0, 10, 2)]
    pair = f"{pad[3]}[\n{pad[4]}%r,\n{pad[4]}%r\n{pad[3]}]"
    row = f"{pad[2]}[\n" + ",\n".join([pair] * n) + f"\n{pad[2]}]"
    template = (
        f'{{\n{pad[1]}"dim": [\n{pad[2]}{n},\n{pad[2]}{n}\n{pad[1]}],\n'
        f'{pad[1]}"entries": [\n' + ",\n".join([row] * n) + f"\n{pad[1]}]\n{pad[0]}}}"
    )
    pairs = np.stack([m.real, m.imag], axis=-1, dtype=np.float64)
    text = template % tuple(pairs.ravel().tolist())
    if not np.isfinite(pairs).all():
        # repr spells nan/inf/-inf; json spells NaN/Infinity/-Infinity, and no
        # other token of the rendered object contains "nan" or "inf"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _encode(obj, indent: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` at ``indent`` spaces, ndarrays as matrix objects.

    A key must be a ``str``: json would quote any other key, and no report has one.
    """
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.shape[0] != obj.shape[1] or not obj.size:
            raise TypeError(f"a matrix must be n x n with n >= 1, got shape {obj.shape}")
        return _render(obj, indent)
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be str, got {list(obj)!r}")
        items = [f"{json.dumps(key)}: {_encode(obj[key], indent + 2)}" for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode(value, indent + 2) for value in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    inner = ",\n" + " " * (indent + 2)  # one f-string copies a rendered matrix once
    return f"{brackets[0]}{inner[1:]}{inner.join(items)}\n{' ' * indent}{brackets[1]}"


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed layout, trailing newline).

    Square ``np.ndarray`` values anywhere in ``obj`` are written as matrix
    objects, byte for byte as json writes their nested-list form.
    """
    return _encode(obj, 0) + "\n"


def _row_values(row, i: int, n: int) -> list:
    """The 2n numbers of row ``i`` in order, or the schema error of its first fault.

    The bulk check takes exact types, which rejects bools (a subclass of int);
    the walk takes ``isinstance``, so subclasses such as ``np.float64`` load.
    """
    if not isinstance(row, list) or len(row) != n:
        raise MatrixFileError(f"row {i} must hold {n} entries")
    if set(map(type, row)) == {list} and set(map(len, row)) == {2}:
        values = list(chain.from_iterable(row))
        if set(map(type, values)) <= {int, float}:
            return values
    for j, pair in enumerate(row):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise MatrixFileError(f"entry ({i}, {j}) must be an [re, im] pair")
    return [v for pair in row for v in pair]


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
    rows = [_row_values(row, i, n) for i, row in enumerate(entries)]
    try:
        out = np.array(rows, dtype=np.float64).view(np.complex128)
    except OverflowError as exc:  # an integer literal beyond the largest double
        raise MatrixFileError("matrix entries must be finite") from exc
    if not np.isfinite(out).all():
        raise MatrixFileError("matrix entries must be finite")
    return out


def save_matrix(path, m: np.ndarray) -> None:
    Path(path).write_text(dumps(m), encoding="utf-8")


def load_matrix(path, digest=None) -> np.ndarray:
    """The validated matrix in the file at ``path``, which is opened and read once.

    ``digest``, a ``hashlib`` object, is fed the bytes that are parsed.  They
    are decoded as ``Path.read_text`` decodes (newlines translated), so every
    error names the same position.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(data)
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json's scanner recurses once per nesting level
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)
