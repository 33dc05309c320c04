"""JSON matrix files and deterministic report serialization.

Matrix schema: ``{"dim": [n, n], "entries": [[[re, im], ...], ...]}`` with one
``[re, im]`` pair per entry.  Floats are emitted by ``repr``, which
round-trips IEEE doubles exactly, so identical inputs produce byte-identical
files.

One encoder writes reports, the way ``json`` pairs ``iterencode`` with
``dump``: it walks ``obj`` once in json's layout and yields the text of
``json.dumps(obj, indent=2, sort_keys=True)`` in pieces, where every square
``np.ndarray`` inside ``obj`` stands for its matrix object.  A matrix is a
header, one piece per row rendered from that row's values alone with one
``%r`` template, and a footer; only scalars are left to json.  ``dump``
writes the pieces to a file as they are made, so the file never exists as
one string, and ``dumps`` joins them and adds the trailing newline.
``matrix_from_obj`` checks each row at once by exact type, and walks only a
row that fails that check entry by entry, to name its first fault.
"""

from __future__ import annotations

import io
import json
from itertools import chain
from pathlib import Path

import numpy as np


def _matrix_pieces(m: np.ndarray, indent: int):
    """The matrix object of ``m`` in json's ``indent=2`` layout, at ``indent`` spaces.

    It comes as a header, one piece per row and a footer.
    """
    n = m.shape[0]
    pad = [" " * (indent + k) for k in range(0, 10, 2)]
    pair = f"{pad[3]}[\n{pad[4]}%r,\n{pad[4]}%r\n{pad[3]}]"
    row = f"{pad[2]}[\n" + ",\n".join([pair] * n) + f"\n{pad[2]}]"
    templates = (row, ",\n" + row)
    yield f'{{\n{pad[1]}"dim": [\n{pad[2]}{n},\n{pad[2]}{n}\n{pad[1]}],\n{pad[1]}"entries": [\n'
    for i in range(n):
        values = np.stack([m[i].real, m[i].imag], axis=-1, dtype=np.float64).ravel()
        text = templates[i > 0] % tuple(values.tolist())
        if not np.isfinite(values).all():
            # repr spells nan/inf/-inf; json spells NaN/Infinity/-Infinity, and no
            # other token of a rendered row contains "nan" or "inf"
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text
    yield f"\n{pad[1]}]\n{pad[0]}}}"


def _pieces(obj, indent: int):
    """``json.dumps(obj, indent=2, sort_keys=True)`` in pieces, at ``indent`` spaces, ndarrays as matrices.

    A key must be a ``str``: json would quote any other key, and no report has one.
    """
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.shape[0] != obj.shape[1] or not obj.size:
            raise TypeError(f"a matrix must be n x n with n >= 1, got shape {obj.shape}")
        yield from _matrix_pieces(obj, indent)
        return
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be str, got {list(obj)!r}")
        items = [(f"{json.dumps(key)}: ", obj[key]) for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [("", value) for value in obj]
        brackets = "[]"
    else:
        yield json.dumps(obj)
        return
    if not items:
        yield brackets
        return
    inner = ",\n" + " " * (indent + 2)
    lead = brackets[0] + inner[1:]
    for label, value in items:
        yield lead + label
        yield from _pieces(value, indent + 2)
        lead = inner
    yield f"\n{' ' * indent}{brackets[1]}"


def dump(obj, path) -> None:
    """Write ``dumps(obj)`` to the file at ``path`` as UTF-8, each piece as it is encoded.

    No more than one matrix row of text is held at a time.  An error midway
    (a ``TypeError`` from ``obj`` or an ``OSError`` from the disk) leaves the
    file as far as it was written.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_pieces(obj, 0))
        f.write("\n")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed layout, trailing newline).

    Square ``np.ndarray`` values anywhere in ``obj`` are written as matrix
    objects, byte for byte as json writes their nested-list form.
    """
    return "".join(_pieces(obj, 0)) + "\n"


def _row_values(row, i: int, n: int) -> list:
    """The 2n numbers of row ``i`` in order, or the schema error of its first fault.

    The bulk check takes exact types, which rejects bools (a subclass of int);
    the walk takes ``isinstance``, so subclasses such as ``np.float64`` load.
    """
    if not isinstance(row, list) or len(row) != n:
        raise ValueError(f"row {i} must hold {n} entries")
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
            raise ValueError(f"entry ({i}, {j}) must be an [re, im] pair")
    return [v for pair in row for v in pair]


def matrix_from_obj(obj) -> np.ndarray:
    """Parse and validate the matrix schema."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("expected an object with 'dim' and 'entries'")
    dim = obj["dim"]
    # JSON true/false load as bool, a subclass of int: rejected explicitly
    if (
        not isinstance(dim, list)
        or len(dim) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dim)
        or dim[0] != dim[1]
    ):
        raise ValueError(f"'dim' must be [n, n] with n >= 1, got {dim!r}")
    n = dim[0]
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f"'entries' must hold {n} rows")
    rows = [_row_values(row, i, n) for i, row in enumerate(entries)]
    try:
        out = np.array(rows, dtype=np.float64).view(np.complex128)
    except OverflowError as exc:  # an integer literal beyond the largest double
        raise ValueError("matrix entries must be finite") from exc
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    return out


def load_matrix(path, digest=None) -> np.ndarray:
    """The validated matrix in the file at ``path``, which is opened and read once.

    ``digest``, a ``hashlib`` object, is fed the bytes that are parsed.  They
    are decoded as ``Path.read_text`` decodes (newlines translated), so every
    error names the same position.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(data)
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json's scanner recurses once per nesting level
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)
