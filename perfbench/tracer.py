"""Per-layer tracing from outside the package.

``Tracer`` wraps every public function of the package's modules in a timing
span and counts the ``numpy.linalg`` factorizations that run under those
spans.  The package imports functions by name (``from .matched import
matched_projection`` in ``norms``, ``battery`` and ``cli``), so patching the
defining module alone would miss most calls: the tracer rebinds the name in
every module that holds it and puts the originals back on exit.

Spans are aggregated in memory by function name and by (parent, child) edge;
``summary()`` gives the result as plain data for the trace file.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "matchedproj"
LAYERS = ("cli", "battery", "matrixio", "norms", "matched", "idempotents", "linalg", "two_by_two")
# numpy.linalg entry points counted as factorizations; norm counts only ord=2,
# which is an SVD, under the name "norm2"
_SHIMMED = ("svd", "eigh", "eigvalsh", "solve", "inv", "qr", "norm")


def public_functions() -> dict[str, object]:
    """Map "layer.name" to each public function defined in a layer module."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__ and not name.startswith("_"):
                found[f"{layer}.{name}"] = value
    return found


class Tracer:
    """Context manager that traces the package while it is active."""

    def __init__(self):
        self.stack: list[list] = []  # frames [name, seconds covered by child spans]
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.lapack_by_entry: defaultdict = defaultdict(Counter)
        self.lapack_under: defaultdict = defaultdict(Counter)
        self.distinct_q = 0
        self._op_q: set[bytes] = set()
        self.bytes_read = 0
        self.bytes_written = 0
        self._patches: list[tuple[object, str, object]] = []
        self._on_call = {"matched.matched_projection": self._see_q}
        self._on_return = {
            "matrixio.load_matrix": self._see_read,
            "matrixio.dumps": self._see_written,
        }

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {fn: self._span(name, fn) for name, fn in public_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for kind in _SHIMMED:
            self._patch(np.linalg, kind, self._counted(kind, getattr(np.linalg, kind)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    # -- spans and counts -----------------------------------------------

    def _span(self, name: str, fn):
        stack, depth = self.stack, self._depth
        on_call, on_return = self._on_call.get(name), self._on_return.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if not depth[name]:  # a recursive call is inside its caller's total
                    self.total_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                    self.edges[(stack[-1][0], name)] += 1
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _counted(self, kind: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                label = kind
                if kind == "norm":
                    order = args[1] if len(args) > 1 else kwargs.get("ord")
                    label = "norm2" if order is not None and order == 2 else None
                if label is not None:
                    self.lapack_by_entry[stack[0][0]][label] += 1
                    for name in {frame[0] for frame in stack}:
                        self.lapack_under[name][label] += 1
            return fn(*args, **kwargs)

        return counted

    def _see_q(self, args) -> None:
        self._op_q.add(hashlib.blake2b(args[0].matrix.tobytes(), digest_size=16).digest())

    def _see_read(self, args, result) -> None:
        self.bytes_read += os.path.getsize(args[0])

    def _see_written(self, args, result) -> None:
        self.bytes_written += len(result.encode("utf-8"))

    def end_op(self) -> None:
        """Close one benchmark op: distinct Q are counted per op."""
        self.distinct_q += len(self._op_q)
        self._op_q.clear()

    # -- results ----------------------------------------------------------

    def factorizations_under(self, name: str) -> int:
        return sum(self.lapack_under[name].values())

    def summary(self) -> dict:
        names = sorted(self.calls)
        return {
            "functions": {
                n: {
                    "calls": self.calls[n],
                    "total_s": self.total_s[n],
                    "self_s": self.self_s[n],
                    "factorizations": dict(sorted(self.lapack_under[n].items())),
                }
                for n in names
            },
            "edges": [
                {"parent": p, "child": c, "calls": k} for (p, c), k in sorted(self.edges.items())
            ],
            "lapack_by_entry_point": {
                e: dict(sorted(c.items())) for e, c in sorted(self.lapack_by_entry.items())
            },
            "matched_projection_distinct_q": self.distinct_q,
            "matrixio_bytes": {"read": self.bytes_read, "written": self.bytes_written},
        }
