"""A pytest plugin that fails the session when a statement of the package never ran.

Run it over the whole tier-1 suite::

    PYTHONPATH=src:tools python -m pytest -q -p unreached

Before the first conftest is loaded, and so before the package is imported,
it traces every thread (``sys.settrace`` and ``threading.settrace``), and it
records the lines run in frames whose file lies under ``src/matchedproj``.
At session end it lists every statement of the package (an ``ast.stmt``)
none of whose lines ran, and fails the session if any is listed.  A
compound statement counts as run when any line of its body ran.  Docstring
expressions and ``def``/``class`` headers are not listed: a header runs at
import, and its body's statements are listed on their own.  Standard
library only; a traced run takes about twice the plain run's time.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matchedproj"
HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
RECORDER = pytest.StashKey["LineRecorder"]()
UNREACHED = pytest.StashKey[list]()


def statement_spans(source: str) -> list[tuple[int, int]]:
    """The (first, last) line of each statement listed: every ``ast.stmt`` but docstrings and headers."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *HEADERS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, HEADERS) and node not in docstrings)


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first line of each listed statement of ``source`` none of whose lines is in ``ran``."""
    return [first for first, last in statement_spans(source) if ran.isdisjoint(range(first, last + 1))]


class LineRecorder:
    """The lines run in each file under ``root``, from a trace of every thread."""

    def __init__(self, root: Path):
        self.root = root
        self.prefix = str(root) + os.sep
        self.ran: dict[str, set[int]] = {}
        self._lines_of: dict[str, set[int] | None] = {}

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._lines_of:
            path = os.path.realpath(filename)
            self._lines_of[filename] = self.ran.setdefault(path, set()) if path.startswith(self.prefix) else None
        lines = self._lines_of[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def missing(self) -> list[str]:
        """``path:line`` of each listed statement under ``root`` that never ran."""
        top = self.root.parents[1]
        return [f"{path.relative_to(top)}:{line}"
                for path in sorted(self.root.rglob("*.py"))
                for line in unreached(path.read_text(encoding="utf-8"), self.ran.get(str(path), set()))]


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    recorder = early_config.stash[RECORDER] = LineRecorder(PACKAGE)
    recorder.start()


def pytest_sessionfinish(session):
    recorder = session.config.stash[RECORDER]
    recorder.stop()
    session.config.stash[UNREACHED] = missing = recorder.missing()
    if missing and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    missing = config.stash.get(UNREACHED, [])
    terminalreporter.write_line(f"unreached statements of {PACKAGE.name}: {len(missing)}")
    for where in missing:
        terminalreporter.write_line(f"  {where}")

