"""Count the code lines of Python sources: lines that hold a token of code.

Docstrings (the first statement of a module, class or function, when it is a
string literal, found with ``ast``), comments and blank lines (found with
``tokenize``) are not code.  A line is excluded only when no token on it is
code, so a header that shares its line with a docstring, such as
``def f(): 'Doc.'``, counts as its two-line form does.  Usage::

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default is
``src/matchedproj``.  Prints one line per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of the docstrings of a module, as ``tokenize`` gives them.

    ``ast`` gives columns in UTF-8 bytes and ``tokenize`` in characters, so
    each column is converted on its own line.
    """
    lines = source.split("\n")

    def position(row: int, byte_col: int) -> tuple[int, int]:
        return row, len(lines[row - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append((position(first.lineno, first.col_offset),
                              position(first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code outside a docstring."""
    spans = docstring_spans(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and not any(start <= tok.start and tok.end <= end for start, end in spans):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path("src/matchedproj")]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
