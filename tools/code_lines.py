"""Count the code lines of Python sources: lines that hold a token of code.

Docstrings (the first statement of a module, class or function, when it is a
string literal, found with ``ast``), comments and blank lines (found with
``tokenize``) are not code.  Usage::

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


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = set()
    for tok in tokens:
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


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
