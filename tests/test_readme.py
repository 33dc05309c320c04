"""The python code blocks of README.md run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from matchedproj import cli

README = Path(__file__).parents[1] / "README.md"


def test_python_blocks_run():
    # each block in a fresh namespace, so a block leans on no other; a
    # changed public signature leaves no stale quick tour behind
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {"__name__": "readme"})


def readme_command_lines():
    """Each ``matchedproj <command> ...`` line of README's code blocks, comment and launcher stripped."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    lines = []
    for block in blocks:
        for line in block.splitlines():
            line = re.sub(r"^(PYTHONPATH=\S*\s+)?(python3? -m\s+)?", "", line.split("#", 1)[0].strip())
            if line.startswith("matchedproj "):
                lines.append(line.rstrip())
    return lines


def test_command_lines_parse():
    # a renamed or deleted flag leaves no stale command line behind; each
    # line is parsed, not run
    lines = readme_command_lines()
    assert len(lines) >= 6, lines
    parser = cli.build_parser()
    for line in lines:
        words = shlex.split(line)
        try:
            args = parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
        assert args.func is getattr(cli, f"cmd_{words[1]}"), line
