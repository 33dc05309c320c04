"""The python code blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_blocks_run():
    # each block in a fresh namespace, so a block leans on no other; a
    # changed public signature leaves no stale quick tour behind
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {"__name__": "readme"})
