"""The README's Python examples run and every name in ctrz.__all__
resolves, so a deleted name cannot linger in the docs or the exports."""

import re
from pathlib import Path

import ctrz

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert [n for n in ctrz.__all__ if not hasattr(ctrz, n)] == []
