"""The README's Python examples run, its shell examples print what it
shows, and every name in ctrz.__all__ resolves, so a deleted name or a
changed output cannot linger in the docs or the exports."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import ctrz
from ctrz.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert [n for n in ctrz.__all__ if not hasattr(ctrz, n)] == []


def shell_examples():
    """(command, shown lines, exit code) for each `$ ctrz` line of the
    README's plain code blocks.  A last line `(exit code N)` gives the
    exit code, 0 when there is none; `... (exit code N)` also elides."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            code = 0
            last = re.fullmatch(r"(\.\.\. )?\(exit code (\d+)\)",
                                shown[-1] if shown else "")
            if last:
                code = int(last[2])
                shown[-1:] = ["..."] if last[1] else []
            examples.append((command, shown, code))
    return examples


def is_subsequence(wanted, lines):
    it = iter(lines)
    return all(any(w == x for x in it) for w in wanted)


def test_readme_shell_examples_print_what_is_shown(tmp_path, monkeypatch):
    """Each example runs through cli.main in one scratch directory, in
    order.  `| head -N` keeps the first N lines, `> FILE` writes stdout
    to FILE, and a block that shows `...` must appear as an ordered
    subsequence of the output, compared without indentation."""
    monkeypatch.chdir(tmp_path)
    examples = shell_examples()
    assert len(examples) >= 9
    for command, shown, code in examples:
        argv = shlex.split(command)
        assert argv[0] == "ctrz", command
        head = target = None
        if "|" in argv:
            i = argv.index("|")
            assert argv[i + 1] == "head", command
            head = int(argv[i + 2].lstrip("-"))
            argv = argv[:i]
        if ">" in argv:
            i = argv.index(">")
            target = argv[i + 1]
            argv = argv[:i]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = main(argv[1:])
        assert got == code, command
        lines = out.getvalue().splitlines()
        if target:
            (tmp_path / target).write_text(out.getvalue(), encoding="utf-8")
            lines = []
        lines = lines[:head]
        if any(x.strip() == "..." for x in shown):
            wanted = [x.strip() for x in shown if x.strip() != "..."]
            assert is_subsequence(wanted, [x.strip() for x in lines]), command
        else:
            assert lines == shown, command
