"""The README's library example runs, and every exported name exists."""

import re
from pathlib import Path

import wordstats

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


def test_every_export_resolves():
    assert [name for name in wordstats.__all__ if not hasattr(wordstats, name)] == []
