"""README's library example runs as written against the installed package."""

import re
from pathlib import Path

import gandr

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return block


def test_library_use_example_runs():
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert [r.status for r in namespace["records"]] == ["ok"]
    assert [h.rank for h in namespace["hybrid"]] == [0, 1]


def test_every_exported_name_resolves():
    assert [name for name in gandr.__all__ if not hasattr(gandr, name)] == []
