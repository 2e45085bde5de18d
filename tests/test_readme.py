"""README's examples run, or at least parse, as written against the
installed package."""

import re
import shlex
from pathlib import Path

import gandr
from gandr import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(title: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(rf"```{language}\n(.*?)```", section, re.DOTALL)
    return block


def cli_commands() -> list[list[str]]:
    """Each ``gandr ...`` command of the CLI section, continuations joined
    and split as a shell would, without the program name."""
    joined = section_block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("gandr ")]


def test_library_use_example_runs():
    namespace = {}
    block = section_block("Library use", "python")
    exec(compile(block, str(README), "exec"), namespace)
    assert [r.status for r in namespace["records"]] == ["ok"]
    assert [h.rank for h in namespace["hybrid"]] == [0, 1]


def test_cli_examples_parse():
    commands = cli_commands()
    assert len(commands) == 9
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func.__name__ == \
            "cmd_" + argv[0].replace("-", "_")


def test_every_exported_name_resolves():
    assert [name for name in gandr.__all__ if not hasattr(gandr, name)] == []


def test_mode_lists_name_the_parser_modes():
    lists = re.findall(r"--mode ([a-z-]+(?:\|[a-z-]+)+)",
                       README.read_text(encoding="utf-8"))
    assert lists
    for listed in lists:
        assert listed.split("|") == [m.value for m in gandr.PipelineMode]
