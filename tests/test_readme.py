"""README's examples run, or at least parse, as written against the
installed package."""

import ast
import importlib
import json
import re
import shlex
import sys
from pathlib import Path

import gandr
from gandr import cli, errors
from gandr.cli import main

from conftest import TRACE_EXEMPLARS

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


def test_every_exported_name_has_a_user():
    """Each name in ``gandr.__all__`` is used by a module of the package,
    beyond its own ``def`` or ``class`` line, or is named in the README:
    a public name that only tests call is dead code."""
    package = Path(gandr.__file__).parent
    code = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(package.glob("*.py"))
                     if path.name != "__init__.py")
    readme = README.read_text(encoding="utf-8")
    unused = []
    for name in gandr.__all__:
        word = re.compile(rf"\b{name}\b")
        uses = re.sub(rf"(?m)^\s*(?:def|class) {name}\b", "", code)
        if not (word.search(uses) or word.search(readme)):
            unused.append(name)
    assert unused == []


def test_every_error_class_is_told_apart():
    """Each exception class in ``gandr.errors`` is caught by type in the
    package, by an ``except`` clause or an ``isinstance``, or is named in
    the README: a class that only tests tell apart is dead code."""
    package = Path(gandr.__file__).parent
    code = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(package.glob("*.py")))
    caught = set()
    for types in re.findall(r"\bexcept\s+(\([^)]*\)|[\w.]+)"
                            r"|\bisinstance\([^,]+,\s*(\([^)]*\)|[\w.]+)\)",
                            code):
        caught.update(re.findall(r"\w+", " ".join(types)))
    readme = README.read_text(encoding="utf-8")
    classes = [name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == errors.__name__]
    assert classes
    untold = [name for name in classes if name not in caught
              and not re.search(rf"`{name}`", readme)]
    assert untold == []


def test_runtime_dependencies_are_numpy_alone():
    """Every module the package imports, at its top or inside a function,
    is of the standard library or is numpy, and ``pyproject.toml`` and the
    README name that same set, so a dependency cannot creep back
    unnoticed."""
    package = Path(gandr.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gandr"}
    assert third_party == {"numpy"}
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    [listed] = re.findall(r"(?ms)^dependencies = \[(.*?)\]", pyproject)
    assert {re.split(r"[<>=!~;\[ ]", requirement)[0]
            for requirement in re.findall(r'"([^"]+)"', listed)} \
        == third_party
    [sentence] = re.findall(r"Runtime dependencies: ([^.]*)\.",
                            README.read_text(encoding="utf-8"))
    assert set(re.split(r",\s*|\s+and\s+", sentence)) == third_party


def test_every_dotted_name_resolves():
    """Each backticked ``gandr.<module>.<name>`` in the README exists, so a
    rename that leaves the README stale fails here."""
    names = re.findall(r"`gandr\.(\w+)\.(\w+)`",
                       README.read_text(encoding="utf-8"))
    assert names
    missing = [f"gandr.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"gandr.{module}"),
                              name)]
    assert missing == []


def test_mode_lists_name_the_parser_modes():
    lists = re.findall(r"--mode ([a-z-]+(?:\|[a-z-]+)+)",
                       README.read_text(encoding="utf-8"))
    assert lists
    for listed in lists:
        assert listed.split("|") == [m.value for m in gandr.PipelineMode]


def config_keys() -> list[str]:
    """The config file keys README lists, in its order."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    [listed] = re.findall(r"Config file keys match the long flag names "
                          r"\(([^)]*)\)", text)
    return re.findall(r"`(\w+)`", listed)


def test_config_keys_and_environment_match_the_settings_table():
    """README lists the keys of ``cli.SETTINGS``, in its order, and names
    its environment variables, no more."""
    assert config_keys() == list(cli.SETTINGS)
    named = re.findall(r"`(GANDR_\w+)`", README.read_text(encoding="utf-8"))
    assert sorted(named) == sorted(s.env for s in cli.SETTINGS.values()
                                   if s.env)


def test_every_listed_config_key_rejects_a_list(tmp_path, capsys,
                                                 monkeypatch):
    """A JSON list is no flag's type, so each listed key given one makes
    ``run`` or, for the keys ``run`` does not read, ``emit-train`` exit 2
    naming that key."""
    for setting in cli.SETTINGS.values():
        if setting.env:
            monkeypatch.delenv(setting.env, raising=False)
    data = tmp_path / "data.tsv"
    data.write_text("".join(f"{e.utterance}\t{e.parse}\n"
                            for e in TRACE_EXEMPLARS), encoding="utf-8")
    store = tmp_path / "s.store"
    assert main(["index", "--data", str(data), "--out", str(store)]) == 0
    commands = [
        ["run", "--store", str(store), "--data", str(data),
         "--out", str(tmp_path / "r.jsonl")],
        ["emit-train", "--store", str(store), "--stage", "1",
         "--out", str(tmp_path / "t.jsonl")],
    ]
    keys = config_keys()
    assert len(keys) == 9
    config = tmp_path / "config.json"
    for key in keys:
        config.write_text(json.dumps({"final_endpoint": "static:x",
                                      key: ["a"]}))
        capsys.readouterr()
        for command in commands:
            if main(["--config", str(config)] + command) == 2:
                break
        else:
            raise AssertionError(f"no command rejected {key}: ['a']")
        assert f"error: bad value for {key}: ['a']" in capsys.readouterr().err
