"""The README's examples, run as written, so that a renamed function or a
name no longer exported from `numlam` cannot leave them stale."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

from numlam.cli import _build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block under the heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments(capsys):
    code = fenced_block("## Library", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["pass", r"\x2.\x.x 2"]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_examples_print_their_comments(capsys):
    # The examples of commands that print one line carry that line as their
    # comment; the comments of the others describe the output in words.
    examples = []
    for line in fenced_block("## CLI", "sh").splitlines():
        command, _, comment = line.partition("  #")
        argv = shlex.split(command)
        if comment and argv[1] in ("numeral", "eq"):
            examples.append((argv[1:], comment.strip()))
    assert [argv[0] for argv, _ in examples] == ["numeral", "eq"]
    for argv, comment in examples:
        main(argv)
        assert capsys.readouterr().out.splitlines() == [comment]


def test_cli_synopsis_lists_each_commands_options():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = {}
    for entry in fenced_block("## CLI", "").split("numlam ")[1:]:
        command, *words = entry.split()
        synopsis[command] = set(re.findall(r"--[a-z]+", " ".join(words)))
    assert synopsis.keys() == commands.keys()
    for command, sub in commands.items():
        options = {s for action in sub._actions for s in action.option_strings}
        assert synopsis[command] == options - {"-h", "--help"}, command


def test_module_list_names_only_what_each_module_has():
    """The first sentence of each `numlam.X` bullet lists names of numlam.X,
    and every call `name(…)` in backticks anywhere in the bullet calls a
    name of numlam.X or a field of a class it defines."""
    section = README.split("\nModules:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = re.findall(r"^- `numlam\.(\w+)` — (.*?)(?=^- |\Z)", section, re.S | re.M)
    assert [module for module, _ in bullets] == [
        "terms", "parser", "reduction", "numerals", "harness", "report"]
    calls = 0
    for module, text in bullets:
        mod = importlib.import_module(f"numlam.{module}")
        text = " ".join(text.split())
        first = re.split(r"\.\s", text, maxsplit=1)[0]
        names = re.findall(r"`([^`]+)`", first)
        assert names, module
        for name in names:
            assert hasattr(mod, name), (module, name)
        fields = {
            name
            for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            for name in getattr(cls, "__slots__", ())
        }
        for name in re.findall(r"`(\w+)\(", text):
            assert hasattr(mod, name) or name in fields, (module, name)
            calls += 1
    assert calls >= 3
