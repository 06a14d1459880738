"""The README's examples, run as written, so that a renamed function or a
name no longer exported from `numlam` cannot leave them stale."""

import re
import shlex
from pathlib import Path

from numlam.cli import main

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
