"""numlam starts without the standard library's heavier modules: its
records are plain slotted classes and its annotations name collections.abc,
so importing the CLI loads neither dataclasses, which brings inspect, ast
and dis with it, nor typing.  The new interpreter runs without `site`,
which may import typing on its own."""

from test_cli import run_fresh

HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis")

LOADED = f"""
import sys, numlam.cli
print(*(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_the_cli_starts_without_dataclasses_inspect_typing_ast_or_dis():
    assert run_fresh(python=("-S", "-c", LOADED)) == (0, "\n", "")
