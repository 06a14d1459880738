"""A record is a value: its __init__ stores each field once with
`terms._set`, and nothing stores into it later, so no record keeps a cache
or changes after it is built.  No call of `_set` in src/numlam may stand
outside an `__init__`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numlam"


def calls_outside_init(tree):
    """The line of each call of `_set` that no `__init__` encloses."""
    lines = []
    pending = [(tree, False)]
    while pending:
        node, in_init = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_init = getattr(node, "name", None) == "__init__"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_set" and not in_init):
            lines.append(node.lineno)
        pending.extend((child, in_init) for child in ast.iter_child_nodes(node))
    return sorted(lines)


def test_only_an_init_calls_set():
    outside = {
        path.name: calls_outside_init(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert outside and not any(outside.values()), outside


def test_the_scan_finds_a_late_store():
    source = "class R:\n    def __init__(self):\n        _set(self, 'a', 1)\n" \
             "    def cache(self):\n        _set(self, 'b', 2)\n"
    assert calls_outside_init(ast.parse(source)) == [5]
