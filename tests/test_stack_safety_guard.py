"""Every walk over a term keeps its pending work on a stack, so nothing
may prop a recursive one up again: no file under src/ or tests/ (this one
aside) raises the recursion limit, and src/ handles no RecursionError.
The tests then run at Python's default limit, as users do."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sources(directory):
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.resolve() != Path(__file__).resolve()
    }


def test_nothing_raises_the_recursion_limit_or_catches_recursion_errors():
    raising = [name for d in ("src", "tests") for name, text in sources(d).items()
               if "setrecursionlimit" in text]
    catching = [name for name, text in sources("src").items() if "RecursionError" in text]
    assert (raising, catching) == ([], [])
