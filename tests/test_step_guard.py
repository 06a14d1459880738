"""A numeral system's step is private to `numerals`: `NumeralSystem.first`
builds the numerals in order with it, and every other module asks `first`
for them, so no module outside `numerals` can build a numeral that is not
== to `numeral(n)`."""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numlam"


def test_only_numerals_names_the_step():
    naming = [
        path.name
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "numerals.py" and re.search(r"\b_step\b", path.read_text(encoding="utf-8"))
    ]
    assert not naming, naming
