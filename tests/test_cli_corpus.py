"""A byte corpus of the command line: for each command line below, the
sha256 of its exit code, stdout and stderr, captured through `cli.main` in
this process, is pinned in tests/golden/cli_corpus.json.  A change meant to
leave every output as it is must keep every digest; the test names each
command line whose output changed.

After a change that is meant to alter output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_corpus.py

and read the diff of the JSON file: every changed digest should be one the
change explains."""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from numlam.cli import main
from numlam.harness import church_k_term
from numlam.numerals import SYSTEM_NAMES
from numlam.parser import pretty

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

OMEGA = r"(\x.x x) (\x.x x)"
OMEGA3 = r"(\x.x x x) (\x.x x x)"

# Prelude terms, normal, divergent and malformed, for eval and head.
TERMS = (
    "I",
    "T I F",
    r"S_church (\f.\x.f x)",
    "P_barendregt <F, <F, I>>",
    "Z_tilde (S_tilde I)",
    r"(\n.n (\x.x)) (\x1.\x2.\x.x)",
    r"\x.f x",
    OMEGA,
    OMEGA3,
    r"(\x",
    r"\x.",
    "x)",
)

# Pairs for eq: equal, equal by eta, distinct, unknown on either side, and
# malformed.
PAIRS = (
    (r"S_church (\f.\x.x)", r"\f.\x.f x"),
    (r"\x.f x", "f"),
    ("I", "T"),
    ("Z_church I", "F"),
    (OMEGA, "I"),
    ("I", OMEGA3),
    (r"(\x", "I"),
)

# The documented error exits, each with a one-line message.
ERRORS = (
    ["eval", "--fuel", "0", "I"],
    ["check", "church", "all", "--upto", "-1"],
    ["check", "nosuch", "all"],
    ["numeral", "church", "-1"],
    ["numeral", "nosuch", "1"],
    ["definable", "church", "I", "--fn", "id", "--upto", "-2"],
    ["eval", "--defs", "no-such-directory/missing.defs", "I"],
    ["eval"],
    ["eq", "I"],
    [],
)


def command_lines() -> list[list[str]]:
    lines = [["numeral", name, str(n)] for name in SYSTEM_NAMES for n in (0, 1, 2, 5)]
    lines += [["check", name, "all", "--upto", "8"] for name in SYSTEM_NAMES]
    for term in TERMS:
        lines += [
            ["eval", "--prelude", "--fuel", "50", term],
            ["head", "--prelude", "--fuel", "20", term],
            ["head", "--prelude", "--trace", "--fuel", "20", term],
        ]
    lines += [["eq", "--prelude", "--fuel", "50", left, right] for left, right in PAIRS]
    k_text = pretty(church_k_term())
    for name in ("church", "barendregt", "tilde"):
        for fn, term in (("id", "I"), ("succ", f"S_{name}"), ("k", k_text)):
            lines.append(["definable", name, "--prelude", "--fuel", "2000", term,
                          "--fn", fn, "--upto", "4"])
    lines = [*lines, *(line + ["--json"] for line in lines)]
    return lines + list(ERRORS)


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    return {shlex.join(argv): digest(argv) for argv in command_lines()}


def test_every_command_line_prints_its_pinned_bytes():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = digests()
    changed = sorted(line for line in pinned.keys() | now.keys() if pinned.get(line) != now.get(line))
    assert not changed, "output changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
