"""Seeded random command lines through `cli.main`, in process.  Whatever
the input, the command ends in one of the documented exit codes (0-3) with
at most one line on stderr, raises nothing, and its --json output is JSON
that carries "format".  The inputs stay small (--fuel up to 1,000, --upto
up to 12) except for terms nested 6,000 levels deep."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from numlam.cli import main
from numlam.numerals import SYSTEM_NAMES
from numlam.parser import pretty
from numlam.terms import App, Lam, Var

DEPTH = 6_000
DEEP_BODY = r"\f.\x." + "f (" * (DEPTH - 1) + "f y" + ")" * (DEPTH - 1)
DEEP_TERMS = (
    DEEP_BODY.replace("f y", "f x"),
    "(" * DEPTH + "x" + ")" * DEPTH,
    "\\x." * DEPTH + "x",
    "(\\y." + DEEP_BODY + r") (\u.u)",
    "(\\y." + DEEP_BODY + ") y",
    "<" * DEPTH + "x, y" + ">" * DEPTH,
)
DIVERGENT = (r"(\x.x x)(\x.x x)", r"(\x.x x x)(\x.x x x)")
NAMES = ("x", "y", "f", "I", "T", "F", "S_church", "P_a", "Z_barendregt", "a", "b")

names = st.sampled_from(NAMES)
generated = st.recursive(
    names.map(Var),
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Lam, st.sampled_from(("x", "y", "f")), sub)),
    max_leaves=12,
).map(pretty)
# Generated terms, text from the alphabet of terms and definitions, and
# deep and divergent terms.
junk = st.text(alphabet="\\λ.()<>,=;#-' xyfITF_\n", max_size=20)
texts = st.one_of(generated, generated, junk, st.sampled_from(DEEP_TERMS + DIVERGENT))
systems = st.sampled_from((*SYSTEM_NAMES, "roman"))
fuels = st.integers(-1, 1_000).map(str)
uptos = st.integers(-1, 12).map(str)

DEFS = {
    "plain.lam": "a = \\u.u;\nb = a a;\n",
    "deep.lam": "a = \\u.u;\nb = " + DEEP_BODY.replace("f y", "f a") + ";\n",
    "bad.lam": "a = \\u.;\n",
    "twice.lam": "a = x;\na = y;\n",
    "bom.lam": "\ufeffa = \\u.u;\n",
}


@pytest.fixture(scope="module")
def defs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("defs")
    paths = [str(directory), str(directory / "missing.lam")]
    for name, text in DEFS.items():
        (directory / name).write_text(text, encoding="utf-8")
        paths.append(str(directory / name))
    (directory / "latin1.lam").write_bytes(b"a = \\u.\xe9;\n")
    return paths + [str(directory / "latin1.lam")]


def options(draw, defs, *, fuel=True, terms=True):
    out = []
    if draw(st.booleans()):
        out.append("--json")
    if fuel:
        out += ["--fuel", draw(fuels)]
    if terms and draw(st.booleans()):
        out.append("--prelude")
    if terms and draw(st.integers(0, 3)) == 0:
        out += ["--defs", draw(st.sampled_from(defs))]
    return out


def command(draw, defs):
    kind = draw(st.sampled_from(("eval", "numeral", "check", "head", "eq", "definable", "words")))
    if kind == "eval":
        return ["eval", draw(texts), *options(draw, defs)]
    if kind == "numeral":
        n = draw(st.one_of(st.integers(-2, 40), st.just(DEPTH)))
        system = "church" if n == DEPTH else draw(systems)
        return ["numeral", system, str(n), *options(draw, defs, fuel=False, terms=False)]
    if kind == "check":
        which = draw(st.sampled_from(("all", "succ", "pred", "zero", "half")))
        return ["check", draw(systems), which, "--upto", draw(uptos), *options(draw, defs, terms=False)]
    if kind == "head":
        trace = ["--trace"] if draw(st.booleans()) else []
        return ["head", draw(texts), *trace, *options(draw, defs)]
    if kind == "eq":
        return ["eq", draw(texts), draw(texts), *options(draw, defs)]
    if kind == "definable":
        fn = draw(st.sampled_from(("id", "succ", "step01", "k", "square")))
        # k checks a grid, upto squared points.
        upto = draw(st.integers(-1, 4 if fn == "k" else 12))
        return ["definable", draw(systems), draw(texts), "--fn", fn, "--upto", str(upto),
                *options(draw, defs)]
    words = ("eval", "check", "--json", "--fuel", "--upto", "-h", "--bogus", "x", "church", "3", "-1", "")
    return draw(st.lists(st.sampled_from(words), max_size=5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_command_line_ends_in_a_documented_exit(defs, data):
    argv = command(data.draw, defs)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), (argv, err)
    if "--json" in argv and out and not {"-h", "--help"} & set(argv):
        assert "format" in json.loads(out), argv
