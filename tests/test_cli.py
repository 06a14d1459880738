import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from numlam import alpha_eq, barendregt, church, parse_term
from numlam.cli import _exit_code, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, python=("-m", "numlam.cli")):
    """Run the CLI, or other `python` arguments, in a new interpreter,
    which starts at Python's default recursion limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *python, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def church_text(n):
    return r"\f.\x." + "f (" * (n - 1) + "f x" + ")" * (n - 1)


def test_eval_normal_form(capsys):
    code, out, _ = run(capsys, "eval", r"(\x.x) (\y.y)")
    assert code == 0
    assert out.splitlines()[0] == r"\y.y"
    assert "steps: 1 beta" in out


def test_eval_pair_sugar_with_prelude(capsys):
    code, out, _ = run(capsys, "eval", "--prelude", r"(\x.<F,x>) I")
    assert code == 0
    assert alpha_eq(parse_term(out.splitlines()[0]), barendregt(1))


def test_eval_out_of_fuel(capsys):
    code, out, _ = run(capsys, "eval", r"(\x.x x) (\x.x x)", "--fuel", "100")
    assert code == 2
    assert "out of fuel" in out



def test_eval_out_of_fuel_prints_the_partial_term_only_in_json(capsys, monkeypatch):
    import numlam.cli as cli

    printed = []
    monkeypatch.setattr(cli, "pretty", lambda t: printed.append(t) or "TERM")
    code, out, _ = run(capsys, "eval", r"(\x.x x) (\x.x x)", "--fuel", "100")
    assert code == 2 and out == "out of fuel after 100 steps\n" and not printed
    code, out, _ = run(capsys, "eval", r"(\x.x x) (\x.x x)", "--fuel", "100", "--json")
    assert code == 2 and len(printed) == 1
    assert list(json.loads(out).items())[1:] == [
        ("status", "out_of_fuel"), ("term", "TERM"), ("steps", 100)]

def test_eval_syntax_error(capsys):
    code, _, err = run(capsys, "eval", r"(\x")
    assert code == 1
    assert "syntax error" in err and "offset" in err


def test_numeral_command(capsys):
    code, out, _ = run(capsys, "numeral", "church", "2")
    assert code == 0 and out.strip() == r"\f.\x.f (f x)"
    code, out, _ = run(capsys, "numeral", "a", "2")
    assert code == 0 and out.strip() == r"\x1.\x2.\x.x"
    code, out, _ = run(capsys, "numeral", "tilde", "1")
    assert code == 0 and out.strip() == r"\x.x x"
    code, out, _ = run(capsys, "numeral", "church", "2", "--json")
    assert code == 0
    assert out == '{\n  "format": 1,\n  "system": "church",\n  "n": 2,\n  "term": "\\\\f.\\\\x.f (f x)"\n}\n'


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "barendregt", "all", "--upto", "10")
    assert code == 0
    assert out.count(": pass") == 3


def test_check_absent_combinator(capsys):
    code, out, _ = run(capsys, "check", "a", "zero")
    assert code == 3
    assert "absent" in out


def test_check_all_with_absent_is_inconclusive(capsys):
    code, out, _ = run(capsys, "check", "b", "all", "--upto", "10")
    assert code == 3
    assert "succ: pass" in out and "pred: absent" in out and "zero: pass" in out


def test_a_failed_report_outranks_an_inconclusive_one():
    # No built-in combinator fails its contract, so `check` cannot show this.
    assert _exit_code(["pass", "inconclusive", "fail"]) == 1
    assert _exit_code(["inconclusive", "pass"]) == 3
    assert _exit_code(["pass", "pass"]) == 0


def test_head_command(capsys):
    code, out, _ = run(capsys, "head", r"(\n.n (\x.x)) (\x1.\x2.\x.x)")
    assert code == 0
    lines = out.splitlines()
    assert alpha_eq(parse_term(lines[0]), parse_term(r"\x1.\x.x"))
    assert lines[1] == "h = 2"


def test_head_trace(capsys):
    code, out, _ = run(capsys, "head", "--trace", r"(\x.x) y")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == r"(\x.x) y" and lines[1] == "y" and lines[2] == "h = 1"


def test_head_out_of_fuel(capsys):
    code, out, _ = run(capsys, "head", r"(\x.x x) (\x.x x)", "--fuel", "10")
    assert code == 2


def test_head_trace_in_text_holds_one_state_at_a_time():
    r"""Each state of (\x.x x x)(\x.x x x) is one application longer than
    the one before, so 400 states held together take megabytes; printed
    as each is built, the trace stays under one."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["head", "--trace", "--fuel", "400", r"(\x.x x x)(\x.x x x)"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 2 and peak < 1_000_000, peak


def test_eq_verdicts(capsys):
    code, out, _ = run(capsys, "eq", r"(\n.\f.\x.f (n f x)) (\f.\x.f x)", r"\f.\x.f (f x)")
    assert code == 0 and out.strip() == "Equal"
    code, out, _ = run(capsys, "eq", r"\x.\y.x", r"\x.\y.y")
    assert code == 1 and out.strip() == "Distinct"
    code, out, _ = run(capsys, "eq", r"(\x.x x) (\x.x x)", r"\x.x", "--fuel", "50")
    assert code == 3 and out.startswith("Unknown")


def test_defs_file(capsys, tmp_path):
    path = tmp_path / "defs.lam"
    path.write_text("two = \\f.\\x.f (f x); -- church two\nquad = \\n.two (two n);\n")
    code, out, _ = run(capsys, "eval", "--defs", str(path), "quad")
    assert code == 0
    assert alpha_eq(parse_term(out.splitlines()[0]), church(4))


def test_defs_file_not_utf8_is_one_line(capsys, tmp_path):
    path = tmp_path / "bad.defs"
    path.write_bytes(b"\xff\xfe = \\x.x ;\n")
    code, out, err = run(capsys, "eval", "--defs", str(path), "x")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"{path}: not UTF-8 text")



def test_defs_file_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.lam"
    path.write_bytes("\ufefftwo = \\f.\\x.f (f x);\n".encode("utf-8"))
    code, out, err = run(capsys, "eval", "--defs", str(path), "two")
    assert (code, out, err) == (0, "\\f.\\x.f (f x)\nsteps: 0 beta, 0 eta\n", "")
    # Offsets and columns count from after the mark.
    path.write_bytes("\ufeffI = ;\n".encode("utf-8"))
    code, out, err = run(capsys, "eval", "--defs", str(path), "I")
    assert (code, out) == (1, "")
    assert err == f"{path}:1:5: syntax error: at offset 4: expected a term, found ';'\n"


def test_defs_syntax_error_names_the_file_line_and_column(capsys, tmp_path):
    path = tmp_path / "defs.lam"
    path.write_text("I = \\x.x\nK = \\x.\\y.x;\n")
    code, out, err = run(capsys, "eval", "--defs", str(path), "K (\\x")
    assert code == 1 and out == ""
    assert err == f"{path}:2:3: syntax error: at offset 11: expected ';', found '='\n"

def test_defs_duplicate_name(capsys, tmp_path):
    path = tmp_path / "defs.lam"
    path.write_text("a = \\x.x;\na = \\y.y;\n")
    code, _, err = run(capsys, "eval", "--defs", str(path), "a")
    assert code == 1 and "duplicate" in err


def test_defs_duplicate_name_names_the_file_line_and_column(capsys, tmp_path):
    path = tmp_path / "defs.lam"
    path.write_text("a = \\x.x;\n  -- again\n  a = \\y.y;\n")
    code, out, err = run(capsys, "eval", "--defs", str(path), "a")
    assert (code, out) == (1, "")
    assert err == f"{path}:3:3: definition error: duplicate definition of 'a'\n"
    # A name of the prelude, defined again.
    path.write_text("I = \\x.x;\n")
    code, out, err = run(capsys, "eval", "--prelude", "--defs", str(path), "I")
    assert (code, out) == (1, "")
    assert err == f"{path}:1:1: definition error: duplicate definition of 'I'\n"


def test_prelude_names_resolve(capsys):
    code, out, _ = run(capsys, "eq", "--prelude", "S_barendregt I", "<F, I>")
    assert code == 0 and out.strip() == "Equal"


def test_definable_command(capsys):
    code, out, _ = run(capsys, "definable", "church", "--prelude", "S_church",
                       "--fn", "succ", "--upto", "10")
    assert code == 0
    assert "succ on church: pass" in out


def test_definable_k_small_grid(capsys):
    code, out, _ = run(capsys, "definable", "church", "--prelude",
                       r"\n.\m.Z_church m (S_church n) "
                       r"((\a.\b.\f.\x.a f (b f x)) (m P_church n) (n P_church m))",
                       "--fn", "k", "--upto", "4")
    assert code == 0


def test_json_reports_are_stable(capsys):
    code1, out1, _ = run(capsys, "check", "barendregt", "zero", "--upto", "5", "--json")
    code2, out2, _ = run(capsys, "check", "barendregt", "zero", "--upto", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["format"] == 1
    assert payload["reports"][0]["overall"] == "pass"


def test_json_eval(capsys):
    code, out, _ = run(capsys, "eval", "--json", r"(\x.x) y")
    payload = json.loads(out)
    assert code == 0
    assert payload == {
        "format": 1,
        "status": "normal",
        "term": "y",
        "steps": 1,
        "eta_steps": 0,
    }


def test_unknown_system_exits_one(capsys):
    code, _, err = run(capsys, "numeral", "roman", "3")
    assert code == 1
    assert "unknown numeral system" in err


def test_numeral_rejects_negative_index(capsys):
    code, out, err = run(capsys, "numeral", "church", "-3")
    assert code == 1 and out == ""
    assert err == "numerals are indexed by naturals, got -3\n"


def test_numeral_deeper_than_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "numeral", "church", "30000")
    assert code == 0
    assert out == r"\f.\x." + "f (" * 29_999 + "f x" + ")" * 29_999 + "\n"


def test_eval_deep_numeral_at_the_default_recursion_limit():
    code, out, err = run_fresh("eval", church_text(600))
    assert code == 0, err
    assert out == church_text(600) + "\nsteps: 0 beta, 0 eta\n"


def deep_body(leaf):
    """The body of church_text(3_000), with leaf for its x."""
    return r"\f.\x." + "f (" * 2_999 + f"f {leaf}" + ")" * 2_999


def test_eval_deep_terms_at_the_default_recursion_limit():
    code, out, err = run_fresh("eval", church_text(3_000))
    assert code == 0, err
    assert out == church_text(3_000) + "\nsteps: 0 beta, 0 eta\n"
    # Every node knows its free variables, so contracting a redex whose
    # bound name is not free in its deep body walks nothing.
    code, out, err = run_fresh("eval", "(\\y." + church_text(3_000) + r") (\u.u)")
    assert code == 0, err
    assert out == church_text(3_000) + "\nsteps: 1 beta, 0 eta\n"
    # Substituting into a body that deep walks it on a stack.
    code, out, err = run_fresh("eval", "(\\y." + deep_body("y") + r") (\u.u)")
    assert (code, err) == (0, "")
    assert out == deep_body(r"(\u.u)") + "\nsteps: 1 beta, 0 eta\n"


def test_eval_inlines_a_definition_into_a_deep_body(tmp_path):
    defs = tmp_path / "deep.lam"
    defs.write_text("a = \\u.u;\nb = " + deep_body("a") + ";\n", encoding="utf-8")
    code, out, err = run_fresh("eval", "--defs", str(defs), "b")
    assert (code, err) == (0, "")
    assert out == deep_body(r"(\u.u)") + "\nsteps: 0 beta, 0 eta\n"


def test_check_church_up_to_a_thousand():
    code, out, err = run_fresh("check", "church", "succ", "--upto", "1000")
    assert (code, out, err) == (0, "succ: pass (1000 passed, 0 failed, 0 unknown)\n", "")
    code, out, err = run_fresh("check", "church", "zero", "--upto", "999")
    assert (code, out, err) == (0, "zero: pass (999 passed, 0 failed, 0 unknown)\n", "")


# Each module is imported first in a new interpreter, under an empty
# numlam package, so that its own imports run before any other module's and
# an import cycle between two modules shows up whichever is imported first.
IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType("numlam")
package.__path__ = [sys.argv[1]]
sys.modules["numlam"] = package
importlib.import_module("numlam." + sys.argv[2])
"""
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numlam"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_on_its_own(module):
    assert run_fresh(str(PACKAGE), module, python=("-c", IMPORT_ALONE)) == (0, "", "")


def test_the_package_imports_in_a_new_interpreter():
    assert run_fresh(python=("-c", "import numlam")) == (0, "", "")


# Pickle and deepcopy take a term apart into a flat list and rebuild it,
# and ==, hash and repr walk a term on a stack.
DEEP_CLONES = """
import copy, pickle, sys
from numlam import App, alpha_eq, beta_eta_normalize, church, pretty
from numlam.terms import _BETA_ETA_NORMAL
d = church(3000)
assert beta_eta_normalize(d).term is d and d._fv is _BETA_ETA_NORMAL
shared = App(d, d)
text = "App(fn=" + repr(church(3000)) + ", arg=" + repr(church(3000)) + ")"
assert repr(shared) == text and repr(d).count("App(fn=Var(name='f'), arg=") == 3000
for clone in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
    assert clone.fn is clone.arg is not d and clone.fn._fv is _BETA_ETA_NORMAL
    assert alpha_eq(clone, shared) and pretty(clone) == pretty(shared)
    assert clone == shared and hash(clone) == hash(shared) and repr(clone) == text
    assert clone.fn == church(3000) != church(2999)
    assert hash(clone.fn) == hash(church(3000))
print(sys.getrecursionlimit())
"""


def test_pickle_and_deepcopy_of_a_deep_term_at_the_default_recursion_limit():
    code, out, err = run_fresh(python=("-c", DEEP_CLONES))
    assert (code, out, err) == (0, "1000\n", "")


# Long left spines: a contraction pushes the arguments of its contractum's
# left spine onto the machine's spine, and the substitution walks loop down
# a left spine below it, without recursion.
TILDE_DEEP_CASES = """
from numlam import F, app, builtin_system
from numlam.report import eq_case
tilde = builtin_system("tilde")
d = tilde.numeral
for label, lhs, rhs in (
    ("P", app(tilde.predecessor, d(1501)), d(1500)),
    ("S", app(tilde.successor, d(1500)), d(1501)),
    ("Z", app(tilde.zero_test, d(1500)), F),
):
    case = eq_case(label, lhs, rhs)
    print(label, case.verdict, case.steps)
"""


def test_long_left_spines_at_the_default_recursion_limit():
    code, out, err = run_fresh("eval", "(\\y." + " ".join(["y"] * 3_000) + r") (\u.u)")
    assert (code, out, err) == (0, "\\u.u\nsteps: 3000 beta, 0 eta\n", "")
    code, out, err = run_fresh("eval", "(\\y.\\z.z " + " ".join(["y"] * 3_000) + r") (\u.u)")
    assert (code, err) == (0, "")
    assert out == "\\z.z" + r" (\u.u)" * 3_000 + "\nsteps: 1 beta, 0 eta\n"
    code, out, err = run_fresh(python=("-c", TILDE_DEEP_CASES))
    assert code == 0, err
    assert out.splitlines() == ["P equal 7511", "S equal 2", "Z equal 3006"]


def test_check_with_no_cases_is_inconclusive(capsys):
    code, out, _ = run(capsys, "check", "church", "all", "--upto", "0")
    assert code == 3
    for comb in ("succ", "pred", "zero"):
        assert f"{comb}: inconclusive (0 passed" in out


def test_definable_with_no_cases_is_inconclusive(capsys):
    code, out, _ = run(capsys, "definable", "church", "--prelude", "S_church",
                       "--fn", "succ", "--upto", "0")
    assert code == 3
    assert out.startswith("succ on church: inconclusive (0 passed")


@pytest.mark.parametrize("argv, message", [
    ((), "numlam: error: the following arguments are required: command"),
    (("bogus",), "numlam: error: argument command: invalid choice: 'bogus'"),
    (("eval",), "numlam eval: error: the following arguments are required: term"),
    (("eval", "x", "--fuel", "abc"), "numlam eval: error: argument --fuel: invalid int value: 'abc'"),
    (("numeral", "church", "2", "--fuel", "5"), "numlam: error: unrecognized arguments: --fuel 5"),
])
def test_usage_error_returns_one_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")


def test_help_still_exits_zero(capsys):
    code, out, _ = run(capsys, "eval", "--help")
    assert code == 0 and out.startswith("usage: numlam eval")


@pytest.mark.parametrize("argv", [
    ("check", "church", "all", "--upto", "-1"),
    ("definable", "church", "--prelude", "S_church", "--fn", "succ", "--upto", "-1"),
])
def test_negative_upto_is_bad_input(capsys, argv):
    assert run(capsys, *argv) == (1, "", "upto must be at least 0\n")


# The default --json bytes of these commands are pinned: a change to the
# engine must leave every verdict, step count and printed witness as it is,
# and a change to the front end every key and its place.  The definable run
# has distinct cases whose witnesses print renamed binders.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden, exit_code", [
    (("check", "barendregt", "all", "--upto", "10"), "check_barendregt_upto10.json", 0),
    (("check", "c", "all", "--upto", "10"), "check_c_upto10.json", 3),
    (("definable", "church", "--prelude", "S_church S_church", "--fn", "succ", "--upto", "4"),
     "definable_church_succ_twice.json", 1),
    (("head", r"(\n.n (\x.x)) (\x1.\x2.\x.x)"), "head_hnf.json", 0),
    (("head", r"(\x.x x) (\x.x x)", "--fuel", "10"), "head_out_of_fuel.json", 2),
    (("head", "--trace", r"(\x.\y.x y) (\z.z) w"), "head_trace.json", 0),
    (("eq", r"(\n.\f.\x.f (n f x)) (\f.\x.f x)", r"\f.\x.f (f x)"), "eq_equal.json", 0),
    (("eq", r"\x.\y.x", r"\x.\y.y"), "eq_distinct.json", 1),
    (("eq", r"(\x.x x) (\x.x x)", r"\x.x", "--fuel", "50"), "eq_unknown.json", 3),
    (("eval", r"(\x.x x) (\x.x x)", "--fuel", "100"), "eval_out_of_fuel.json", 2),
])
def test_json_output_is_pinned(capsys, argv, golden, exit_code):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == exit_code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# The help text shows each default; argparse wraps it to COLUMNS.
@pytest.mark.parametrize("command", ["eval", "check", "definable"])
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out == (GOLDEN / f"{command}_help.txt").read_text(encoding="utf-8")
