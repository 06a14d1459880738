import ast
import functools
from pathlib import Path

import pytest

import oracle
from numlam import (
    App,
    CHURCH_SEQUENCE,
    F,
    Fuel,
    I,
    Lam,
    NumeralSystem,
    SequenceSpec,
    T,
    UnknownSystemError,
    Var,
    alpha_eq,
    app,
    a_numeral,
    b_numeral,
    barendregt,
    beta_eta_eq,
    bprime_numeral,
    builtin_system,
    c_numeral,
    check_predecessor,
    check_successor,
    check_zero_test,
    church,
    is_beta_eta_normal,
    is_closed,
    is_generator,
    lam,
    mk_pair,
    parse_term,
    tilde_numeral,
)
from numlam.harness import _numerals
from numlam.report import CheckReport, eq_case

ALL_SYSTEMS = ["church", "barendregt", "a", "b", "bprime", "tilde", "c"]


def test_church_shapes():
    assert church(0) == parse_term(r"\f.\x.x")
    assert church(1) == parse_term(r"\f.\x.f x")
    assert church(3) == parse_term(r"\f.\x.f (f (f x))")


def test_barendregt_shapes():
    assert barendregt(0) == I
    assert barendregt(1) == mk_pair(F, I)
    assert barendregt(2) == mk_pair(F, mk_pair(F, I))


def test_a_shapes():
    assert a_numeral(0) == I
    assert a_numeral(1) == Lam("x1", I)
    assert a_numeral(3) == lam("x1", "x2", "x3", I)


def test_b_shapes():
    assert b_numeral(0) == mk_pair(T, I)
    assert b_numeral(1) == mk_pair(F, I)
    assert b_numeral(2) == mk_pair(F, Lam("x1", I))


def test_bprime_swaps_first_two():
    assert bprime_numeral(0) == b_numeral(1)
    assert bprime_numeral(1) == b_numeral(0)
    assert bprime_numeral(5) == b_numeral(5)


def test_tilde_shapes():
    assert tilde_numeral(0) == I
    assert tilde_numeral(1) == parse_term(r"\x.x x")
    assert tilde_numeral(2) == parse_term(r"\x.x x x")


def test_c_shapes():
    e = SequenceSpec("vars", lambda n: church(n))
    assert c_numeral(0, e) == I
    assert c_numeral(1, e) == mk_pair(I, church(1))
    assert c_numeral(2, e) == mk_pair(mk_pair(I, church(1)), church(2))


def test_builtin_system_combinator_slots():
    assert builtin_system("a").zero_test is None
    assert builtin_system("b").predecessor is None
    assert builtin_system("c").successor is None
    bp = builtin_system("bprime")
    assert bp.successor is None and bp.predecessor is None and bp.zero_test is None


def test_builtin_system_unknown_name():
    with pytest.raises(UnknownSystemError):
        builtin_system("roman")


def test_sequence_only_valid_for_c():
    with pytest.raises(ValueError):
        builtin_system("church", CHURCH_SEQUENCE)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_numerals_reject_negative_index(name):
    with pytest.raises(ValueError, match="naturals"):
        builtin_system(name).numeral(-3)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_numerals_closed_and_distinct(name):
    sys_ = builtin_system(name)
    seen = set()
    for n in range(51):
        t = sys_.numeral(n)
        assert is_closed(t)
        key = oracle.to_indexed(t)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_numerals_normality(name):
    # Every numeral is beta-normal.  Full beta-eta-normality fails exactly
    # where a Church ⌜1⌝ appears: church(1) itself, and every default-c
    # numeral from index 1 up (they contain ⌜1⌝ as a subterm).
    sys_ = builtin_system(name)
    for n in range(51):
        t = sys_.numeral(n)
        normal = is_beta_eta_normal(t)
        if name == "church":
            assert normal == (n != 1)
        elif name == "c":
            assert normal == (n == 0)
        else:
            assert normal


@pytest.mark.parametrize(
    "name,upto",
    [("church", 12), ("barendregt", 12), ("a", 12), ("b", 12), ("tilde", 12), ("c", 8)],
)
def test_combinator_contracts_small(name, upto):
    sys_ = builtin_system(name)
    if sys_.successor is not None:
        assert check_successor(sys_, sys_.successor, upto).overall == "pass"
    if sys_.predecessor is not None:
        assert check_predecessor(sys_, sys_.predecessor, upto).overall == "pass"
    if sys_.zero_test is not None:
        assert check_zero_test(sys_, sys_.zero_test, upto).overall == "pass"


def test_bprime_breaks_b_successor_at_zero():
    s = builtin_system("b").successor
    assert beta_eta_eq(App(s, bprime_numeral(0)), bprime_numeral(1)).is_distinct
    assert beta_eta_eq(App(s, bprime_numeral(0)), bprime_numeral(2)).is_equal


def test_c_combinators_independent_of_sequence():
    alt = SequenceSpec("barendregt", barendregt)
    for seq in (None, alt):
        sys_ = builtin_system("c", seq)
        assert check_predecessor(sys_, sys_.predecessor, 10).overall == "pass"
        assert check_zero_test(sys_, sys_.zero_test, 10).overall == "pass"


def _church_generator():
    # Distinguishes I from pairs, then extends: on the seed it returns ⌜1⌝,
    # on a tuple it successes the last element.
    discriminate = Lam("p", app(Var("p"), lam("x", "y", I), T, F, T))
    succ = builtin_system("church").successor
    return Lam(
        "p",
        app(App(discriminate, Var("p")), church(1), app(succ, App(Var("p"), F))),
    )


def test_is_generator_accepts_crafted_generator():
    report = is_generator(_church_generator(), CHURCH_SEQUENCE, 6)
    assert report.overall == "pass"
    assert len(report.cases) == 6


@pytest.mark.parametrize("upto", [6, 30])
def test_is_generator_reports_as_with_tuples_built_afresh(upto):
    """is_generator steps each tuple and element from the one before; its
    report must be the one it gave when it built the elements afresh and
    each tuple as a left fold of mk_pair from I."""
    a = _church_generator()
    elements = [church(i) for i in range(1, upto + 1)]
    cases = [eq_case("base", App(a, I), elements[0])]
    for n in range(1, upto):
        cases.append(eq_case(f"n={n}", App(a, functools.reduce(mk_pair, elements[:n], I)), elements[n]))
    expected = CheckReport("generator for church", tuple(cases)).to_dict()
    assert expected["overall"] == "pass"
    assert is_generator(a, CHURCH_SEQUENCE, upto).to_dict() == expected


def test_is_generator_rejects_identity():
    # needs a sequence whose first element differs from I: church(1)
    # eta-normalizes to λf.f, so the barendregt sequence is used instead
    seq = SequenceSpec("barendregt", barendregt)
    report = is_generator(I, seq, 3)
    assert report.overall == "fail"
    assert not report.cases[0].ok


def test_is_generator_with_tiny_fuel_is_inconclusive():
    report = is_generator(_church_generator(), CHURCH_SEQUENCE, 3, Fuel(1))
    assert report.overall == "inconclusive"
    assert report.unknown > 0


def test_numerals_module_imports_only_terms():
    """numerals is data: of the package it imports only `.terms`, so that
    terms, numerals and the harness form one chain."""
    path = Path(__file__).resolve().parent.parent / "src" / "numlam" / "numerals.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "numlam" if node.level else ""
            modules = [node.module] if node.module else [a.name for a in node.names]
            imported.update(".".join(filter(None, (base, m))) for m in modules)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert {m for m in imported if m.split(".")[0] == "numlam"} == {"numlam.terms"}


def test_numeral_system_is_plain_data():
    sys_ = builtin_system("barendregt")
    assert isinstance(sys_, NumeralSystem)
    assert sys_.name == "barendregt"
    assert alpha_eq(sys_.numeral(1), mk_pair(F, I))


STEPPED_SYSTEMS = {
    "barendregt": builtin_system("barendregt"),
    "c[church]": builtin_system("c"),
    "c[barendregt]": builtin_system("c", SequenceSpec("barendregt", barendregt)),
}


@pytest.mark.parametrize("name", sorted(STEPPED_SYSTEMS))
def test_stepped_numerals_equal_random_access(name):
    """The checks build the numerals of these systems in order, each by the
    system's step around the very numeral before it, and c grows each
    element e_{n+1} from e_n, the second component of d_n: ⟨F, e_n⟩ holds
    e_n itself, and a Church element holds the body of the one before.
    Each numeral must be == to `numeral(n)`, at every n < 200."""
    system = STEPPED_SYSTEMS[name]
    stepped = list(_numerals(system, 200))
    for n in range(1, 200):
        body = stepped[n].body
        assert stepped[n - 1] is (body.arg if name == "barendregt" else body.fn.arg)
        if name != "barendregt" and n > 1:
            element, before = body.arg, stepped[n - 1].body.arg
            if name == "c[barendregt]":
                assert element.body.arg is before
            else:
                assert element.body.body.arg is before.body.body
    for n in range(200):
        assert stepped[n] == system.numeral(n)


def test_a_sequence_with_no_step_builds_each_element():
    """An element function with no step of its own is called for each
    index, and gives the same numerals."""
    calls = []

    def element(n):
        calls.append(n)
        return church(n)

    system = builtin_system("c", SequenceSpec("church", element))
    numerals = list(_numerals(system, 6))
    assert calls == [1, 2, 3, 4, 5]
    assert numerals == [c_numeral(n, CHURCH_SEQUENCE) for n in range(6)]
