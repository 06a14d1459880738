import random

import pytest

from numlam import (
    App,
    DuplicateNameError,
    F,
    I,
    Lam,
    ParseError,
    Program,
    T,
    Var,
    alpha_eq,
    church,
    app,
    mk_pair,
    parse_program,
    parse_term,
    pretty,
)
from termgen import random_term


def test_parse_true_combinator():
    assert parse_term(r"\x.\y.x") == T


def test_parse_church_two():
    assert parse_term(r"\f.\x.f (f x)") == church(2)


def test_application_left_associative():
    assert parse_term("a b c") == App(App(Var("a"), Var("b")), Var("c"))


def test_multi_binder_sugar():
    assert parse_term(r"\x y.x") == T


def test_unicode_lambda_accepted():
    assert parse_term("λx.λy.y") == F


def test_body_extends_right():
    assert parse_term(r"\x.x y") == Lam("x", App(Var("x"), Var("y")))


def test_unknown_identifiers_are_free_variables():
    t = parse_term("Z v x")
    assert t == App(App(Var("Z"), Var("v")), Var("x"))


def test_primed_identifiers():
    assert parse_term("x' y''") == App(Var("x'"), Var("y''"))


def test_pair_literal():
    assert parse_term("<a, b>") == mk_pair(Var("a"), Var("b"))


def test_env_inlining():
    env = Program((("K", T),))
    assert parse_term("K a", env) == App(T, Var("a"))


def test_env_does_not_touch_bound_occurrences():
    env = Program((("K", T),))
    assert parse_term(r"\K.K", env) == Lam("K", Var("K"))


def test_parse_program_single():
    prog = parse_program(r"I = \x.x;")
    assert prog.definitions == (("I", I),)


def test_parse_program_inlines_earlier_names():
    prog = parse_program("T = \\x.\\y.x;\nP = \\x.(x T);")
    assert dict(prog.definitions)["P"] == Lam("x", App(Var("x"), T))


def test_parse_program_duplicate_name():
    with pytest.raises(DuplicateNameError):
        parse_program("a = \\x.x;\na = \\y.y;")


def test_parse_program_comments_and_blank_lines():
    text = "-- prelude\n\nI = \\x.x;  -- identity\r\nK = \\x.\\y.x;\n"
    prog = parse_program(text)
    assert prog.names() == ["I", "K"]


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_term(r"(\x")
    assert err.value.position == 3


@pytest.mark.parametrize("parse, text, where", [
    (parse_term, r"\x y", (4, "'.'", "end of input")),
    (parse_term, r"\.x", (1, "a binder name", ".")),
    (parse_term, r"(x y", (4, "')'", "end of input")),
    (parse_term, r"<x y>", (4, "','", ">")),
    (parse_term, r"<x,y", (4, "'>'", "end of input")),
    (parse_term, r"x)", (1, "end of input", ")")),
    (parse_term, r"a \x.x", (2, "end of input", "\\")),
    (parse_term, "", (0, "a term", "end of input")),
    (parse_term, "x - y", (2, "a term", "-")),
    (parse_program, "a = x", (5, "';'", "end of input")),
    (parse_program, "a x;", (2, "'='", "x")),
    (parse_program, "= x;", (0, "a definition name", "=")),
    (parse_program, "a = ;", (4, "a term", ";")),
])
def test_syntax_errors_say_where_and_what(parse, text, where):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.position, err.value.expected, err.value.found) == where


def test_lambda_not_allowed_as_bare_argument():
    with pytest.raises(ParseError):
        parse_term(r"a \x.x")


def test_pretty_true():
    assert pretty(T) == r"\x.\y.x"


def test_pretty_application_chain():
    assert pretty(App(App(Var("a"), Var("b")), Var("c"))) == "a b c"


def test_pretty_right_application_parenthesized():
    assert pretty(App(Var("a"), App(Var("b"), Var("c")))) == "a (b c)"


def test_pretty_lambda_positions():
    assert pretty(App(I, Var("x"))) == r"(\x.x) x"
    assert pretty(App(Var("x"), I)) == r"x (\x.x)"


def test_pretty_deterministic():
    t1 = parse_term(r"\x.x (y z)")
    t2 = parse_term(r"\x.x (y z)")
    assert pretty(t1) == pretty(t2)


def test_pretty_is_stack_safe():
    # Deeper than the recursion limit the tests run under.
    depth = 30_000
    assert pretty(church(depth)) == r"\f.\x." + "f (" * (depth - 1) + "f x" + ")" * (depth - 1)
    spine = app(Var("f"), *[I] * depth)
    assert pretty(spine) == "f" + r" (\x.x)" * depth
    nested = Var("y")
    for _ in range(depth):
        nested = Lam("x", App(Var("x"), nested))
    assert pretty(nested) == r"\x.x (" * (depth - 1) + r"\x.x y" + ")" * (depth - 1)


def test_parse_is_stack_safe():
    # Deeper than the recursion limit the tests run under.
    depth = 30_000
    assert parse_term("(" * depth + "x" + ")" * depth) == Var("x")
    t = parse_term("\\x." * depth + "x y")
    for _ in range(depth):
        assert isinstance(t, Lam) and t.binder == "x"
        t = t.body
    assert t == App(Var("x"), Var("y"))
    numeral = r"\f.\x." + "f (" * (depth - 1) + "f x" + ")" * (depth - 1)
    assert pretty(parse_term(numeral)) == numeral
    pairs = parse_term("<" * depth + "x" + ",y>" * depth)
    assert pretty(pairs).count("\\x") == depth
    with pytest.raises(ParseError) as err:
        parse_term("(" * depth + "x")
    assert (err.value.position, err.value.expected, err.value.found) == (
        depth + 1, "')'", "end of input")


def test_round_trip_random_terms():
    rng = random.Random(505)
    for _ in range(500):
        t = random_term(rng, rng.randint(1, 60))
        again = parse_term(pretty(t))
        assert again == t, pretty(t)
        assert alpha_eq(again, t)
