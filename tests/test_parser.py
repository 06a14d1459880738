import copy
import pickle
import random
import sys

import pytest

import oracle
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
    free_vars,
    mk_pair,
    parse_program,
    parse_term,
    pretty,
    substitute,
)
from termgen import FREE_POOL, assert_caches_sound, random_term, rename_bound


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



def test_inlining_substitutes_only_the_names_a_body_uses(monkeypatch):
    """Each body goes to substitute with the earlier definitions it uses
    and no others, so a long file costs each body what it uses."""
    parser_module = sys.modules["numlam.parser"]
    calls = []

    def recording(t, s):
        calls.append((t, dict(s)))
        return substitute(t, s)

    monkeypatch.setattr(parser_module, "substitute", recording)
    text = "".join(f"e{i} = \\x.x;\n" for i in range(300))
    text += "two = \\f.\\x.f (f x);\nfour = two two;\nmix = \\y.e3 (four e7) y K;\n"
    base = Program((("K", T),))
    prog = parse_program(text, base)
    assert prog == oracle.parse_program(text, base)
    assert calls
    for t, s in calls:
        assert s and set(s) <= free_vars(t)
    assert sorted(sorted(s) for _, s in calls) == [["K", "e3", "e7", "four"], ["two"]]
    calls.clear()
    env = Program(tuple((f"e{i}", I) for i in range(100)) + (("K", T),))
    assert parse_term("K a", env) == App(T, Var("a"))
    assert [s for _, s in calls] == [{"K": T}]

def test_parse_program_duplicate_name():
    with pytest.raises(DuplicateNameError) as caught:
        parse_program("a = \\x.x;\na = \\y.y;")
    assert (caught.value.name, caught.value.position) == ("a", 10)
    # A name of the base program, after a comment.
    with pytest.raises(DuplicateNameError) as caught:
        parse_program("-- again\n  I = x;", Program((("I", I),)))
    assert (caught.value.name, caught.value.position) == ("I", 11)


def test_parse_program_comments_and_blank_lines():
    text = "-- prelude\n\nI = \\x.x;  -- identity\r\nK = \\x.\\y.x;\n"
    prog = parse_program(text)
    assert [name for name, _ in prog.definitions] == ["I", "K"]


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


def test_parse_reuses_one_var_per_name_and_it_does_not_show():
    text = r"\x y.x (y x) <x, z> z"
    parsed = parse_term(text)
    built = Lam("x", Lam("y", App(
        App(App(Var("x"), App(Var("y"), Var("x"))), mk_pair(Var("x"), Var("z"))),
        Var("z"))))
    leaves = parsed.body.body.fn.fn.fn, parsed.body.body.fn.fn.arg.arg
    assert leaves[0] is leaves[1]
    assert_same_term(parsed, built)


def assert_same_term(parsed, built):
    """A parsed term, whose leaves are shared, and the same term built node
    by node behave alike."""
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    assert copy.deepcopy(parsed) == built
    assert pickle.loads(pickle.dumps(parsed)) == built
    assert pretty(parsed) == pretty(built)
    s = {name: Var("x") for name in FREE_POOL + ("z",)}
    assert substitute(parsed, s) == substitute(built, s)
    assert alpha_eq(parsed, built)


def test_shared_leaves_are_invisible_on_random_terms():
    rng = random.Random(1010)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 60))
        parsed = parse_term(pretty(t))
        assert_same_term(parsed, t)
        other = rename_bound(t, rng) if rng.random() < 0.5 else random_term(rng, 20)
        assert alpha_eq(parsed, other) == alpha_eq(t, other)
        assert alpha_eq(other, parsed) == alpha_eq(other, t)


# ---------------------------------------------------------------------------
# The parser and printer against the ones kept in tests/oracle.py: the same
# terms, the same printed bytes and the same errors, with the same position,
# expectation and found piece.

SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", " -- comment: \\ ( # - 1 ' λ <\n", "--\n")


def _text_tokens(rng, t, out):
    """Append the tokens of a text for t, or for a term near it where an
    application is written as a pair.  Binders are grouped at random,
    λ stands for \\ at random and some atoms get parentheses they do not
    need."""
    if type(t) is Var:
        out.append(t.name)
    elif type(t) is Lam:
        out += (rng.choice("\\λ"), t.binder)
        t = t.body
        while type(t) is Lam and rng.random() < 0.5:
            out.append(t.binder)
            t = t.body
        out.append(".")
        _text_tokens(rng, t, out)
    elif rng.random() < 0.1:
        out.append("<")
        _text_tokens(rng, t.fn, out)
        out.append(",")
        _text_tokens(rng, t.arg, out)
        out.append(">")
    else:
        for part, needed in ((t.fn, type(t.fn) is Lam), (t.arg, type(t.arg) is not Var)):
            if needed or rng.random() < 0.1:
                out.append("(")
                _text_tokens(rng, part, out)
                out.append(")")
            else:
                _text_tokens(rng, part, out)


def _join(rng, tokens):
    text = ""
    after_name = False
    for tok in tokens:
        name = tok[0].isalpha() or tok[0] == "_"
        if (name and after_name) or rng.random() < 0.3:
            text += rng.choice(SEPARATORS)
        text += tok
        after_name = name
    if rng.random() < 0.2:
        text += rng.choice(SEPARATORS + ("  -- a last comment",))
    return text


def random_text(rng):
    tokens = []
    _text_tokens(rng, random_term(rng, rng.randint(1, 40)), tokens)
    return _join(rng, tokens)


def random_program(rng):
    tokens = []
    for _ in range(rng.randint(0, 4)):
        # Defined names take the free names too, so later bodies inline them.
        tokens += (rng.choice(FREE_POOL + ("K", "S_1", "pair'")), "=")
        _text_tokens(rng, random_term(rng, rng.randint(1, 25)), tokens)
        tokens.append(";")
    return _join(rng, tokens)


def mutate(rng, text):
    """Break text, or not, by one edit."""
    i = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.25 and text:
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1:]
    if roll < 0.5:
        return text[:i] + rng.choice("#-1'()<>,.=;\\λ x") + text[i:]
    if roll < 0.75:
        # A character that starts no token, put where a token starts.
        starts = [j for j, c in enumerate(text) if c.isalpha() or c in "_(<\\λ"]
        j = rng.choice(starts) if starts else i
        return text[:j] + rng.choice("#-1'") + text[j:]
    brackets = [j for j, c in enumerate(text) if c in "()<>"]
    if brackets and rng.random() < 0.5:
        j = rng.choice(brackets)
        return text[:j] + text[j + 1:]
    return text[:i] + rng.choice("()<>") + text[i:]


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return ParseError, err.position, err.expected, err.found
    except DuplicateNameError as err:
        return DuplicateNameError, err.name


def assert_parses_like_oracle(text):
    new = outcome(parse_term, text)
    old = outcome(oracle.parse_term, text)
    assert new == old, text
    if not isinstance(new, tuple):
        assert pretty(new) == oracle.pretty(old), text
        assert_caches_sound(new)


def assert_program_parses_like_oracle(text):
    new = outcome(parse_program, text)
    old = outcome(oracle.parse_program, text)
    assert new == old, text
    if isinstance(new, Program):
        for _, body in new.definitions:
            assert_caches_sound(body)


def test_parse_term_matches_oracle_on_seeded_texts():
    rng = random.Random(1001)
    for _ in range(500):
        text = random_text(rng)
        assert_parses_like_oracle(text)
        assert not isinstance(outcome(parse_term, text), tuple), text


def test_parse_term_errors_match_oracle_on_seeded_texts():
    rng = random.Random(1002)
    errors = 0
    for _ in range(1500):
        text = random_text(rng)
        for _ in range(rng.randint(1, 2)):
            text = mutate(rng, text)
        assert_parses_like_oracle(text)
        errors += isinstance(outcome(parse_term, text), tuple)
    assert errors > 1000


def test_parse_program_matches_oracle_on_seeded_texts():
    rng = random.Random(1003)
    kinds = set()
    for _ in range(600):
        text = random_program(rng)
        if rng.random() < 0.6:
            text = mutate(rng, text)
        assert_program_parses_like_oracle(text)
        result = outcome(parse_program, text)
        kinds.add(result[0] if isinstance(result, tuple) else Program)
    assert kinds == {Program, ParseError, DuplicateNameError}


@pytest.mark.parametrize("parse, text, where", [
    # A duplicate name comes first, a character that starts no token later:
    # that character is reported.
    (parse_program, "a = x;\na = y;\nb = z # ;", 20),
    (parse_program, "a = x;\na = y;\n-- fine\nb = z - ;", 28),
    (parse_term, "(x y -- a comment\n ) ) 'z", 23),
])
def test_a_character_that_starts_no_token_is_reported_first(parse, text, where):
    assert outcome(parse, text) == (ParseError, where, "a term", text[where])
    assert outcome(getattr(oracle, parse.__name__), text) == outcome(parse, text)


def test_a_character_that_starts_no_token_is_reported_before_a_deep_term_fails():
    # The terms are far deeper than the recursion limit, and inlining `a`
    # into the body of `p` substitutes into it.
    depth = 21_000
    text = "<" + "\\x." * depth + "x, y> #"
    assert outcome(parse_term, text) == (ParseError, len(text) - 1, "a term", "#")
    program = "p = " + text[:-2] + "; q = #;"
    assert outcome(parse_program, program) == (ParseError, len(program) - 2, "a term", "#")
    program = "a = y; p = " + "\\x." * depth + "a; q = #;"
    assert outcome(parse_program, program) == (ParseError, len(program) - 2, "a term", "#")
