import random
import sys

import pytest

from numlam import (
    App,
    F,
    I,
    Lam,
    T,
    Var,
    alpha_eq,
    app,
    barendregt,
    beta_eta_normalize,
    free_vars,
    is_closed,
    lam,
    mk_pair,
    parse_term,
    size,
    substitute,
)
import oracle
from termgen import oracle_alpha_eq, random_term, rename_bound


def test_alpha_eq_renaming():
    assert alpha_eq(parse_term(r"\x.x"), parse_term(r"\y.y"))
    assert alpha_eq(parse_term(r"\x.\y.y"), parse_term(r"\y.\x.x"))


def test_alpha_eq_distinguishes_true_false():
    assert not alpha_eq(T, F)


def test_substitute_variable():
    assert substitute(Var("x"), {"x": I}) == I


def test_substitute_capture_avoidance():
    out = substitute(parse_term(r"\x.x y"), {"y": Var("x")})
    assert alpha_eq(out, parse_term(r"\z.z x"))
    # deterministic freshening: primes
    assert out == Lam("x'", App(Var("x'"), Var("x")))


def test_substitute_is_simultaneous():
    out = substitute(parse_term("x y"), {"x": Var("y"), "y": Var("x")})
    assert out == App(Var("y"), Var("x"))


def test_substitute_empty_is_identity():
    t = parse_term(r"\x.x (y z)")
    assert substitute(t, {}) is t


def test_free_vars():
    assert free_vars(parse_term(r"\x.x y")) == {"y"}
    assert free_vars(I) == set() and is_closed(I)
    probe = app(T, Var("nu"), Var("x"), Var("y"))
    assert free_vars(probe) == {"nu", "x", "y"}


def test_free_vars_is_stack_safe():
    """free_vars, is_closed and mk_pair read the set each node is built
    with, so a term deeper than the recursion limit is no harder than a
    shallow one."""
    depth = 50_000
    assert depth > sys.getrecursionlimit()
    t = Var("y")
    for _ in range(depth):
        t = Lam("x", App(t, Var("x")))
    assert free_vars(t) == {"y"} and not is_closed(t)
    closed = Lam("y", t)
    assert free_vars(closed) == frozenset() and is_closed(closed)
    pair = mk_pair(t, closed)
    assert pair.binder == "x" and pair.body.fn.arg is t and pair.body.arg is closed
    assert free_vars(pair) == {"y"} and not is_closed(pair)
    assert mk_pair(Var("x"), t).binder == "x'"


def test_basic_combinators():
    assert I == Lam("x", Var("x"))
    assert T == Lam("x", Lam("y", Var("x")))
    assert F == Lam("x", Lam("y", Var("y")))


def test_mk_pair_matches_spec_shapes():
    assert mk_pair(T, I) == Lam("x", App(App(Var("x"), T), I))
    assert mk_pair(F, barendregt(0)) == barendregt(1)


def test_mk_pair_binder_freshness():
    p = mk_pair(Var("x"), Var("y"))
    assert isinstance(p, Lam) and p.binder not in ("x", "y")
    assert alpha_eq(p, Lam("z", App(App(Var("z"), Var("x")), Var("y"))))


def test_size():
    assert size(Var("x")) == 1
    assert size(I) == 2
    assert size(App(Var("x"), Var("y"))) == 3


def test_terms_are_immutable():
    """Every field of every node class, the set of free variables included,
    refuses assignment and deletion."""
    for node, fields in (
        (Var("x"), ("name", "_fv")),
        (Lam("x", Var("x")), ("binder", "body", "_fv")),
        (App(Var("x"), Var("y")), ("fn", "arg", "_fv")),
    ):
        for name in fields:
            before = getattr(node, name)
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(node, name, Var("z"))
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(node, name)
            assert getattr(node, name) is before


def test_equality_is_structural():
    """== and hash compare shape, names and binders, not the set of free
    variables or a mark; a node of another class, or no term at all, is
    left to the other operand."""
    two, marked = barendregt(2), barendregt(2)
    assert beta_eta_normalize(marked).term is marked and marked._fv is not two._fv
    assert marked == two and hash(marked) == hash(two)
    assert Lam("x", Var("x")) != Lam("y", Var("y")) and alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert App(Var("x"), Var("y")) != App(Var("y"), Var("x"))
    assert Lam("x", Var("x")) != Var("x") and Var("x") != "x"
    assert Var("x").__eq__("x") is NotImplemented
    assert Var("x").__eq__(Lam("x", Var("x"))) is NotImplemented
    assert len({Var("x"), Var("x"), Lam("x", Var("x")), I, T, F}) == 4
    assert Lam.__slots__ == ("binder", "body", "_fv")
    assert (Var.__match_args__, Lam.__match_args__, App.__match_args__) == (
        ("name",), ("binder", "body"), ("fn", "arg"))
    match T:
        case Lam(x, Lam(y, Var(z))):
            matched = (x, y, z)
    assert matched == ("x", "y", "x")


def test_lam_app_helpers():
    assert lam("x", "y", Var("x")) == T
    assert app(Var("a"), Var("b"), Var("c")) == App(App(Var("a"), Var("b")), Var("c"))


# ---------------------------------------------------------------------------
# Properties

def test_alpha_eq_is_an_equivalence_on_samples():
    rng = random.Random(101)
    terms = [random_term(rng, rng.randint(1, 25)) for _ in range(40)]
    for t in terms:
        assert alpha_eq(t, t)
    variants = [(t, rename_bound(t, rng)) for t in terms]
    for t, v in variants:
        assert alpha_eq(t, v) and alpha_eq(v, t)
    for (t, v), (_, w) in zip(variants, variants):
        if alpha_eq(t, v) and alpha_eq(v, w):
            assert alpha_eq(t, w)


def test_alpha_eq_matches_naive_renaming_oracle():
    rng = random.Random(202)
    for _ in range(300):
        t1 = random_term(rng, rng.randint(1, 12))
        if rng.random() < 0.5:
            t2 = rename_bound(t1, rng)
        else:
            t2 = random_term(rng, rng.randint(1, 12))
        assert alpha_eq(t1, t2) == oracle_alpha_eq(t1, t2)


def test_indexed_equality_iff_alpha_eq():
    rng = random.Random(303)
    for _ in range(200):
        t1 = random_term(rng, rng.randint(1, 15))
        t2 = rename_bound(t1, rng) if rng.random() < 0.5 else random_term(rng, rng.randint(1, 15))
        assert (oracle.to_indexed(t1) == oracle.to_indexed(t2)) == alpha_eq(t1, t2)


def test_substitution_free_variable_bound():
    rng = random.Random(404)
    for _ in range(200):
        t = random_term(rng, rng.randint(1, 30))
        names = sorted(free_vars(t) | {"u", "q"})
        dom = [n for n in names if rng.random() < 0.5]
        s = {n: random_term(rng, rng.randint(1, 8)) for n in dom}
        out = substitute(t, s)
        allowed = (free_vars(t) - set(s)) | set().union(
            set(), *(free_vars(v) for k, v in s.items() if k in free_vars(t))
        )
        assert free_vars(out) <= allowed
