"""The engine against the named engine kept in tests/oracle.py.

Every node is built with its free variables, one object per set,
`substitute` skips the subtrees in which nothing it replaces is free and
substitutes one name on a walk of its own, `beta_normalize` reduces in one
pass instead of searching again from the root after every step, the
reductions mark the closed normal forms they return and walk past marked
ones, a contraction pushes the arguments of its contractum's left spine
onto the machine's spine, a run of closed arguments meeting a chain of
abstractions is substituted with one map, and `head_reduce` runs on a
machine state and builds the terms of its trace only when they are read.
None of these may change a result:
every term must come out structurally equal to the oracle's, with the same
binder names, and every step count must be the same, at every fuel.
`alpha_eq`, one walk over both terms in step, must agree with
`termgen.oracle_alpha_eq`.  The inputs are seeded termgen corpora, real
contract and `k` terms and hypothesis strategies.
"""

import copy
import pickle
import random
import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from numlam import (
    App,
    CHURCH_SEQUENCE,
    F,
    Fuel,
    I,
    Lam,
    Normal,
    NotBetaNormalError,
    OutOfFuel,
    T,
    Var,
    alpha_eq,
    app,
    barendregt,
    beta_eta_normalize,
    beta_normalize,
    builtin_system,
    c_numeral,
    church,
    church_k_term,
    eta_normalize,
    free_vars,
    head_reduce,
    is_beta_eta_normal,
    mk_pair,
    parse_term,
    pretty,
    spz_from_k,
    substitute,
)
from termgen import (
    BINDER_POOL,
    FREE_POOL,
    assert_caches_sound,
    beta_expand,
    binders,
    eta_expand,
    oracle_alpha_eq,
    positions,
    preorder,
    random_chain_redex,
    random_closed_term,
    random_hnf,
    random_spine_redex,
    random_spine_term,
    random_term,
    rename_bound,
    replace_at,
    subterm_at,
)
from numlam import reduction, terms as numlam_terms
from numlam.numerals import SequenceSpec
from numlam.terms import _BETA_ETA_NORMAL, _NO_NAMES, _SETS, _EtaForm

# Replacements draw their free names from the binder pool too, so they
# collide with the binders of the term they go into and force renaming.
NAMES = BINDER_POOL + FREE_POOL


def assert_free_vars_agree(t):
    fv = free_vars(t)
    assert isinstance(fv, frozenset)
    assert set(fv) == oracle.free_vars(t)
    for name in NAMES:
        assert (name in fv) == oracle.occurs_free(name, t)


def open_substitution(rng, t):
    keys = [n for n in sorted(free_vars(t) | set(NAMES)) if rng.random() < 0.3]
    return {k: random_term(rng, rng.randint(1, 8), free_pool=NAMES) for k in keys}


# ---------------------------------------------------------------------------
# Seeded corpora

def test_substitute_matches_oracle_on_seeded_corpus():
    rng = random.Random(1201)
    renamed = 0
    for _ in range(1500):
        t = random_term(rng, rng.randint(1, 30))
        s = open_substitution(rng, t)
        out = substitute(t, s)
        expected = oracle.substitute(t, s)
        assert out == expected
        assert_free_vars_agree(t)
        assert_free_vars_agree(out)
        assert_caches_sound(t)
        assert_caches_sound(out)
        if binders(expected) - binders(t) - set().union(*map(binders, s.values())):
            renamed += 1
    assert renamed > 50


def test_substitute_leaves_untouched_abstractions_shared():
    rng = random.Random(1202)
    for _ in range(300):
        t = random_term(rng, rng.randint(1, 30))
        s = {k: random_term(rng, 4, free_pool=NAMES) for k in ("u", "v")}
        out = substitute(t, s)
        if free_vars(t).isdisjoint(s):
            assert out is t
        assert out == oracle.substitute(t, s)


def reused(out, t):
    """For each node of out in preorder, the node of t it is, or None."""
    ids = {id(node) for node in preorder(t)}
    return [id(node) if id(node) in ids else None for node in preorder(out)]


def assert_one_binding_like_oracle(t, x, arg):
    """substitute(t, {x: arg}), the substitution of a contraction, gives
    the oracle's result, and reuses the same nodes of t as the oracle and
    as a map with a second name.  Returns its result."""
    out = substitute(t, {x: arg})
    expected = oracle.substitute(t, {x: arg})
    assert out == expected and reused(out, t) == reused(expected, t)
    assert_free_vars_agree(out)
    # A second name that occurs nowhere changes none of the work.
    both = substitute(t, {x: arg, "unused": I})
    assert both == expected and reused(both, t) == reused(out, t)
    for term in (t, out, both):
        assert_caches_sound(term)
    if x not in oracle.free_vars(t):
        assert out is t
    return out


def one_binding_shapes(t, x):
    """The shapes of t's nodes that the walk tells apart for x."""
    shapes = set()
    for node in preorder(t):
        if isinstance(node, App) and x in node._fv:
            in_fn, in_arg = x in node.fn._fv, x in node.arg._fv
            shapes.add("fn and arg" if in_fn and in_arg else "fn" if in_fn else "arg")
            if Var(x) in (node.fn, node.arg):
                shapes.add("Var child")
        elif isinstance(node, Lam) and node.body == Var(x) != Var(node.binder):
            shapes.add("Var body")
    return shapes


def test_one_binding_substitute_matches_oracle_on_seeded_corpus():
    """A beta contraction with an open argument substitutes one name.  The
    walk must give the oracle's result and reuse the same nodes of t as the
    oracle, on every shape it tells apart."""
    rng = random.Random(1207)
    renamed = untouched = itself = 0
    shapes = dict.fromkeys(("fn", "arg", "fn and arg", "Var child", "Var body"), 0)
    for _ in range(2000):
        t = random_term(rng, rng.randint(1, 30), free_pool=NAMES)
        free = sorted(free_vars(t))
        x = rng.choice(free) if free and rng.random() < 0.8 else rng.choice(NAMES)
        # The replacement's free names are binder names of t, so binders
        # capture it and get renamed.
        arg = random_term(rng, rng.randint(1, 8), free_pool=BINDER_POOL)
        # Now and then the replacement is one of the nodes it replaces:
        # the abstractions around that node alone come back as they are.
        occurrences = [node for node in preorder(t) if node == Var(x)]
        if occurrences and rng.random() < 0.1:
            arg = rng.choice(occurrences)
            itself += 1
        out = assert_one_binding_like_oracle(t, x, arg)
        for shape in one_binding_shapes(t, x):
            shapes[shape] += 1
        if x not in oracle.free_vars(t):
            untouched += 1
        elif binders(out) - binders(t) - binders(arg):
            renamed += 1
    assert renamed > 150
    assert untouched > 150
    assert itself > 50
    assert min(shapes.values()) > 100, shapes


def test_substitute_skips_cached_applications_like_oracle():
    """The walk returns an application as it is when no substituted name
    is free in it, as its set of free variables says."""
    rng = random.Random(1208)
    skipped = 0
    for _ in range(1500):
        t = random_term(rng, rng.randint(1, 30), free_pool=NAMES)
        apps = [n for n in preorder(t) if isinstance(n, App)]
        x = rng.choice(sorted(oracle.free_vars(t) | {"u"}))
        arg = random_term(rng, rng.randint(1, 8), free_pool=BINDER_POOL)
        out = substitute(t, {x: arg})
        assert out == oracle.substitute(t, {x: arg})
        both = substitute(t, {x: arg, "unused": I})
        assert both == out and reused(out, t) == reused(both, t)
        kept = {id(n) for n in preorder(out)}
        skipped += sum(1 for n in apps if x not in n._fv and id(n) in kept)
        s = open_substitution(rng, t)
        many = substitute(t, s)
        assert many == oracle.substitute(t, s)
        for term in (t, out, both, many):
            assert_caches_sound(term)
    assert skipped > 500


def test_one_binding_walk_keeps_the_replacement_free_vars_to_one_call():
    """The walk tests each binder against the free variables of the
    replacement of the same call, never of an earlier one.  In the
    two-branch term, λy is renamed when y is free in the replacement, and
    its sibling λz is tested against the same set."""
    body = Lam("y", App(Var("x"), Var("y")))
    siblings = App(Lam("y", App(Var("x"), Var("y"))), Lam("z", App(Var("x"), Var("z"))))
    for t, name in ((body, "z"), (body, "y"), (siblings, "y"), (siblings, "z")):
        out = substitute(t, {"x": Var(name)})
        assert out == oracle.substitute(t, {"x": Var(name)})
        assert_caches_sound(t)
        assert_caches_sound(out)
    assert substitute(body, {"x": Var("z")}) == Lam("y", App(Var("z"), Var("y")))
    assert substitute(body, {"x": Var("y")}) == Lam("y'", App(Var("y"), Var("y'")))
    assert substitute(siblings, {"x": Var("z")}) == App(
        Lam("y", App(Var("z"), Var("y"))), Lam("z'", App(Var("z"), Var("z'")))
    )


def test_mk_pair_matches_oracle_on_open_terms():
    rng = random.Random(1203)
    pool = ("x", "x'", "x''", "u")
    for _ in range(500):
        m = random_term(rng, rng.randint(1, 10), free_pool=pool)
        n = random_term(rng, rng.randint(1, 10), free_pool=pool)
        pair = mk_pair(m, n)
        assert pair == oracle.mk_pair(m, n)
        assert_free_vars_agree(pair)
        assert_caches_sound(pair)


def assert_normalizes_like_oracle(t, fuel):
    beta = beta_normalize(t, fuel)
    assert beta == oracle.beta_normalize(t, fuel)
    out = beta_eta_normalize(t, fuel)
    assert out == oracle.beta_eta_normalize(t, fuel)
    assert is_beta_eta_normal(out.term) == oracle.is_beta_eta_normal(out.term)
    # A normal form is marked only when it is closed.
    assert_free_vars_agree(beta.term)
    assert_free_vars_agree(out.term)
    for term in (t, beta.term, out.term):
        assert_caches_sound(term)


def test_beta_normalize_matches_oracle_on_seeded_corpus():
    rng = random.Random(1204)
    fuel = Fuel(200)
    for _ in range(300):
        assert_normalizes_like_oracle(random_term(rng, rng.randint(1, 25)), fuel)
        assert_normalizes_like_oracle(random_closed_term(rng, rng.randint(2, 25)), fuel)
        expanded = beta_expand(random_hnf(rng), rng, rng.randint(1, 10))
        assert_normalizes_like_oracle(expanded, fuel)


def test_beta_normalize_matches_oracle_on_contract_terms():
    fuel = Fuel(100_000)
    for name in ("church", "barendregt", "a", "b", "tilde", "c"):
        system = builtin_system(name)
        for comb in (system.successor, system.predecessor, system.zero_test):
            if comb is None:
                continue
            for n in range(6):
                assert_normalizes_like_oracle(app(comb, system.numeral(n)), fuel)
    k = church_k_term()
    for n in range(4):
        for m in range(4):
            assert_normalizes_like_oracle(app(k, church(n), church(m)), fuel)


# ---------------------------------------------------------------------------
# Normal order, fuel by fuel

def oracle_chain(t, limit):
    """The oracle's normal-order states of t, at most `limit` steps of them,
    and whether the last one is beta-normal."""
    chain = [t]
    while len(chain) <= limit:
        nxt = oracle.beta_step_normal_order(chain[-1])
        if nxt is None:
            return chain, True
        chain.append(nxt)
    return chain, False


def assert_fuel_ladder(t, limit):
    """At every fuel from 1 to the oracle's step count + 1, beta_normalize
    gives what oracle.beta_normalize gives: the outcome type, the term,
    partial or normal, and the steps.

    oracle.beta_normalize(t, Fuel(f)) iterates the oracle's stepper, so it
    is OutOfFuel(chain[f], f) below the step count and the last state from
    there on; it is also called directly at both ends of the ladder.  The
    rung f = 1 is the single step.  When the chain was cut at `limit`
    steps, the ladder stops below the cut.
    """
    chain, normal = oracle_chain(t, limit)
    steps = len(chain) - 1
    top = steps + 1 if normal else steps - 1
    for f in range(1, top + 1):
        if f >= steps:
            expected = Normal(chain[-1], steps)
        else:
            expected = OutOfFuel(chain[f], f)
        out = beta_normalize(t, Fuel(f))
        assert out == expected
        assert_caches_sound(out.term)
        if f in (1, top):
            assert oracle.beta_normalize(t, Fuel(f)) == expected
    if normal:
        # A normal input comes back as the very same object.
        assert beta_normalize(chain[-1]).term is chain[-1]
    return steps if normal else None


def test_fuel_ladder_matches_oracle_on_seeded_corpus():
    rng = random.Random(1205)
    normal = []
    for _ in range(150):
        for t in (
            random_term(rng, rng.randint(1, 25)),
            random_closed_term(rng, rng.randint(2, 25)),
            beta_expand(random_hnf(rng), rng, rng.randint(1, 10)),
        ):
            normal.append(assert_fuel_ladder(t, 60))
    assert normal.count(0) > 100
    assert sum(1 for n in normal if n) > 200


# Terms without a normal form: every fuel leaves a partial term, some with
# the redex under binders or in argument position, some growing.
DIVERGENT = (
    r"(\x.x x) (\x.x x)",
    r"(\x.x x x) (\x.x x x)",
    r"\f.(\x.f (x x)) (\x.f (x x))",
    r"\y.y ((\x.\z.z (x x)) (\x.\z.z (x x))) ((\x.x) y)",
    r"(\x.\y.x y x) (\u.u) ((\x.x x) (\x.x x))",
    r"(\f.(\x.f (x x)) (\x.f (x x))) (\s.\n.n (s n))",
)


def test_fuel_ladder_matches_oracle_on_divergent_terms():
    for text in DIVERGENT:
        assert assert_fuel_ladder(parse_term(text), 60) is None


def test_fuel_ladder_matches_oracle_on_contract_and_k_terms():
    for name in ("church", "barendregt", "a", "b", "tilde", "c"):
        system = builtin_system(name)
        for comb in (system.successor, system.predecessor, system.zero_test):
            if comb is not None:
                for n in range(3):
                    assert assert_fuel_ladder(app(comb, system.numeral(n)), 1_000)
    church_system = builtin_system("church")
    k = church_k_term()
    for n in range(4):
        for m in range(4):
            assert assert_fuel_ladder(app(k, church(n), church(m)), 1_000)
    w10 = Lam("n", app(Var("n"), Lam("x", T), F))
    for comb in spz_from_k(church_system, k, w10):
        for n in range(3):
            assert assert_fuel_ladder(app(comb, church(n)), 1_000)


def is_marked(t):
    return type(t._fv) is _EtaForm


def holds_eta_form(t):
    """Whether t is marked with an eta-normal form other than itself."""
    return is_marked(t) and t._fv is not _BETA_ETA_NORMAL


def marked_abstractions():
    """Closed normal abstractions carrying each mark, made here so that no
    shared term is marked: Church 1, whose eta-redex leaves it holding its
    eta form, and the other Church and the Barendregt numerals, marked
    beta-eta-normal."""
    marked = []
    for d in [church(n) for n in range(4)] + [barendregt(n) for n in range(1, 4)]:
        beta_eta_normalize(d)
        marked.append(d)
    assert [holds_eta_form(d) for d in marked] == [False, True] + [False] * 5
    assert all(is_marked(d) for d in marked)
    return tuple(marked)


def test_fuel_ladder_matches_oracle_on_spine_terms():
    """The normal-order machine on the shapes it treats apart: variable
    heads whose arguments hold redexes, arguments that are head normal forms
    with arguments of their own, and marked abstractions both applied and
    as arguments, under binders, with both kinds of mark; the partial term,
    the steps and the kind of outcome at every fuel.  A leaf marked with an
    eta form other than itself may hold an eta-redex, so beta_eta_normalize
    must put in its form."""
    rng = random.Random(1207)
    marked = marked_abstractions()
    lengths = []
    for _ in range(250):
        t = random_spine_term(rng, marked)
        lengths.append(assert_fuel_ladder(t, 80))
        assert beta_eta_normalize(t, Fuel(80)) == oracle.beta_eta_normalize(t, Fuel(80))
        assert_caches_sound(t)
    assert lengths.count(0) > 10
    assert sum(1 for n in lengths if n and n > 3) > 50
    assert all(is_marked(d) for d in marked)


def test_contracting_onto_the_spine_matches_oracle():
    """A contraction pushes the arguments of the contractum's left spine
    onto the machine's spine as bare arguments, above the entries that
    still hold their applications, and the machine rebuilds an application
    for a bare one.  Over redexes whose bodies mix both kinds of entry on
    one spine, beta_normalize gives the oracle's partial term and steps,
    and head_reduce its states, at every fuel up to the normal form, and a
    normal input comes back as the same object."""
    rng = random.Random(1209)
    lengths = []
    for _ in range(300):
        t = random_spine_redex(rng)
        steps = assert_fuel_ladder(t, 60)
        lengths.append(steps)
        assert_head_ladder(t, 60)
        if steps is not None:
            normal = beta_normalize(t).term
            assert beta_normalize(normal).term is normal
            result = head_reduce(normal)
            assert result.reached_hnf and result.trace.final is normal
    assert sum(1 for n in lengths if n is not None and n > 2) > 150
    assert lengths.count(None) < 30


def test_contracting_a_chain_of_closed_arguments_matches_oracle(monkeypatch):
    """When closed arguments meet a chain of abstractions, the beta pass
    pops them all and substitutes them with one map, a later binder of a
    name replacing an earlier one; an open argument is a map of one name,
    whose walk renames a binder its free names would be caught by.  Over
    chains applied to fewer, as many or more arguments than binders, with
    repeated binder names, beta_normalize gives the oracle's partial term
    and steps at every fuel, so also where the fuel cuts a chain short,
    every result has sound caches and a normal input comes back as the
    same object."""
    maps = []
    shadowed = 0
    renames = []
    beta_pass = reduction._beta_pass
    contract = reduction._contract
    walk = numlam_terms._substitute

    def run(t, fuel, eta):
        # Each step pops one argument and a map keeps one per name, so the
        # steps of a run that its maps do not hold are the arguments of
        # binders shadowed by a later binder of the same name.
        nonlocal shadowed
        start = len(maps)
        out = beta_pass(t, fuel, eta)
        shadowed += out.steps - sum(maps[start:])
        return out

    def counting(body, m, *rest):
        maps.append(len(m))
        return contract(body, m, *rest)

    def renaming(node, m, names, risk):
        out = walk(node, m, names, risk)
        if type(node) is Lam and out.binder != node.binder:
            renames.append(node)
        return out

    monkeypatch.setattr(reduction, "_beta_pass", run)
    monkeypatch.setattr(reduction, "_contract", counting)
    # The machine calls the walk as reduction.substitute, and
    # terms.substitute as _substitute.
    monkeypatch.setattr(reduction, "substitute", renaming)
    monkeypatch.setattr(numlam_terms, "_substitute", renaming)
    rng = random.Random(1931)
    marked = marked_abstractions()
    lengths = []
    for _ in range(400):
        t = random_chain_redex(rng, marked)
        lengths.append(assert_fuel_ladder(t, 60))
    assert sum(1 for n in lengths if n is not None and n > 2) > 150
    assert lengths.count(None) < 20
    # Contractions of chains: of more than one name, of three, and the
    # arguments whose binders were shadowed.
    assert sum(1 for n in maps if n > 1) > 400 and maps.count(3) > 50 and shadowed > 20
    assert len(renames) > 50


def test_marked_arguments_come_back_as_themselves():
    marked = marked_abstractions()
    d, e = marked[3], marked[-1]
    t = Lam("y", app(Var("v"), d, App(I, Var("y")), e))
    out = beta_normalize(t)
    assert out == oracle.beta_normalize(t) and out.steps == 1
    spine = out.term.body
    assert spine.arg is e and spine.fn.fn.arg is d
    assert beta_normalize(out.term).term is out.term


# ---------------------------------------------------------------------------
# Head reduction, fuel by fuel

def oracle_head_chain(t, limit):
    """The oracle's head-reduction states of t, at most `limit` steps of
    them, and whether the last one is in head normal form."""
    chain = [t]
    while len(chain) <= limit:
        nxt = oracle.head_step(chain[-1])
        if nxt is None:
            return chain, True
        chain.append(nxt)
    return chain, False


def assert_head_ladder(t, limit):
    """At every fuel from 1 to the oracle's length + 1, head_reduce gives
    what oracle.head_reduce gives: the length, whether head normal form was
    reached, and every state; states[0] is t itself and final is the last
    state, read before and after the states.

    Below the oracle's length oracle.head_reduce(t, Fuel(f)) stops at
    chain[f], which still has a head redex; from there on it is the whole
    chain.  It is also called directly at both ends of the ladder.  The
    rung f = 1 is the single step.  When the chain was cut at `limit`
    steps, the ladder stops below the cut.
    """
    chain, hnf = oracle_head_chain(t, limit)
    steps = len(chain) - 1
    top = steps + 1 if hnf else steps - 1
    for f in range(1, top + 1):
        length = min(f, steps)
        expected = tuple(chain[:length + 1])
        result = head_reduce(t, Fuel(f))
        trace = result.trace
        assert trace.length == length
        assert result.reached_hnf == (f >= steps)
        assert trace.final == expected[-1]
        assert trace.states == expected
        assert trace.states[0] is t
        for state in trace.states:
            assert_caches_sound(state)
        assert trace.final is trace.states[-1]
        if f in (1, top):
            old = oracle.head_reduce(t, Fuel(f))
            assert (old.trace.length, old.reached_hnf) == (length, f >= steps)
            assert old.trace.states == expected
    return steps if hnf else None


def test_head_ladder_matches_oracle_on_seeded_corpus():
    rng = random.Random(1206)
    lengths = []
    for _ in range(150):
        for t in (
            random_term(rng, rng.randint(3, 40)),
            random_closed_term(rng, rng.randint(2, 25)),
            beta_expand(random_hnf(rng), rng, rng.randint(1, 10)),
        ):
            lengths.append(assert_head_ladder(t, 60))
    assert lengths.count(0) > 100
    assert sum(1 for n in lengths if n and n > 1) > 50


# The divergent terms of the benchmark's head workload, and one whose
# steps pass binders both before and after the redex.
HEAD_DIVERGENT = (
    r"(\x.x x x)(\x.x x x)",
    r"(\x.x x)(\x.x x)",
    r"(\x.\y.x x y)(\x.\y.x x y)",
    r"\y.(\x.\z.x x z)(\x.\z.x x z) y",
)


def test_head_ladder_matches_oracle_on_divergent_terms():
    for text in HEAD_DIVERGENT:
        assert assert_head_ladder(parse_term(text), 60) is None
    # Without a normal form, but some with a head normal form.
    for text in DIVERGENT:
        assert_head_ladder(parse_term(text), 60)


def test_head_ladder_matches_oracle_on_contract_terms():
    for name in ("church", "barendregt", "a", "b", "tilde", "c"):
        system = builtin_system(name)
        for comb in (system.successor, system.predecessor, system.zero_test):
            if comb is not None:
                for n in range(4):
                    assert assert_head_ladder(app(comb, system.numeral(n)), 1_000) is not None


def test_head_redex_under_binders_matches_oracle():
    """The head machine keeps the abstractions it passes as nodes; the head
    step it takes under them is the oracle's, and the arguments after the
    head redex stay the very subterms of t."""
    rng = random.Random(1208)
    marked = marked_abstractions()
    redexes = 0
    for _ in range(400):
        t = random_spine_term(rng, marked)
        for b in rng.sample(BINDER_POOL, rng.randint(0, 3)):
            t = Lam(b, t)
        expected = oracle.head_step(t)
        result = head_reduce(t, Fuel(1))
        if expected is None:
            assert result.reached_hnf and result.trace.length == 0
            assert result.trace.final is t
            continue
        after = result.trace.final
        assert result.trace.length == 1 and after == expected
        node, stepped = t, after
        while isinstance(node, Lam):
            node, stepped = node.body, stepped.body
        while isinstance(node.fn, App):
            assert stepped.arg is node.arg
            node, stepped = node.fn, stepped.fn
        assert isinstance(node.fn, Lam)
        redexes += 1
    assert redexes > 100


# ---------------------------------------------------------------------------
# alpha_eq against the renaming oracle

def lams(names, body):
    for name in reversed(names):
        body = Lam(name, body)
    return body


def shared_closed(rng):
    """A closed abstraction: a pair, a numeral marked by a reduction, or a
    random closed term."""
    roll = rng.random()
    if roll < 0.3:
        return mk_pair(random_closed_term(rng, rng.randint(2, 8)), random_closed_term(rng, 4))
    if roll < 0.6:
        d = barendregt(rng.randint(0, 4))
        beta_eta_normalize(d)
        return d
    return random_closed_term(rng, rng.randint(2, 10))


def assert_alpha_eq_like_oracle(t1, t2):
    expected = oracle_alpha_eq(t1, t2)
    assert alpha_eq(t1, t2) == expected
    assert alpha_eq(t2, t1) == expected
    return expected


def test_alpha_eq_matches_oracle_on_seeded_corpus():
    """Unrelated pairs, renamed pairs, renamed pairs changed at one leaf,
    and pairs that share one subtree object.  A shared closed subtree sits
    at the same place in a term and in a renamed or unrelated term; a shared
    open one sits under two lists of binders that bind its free names
    differently, where taking the shared object as equal would be wrong."""
    rng = random.Random(1301)
    tally = {"equal": 0, "distinct": 0, "leaf equal": 0, "leaf distinct": 0,
             "closed equal": 0, "open distinct": 0, "open equal": 0}
    for _ in range(1000):
        t1 = random_term(rng, rng.randint(1, 4))
        t2 = random_term(rng, rng.randint(1, 4))
        tally["equal" if assert_alpha_eq_like_oracle(t1, t2) else "distinct"] += 1
    for _ in range(600):
        t = random_term(rng, rng.randint(1, 25))
        v = rename_bound(t, rng)
        assert assert_alpha_eq_like_oracle(t, v)
        leaves = [p for p in positions(v) if isinstance(subterm_at(v, p), Var)]
        w = replace_at(v, rng.choice(leaves), Var(rng.choice(NAMES)))
        tally["leaf equal" if assert_alpha_eq_like_oracle(t, w) else "leaf distinct"] += 1
    for _ in range(600):
        s = shared_closed(rng)
        t = random_term(rng, rng.randint(1, 15))
        where = rng.choice(positions(t))
        other = rename_bound(t, rng) if rng.random() < 0.7 else random_term(rng, 6)
        there = where if where in positions(other) else ()
        if assert_alpha_eq_like_oracle(replace_at(t, where, s), replace_at(other, there, s)):
            tally["closed equal"] += 1
    for _ in range(600):
        s = random_term(rng, rng.randint(1, 6), scope=rng.sample(BINDER_POOL, 2))
        k = rng.randint(1, 3)
        b1 = rng.sample(BINDER_POOL, k)
        b2 = rng.sample(b1, k) if rng.random() < 0.5 else rng.sample(BINDER_POOL, k)
        key = "open equal" if assert_alpha_eq_like_oracle(lams(b1, s), lams(b2, s)) else "open distinct"
        tally[key] += 1
    assert min(tally.values()) > 40, tally
    # The two terms of the docstring: K and K* share their body.
    for shared in (Var("x"), Lam("z", Var("x"))):
        assert not alpha_eq(lams(["x", "y"], shared), lams(["y", "x"], shared))
        assert alpha_eq(lams(["x", "y"], shared), lams(["x", "z"], shared))


def test_alpha_eq_is_stack_safe():
    """30,000 nested binders and applications, deeper than the recursion
    limit the tests run at."""
    depth = 30_000

    def deep(names, leaf):
        body = Var(leaf)
        for i in range(depth):
            b = names[i % len(names)]
            body = Lam(b, App(body, Var(b)))
        return body

    xyz, abc = ["x", "y", "z"], ["a", "b", "c"]
    t = deep(xyz, "u")
    assert alpha_eq(t, t)
    assert alpha_eq(t, deep(abc, "u"))
    assert not alpha_eq(t, deep(abc, "w"))  # free names differ
    assert not alpha_eq(t, deep(abc, "a"))  # free against bound
    t = deep(xyz, "y")
    assert alpha_eq(t, deep(abc, "b"))
    assert not alpha_eq(t, deep(abc, "c"))  # bound at different depths


def test_alpha_eq_takes_a_shared_application_as_equal_only_when_closed():
    """A shared closed application is equal without a walk; a shared open
    one is bound by the binders around it."""
    s = App(Var("x"), Var("y"))
    assert free_vars(s) == {"x", "y"}
    assert not alpha_eq(lams(["x", "y"], s), lams(["y", "x"], s))
    assert alpha_eq(lams(["x", "y"], s), lams(["y", "x"], App(Var("y"), Var("x"))))
    assert alpha_eq(lams(["x", "y"], s), lams(["z", "w"], App(Var("z"), Var("w"))))
    closed = App(I, barendregt(2))
    assert free_vars(closed) == frozenset()
    assert alpha_eq(lams(["x"], closed), lams(["y"], closed))
    assert not alpha_eq(lams(["x"], App(closed, Var("x"))), lams(["y"], App(closed, Var("x"))))


# ---------------------------------------------------------------------------
# Marked normal forms

def test_contract_terms_over_marked_numerals_normalize_like_oracle():
    """The contract checks normalize numerals that nest numerals a check
    before has marked; the marked parts must reduce as the oracle does."""
    fuel = Fuel(100_000)
    systems = (
        builtin_system("barendregt"),
        builtin_system("c"),
        builtin_system("c", SequenceSpec("barendregt", barendregt)),
    )
    for system in systems:
        numerals = list(system.first(8))
        for d in numerals[::2]:
            assert beta_eta_normalize(d) == oracle.beta_eta_normalize(d)
        assert is_marked(numerals[2])
        for comb in (system.successor, system.predecessor, system.zero_test):
            if comb is None:
                continue
            for d in numerals:
                t = App(comb, d)
                assert beta_eta_normalize(t, fuel) == oracle.beta_eta_normalize(t, fuel)


def test_a_mark_never_reaches_the_cache_of_a_parent():
    """An application takes its function's set, which may be a mark; the
    abstraction above must hold the plain empty set, or its redex would
    never be contracted."""
    d = barendregt(2)
    beta_eta_normalize(d)
    assert d._fv is _BETA_ETA_NORMAL
    t = Lam("z", App(d, App(I, I)))
    assert free_vars(t) == frozenset()
    assert t._fv is _NO_NAMES
    out = beta_normalize(t)
    assert out.steps > 0
    assert out == oracle.beta_normalize(t)
    assert beta_eta_normalize(t) == oracle.beta_eta_normalize(t)


def test_a_mark_never_reaches_the_cache_of_an_application():
    """An application of marked closed normal forms is closed, but it is
    not a normal form: it holds the plain empty set, and so does an
    application whose only child with names is a mark."""
    d = barendregt(2)
    e = builtin_system("c").numeral(2)
    beta_eta_normalize(d)
    beta_eta_normalize(e)
    assert d._fv is _BETA_ETA_NORMAL and holds_eta_form(e)
    for t in (App(d, e), App(e, d), App(d, d), App(App(d, e), I), App(Var("v"), d)):
        assert_caches_sound(t)
        assert type(t._fv) is frozenset
        if not t._fv:
            out = beta_normalize(t)
            assert out.steps > 0 and out == oracle.beta_normalize(t)


def test_the_beta_pass_marks_the_elements_of_c_over_barendregt():
    """The beta-eta pass marks each closed abstraction it closes, not only
    the root it returns: after d_0 to d_10 of c[barendregt] are normalized,
    each element e_n = d_n.body.arg is marked too, so the next numeral
    walks only its new pair and element."""
    system = builtin_system("c", SequenceSpec("barendregt", barendregt))
    numerals = list(system.first(11))
    for d in numerals:
        assert beta_eta_normalize(d) == Normal(d, 0, 0)
    unmarked = [n for n, d in enumerate(numerals) if n and d.body.arg._fv is not _BETA_ETA_NORMAL]
    assert unmarked == []
    assert_caches_sound(numerals[-1])


def nodes_built(fn, *args):
    """fn(*args), and how many Var, Lam and App nodes it built."""
    inits = {Var.__init__.__code__, Lam.__init__.__code__, App.__init__.__code__}
    built = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code in inits:
            built.append(frame.f_code)

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, len(built)


def test_remembered_eta_forms_give_the_oracle_answers():
    """A closed abstraction that eta contraction changes keeps its eta-normal
    form and count in its mark, and a second normalization of the same
    object reads them from there.  Both answers must be the oracle's: the
    term, the beta steps and the eta steps.  The objects are closed terms
    with eta-redexes, their beta-normal forms, and the c[church] numerals
    d_0 to d_30, each of which but d_0 holds the eta-redex e_1."""
    rng = random.Random(1215)
    fuel = Fuel(200)
    objects = []
    while len(objects) < 300:
        t = eta_expand(random_closed_term(rng, rng.randint(2, 14)), rng, rng.randint(1, 3))
        expected = oracle.beta_eta_normalize(t, fuel)
        if isinstance(expected, Normal) and expected.eta_steps:
            normal = oracle.beta_normalize(t, fuel).term
            objects += ((t, expected), (normal, Normal(expected.term, 0, expected.eta_steps)))
    for d in builtin_system("c").first(31):
        objects.append((d, oracle.beta_eta_normalize(d)))
    remembered = 0
    for t, expected in objects:
        first = beta_eta_normalize(t, fuel)
        assert first == expected
        if holds_eta_form(t):
            remembered += 1
            assert t._fv.form is first.term
        second = beta_eta_normalize(t, fuel)
        assert second == expected
        if holds_eta_form(t):
            assert second.term is first.term
        assert_caches_sound(t)
        assert_caches_sound(second.term)
    assert remembered >= 180


def test_out_of_fuel_after_an_eta_contraction_gives_the_beta_term():
    """An eta-redex, or a c[church] numeral that holds its eta form, in an
    argument to the left of a later redex is contracted before the fuel
    runs out, but the partial term is that of the beta steps alone.  At
    every fuel up to the normal form, beta_eta_normalize gives what the
    oracle gives: the outcome type, the term and the steps."""
    rng = random.Random(2809)
    numerals = [c_numeral(n, CHURCH_SEQUENCE) for n in range(1, 6)]
    for d in numerals:
        beta_eta_normalize(d)
        assert holds_eta_form(d)
    omega = parse_term(r"(\x.x x) (\x.x x)")
    terms = [parse_term(r"v (\x.g x) ((\x.x x) (\x.x x))"), app(Var("v"), numerals[0], omega)]
    while len(terms) < 300:
        if rng.random() < 0.5:
            left = eta_expand(random_hnf(rng, 4), rng, rng.randint(1, 2))
        else:
            left = rng.choice(numerals)
        if rng.random() < 0.3:
            left = Lam("y", app(Var("y"), left))
        right = beta_expand(random_hnf(rng, 4), rng, rng.randint(1, 3))
        terms.append(app(Var("v"), left, right))
    cut = 0
    for t in terms:
        chain, normal = oracle_chain(t, 40)
        steps = len(chain) - 1
        top = steps + 1 if normal else steps - 1
        for f in range(1, top + 1):
            out = beta_eta_normalize(t, Fuel(f))
            if f >= steps:
                assert out == oracle.beta_eta_normalize(t, Fuel(f))
            else:
                assert out == OutOfFuel(chain[f], f)
                cut += 1
            assert_caches_sound(out.term)
    assert cut > 400


def test_a_remembered_eta_form_rebuilds_nothing():
    numerals = builtin_system("c").first(32)
    *_, d = islice(numerals, 31)
    first = beta_eta_normalize(d)
    assert holds_eta_form(d) and first.eta_steps == 1
    second, built = nodes_built(beta_eta_normalize, d)
    assert built == 0 and second.term is first.term and second == first
    # eta_normalize reads the form too, and so does the next numeral's pass.
    assert nodes_built(eta_normalize, d) == (first.term, 0)
    e = next(numerals)
    out, built = nodes_built(beta_eta_normalize, e)
    assert out == oracle.beta_eta_normalize(e) and out.term.body.fn.arg is first.term
    assert is_beta_eta_normal(first.term) and not is_beta_eta_normal(d)


def test_a_clone_of_a_remembered_eta_form_is_a_plain_abstraction():
    d = builtin_system("c").numeral(3)
    out = beta_eta_normalize(d)
    assert holds_eta_form(d)
    for clone in clones(d):
        assert clone == d and hash(clone) == hash(d) and repr(clone) == repr(d)
        assert clone._fv is _NO_NAMES
        assert_caches_sound(clone)
        assert beta_eta_normalize(clone) == out == oracle.beta_eta_normalize(clone)
        assert holds_eta_form(clone)
        assert_caches_sound(clone)


def test_a_clean_beta_pass_skips_the_eta_pass():
    """A normal form with no eta-redex comes back with no eta step, and
    the pass marks it beta-eta-normal.  A leaf that remembers its eta form
    gives that form and its count, and so does a second normalization."""
    t = parse_term(r"(\n.\f.\x.f (n f x)) (\f.\x.f (f x))")
    out = beta_eta_normalize(t)
    assert out == oracle.beta_eta_normalize(t) and out.term._fv is _BETA_ETA_NORMAL
    two = church(2)
    assert beta_eta_normalize(App(I, two)) == Normal(two, 1, 0)
    assert two._fv is _BETA_ETA_NORMAL
    one = church(1)
    t = parse_term(r"\g.(\y.y) (\x.g x)")
    for _ in range(2):
        assert beta_eta_normalize(App(I, one)) == Normal(Lam("f", Var("f")), 1, 1)
        assert holds_eta_form(one)
        assert beta_eta_normalize(t) == oracle.beta_eta_normalize(t)


def test_normal_form_judge_matches_oracle():
    """is_beta_eta_normal is the beta pass with no step to spend.  Over
    random terms, head normal forms with beta- or eta-redexes put in, and
    terms holding marked abstractions of both kinds, applied or not, it
    gives the oracle's answer, before and after eta_normalize has marked
    the term; eta_normalize raises exactly when the oracle finds a
    beta-redex, and otherwise gives the oracle's eta-normal form."""
    rng = random.Random(1215)
    marked = marked_abstractions()
    seen = Counter()
    for _ in range(300):
        hnf = random_hnf(rng)
        for t in (
            random_term(rng, rng.randint(1, 25)),
            random_closed_term(rng, rng.randint(2, 25)),
            beta_expand(hnf, rng, rng.randint(1, 3)),
            eta_expand(hnf, rng, rng.randint(1, 3)),
            random_spine_term(rng, marked),
            Lam("y", app(Var("v"), *rng.sample(marked, 2))),
        ):
            has_beta = oracle.beta_step_normal_order(t) is not None
            normal = oracle.is_beta_eta_normal(t)
            seen[has_beta, normal] += 1
            assert is_beta_eta_normal(t) == normal
            if has_beta:
                with pytest.raises(NotBetaNormalError):
                    eta_normalize(t)
            else:
                assert eta_normalize(t) == oracle.beta_eta_normalize(t).term
            assert is_beta_eta_normal(t) == normal
            assert_caches_sound(t)
    assert seen[True, False] > 800 and seen[False, False] > 100 and seen[False, True] > 500
    assert all(is_marked(d) for d in marked)


# ---------------------------------------------------------------------------
# The walk on a stack against the recursive walk it replaced

def walk_like_recursion(t, m):
    """terms._substitute(t, m), which must be == to the recursive walk's
    result, oracle._substitute, and so carry the same binder names, and
    must share the same nodes: at each place the two results hold one
    object, or each a node that neither t nor a value of m holds."""
    names = frozenset(m)
    risk = frozenset().union(*(v._fv for v in m.values()))
    out = numlam_terms._substitute(t, m, names, risk)
    expected = oracle._substitute(t, m, names, risk)
    assert out == expected
    given = {id(node) for term in (t, *m.values()) for node in preorder(term)}
    pairs = [(out, expected)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        assert id(a) not in given and id(b) not in given
        if isinstance(a, Lam):
            pairs.append((a.body, b.body))
        elif isinstance(a, App):
            pairs += ((a.fn, b.fn), (a.arg, b.arg))
    return out


def test_substitution_walk_matches_the_recursive_walk_on_seeded_corpus():
    """Maps whose values hold binder names of the term, so binders are
    renamed; and maps onto the very Var the term holds, as the parser
    shares one Var per name, so whole subtrees come back as themselves."""
    rng = random.Random(2201)
    renamed = itself = kept = 0
    for _ in range(2500):
        t = random_term(rng, rng.randint(1, 40), free_pool=NAMES)
        if rng.random() < 0.3:
            t = parse_term(pretty(t))
        free = sorted(free_vars(t))
        if not free:
            continue
        if rng.random() < 0.7:
            m = open_substitution(rng, t)
            m[rng.choice(free)] = random_term(rng, rng.randint(1, 8), free_pool=BINDER_POOL)
        else:
            occurrences = [node for node in preorder(t) if isinstance(node, Var) and node.name in free]
            m = {node.name: node for node in rng.sample(occurrences, rng.randint(1, len(occurrences)))}
            itself += 1
        out = walk_like_recursion(t, m)
        kept += out is t
        renamed += bool(binders(out) - binders(t) - set().union(*map(binders, m.values())))
        assert_caches_sound(out)
    assert renamed > 200 and itself > 500 and kept > 400, (renamed, itself, kept)


def church_body(depth, leaf):
    """f (f (… (f leaf))), nested along its arguments."""
    for _ in range(depth):
        leaf = App(Var("f"), leaf)
    return leaf


def binder_chain(depth, body):
    """λa0.λa1.….body, nested along its bodies."""
    for i in reversed(range(depth)):
        body = Lam(f"a{i}", body)
    return body


def test_substitution_walk_is_stack_safe():
    """Terms deeper than the recursion limit the tests run at (hypothesis
    raises it to about 2,000 while a test runs), checked against terms
    built directly, with the walk's ==."""
    depth = 10_000
    t = church_body(depth, Var("y"))
    assert substitute(t, {"y": I}) == church_body(depth, I)
    t = binder_chain(depth, App(Var("y"), Var("a0")))
    assert substitute(t, {"y": Var("z")}) == binder_chain(depth, App(Var("z"), Var("a0")))
    # The binder x under 5,000 levels of each kind captures the x of the
    # replacement, so it is renamed.
    inner = Lam("x", App(Var("y"), Var("x")))
    renamed = Lam("x'", App(Var("x"), Var("x'")))
    t = church_body(5_000, binder_chain(5_000, inner))
    out = substitute(t, {"y": Var("x")})
    assert out == church_body(5_000, binder_chain(5_000, renamed))
    assert hash(out) == hash(church_body(5_000, binder_chain(5_000, renamed)))
    # Where nothing changes, the term comes back as itself.
    y = Var("y")
    t = church_body(depth, binder_chain(depth, App(y, y)))
    assert substitute(t, {"y": y}) is t


# ---------------------------------------------------------------------------
# Generated by hypothesis

names = st.sampled_from(NAMES)
terms = st.recursive(
    names.map(Var),
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Lam, names, sub)),
    max_leaves=24,
)
substitutions = st.dictionaries(names, terms, max_size=3)
DIFFERENTIAL = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@DIFFERENTIAL
@given(terms, substitutions)
def test_substitute_matches_oracle_on_generated_terms(t, s):
    out = substitute(t, s)
    assert out == oracle.substitute(t, s)
    if not free_vars(t).isdisjoint(s):
        assert walk_like_recursion(t, s) == out
    assert_free_vars_agree(t)
    assert_free_vars_agree(out)


@DIFFERENTIAL
@given(terms, names, terms)
def test_one_binding_substitute_matches_oracle_on_generated_terms(t, x, arg):
    assert_one_binding_like_oracle(t, x, arg)


@DIFFERENTIAL
@given(terms)
def test_beta_normalize_matches_oracle_on_generated_terms(t):
    assert_normalizes_like_oracle(t, Fuel(50))


@DIFFERENTIAL
@given(terms)
def test_fuel_ladder_matches_oracle_on_generated_terms(t):
    assert_fuel_ladder(t, 30)


@DIFFERENTIAL
@given(terms)
def test_head_ladder_matches_oracle_on_generated_terms(t):
    assert_head_ladder(t, 30)


binder_lists = st.lists(names, max_size=3)


@DIFFERENTIAL
@given(terms, terms, binder_lists, binder_lists, terms)
def test_alpha_eq_matches_oracle_on_generated_terms(t1, t2, b1, b2, shared):
    assert alpha_eq(t1, t2) == oracle_alpha_eq(t1, t2)
    assert alpha_eq(t1, rename_bound(t1, random.Random(0)))
    # One subtree object under two lists of binders, alone and in context.
    assert_alpha_eq_like_oracle(lams(b1, shared), lams(b2, shared))
    assert_alpha_eq_like_oracle(lams(b1, App(t1, shared)), lams(b2, App(t2, shared)))


# ---------------------------------------------------------------------------
# The cache itself

def clones(t):
    return copy.deepcopy(t), pickle.loads(pickle.dumps(t)), copy.copy(t)


def test_free_vars_cache_is_invisible():
    t = Lam("x", App(Var("x"), Var("y")))
    fresh = Lam("x", App(Var("x"), Var("y")))
    assert free_vars(t) is free_vars(t) == {"y"}
    assert t == fresh and hash(t) == hash(fresh)
    assert repr(t) == repr(fresh) == "Lam(binder='x', body=App(fn=Var(name='x'), arg=Var(name='y')))"
    u = Lam("z", t)
    for clone in clones(u):
        assert clone == u
        assert free_vars(clone) == {"y"}
        assert _SETS.get(clone._fv) is clone._fv is u._fv
    # Variables and applications carry the set too.
    v = Var("x")
    assert free_vars(v) is v._fv is t.body.fn._fv == {"x"}
    assert repr(v) == "Var(name='x')" and v == Var("x") and hash(v) == hash(Var("x"))
    for clone in clones(v):
        assert clone == v and free_vars(clone) == {"x"}
        assert _SETS.get(clone._fv) is clone._fv is v._fv
    assert t.body._fv == {"x", "y"}
    a = App(App(Var("x"), t), App(t, Var("z")))
    plain = App(App(Var("x"), fresh), App(fresh, Var("z")))
    assert free_vars(a) is a._fv == {"x", "y", "z"} and a.fn._fv == {"x", "y"}
    assert a == plain and hash(a) == hash(plain) and repr(a) == repr(plain)
    assert repr(t.body) == "App(fn=Var(name='x'), arg=Var(name='y'))"
    for clone in clones(a):
        assert clone == a and hash(clone) == hash(plain) and repr(clone) == repr(plain)
        assert free_vars(clone) == {"x", "y", "z"}
        assert _SETS.get(clone._fv) is clone._fv is a._fv
        assert clone.fn._fv is a.fn._fv and clone.arg._fv is a.arg._fv
        assert substitute(clone, {"y": I}) == substitute(plain, {"y": I})
    # So does a pair.
    pair = mk_pair(t, Var("x"))
    plain = Lam("x'", App(App(Var("x'"), fresh), Var("x")))
    assert free_vars(pair) == {"x", "y"}
    assert pair == plain and hash(pair) == hash(plain) and repr(pair) == repr(plain)
    for clone in clones(pair):
        assert clone == pair
        assert free_vars(clone) == {"x", "y"}
        assert _SETS.get(clone._fv) is clone._fv is pair._fv
    # A clone of a closed abstraction that no reduction has marked holds
    # the shared empty set, so a reduction marks it as it marks the
    # original.
    for clone in clones(church(2)) + clones(barendregt(3)):
        assert clone._fv is _NO_NAMES
        assert beta_eta_normalize(clone).term is clone and clone._fv is _BETA_ETA_NORMAL
    # A closed normal form a reduction returned is marked in the same slot,
    # and a clone keeps the mark.
    d = barendregt(3)
    plain = barendregt(3)
    assert beta_eta_normalize(d).term is d and d._fv is _BETA_ETA_NORMAL
    assert d == plain and hash(d) == hash(plain) and repr(d) == repr(plain)
    for clone in clones(d):
        assert clone == d and hash(clone) == hash(d) and repr(clone) == repr(d)
        assert clone._fv is _BETA_ETA_NORMAL
        assert free_vars(clone) == frozenset()
        assert beta_eta_normalize(clone) == beta_eta_normalize(plain)


def test_a_clone_keeps_sharing_within_a_term_not_across_terms():
    """A node shared inside a term stays one object in its clones.  Two
    terms pickled or copied together are rebuilt apart, even where one
    holds the other, and copy.copy copies the whole term."""
    d = church(2)
    t = App(d, Lam("x", App(Var("x"), d)))
    for clone in clones(t):
        assert clone == t and clone.fn is clone.arg.body.arg is not d
    both = [d, t]
    for fn, arg in (copy.deepcopy(both), pickle.loads(pickle.dumps(both))):
        assert arg.fn is arg.arg.body.arg is not fn
        assert alpha_eq(arg.fn, fn) and alpha_eq(arg, t)
