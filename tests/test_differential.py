"""The engine against the named engine kept in tests/oracle.py.

Free variables are cached on abstractions and `substitute` skips the
abstractions in which nothing it replaces is free.  Neither may change a
result: every term must come out structurally equal to the oracle's, with
the same binder names, and every step count must be the same.  The inputs
are seeded termgen corpora, real contract terms and a hypothesis strategy.
"""

import copy
import pickle
import random

from hypothesis import given, settings, strategies as st

import oracle
from numlam import (
    App,
    Fuel,
    Lam,
    Var,
    app,
    beta_eta_normalize,
    beta_normalize,
    builtin_system,
    church,
    church_k_term,
    free_vars,
    is_beta_eta_normal,
    mk_pair,
    substitute,
)
from termgen import (
    BINDER_POOL,
    FREE_POOL,
    beta_expand,
    random_closed_term,
    random_hnf,
    random_term,
)

# Replacements draw their free names from the binder pool too, so they
# collide with the binders of the term they go into and force renaming.
NAMES = BINDER_POOL + FREE_POOL


def binders(t):
    out = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Lam):
            out.add(node.binder)
            stack.append(node.body)
        elif isinstance(node, App):
            stack.extend((node.fn, node.arg))
    return out


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
        # Ask about some subterms first, so that cached and uncached
        # abstractions meet in one substitution.
        if rng.random() < 0.5:
            free_vars(t)
        out = substitute(t, s)
        expected = oracle.substitute(t, s)
        assert out == expected
        assert_free_vars_agree(t)
        assert_free_vars_agree(out)
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


def test_mk_pair_matches_oracle_on_open_terms():
    rng = random.Random(1203)
    pool = ("x", "x'", "x''", "u")
    for _ in range(500):
        m = random_term(rng, rng.randint(1, 10), free_pool=pool)
        n = random_term(rng, rng.randint(1, 10), free_pool=pool)
        assert mk_pair(m, n) == oracle.mk_pair(m, n)


def assert_normalizes_like_oracle(t, fuel):
    assert beta_normalize(t, fuel) == oracle.beta_normalize(t, fuel)
    out = beta_eta_normalize(t, fuel)
    assert out == oracle.beta_eta_normalize(t, fuel)
    assert is_beta_eta_normal(out.term) == oracle.is_beta_eta_normal(out.term)


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
    assert_free_vars_agree(t)
    assert_free_vars_agree(out)


@DIFFERENTIAL
@given(terms)
def test_beta_normalize_matches_oracle_on_generated_terms(t):
    assert_normalizes_like_oracle(t, Fuel(50))


# ---------------------------------------------------------------------------
# The cache itself

def test_free_vars_cache_is_invisible():
    t = Lam("x", App(Var("x"), Var("y")))
    fresh = Lam("x", App(Var("x"), Var("y")))
    assert free_vars(t) is free_vars(t) == {"y"}
    assert t == fresh and hash(t) == hash(fresh)
    assert repr(t) == repr(fresh) == "Lam(binder='x', body=App(fn=Var(name='x'), arg=Var(name='y')))"
    for filled in (True, False):
        u = Lam("z", t)
        if filled:
            free_vars(u)
        for clone in (copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
            assert clone == u
            assert free_vars(clone) == {"y"}
