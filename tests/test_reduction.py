import random

import pytest

from numlam import (
    App,
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
    a_numeral,
    barendregt,
    beta_eta_eq,
    beta_eta_normalize,
    beta_normalize,
    builtin_system,
    church,
    church_k_term,
    eta_normalize,
    free_vars,
    head_reduce,
    is_beta_eta_normal,
    mk_pair,
    parse_term,
    size,
    substitute,
    tilde_numeral,
)
from numlam import reduction, terms
from termgen import beta_expand, random_closed_term, random_hnf, random_term

OMEGA = parse_term(r"(\x.x x) (\x.x x)")


def test_beta_step_simple_redex():
    assert beta_normalize(parse_term(r"(\x.x) y"), Fuel(1)) == Normal(Var("y"), 1)


def test_beta_step_outermost_first():
    t = parse_term(r"(\x.\y.x) a b")
    assert beta_normalize(t, Fuel(1)) == OutOfFuel(parse_term(r"(\y.a) b"), 1)


def test_beta_step_normal_term():
    assert beta_normalize(I, Fuel(1)) == Normal(I, 0)


def test_beta_normalize_successor_application():
    succ = builtin_system("barendregt").successor
    out = beta_normalize(App(succ, barendregt(0)))
    assert isinstance(out, Normal)
    assert alpha_eq(out.term, barendregt(1))


def test_beta_normalize_is_stack_safe():
    # λf.λx.f (f (… ((λy.y) x))) with the one redex 30,000 levels down,
    # deeper than the recursion limit the tests run under.
    depth = 30_000
    body = App(Lam("y", Var("y")), Var("x"))
    for _ in range(depth):
        body = App(Var("f"), body)
    t = Lam("f", Lam("x", body))
    out = beta_normalize(t)
    assert isinstance(out, Normal) and out.steps == 1
    assert beta_normalize(out.term).term is out.term
    expected = Var("x")
    for _ in range(depth):
        expected = App(Var("f"), expected)
    assert out.term == Lam("f", Lam("x", expected))



def test_beta_normalize_long_spine_and_head_chain_are_stack_safe():
    n = 50_000
    ident = Lam("z", Var("z"))
    # x ((λz.z) w) … ((λz.z) w): 50,000 arguments, each a redex.
    spine = Var("x")
    for _ in range(n):
        spine = App(spine, App(ident, Var("w")))
    out = beta_normalize(spine)
    assert isinstance(out, Normal) and out.steps == n
    node = out.term
    for _ in range(n):
        assert node.arg == Var("w")
        node = node.fn
    assert node == Var("x")
    # Out of fuel halfway: the first half of the arguments is normal.
    out = beta_normalize(spine, Fuel(n // 2))
    assert isinstance(out, OutOfFuel) and out.steps == n // 2
    node = out.term
    for k in range(n):
        assert node.arg == (App(ident, Var("w")) if k < n // 2 else Var("w"))
        node = node.fn
    assert node == Var("x")
    # (λz.z) ((λz.z) (… ((λz.z) y))): each contractum is the next head redex.
    chain = Var("y")
    for _ in range(n):
        chain = App(ident, chain)
    assert beta_normalize(chain) == Normal(Var("y"), n)
    out = beta_normalize(chain, Fuel(n - 1))
    assert isinstance(out, OutOfFuel) and out.steps == n - 1
    assert out.term == App(ident, Var("y"))

def test_beta_normalize_omega_runs_out_of_fuel():
    out = beta_normalize(OMEGA, Fuel(100))
    assert isinstance(out, OutOfFuel)
    assert out.steps == 100


def test_beta_normalize_pair_projection():
    t = App(mk_pair(Var("a"), Var("b")), T)
    out = beta_normalize(t)
    assert isinstance(out, Normal) and out.term == Var("a")


def test_eta_contracts_simple_redex():
    assert eta_normalize(parse_term(r"\x.y x")) == Var("y")


def test_eta_keeps_self_application():
    t = parse_term(r"\x.x x")
    assert eta_normalize(t) is t


def test_eta_shares_untouched_subtrees():
    t = parse_term(r"\a.a (\c.c c) (\x.y x)")
    out = eta_normalize(t)
    assert out == parse_term(r"\a.a (\c.c c) y")
    assert out.body.fn.arg is t.body.fn.arg


def test_eta_normalize_is_stack_safe():
    # λf.f (f (… (λz.g z))) with the one eta-redex 30,000 levels down.
    depth = 30_000
    body = Lam("z", App(Var("g"), Var("z")))
    for _ in range(depth):
        body = App(Var("f"), body)
    t = Lam("f", body)
    out = beta_eta_normalize(t)
    assert isinstance(out, Normal) and (out.steps, out.eta_steps) == (0, 1)
    assert eta_normalize(out.term) is out.term
    node = out.term.body
    for _ in range(depth):
        assert node.fn == Var("f")
        node = node.arg
    assert node == Var("g")


def test_eta_cascades():
    assert eta_normalize(parse_term(r"\y.\x.y x")) == Lam("y", Var("y"))


def test_eta_rejects_non_beta_normal_input():
    with pytest.raises(NotBetaNormalError):
        eta_normalize(parse_term(r"(\x.x) y"))
    # A redex inside an eta-redex, and one beside a closed eta-normal
    # abstraction that comes first in the order of the walk: neither hides
    # the redex, from a first call or a second.
    nested = parse_term(r"\x.((\y.y) w) x")
    beside = parse_term(r"v (\x.\y.y x) ((\z.z) w)")
    for t in (nested, beside):
        for _ in range(2):
            with pytest.raises(NotBetaNormalError):
                eta_normalize(t)


def test_normal_form_tests_make_no_contraction(monkeypatch):
    """is_beta_eta_normal and eta_normalize find a beta-redex with no step
    to spend: on (λx.v x … x) ⌜3000⌝, whose contraction would put the
    numeral in 3,000 places for the pass to walk, they contract nothing."""
    contract = reduction._contract
    calls = []

    def counting(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(reduction, "_contract", counting)
    body = Var("v")
    for _ in range(3000):
        body = App(body, Var("x"))
    t = App(Lam("x", body), church(3000))
    assert not is_beta_eta_normal(t)
    with pytest.raises(NotBetaNormalError):
        eta_normalize(t)
    assert calls == []
    # The count sees a contraction of the machine.
    assert beta_normalize(App(I, Var("y"))) == Normal(Var("y"), 1)
    assert len(calls) == 1


def test_beta_eta_normalize_tilde_zero_test():
    z = builtin_system("tilde").zero_test
    out = beta_eta_normalize(App(z, tilde_numeral(1)))
    assert isinstance(out, Normal)
    assert alpha_eq(out.term, F)


def test_beta_eta_normalize_identity_zero_steps():
    out = beta_eta_normalize(I)
    assert isinstance(out, Normal) and out.term == I and out.steps == 0


def test_beta_eta_normalize_barendregt_predecessor():
    pred = builtin_system("barendregt").predecessor
    out = beta_eta_normalize(App(pred, barendregt(2)))
    assert isinstance(out, Normal)
    assert alpha_eq(out.term, barendregt(1))


def test_is_beta_eta_normal_on_numerals():
    # Church numerals are beta-normal, but ⌜1⌝ = λf.λx.(f x) contains an
    # eta-redex; every other index is fully normal.
    assert not is_beta_eta_normal(church(1))
    for n in (0, 2, 3, 7, 20):
        assert is_beta_eta_normal(church(n))
    for n in range(10):
        assert is_beta_eta_normal(barendregt(n))


def test_is_beta_eta_normal_rejects_redexes():
    assert not is_beta_eta_normal(parse_term(r"(\x.x) y"))
    assert not is_beta_eta_normal(parse_term(r"\x.y x"))


def test_beta_eta_eq_examples():
    succ = builtin_system("church").successor
    assert beta_eta_eq(App(succ, church(3)), church(4)).kind == "equal"
    assert beta_eta_eq(T, F).kind == "distinct"
    verdict = beta_eta_eq(OMEGA, I, Fuel(100))
    assert verdict.kind == "unknown" and verdict.reason


def head_step(t):
    """One step of head_reduce: the term it leaves, or None at head normal
    form."""
    trace = head_reduce(t, Fuel(1)).trace
    return trace.final if trace.length else None


def test_head_step_contracts_under_binders():
    assert head_step(parse_term(r"(\x.x) y")) == Var("y")
    assert head_step(parse_term(r"\z.(\x.x) a b")) == parse_term(r"\z.a b")
    assert head_step(Var("x")) is None


def test_head_redex_classification():
    """A head redex under binders is contracted; a redex in argument
    position is not a head redex."""
    assert head_step(parse_term(r"\x.(\y.y) a b")) == parse_term(r"\x.a b")
    for hnf in (parse_term(r"\x.x ((\y.y) a)"), Var("x")):
        result = head_reduce(hnf, Fuel(1))
        assert result.reached_hnf and result.trace.length == 0


def test_head_reduce_a_system_predecessor():
    pred = builtin_system("a").predecessor
    result = head_reduce(App(pred, a_numeral(3)))
    assert result.reached_hnf
    assert alpha_eq(result.trace.final, a_numeral(2))
    assert result.trace.length == 2


def test_head_reduce_omega_out_of_fuel():
    result = head_reduce(OMEGA, Fuel(50))
    assert not result.reached_hnf
    assert result.trace.length == 50


def test_head_reduce_c_zero_test():
    z = builtin_system("c").zero_test
    result = head_reduce(App(z, builtin_system("c").numeral(0)))
    assert result.reached_hnf
    assert alpha_eq(result.trace.final, T)


def test_solvable():
    for t in (I, parse_term("Z x y")):
        result = head_reduce(t)
        assert result.reached_hnf and result.trace.length == 0
    assert not head_reduce(OMEGA, Fuel(100)).reached_hnf


def subterms(t):
    """The distinct nodes of t, by identity."""
    seen = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if type(node) is Lam:
                stack.append(node.body)
            elif type(node) is App:
                stack += (node.fn, node.arg)
    return seen


def test_substitution_goes_through_the_name_the_benchmark_wraps(monkeypatch):
    """bench/spans.py counts and times substitution by wrapping
    `numlam.reduction.substitute`, so all substitution work of
    `beta_normalize` and `head_reduce` must go through that name.  A call
    is (node, m, names, risk) for a map m of the redex binders to their
    arguments, which are closed when there are several, and substitutes
    into a part of a redex body that holds a substituted name and is not a
    variable: a step whose bound name occurs only as variables on the
    body's left spine makes no call."""
    calls = []
    results = []
    inside = [0]
    contract = reduction.substitute

    def counting(*args):
        calls.append(args)
        inside[0] += 1
        try:
            result = contract(*args)
        finally:
            inside[0] -= 1
        results.append(result)
        return result

    def only_inside(walk):
        def guarded(*args):
            assert inside[0], "a substitution outside reduction.substitute"
            return walk(*args)
        return guarded

    monkeypatch.setattr(reduction, "substitute", counting)
    monkeypatch.setattr(terms, "_substitute", only_inside(terms._substitute))
    cases = (
        app(church_k_term(), church(3), church(2)),
        app(builtin_system("church").predecessor, church(5)),
    )
    counts = []
    for t in cases:
        calls.clear()
        results.clear()
        out = beta_normalize(t)
        # Every redex abstraction is a node of t or of a call's result.
        bodies = {}
        for root in [t] + results:
            for key, node in subterms(root).items():
                if type(node) is Lam and key not in bodies:
                    bodies[key] = (node.binder, subterms(node.body))
        maps = 0
        for node, m, names, risk in calls:
            assert names == set(m) and risk == set().union(*map(free_vars, m.values()))
            if len(m) > 1:
                assert not risk
            maps += 1
            assert type(node) is not Var and names & free_vars(node)
            assert any(b in names and id(node) in ids for b, ids in bodies.values())
        counts.append((out.steps, len(calls), maps))
    calls.clear()
    result = head_reduce(parse_term(r"(\x.x x x)(\x.x x x)"), Fuel(1000))
    assert not result.reached_hnf and result.trace.length == 1000
    counts.append((result.trace.length, len(calls), 0))
    assert counts == [(98, 32, 32), (38, 21, 21), (1000, 0, 0)]

    def refuse(*args):
        raise RuntimeError("reduction.substitute")

    monkeypatch.setattr(reduction, "substitute", refuse)
    for t in cases:
        with pytest.raises(RuntimeError, match="reduction.substitute"):
            beta_normalize(t)


def test_reading_head_states_makes_no_call_through_the_wrapped_name(monkeypatch):
    """bench/spans.py counts the calls of a head_reduce through
    `numlam.reduction.substitute`, then reads the trace's states: the
    replay that builds them substitutes with the walk of `terms` itself,
    so each contraction is counted once."""
    calls = []
    walk = reduction.substitute

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(reduction, "substitute", counting)
    t = app(builtin_system("church").predecessor, church(5))
    result = head_reduce(t)
    assert result.reached_hnf and (result.trace.length, len(calls)) == (12, 6)
    states = result.trace.states
    assert len(states) == 13 and states[0] is t and states[-1] is result.trace.final
    assert len(calls) == 6


# ---------------------------------------------------------------------------
# Properties

def test_strategy_soundness_with_witnessed_steps():
    rng = random.Random(606)
    for _ in range(60):
        t = random_term(rng, rng.randint(1, 25))
        out = beta_normalize(t, Fuel(200))
        if not isinstance(out, Normal):
            continue
        # One pass makes the steps that single steps from the root make.
        chain = [t]
        while (step := beta_normalize(chain[-1], Fuel(1))).steps:
            chain.append(step.term)
        assert len(chain) - 1 == out.steps
        assert chain[-1] == out.term


def test_eta_after_beta_stability():
    rng = random.Random(707)
    checked = 0
    for _ in range(200):
        t = random_term(rng, rng.randint(1, 25))
        out = beta_normalize(t, Fuel(300))
        if not isinstance(out, Normal):
            continue
        result = eta_normalize(out.term)
        assert is_beta_eta_normal(result)
        checked += 1
    assert checked > 100


def test_head_reduction_commutes_with_substitution():
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        u = random_term(rng, rng.randint(3, 40))
        run = head_reduce(u, Fuel(50))
        h = run.trace.length
        if h == 0:
            continue
        v = run.trace.states[h]
        names = sorted(free_vars(u))
        sigma = {
            name: random_closed_term(rng, rng.randint(2, 12))
            for name in names
            if rng.random() < 0.7
        }
        su = substitute(u, sigma)
        sv = substitute(v, sigma)
        replay = head_reduce(su, Fuel(h))
        assert replay.trace.length == h
        assert alpha_eq(replay.trace.states[h], sv)
        checked += 1


def test_beta_expansion_of_hnf_stays_solvable():
    rng = random.Random(909)
    for _ in range(30):
        base = random_hnf(rng)
        expanded = beta_expand(base, rng, rng.randint(1, 30))
        assert head_reduce(expanded, Fuel(10 * size(expanded))).reached_hnf


def test_normalizing_normal_term_is_stationary():
    rng = random.Random(111)
    for _ in range(50):
        t = random_term(rng, rng.randint(1, 20))
        out = beta_normalize(t, Fuel(300))
        if isinstance(out, Normal):
            again = beta_normalize(out.term)
            assert again.steps == 0
            assert again.term == out.term


def test_reduction_is_deterministic():
    t = app(builtin_system("church").predecessor, church(6))
    first = beta_eta_normalize(t)
    second = beta_eta_normalize(t)
    assert first == second
    r1 = head_reduce(t, Fuel(40))
    r2 = head_reduce(t, Fuel(40))
    assert r1.trace.states == r2.trace.states and r1.reached_hnf == r2.reached_hnf
