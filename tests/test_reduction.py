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
    beta_step_normal_order,
    builtin_system,
    church,
    church_k_term,
    eta_normalize,
    free_vars,
    head_redex,
    head_reduce,
    head_step,
    is_beta_eta_normal,
    is_head_normal_form,
    mk_pair,
    parse_term,
    size,
    solvable,
    substitute,
    tilde_numeral,
)
from numlam import reduction
from numlam.terms import _BETA_ETA_NORMAL
from termgen import beta_expand, random_closed_term, random_hnf, random_term

OMEGA = parse_term(r"(\x.x x) (\x.x x)")


def test_beta_step_simple_redex():
    assert beta_step_normal_order(parse_term(r"(\x.x) y")) == Var("y")


def test_beta_step_outermost_first():
    t = parse_term(r"(\x.\y.x) a b")
    stepped = beta_step_normal_order(t)
    assert stepped == parse_term(r"(\y.a) b")


def test_beta_step_normal_term():
    assert beta_step_normal_order(I) is None


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
    # Dataclass == recurses, so walk the result down its spine.
    node = out.term.body.body
    for _ in range(depth):
        assert node.fn == Var("f")
        node = node.arg
    assert node == Var("x")



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
    # abstraction, which the walk marks before it meets the redex: the mark
    # must not hide the redex from a second call.
    nested = parse_term(r"\x.((\y.y) w) x")
    beside = parse_term(r"v (\x.\y.y x) ((\z.z) w)")
    for t in (nested, beside):
        for _ in range(2):
            with pytest.raises(NotBetaNormalError):
                eta_normalize(t)
    assert beside.fn.arg._fv is _BETA_ETA_NORMAL


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
    assert beta_eta_eq(App(succ, church(3)), church(4)).is_equal
    assert beta_eta_eq(T, F).is_distinct
    verdict = beta_eta_eq(OMEGA, I, Fuel(100))
    assert verdict.is_unknown and verdict.reason


def test_head_step_contracts_under_binders():
    assert head_step(parse_term(r"(\x.x) y")) == Var("y")
    assert head_step(parse_term(r"\z.(\x.x) a b")) == parse_term(r"\z.a b")
    assert head_step(Var("x")) is None


def test_head_redex_classification():
    t = parse_term(r"\x.(\y.y) a b")
    redex = head_redex(t)
    assert redex == parse_term(r"(\y.y) a")
    assert head_redex(parse_term(r"\x.x ((\y.y) a)")) is None
    assert head_redex(Var("x")) is None
    assert is_head_normal_form(Var("x"))


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
    assert solvable(I) == 0
    assert solvable(OMEGA, Fuel(100)) is None
    assert solvable(parse_term("Z x y")) == 0


def test_each_step_is_one_call_of_the_name_the_benchmark_wraps(monkeypatch):
    """bench/spans.py counts and times contractions by wrapping
    `numlam.reduction.substitute`: each beta step of `beta_normalize` and
    each head step of `head_reduce` must be exactly one call of it."""
    calls = []
    contract = reduction.substitute

    def counting(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(reduction, "substitute", counting)
    cases = (
        app(church_k_term(), church(3), church(2)),
        app(builtin_system("church").predecessor, church(5)),
    )
    for t in cases:
        calls.clear()
        out = beta_normalize(t)
        assert out.steps > 10 and len(calls) == out.steps
    calls.clear()
    result = head_reduce(parse_term(r"(\x.x x x)(\x.x x x)"), Fuel(1000))
    assert not result.reached_hnf and result.trace.length == 1000 == len(calls)


# ---------------------------------------------------------------------------
# Properties

def test_strategy_soundness_with_witnessed_steps():
    rng = random.Random(606)
    for _ in range(60):
        t = random_term(rng, rng.randint(1, 25))
        out = beta_normalize(t, Fuel(200))
        if not isinstance(out, Normal):
            continue
        chain = [t]
        while True:
            nxt = beta_step_normal_order(chain[-1])
            if nxt is None:
                break
            chain.append(nxt)
        assert len(chain) - 1 == out.steps
        assert chain[-1] == out.term
        assert beta_step_normal_order(out.term) is None


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
        assert solvable(expanded, Fuel(10 * size(expanded))) is not None


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
