"""Seeded random term generators shared by the property and acceptance tests."""

from __future__ import annotations

import random

import oracle
from numlam import App, Lam, Term, Var, free_vars, parse_term
from numlam.terms import _BETA_ETA_NORMAL, _NO_NAMES, _SETS, _EtaForm

BINDER_POOL = ("x", "y", "z", "f", "g", "x'", "_v1")
FREE_POOL = ("u", "v", "w")


def random_term(rng: random.Random, budget: int, scope=(), free_pool=FREE_POOL) -> Term:
    """A random term of roughly `budget` nodes.  Binder names come from a
    small pool so shadowing happens; `scope` seeds the bound names."""
    scope = tuple(scope)
    if not scope and not free_pool:
        name = rng.choice(BINDER_POOL)
        return Lam(name, random_term(rng, budget - 1, (name,), free_pool))
    if budget <= 1:
        return Var(rng.choice(scope + tuple(free_pool)))
    roll = rng.random()
    if budget >= 3 and roll < 0.45:
        left = rng.randint(1, budget - 2)
        return App(
            random_term(rng, left, scope, free_pool),
            random_term(rng, budget - 1 - left, scope, free_pool),
        )
    if roll < 0.8:
        name = rng.choice(BINDER_POOL)
        return Lam(name, random_term(rng, budget - 1, scope + (name,), free_pool))
    return Var(rng.choice(scope + tuple(free_pool)))


def random_closed_term(rng: random.Random, budget: int) -> Term:
    return random_term(rng, budget, scope=(), free_pool=())


def rename_bound(t: Term, rng: random.Random) -> Term:
    """An alpha-variant of t with globally fresh binder names."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"r{counter[0]}_{rng.randint(0, 9)}"

    def go(node: Term, env: dict[str, str]) -> Term:
        if isinstance(node, Var):
            return Var(env.get(node.name, node.name))
        if isinstance(node, App):
            return App(go(node.fn, env), go(node.arg, env))
        name = fresh()
        return Lam(name, go(node.body, {**env, node.binder: name}))

    return go(t, {})


def oracle_alpha_eq(t1: Term, t2: Term) -> bool:
    """Naive alpha-equivalence: canonically rename binders with fresh names
    in traversal order, then compare structurally.  Independent of the
    nameless-form route used by the library."""
    avoid = free_vars(t1) | free_vars(t2)

    def canon(t: Term) -> Term:
        counter = [0]

        def fresh() -> str:
            while True:
                name = f"c{counter[0]}"
                counter[0] += 1
                if name not in avoid:
                    return name

        def go(node: Term, env: dict[str, list[str]]) -> Term:
            if isinstance(node, Var):
                stack = env.get(node.name)
                return Var(stack[-1]) if stack else node
            if isinstance(node, App):
                return App(go(node.fn, env), go(node.arg, env))
            name = fresh()
            env.setdefault(node.binder, []).append(name)
            body = go(node.body, env)
            env[node.binder].pop()
            return Lam(name, body)

        return go(t, {})

    return canon(t1) == canon(t2)


# ---------------------------------------------------------------------------
# Positions and beta-expansion

def preorder(t: Term) -> list[Term]:
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Lam):
            stack.append(node.body)
        elif isinstance(node, App):
            stack.extend((node.arg, node.fn))
    return out


def binders(t: Term) -> set[str]:
    return {node.binder for node in preorder(t) if isinstance(node, Lam)}


def positions(t: Term) -> list[tuple[int, ...]]:
    out = [()]
    if isinstance(t, Lam):
        out.extend((0,) + p for p in positions(t.body))
    elif isinstance(t, App):
        out.extend((0,) + p for p in positions(t.fn))
        out.extend((1,) + p for p in positions(t.arg))
    return out


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for step in path:
        t = t.body if isinstance(t, Lam) else (t.fn if step == 0 else t.arg)
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    step, rest = path[0], path[1:]
    if isinstance(t, Lam):
        return Lam(t.binder, replace_at(t.body, rest, new))
    if step == 0:
        return App(replace_at(t.fn, rest, new), t.arg)
    return App(t.fn, replace_at(t.arg, rest, new))


def random_hnf(rng: random.Random, arg_budget: int = 8) -> Term:
    """A random head normal form λx1…λxn.(h a1…am) with arbitrary arguments."""
    binders = [rng.choice(BINDER_POOL) for _ in range(rng.randint(0, 3))]
    heads = tuple(binders) + FREE_POOL
    body: Term = Var(rng.choice(heads))
    for _ in range(rng.randint(0, 3)):
        body = App(body, random_term(rng, rng.randint(1, arg_budget), tuple(binders)))
    for b in reversed(binders):
        body = Lam(b, body)
    return body


def beta_expand(t: Term, rng: random.Random, steps: int) -> Term:
    """Wrap random subterms S as ((λv.S) w) with v fresh for S and w closed,
    so each wrap adds one beta-redex whose contraction restores the term."""
    counter = [0]
    for _ in range(steps):
        path = rng.choice(positions(t))
        sub = subterm_at(t, path)
        fvs = free_vars(sub)
        while True:
            name = f"e{counter[0]}"
            counter[0] += 1
            if name not in fvs:
                break
        junk = random_closed_term(rng, rng.randint(2, 8))
        t = replace_at(t, path, App(Lam(name, sub), junk))
    return t


def eta_expand(t: Term, rng: random.Random, steps: int) -> Term:
    """Wrap random subterms S as λv.(S v) with v fresh for S, so each wrap
    adds one eta-redex."""
    counter = [0]
    for _ in range(steps):
        path = rng.choice(positions(t))
        sub = subterm_at(t, path)
        fvs = free_vars(sub)
        while True:
            name = f"h{counter[0]}"
            counter[0] += 1
            if name not in fvs:
                break
        t = replace_at(t, path, Lam(name, App(sub, Var(name))))
    return t


def random_spine_term(rng: random.Random, marked: tuple, depth: int = 2, scope=()) -> Term:
    """A random λb1…λbk.(h V1 … Vm) for the normal-order machine: the head h
    is a variable, an abstraction or one of the `marked` closed normal
    abstractions, so that some heads are redexes, and each argument is a
    term with beta-redexes inside, a nested term of the same kind (down to
    `depth`), a marked abstraction or a plain random term."""
    binders = tuple(rng.choice(BINDER_POOL) for _ in range(rng.randint(0, 2)))
    scope = tuple(scope) + binders
    roll = rng.random()
    if roll < 0.5:
        body: Term = Var(rng.choice(scope + FREE_POOL))
    elif roll < 0.75:
        name = rng.choice(BINDER_POOL)
        body = Lam(name, random_term(rng, rng.randint(1, 8), scope + (name,)))
    else:
        body = rng.choice(marked)
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.3 and depth > 0:
            arg = random_spine_term(rng, marked, depth - 1, scope)
        elif roll < 0.55:
            arg = beta_expand(random_term(rng, rng.randint(1, 6), scope), rng, rng.randint(1, 2))
        elif roll < 0.75:
            arg = rng.choice(marked)
        else:
            arg = random_term(rng, rng.randint(1, 8), scope)
        body = App(body, arg)
    for b in reversed(binders):
        body = Lam(b, body)
    return body


def random_spine_redex(rng: random.Random) -> Term:
    """A redex (λx.B) N whose body B is a long application spine
    h A1 … Am, for the machine's contraction, which pushes the arguments
    of B's left spine while x is free in the application.  The spine is
    made of segments whose arguments all hold x or all do not, so one
    contraction pushes some arguments and leaves the applications below
    the first one without x as they are.  The head h is x, another
    variable or an abstraction, which may hold x; N is a variable, a
    small closed term that may take the pushed arguments in turn, or a
    term with redexes.  The redex is applied to further arguments, put
    under binders and sometimes in argument position."""
    x = rng.choice(BINDER_POOL)
    outer = tuple(rng.choice(BINDER_POOL) for _ in range(rng.randint(0, 2)))
    # Names other than x, so that an argument drawn from them lacks x.
    others = tuple(n for n in outer + FREE_POOL if n != x)
    roll = rng.random()
    if roll < 0.4:
        body: Term = Var(x)
    elif roll < 0.6:
        body = Var(rng.choice(others))
    else:
        name = rng.choice(BINDER_POOL)
        body = Lam(name, random_term(rng, rng.randint(1, 6), (x, name) + others))
    for _ in range(rng.randint(1, 4)):
        holds_x = rng.random() < 0.6
        for _ in range(rng.randint(1, 3)):
            if not holds_x:
                arg = random_term(rng, rng.randint(1, 5), others, ())
            elif rng.random() < 0.5:
                arg = Var(x)
            else:
                arg = random_term(rng, rng.randint(1, 5), (x,) + others, ())
                if x not in free_vars(arg):
                    arg = App(arg, Var(x))
            body = App(body, arg)
    roll = rng.random()
    if roll < 0.3:
        value: Term = Var(rng.choice(others))
    elif roll < 0.75:
        value = random_closed_term(rng, rng.randint(2, 7))
    else:
        value = beta_expand(random_term(rng, rng.randint(1, 6), others, ()), rng, 1)
    t: Term = App(Lam(x, body), value)
    for _ in range(rng.randint(0, 2)):
        t = App(t, random_term(rng, rng.randint(1, 5), outer))
    if rng.random() < 0.3:
        t = App(Var(rng.choice(others)), t)
    for b in reversed(outer):
        t = Lam(b, t)
    return t


def random_chain_redex(rng: random.Random, marked: tuple) -> Term:
    """A curried application (λx1…λxk.B) A1 … An with n fewer than, as
    many as or more than k, for the beta pass, which contracts a run of
    closed arguments meeting a chain of abstractions in one walk.  Binder
    names repeat, sometimes side by side (λx.λx.B), so a later binder
    shadows an earlier one; B is a spine whose head and arguments draw on
    the binders.  Most arguments are closed: a Church numeral or a
    combinator, one of the `marked` closed normal abstractions or a random
    closed term.  The others are open, often a free name equal to a binder
    of the chain, which forces the walk to rename.  The redex
    is sometimes put under binders or in argument position."""
    k = rng.randint(1, 4)
    binders = [rng.choice(BINDER_POOL) for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        j = rng.randrange(1, k)
        binders[j] = binders[j - 1]
    scope = tuple(binders)
    body: Term = Var(rng.choice(scope + FREE_POOL))
    if rng.random() < 0.3:
        name = rng.choice(BINDER_POOL)
        body = Lam(name, random_term(rng, rng.randint(1, 6), scope + (name,)))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.4:
            arg: Term = Var(rng.choice(scope))
        else:
            arg = random_term(rng, rng.randint(1, 6), scope)
        body = App(body, arg)
    t: Term = body
    for b in reversed(binders):
        t = Lam(b, t)
    for _ in range(max(1, k + rng.randint(-2, 2))):
        roll = rng.random()
        if roll < 0.35:
            arg = parse_term(rng.choice(CLOSED_TEXTS))
        elif roll < 0.55:
            arg = rng.choice(marked)
        elif roll < 0.75:
            arg = random_closed_term(rng, rng.randint(2, 7))
        elif roll < 0.9:
            arg = Var(rng.choice(scope))
        else:
            arg = random_term(rng, rng.randint(1, 5), (), scope + FREE_POOL)
        t = App(t, arg)
    if rng.random() < 0.2:
        t = App(Var(rng.choice(FREE_POOL)), t)
    if rng.random() < 0.3:
        t = Lam(rng.choice(BINDER_POOL), t)
    return t


# Closed arguments as text, so that each parse builds unmarked nodes: Church
# 0, 1 and 3, I, K, K* (which drops its first argument) and S.
CLOSED_TEXTS = (
    r"\f.\x.x", r"\f.\x.f x", r"\f.\x.f (f (f x))",
    r"\x.x", r"\x.\y.x", r"\x.\y.y", r"\x.\y.\z.x z (y z)",
)


# ---------------------------------------------------------------------------
# The free-variable caches

def assert_caches_sound(t: Term) -> None:
    """Every node of t, variables included, holds in `_fv` the free
    variables of its subtree as tests/oracle.py works them out; a mark sits
    only on a closed abstraction, and says of it what tests/oracle.py finds:
    beta-eta-normal, or beta-normal with the eta-normal form and the eta
    step count an `_EtaForm` holds, whose form is checked as a term too; an
    empty set is otherwise the shared empty set; and a non-empty one is the
    one object the table of sets keeps for it, so equal sets on two nodes
    are the same object."""
    assert _NO_NAMES not in _SETS
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        fv = node._fv
        if isinstance(node, Lam):
            stack.append(node.body)
        elif isinstance(node, App):
            stack += (node.fn, node.arg)
        assert set(fv) == oracle.free_vars(node), node
        if type(fv) is frozenset:
            if not fv:
                assert fv is _NO_NAMES, node
            else:
                assert _SETS.get(fv) is fv, node
            continue
        assert type(node) is Lam and not fv, node
        assert oracle.beta_step_normal_order(node) is None, node
        if fv is _BETA_ETA_NORMAL:
            assert oracle.is_beta_eta_normal(node), node
            continue
        assert type(fv) is _EtaForm, node
        expected = oracle.beta_eta_normalize(node)
        assert expected.steps == 0 and expected.eta_steps > 0, node
        assert fv.form == expected.term and fv.eta_steps == expected.eta_steps, node
        stack.append(fv.form)
