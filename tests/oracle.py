"""The named term engine as it was before free variables were cached on
abstractions, kept as the reference for the differential tests.

Each function below is a verbatim copy of the library code of that time:
`fresh_name`, `mk_pair`, `free_vars`, `occurs_free` and `substitute` from
`numlam.terms`, with `to_indexed` as it was before it walked on a stack;
the beta and eta normalizers and `is_beta_eta_normal` from
`numlam.reduction`, which here call the copied `substitute` and
`occurs_free`; and the head reduction of `numlam.reduction` as it was
before it ran on a machine state, `HeadTrace`, `HeadResult`, `head_step`
and `head_reduce`, whose `head_step` calls the copied `substitute` too.
Do not edit them to follow the library: they are what the
library must agree with, structurally and step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from numlam.reduction import DEFAULT_FUEL, Fuel, Normal, OutOfFuel, ReductionOutcome
from numlam.terms import App, Lam, Substitution, Term, Var

# The nameless form of to_indexed: nested tuples, one of
#   ("bv", index)   bound variable, 0 = innermost binder
#   ("fv", name)    free variable
#   ("lam", body)
#   ("app", fn, arg)
# Equal forms mean alpha-equal source terms.
IndexTerm = tuple


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """Append primes to `base` until the name avoids the given set."""
    avoid = set(avoid)
    name = base
    while name in avoid:
        name += "'"
    return name


def mk_pair(m: Term, n: Term) -> Term:
    """The pair of m and n: λx.(x m n), binder chosen fresh for both."""
    x = fresh_name("x", free_vars(m) | free_vars(n))
    return Lam(x, App(App(Var(x), m), n))


def free_vars(t: Term) -> set[str]:
    out: set[str] = set()
    bound: dict[str, int] = {}

    def go(node: Term) -> None:
        if isinstance(node, Var):
            if not bound.get(node.name):
                out.add(node.name)
        elif isinstance(node, Lam):
            bound[node.binder] = bound.get(node.binder, 0) + 1
            go(node.body)
            bound[node.binder] -= 1
        else:
            go(node.fn)
            go(node.arg)

    go(t)
    return out


def occurs_free(name: str, t: Term) -> bool:
    """True iff `name` has a free occurrence in t (early-exit walk)."""
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Lam):
        return t.binder != name and occurs_free(name, t.body)
    return occurs_free(name, t.fn) or occurs_free(name, t.arg)


def to_indexed(t: Term) -> IndexTerm:
    """Convert to the nameless form; free variables keep their names.  Equal
    forms mean alpha-equal terms, so the form is a hash key for them."""
    levels: dict[str, list[int]] = {}

    def go(node: Term, depth: int) -> IndexTerm:
        if isinstance(node, Var):
            stack = levels.get(node.name)
            if stack:
                return ("bv", depth - 1 - stack[-1])
            return ("fv", node.name)
        if isinstance(node, Lam):
            levels.setdefault(node.binder, []).append(depth)
            body = go(node.body, depth + 1)
            levels[node.binder].pop()
            return ("lam", body)
        return ("app", go(node.fn, depth), go(node.arg, depth))

    return go(t, 0)


def substitute(t: Term, s: Substitution) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Bound variables are renamed (by appending primes) only when a
    replacement would otherwise be captured, so output is deterministic.
    Unchanged subtrees are shared with the input.
    """
    if not s:
        return t
    fvs = {k: free_vars(v) for k, v in s.items()}
    risk = frozenset().union(*fvs.values()) if fvs else frozenset()

    def go(node: Term, m: dict[str, Term], mfvs, mrisk):
        if isinstance(node, Var):
            return m.get(node.name, node)
        if isinstance(node, App):
            fn = go(node.fn, m, mfvs, mrisk)
            arg = go(node.arg, m, mfvs, mrisk)
            if fn is node.fn and arg is node.arg:
                return node
            return App(fn, arg)
        x = node.binder
        m2 = m
        if x in m2:
            m2 = {k: v for k, v in m2.items() if k != x}
            if not m2:
                return node
        if x in mrisk:
            occurs = free_vars(node.body)
            live = [k for k in m2 if k in occurs]
            if not live:
                return node
            if any(x in mfvs[k] for k in live):
                avoid = set(occurs)
                for k in live:
                    avoid |= mfvs[k]
                fresh = fresh_name(x, avoid)
                m3 = dict(m2)
                m3[x] = Var(fresh)
                fvs3 = dict(mfvs)
                fvs3[x] = {fresh}
                body = go(node.body, m3, fvs3, mrisk | {fresh})
                return Lam(fresh, body)
        body = go(node.body, m2, mfvs, mrisk)
        if body is node.body:
            return node
        return Lam(x, body)

    return go(t, dict(s), fvs, risk)


def beta_step_normal_order(t: Term) -> Term | None:
    """Contract the leftmost-outermost beta-redex; None iff t is beta-normal.

    The redex chosen is the first found depth-first visiting each node
    before its function child before its argument child.
    """
    if isinstance(t, Var):
        return None
    if isinstance(t, Lam):
        body = beta_step_normal_order(t.body)
        return None if body is None else Lam(t.binder, body)
    if isinstance(t.fn, Lam):
        return substitute(t.fn.body, {t.fn.binder: t.arg})
    fn = beta_step_normal_order(t.fn)
    if fn is not None:
        return App(fn, t.arg)
    arg = beta_step_normal_order(t.arg)
    return None if arg is None else App(t.fn, arg)


def beta_normalize(t: Term, fuel: Fuel = DEFAULT_FUEL) -> ReductionOutcome:
    steps = 0
    while steps < fuel.max_steps:
        nxt = beta_step_normal_order(t)
        if nxt is None:
            return Normal(t, steps)
        t = nxt
        steps += 1
    if beta_step_normal_order(t) is None:
        return Normal(t, steps)
    return OutOfFuel(t, steps)


def _eta(t: Term) -> tuple[Term, int]:
    if isinstance(t, Var):
        return t, 0
    if isinstance(t, App):
        fn, a = _eta(t.fn)
        arg, b = _eta(t.arg)
        if fn is t.fn and arg is t.arg:
            return t, 0
        return App(fn, arg), a + b
    body, n = _eta(t.body)
    if (
        isinstance(body, App)
        and isinstance(body.arg, Var)
        and body.arg.name == t.binder
        and not occurs_free(t.binder, body.fn)
    ):
        return body.fn, n + 1
    if body is t.body:
        return t, n
    return Lam(t.binder, body), n


def beta_eta_normalize(t: Term, fuel: Fuel = DEFAULT_FUEL) -> ReductionOutcome:
    out = beta_normalize(t, fuel)
    if isinstance(out, OutOfFuel):
        return out
    term, eta_steps = _eta(out.term)
    return Normal(term, out.steps, eta_steps)


def is_beta_eta_normal(t: Term) -> bool:
    """Purely syntactic: no beta-redex and no eta-redex anywhere."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Lam):
            body = node.body
            if (
                isinstance(body, App)
                and isinstance(body.arg, Var)
                and body.arg.name == node.binder
                and not occurs_free(node.binder, body.fn)
            ):
                return False
            stack.append(body)
        elif isinstance(node, App):
            if isinstance(node.fn, Lam):
                return False
            stack.append(node.fn)
            stack.append(node.arg)
    return True


@dataclass(frozen=True, slots=True)
class HeadTrace:
    """Successive states of a head reduction; length is the step count."""

    states: tuple[Term, ...]

    @property
    def length(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> Term:
        return self.states[-1]


@dataclass(frozen=True, slots=True)
class HeadResult:
    trace: HeadTrace
    reached_hnf: bool


def head_step(t: Term) -> Term | None:
    """Contract the head redex; None iff t is in head normal form."""
    binders = []
    body = t
    while isinstance(body, Lam):
        binders.append(body.binder)
        body = body.body
    spine = []
    head = body
    while isinstance(head, App):
        spine.append(head.arg)
        head = head.fn
    if not (isinstance(head, Lam) and spine):
        return None
    spine.reverse()
    new = substitute(head.body, {head.binder: spine[0]})
    for a in spine[1:]:
        new = App(new, a)
    for b in reversed(binders):
        new = Lam(b, new)
    return new


def head_reduce(t: Term, fuel: Fuel = DEFAULT_FUEL) -> HeadResult:
    """Iterate head_step until head normal form or the fuel runs out.
    The trace length is the head-reduction length between the endpoints."""
    states = [t]
    for _ in range(fuel.max_steps):
        nxt = head_step(t)
        if nxt is None:
            return HeadResult(HeadTrace(tuple(states)), True)
        t = nxt
        states.append(t)
    done = head_step(t) is None
    return HeadResult(HeadTrace(tuple(states)), done)
