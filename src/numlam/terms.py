"""Untyped lambda terms: syntax, alpha-equivalence, substitution, combinators.

Terms are immutable trees of `Var`, `Lam`, and `App` nodes carrying string
identifiers.  Structural equality of `Term` values is *not* alpha-equivalence;
use `alpha_eq`, which compares the nameless (binder-depth indexed) forms
produced by `to_indexed`.  All operations are pure.  The one piece of state
is a cache on each `Lam` of its free variables, filled by `free_vars` on
first use: it is a memo of the node's immutable subtree, so it never goes
stale, and it takes no part in equality, hashing or `repr`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Lam:
    binder: str
    body: "Term"
    # Free variables of this abstraction, set by free_vars.  Only Lam has
    # the field: one more slot on every node would grow each App and Var too.
    # The None default keeps copy.deepcopy and pickle working.
    _fv: frozenset | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"


Term = Union[Var, Lam, App]

# Nameless form: nested tuples, one of
#   ("bv", index)   bound variable, 0 = innermost binder
#   ("fv", name)    free variable
#   ("lam", body)
#   ("app", fn, arg)
# Tuples are hashable and compare structurally, so IndexTerm equality is
# exactly alpha-equivalence of the source terms.
IndexTerm = tuple

Substitution = Mapping[str, Term]


# ---------------------------------------------------------------------------
# Construction helpers

def lam(*parts) -> Term:
    """lam("x", "y", body) builds λx.λy.body."""
    *binders, body = parts
    if not binders:
        raise ValueError("lam needs at least one binder")
    for b in reversed(binders):
        body = Lam(b, body)
    return body


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application: app(f, a, b) builds ((f a) b)."""
    for a in args:
        fn = App(fn, a)
    return fn


I = Lam("x", Var("x"))
T = Lam("x", Lam("y", Var("x")))
F = Lam("x", Lam("y", Var("y")))


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


def mk_tuple(us: list[Term]) -> Term:
    """Left fold of mk_pair seeded with I; the empty tuple is I itself."""
    t: Term = I
    for u in us:
        t = mk_pair(t, u)
    return t


# ---------------------------------------------------------------------------
# Structure queries

def size(t: Term) -> int:
    """Node count of the term tree."""
    total = 0
    stack = [t]
    while stack:
        node = stack.pop()
        total += 1
        if isinstance(node, Lam):
            stack.append(node.body)
        elif isinstance(node, App):
            stack.append(node.fn)
            stack.append(node.arg)
    return total


_NO_NAMES: frozenset[str] = frozenset()


def free_vars(t: Term) -> frozenset[str]:
    """The names with a free occurrence in t.  Cached on each abstraction,
    so asking again about a subtree already asked about costs nothing."""
    if isinstance(t, Lam):
        fv = t._fv
        if fv is None:
            fv = free_vars(t.body)
            if t.binder in fv:
                fv = fv - {t.binder} or _NO_NAMES
            object.__setattr__(t, "_fv", fv)
        return fv
    if isinstance(t, Var):
        return frozenset((t.name,))
    fn = free_vars(t.fn)
    arg = free_vars(t.arg)
    if not arg or arg <= fn:
        return fn
    if not fn:
        return arg
    return fn | arg


def is_closed(t: Term) -> bool:
    return not free_vars(t)


# ---------------------------------------------------------------------------
# Nameless form and alpha-equivalence

def to_indexed(t: Term) -> IndexTerm:
    """Convert to the nameless form; free variables keep their names."""
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


def alpha_eq(t1: Term, t2: Term) -> bool:
    return to_indexed(t1) == to_indexed(t2)


# ---------------------------------------------------------------------------
# Substitution

def substitute(t: Term, s: Substitution) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Bound variables are renamed (by appending primes) only when a
    replacement would otherwise be captured, so output is deterministic.
    Unchanged subtrees are shared with the input: an abstraction in which
    no substituted name is free is returned as it is, without a walk.
    """
    if not s:
        return t
    fvs = {k: free_vars(v) for k, v in s.items()}
    risk = frozenset().union(*fvs.values())

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
        fv = free_vars(node)
        if fv.isdisjoint(m2):
            return node
        if x in mrisk and any(x in mfvs[k] for k in m2 if k in fv):
            occurs = free_vars(node.body)
            avoid = set(occurs)
            for k in m2:
                if k in occurs:
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
