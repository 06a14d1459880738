"""Untyped lambda terms: syntax, alpha-equivalence, substitution, combinators.

Terms are immutable trees of `Var`, `Lam`, and `App` nodes carrying string
identifiers.  Structural equality of `Term` values is *not* alpha-equivalence;
use `alpha_eq`, one walk over both terms in step that pairs up their
binders.  All operations are pure.

Every node carries the set of its free variables, which its constructor
works out from its children, so `free_vars` reads it and never walks.  The
set takes no part in equality, hashing or `repr`.  Equal sets are one
object: a table in this module keeps each name's one-name set and each
non-empty set that a node holds.

The set of a closed abstraction may also be one of two marks, an empty set
that says what a reduction found out about its subtree: beta-eta-normal
(`_BETA_ETA_NORMAL`), or beta-normal with the eta-normal form and eta step
count an `_EtaForm` holds.  The reductions set them on the closed normal
forms they meet and walk past a marked abstraction as a normal leaf.  A
mark is still the empty set of free variables, so every reader works
unchanged; no constructor hands a mark up to the parent it builds.
Pickle and deepcopy rebuild a term through the constructors, so a clone
holds the tables' sets, the clone of an abstraction marked beta-eta-normal
the very mark, and that of one holding an `_EtaForm` the plain empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union


# The free variables of a closed term, shared.
_NO_NAMES: frozenset[str] = frozenset()

# One object per set of free names: each name's one-name set, and every
# non-empty set a node holds, so that nodes that agree share their set.
# The tables grow with the number of distinct sets of free names met, not
# with the number of terms.  The empty set never goes in, so a mark (an
# empty set too) never comes out.
_NAME_SETS: dict[str, frozenset[str]] = {}
_SETS: dict[frozenset[str], frozenset[str]] = {}


# The three node classes keep the frozen dataclass's ==, hash, repr and
# FrozenInstanceError, but their hand-written __init__ stores through the
# slot descriptors (taken below the classes), about twice as fast as the
# generated one.  Each class has an `_fv` field, its free variables, kept
# out of ==, hash, repr and __match_args__, and a __reduce__ that rebuilds
# it through __init__.

@dataclass(frozen=True, slots=True, init=False)
class Var:
    name: str
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        fv = _NAME_SETS.get(name)
        if fv is None:
            fv = frozenset((name,))
            fv = _NAME_SETS[name] = _SETS.setdefault(fv, fv)
        _set_var_fv(self, fv)

    def __reduce__(self):
        return Var, (self.name,)


@dataclass(frozen=True, slots=True, init=False)
class Lam:
    binder: str
    body: "Term"
    # For a closed abstraction, a mark once a reduction has found it normal.
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, binder: str, body: "Term") -> None:
        _set_binder(self, binder)
        _set_body(self, body)
        fv = body._fv
        if binder in fv:
            fv = fv - {binder}
            fv = _SETS.setdefault(fv, fv) if fv else _NO_NAMES
        elif not fv:
            fv = _NO_NAMES  # the body's set may be a mark
        _set_lam_fv(self, fv)

    def __reduce__(self):
        if self._fv is _BETA_ETA_NORMAL:
            return _marked_lam, (self.binder, self.body)
        return Lam, (self.binder, self.body)


@dataclass(frozen=True, slots=True, init=False)
class App:
    fn: "Term"
    arg: "Term"
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, fn: "Term", arg: "Term") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)
        # The union of the children's sets, which may be marks: an empty
        # union is _NO_NAMES.
        a = fn._fv
        b = arg._fv
        if not b or b <= a:
            fv = a or _NO_NAMES
        elif not a:
            fv = b
        else:
            fv = a | b
            fv = _SETS.setdefault(fv, fv)
        _set_app_fv(self, fv)

    def __reduce__(self):
        return App, (self.fn, self.arg)


_set_name = Var.name.__set__
_set_var_fv = Var._fv.__set__
_set_binder = Lam.binder.__set__
_set_body = Lam.body.__set__
_set_lam_fv = Lam._fv.__set__
_set_fn = App.fn.__set__
_set_arg = App.arg.__set__
_set_app_fv = App._fv.__set__

Term = Union[Var, Lam, App]

Substitution = Mapping[str, Term]


class _Mark(frozenset):
    """The empty set of free variables of a closed abstraction that is known
    to be beta-eta-normal, told apart from _NO_NAMES by identity."""


_BETA_ETA_NORMAL = _Mark()


class _EtaForm(frozenset):
    """The empty set of free variables of a closed beta-normal abstraction
    that is not eta-normal: it holds the eta-normal form and the number of
    eta contractions that reach it.  One per abstraction, set by the eta
    pass; a clone does not keep it."""

    __slots__ = ("form", "eta_steps")

    def __new__(cls, form: Term, eta_steps: int) -> "_EtaForm":
        mark = frozenset.__new__(cls)
        mark.form = form
        mark.eta_steps = eta_steps
        return mark


def _marked_lam(binder: str, body: Term) -> Lam:
    """The abstraction λbinder.body marked beta-eta-normal: how pickle and
    deepcopy rebuild one."""
    node = Lam(binder, body)
    _set_lam_fv(node, _BETA_ETA_NORMAL)
    return node


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
    x = fresh_name("x", m._fv | n._fv)
    return Lam(x, App(App(Var(x), m), n))


# ---------------------------------------------------------------------------
# Structure queries

def size(t: Term) -> int:
    """Node count of the term tree."""
    total = 0
    stack = [t]
    while stack:
        node = stack.pop()
        total += 1
        cls = type(node)
        if cls is Lam:
            stack.append(node.body)
        elif cls is App:
            stack.append(node.fn)
            stack.append(node.arg)
    return total


def free_vars(t: Term) -> frozenset[str]:
    """The names with a free occurrence in t: one object per set, so equal
    answers are the same object.  The answer for a marked abstraction is
    its mark."""
    return t._fv


def is_closed(t: Term) -> bool:
    return not free_vars(t)


# ---------------------------------------------------------------------------
# Alpha-equivalence

# Stands first in a pair on the stack of alpha_eq whose second item holds
# the binders to restore when the walk leaves a pair of abstractions.
_LEAVE = object()


def alpha_eq(t1: Term, t2: Term) -> bool:
    """True iff t1 and t2 differ only in the names of bound variables.

    One iterative walk over both terms in step, so the depth of the terms
    is not bounded by the recursion limit.  The walk numbers each pair of
    abstractions it enters, and each side maps a name to the number of the
    innermost binder of that name in scope: two variables agree when both
    are bound by the same pair, or both are free and have the same name.
    The walk stops at the first difference.

    A subtree the two terms share is equal without a walk only when it is
    closed: a shared open subtree can be bound
    differently on the two sides, as S = x is in λx.λy.S and λy.λx.S.
    """
    levels1: dict[str, int | None] = {}
    levels2: dict[str, int | None] = {}
    entered = 0
    stack: list = [t1, t2]
    while stack:
        b = stack.pop()
        a = stack.pop()
        if a is _LEAVE:
            n1, old1, n2, old2 = b
            levels1[n1] = old1
            levels2[n2] = old2
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            level = levels1.get(a.name)
            if level != levels2.get(b.name) or (level is None and a.name != b.name):
                return False
        elif a is b and not a._fv:
            continue
        elif cls is App:
            stack += (a.arg, b.arg, a.fn, b.fn)
        else:
            n1 = a.binder
            n2 = b.binder
            stack += (_LEAVE, (n1, levels1.get(n1), n2, levels2.get(n2)), a.body, b.body)
            entered += 1
            levels1[n1] = entered
            levels2[n2] = entered
    return True


# ---------------------------------------------------------------------------
# Substitution

def substitute(t: Term, s: Substitution) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    Bound variables are renamed (by appending primes) only when a
    replacement would otherwise be captured, so output is deterministic.
    A subtree in which no substituted name is free is shared with the
    input, without a walk: both walks here call themselves only on the
    children that hold a substituted name, and put the replacement in
    place of a child that is such a variable without a call.  One binding
    goes to `substitute_one`.
    """
    if len(s) == 1:
        ((x, arg),) = s.items()
        return substitute_one(t, x, arg)
    if t._fv.isdisjoint(s):
        return t
    fvs = {k: v._fv for k, v in s.items()}
    return _substitute_many(t, dict(s), fvs, frozenset().union(*fvs.values()))


def substitute_one(node: Term, x: str | dict[str, Term], arg: Term | None = None) -> Term:
    """node[x := arg], the substitution of a beta contraction, with no map
    built for it; with no arg, node[x] for a map x of names to closed terms
    that node holds one of, which renames nothing.  At the first binder that
    arg would be captured by, it hands that subtree to the simultaneous
    walk, which is then in exactly the state it would have reached there by
    itself, so both walks give the same terms, binder names and shared
    nodes.  Both walks loop down a left spine, recursing into its arguments
    and its head.
    """
    if arg is None:
        return _substitute_many(node, x, None, _NO_NAMES)
    if x not in node._fv:
        return node
    # Exact class tests: the hot path, and Var, Lam and App have no
    # subclasses.  A child with x free that is a Var is Var(x).
    cls = type(node)
    if cls is App:
        up = None
        while type(node.fn) is App and x in node.fn._fv:
            up = (node, up)
            node = node.fn
        fn = node.fn
        if x in fn._fv:
            fn = arg if type(fn) is Var else substitute_one(fn, x, arg)
        while True:
            a = node.arg
            if x in a._fv:
                a = arg if type(a) is Var else substitute_one(a, x, arg)
            fn = node if fn is node.fn and a is node.arg else App(fn, a)
            if up is None:
                return fn
            node, up = up
    if cls is Var:
        return arg
    b = node.binder
    if b in arg._fv:
        return _substitute_many(node, {x: arg}, {x: arg._fv}, arg._fv)
    body = node.body
    new = arg if type(body) is Var else substitute_one(body, x, arg)
    if new is body:
        return node
    return Lam(b, new)


def _substitute_many(node: Term, m: dict[str, Term], mfvs, mrisk) -> Term:
    """node[m], for a node that holds a name of m; mfvs maps each name of m
    to its replacement's free variables and mrisk is the union of those
    sets.  When mrisk is empty nothing is renamed and mfvs is not read."""
    cls = type(node)
    if cls is App:
        up = None
        while type(node.fn) is App and not node.fn._fv.isdisjoint(m):
            up = (node, up)
            node = node.fn
        fn = node.fn
        if not fn._fv.isdisjoint(m):
            fn = m[fn.name] if type(fn) is Var else _substitute_many(fn, m, mfvs, mrisk)
        while True:
            a = node.arg
            if not a._fv.isdisjoint(m):
                a = m[a.name] if type(a) is Var else _substitute_many(a, m, mfvs, mrisk)
            fn = node if fn is node.fn and a is node.arg else App(fn, a)
            if up is None:
                return fn
            node, up = up
    if cls is Var:
        return m[node.name]
    # A name of m that node holds is not its binder, so the body holds a
    # name of the map it is walked with.
    x = node.binder
    body = node.body
    m2 = m
    if x in m2:
        m2 = {k: v for k, v in m2.items() if k != x}
    if x in mrisk and any(x in mfvs[k] for k in m2 if k in node._fv):
        occurs = body._fv
        avoid = set(occurs)
        for k in m2:
            if k in occurs:
                avoid |= mfvs[k]
        fresh = fresh_name(x, avoid)
        m3 = dict(m2)
        m3[x] = Var(fresh)
        fvs3 = dict(mfvs)
        fvs3[x] = {fresh}
        if type(body) is Var:
            return Lam(fresh, m3[body.name])
        return Lam(fresh, _substitute_many(body, m3, fvs3, mrisk | {fresh}))
    new = m2[body.name] if type(body) is Var else _substitute_many(body, m2, mfvs, mrisk)
    if new is body:
        return node
    return Lam(x, new)
