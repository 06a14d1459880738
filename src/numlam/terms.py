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
Pickle and deepcopy rebuild a term from a flat list through the
constructors (`_reduce`), so a clone holds the tables' sets, the clone of
an abstraction marked beta-eta-normal the very mark, and that of one
holding an `_EtaForm` the plain empty set.  Sharing is kept within one
term, not across terms, and `copy.copy` copies the whole term.
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
# out of ==, hash, repr and __match_args__.  All three share one
# __reduce__ (`_reduce`, below).

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


def _reduce(self):
    """How pickle and deepcopy take a term apart, without recursion:
    `_rebuild` and the list of its nodes, children first, each once: a Var
    as its name, a Lam as (binder, body, marked beta-eta-normal) and an App
    as (fn, arg), with each child given as its place in the list."""
    code = []
    index: dict[int, int] = {}
    stack = [self]
    while stack:
        node = stack.pop()
        if id(node) in index:
            continue
        cls = type(node)
        kids = () if cls is Var else (node.body,) if cls is Lam else (node.fn, node.arg)
        waiting = [kid for kid in kids if id(kid) not in index]
        if waiting:
            stack += (node, *waiting)
            continue
        index[id(node)] = len(code)
        code.append(
            node.name if cls is Var
            else (node.binder, index[id(node.body)], node._fv is _BETA_ETA_NORMAL) if cls is Lam
            else (index[id(node.fn)], index[id(node.arg)]))
    return _rebuild, (code,)


def _rebuild(code: list) -> Term:
    """The term of a list of `_reduce`, built through the constructors."""
    built: list[Term] = []
    for item in code:
        if type(item) is str:
            node = Var(item)
        elif len(item) == 2:
            node = App(built[item[0]], built[item[1]])
        else:
            node = Lam(item[0], built[item[1]])
            if item[2]:
                _set_lam_fv(node, _BETA_ETA_NORMAL)
        built.append(node)
    return built[-1]


Var.__reduce__ = Lam.__reduce__ = App.__reduce__ = _reduce


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
    input, without a walk: the walk calls itself only on the children that
    hold a substituted name, and puts the replacement in place of a child
    that is such a variable without a call.
    """
    names = frozenset(s)
    if t._fv.isdisjoint(names):
        return t
    return _substitute(t, s, names, _NO_NAMES.union(*(v._fv for v in s.values())))


def _substitute(node: Term, m: Substitution, names: frozenset[str], risk: frozenset[str]) -> Term:
    """node[m], for a node that holds a name of m: names is the set of m's
    keys and risk the union of the free variables of m's values, the names
    a binder may capture.  When risk is empty nothing is renamed.  The walk
    loops down a left spine, recursing into its arguments and its head."""
    # Exact class tests: the hot path, and Var, Lam and App have no
    # subclasses.  A child that holds a name of m and is a Var is that name.
    cls = type(node)
    if cls is App:
        up = None
        while type(node.fn) is App and not node.fn._fv.isdisjoint(names):
            up = (node, up)
            node = node.fn
        fn = node.fn
        if not fn._fv.isdisjoint(names):
            fn = m[fn.name] if type(fn) is Var else _substitute(fn, m, names, risk)
        while True:
            a = node.arg
            if not a._fv.isdisjoint(names):
                a = m[a.name] if type(a) is Var else _substitute(a, m, names, risk)
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
    if x in names:
        m = {k: v for k, v in m.items() if k != x}
        names = names - {x}
    if x in risk and any(x in m[k]._fv for k in names & node._fv):
        x = fresh_name(x, set(body._fv).union(*(m[k]._fv for k in names & body._fv)))
        m = {**m, node.binder: Var(x)}
        names = names | {node.binder}
        risk = risk | {x}
    new = m[body.name] if type(body) is Var else _substitute(body, m, names, risk)
    # A renamed binder changes the body, so an unchanged body keeps node.
    return node if new is body else Lam(x, new)
