"""Untyped lambda terms: syntax, alpha-equivalence, substitution, combinators.

Terms are immutable trees of `Var`, `Lam`, and `App` nodes carrying string
identifiers.  Structural equality of `Term` values is *not* alpha-equivalence;
use `alpha_eq`, one walk over both terms in step that pairs up their
binders.  All operations are pure, and none recurses on the depth of a term.

Every node carries the set of its free variables, which its constructor
works out from its children, so `free_vars` reads it and never walks.  The
set takes no part in equality, hashing or `repr`.  Equal sets are one
object: a table in this module keeps each name's one-name set and each
non-empty set that a node holds.

The set of a closed abstraction may also be a mark, an `_EtaForm`: an
empty set that says its subtree is beta-normal and holds its eta-normal
form and eta step count.  One shared mark, `_BETA_ETA_NORMAL`, says the
abstraction is its own eta-normal form.  The beta-eta pass marks the
closed normal forms it proves normal, and the beta passes walk past a
marked abstraction as a normal leaf.  Head reduction enters one with no
argument, harmlessly, as its body is normal and so in head normal form.
A mark is still the empty set of free variables, so every reader works
unchanged; no constructor hands a mark up to the parent it builds.
Pickle and deepcopy rebuild a term from a flat list through the
constructors (`_reduce`), so a clone holds the tables' sets, the clone of
an abstraction marked beta-eta-normal the very mark, and that of one
holding an eta-normal form the plain empty set.  Sharing is kept within one
term, not across terms, and `copy.copy` copies the whole term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class _Record:
    """A record names its fields in __slots__ and stores them in __init__
    with `_set`; after that a field refuses assignment and deletion.  As
    with a dataclass, __match_args__ are the parameters of __init__, which
    a copy or pickle passes again; ==, within one class, hash and repr read
    the fields whose names do not start with "_"."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        init = cls.__init__.__code__
        cls.__match_args__ = init.co_varnames[1:init.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


# The free variables of a closed term, shared.
_NO_NAMES: frozenset[str] = frozenset()

# One object per set of free names: each name's one-name set, and every
# non-empty set a node holds, so that nodes that agree share their set.
# The tables grow with the number of distinct sets of free names met, not
# with the number of terms.  The empty set never goes in, so a mark (an
# empty set too) never comes out.
_NAME_SETS: dict[str, frozenset[str]] = {}
_SETS: dict[frozenset[str], frozenset[str]] = {}


# The node classes store through their slot descriptors (taken below), faster
# than _set.  `_fv`, the free variables, takes no part in the ==, hash, repr
# and __reduce__ they share, which walk a term on a stack, not recursively.

class Var(_Record):
    __slots__ = ("name", "_fv")

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        fv = _NAME_SETS.get(name)
        if fv is None:
            fv = frozenset((name,))
            fv = _NAME_SETS[name] = _SETS.setdefault(fv, fv)
        _set_var_fv(self, fv)


class Lam(_Record):
    # For a closed abstraction, _fv is a mark once a reduction has found it normal.
    __slots__ = ("binder", "body", "_fv")

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


class App(_Record):
    __slots__ = ("fn", "arg", "_fv")

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

Term = Var | Lam | App

Substitution = Mapping[str, Term]


class _EtaForm(frozenset):
    """The empty set of free variables of a closed beta-normal abstraction,
    told apart from _NO_NAMES by its class: it holds the eta-normal form,
    None where that is the abstraction itself, and the number of eta
    contractions that reach it.  A clone keeps only _BETA_ETA_NORMAL."""

    __slots__ = ("form", "eta_steps")

    def __new__(cls, form: Term | None, eta_steps: int) -> "_EtaForm":
        mark = frozenset.__new__(cls)
        mark.form = form
        mark.eta_steps = eta_steps
        return mark


# The mark of every beta-eta-normal closed abstraction, one object.
_BETA_ETA_NORMAL = _EtaForm(None, 0)


def _reduce(self):
    """How pickle and deepcopy take a term apart: `_rebuild` and the list
    of its nodes, children first, each once: a Var as its name, a Lam as
    (binder, body, marked beta-eta-normal) and an App as (fn, arg), with
    each child given as its place in the list."""
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


def _eq(self, other):
    """The same shape, names and binders: one walk over both terms in step,
    which takes a subtree they share as equal without walking it."""
    if type(other) is not type(self):
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is App and type(b) is App:
            stack += ((a.arg, b.arg), (a.fn, b.fn))
        elif cls is Lam and type(b) is Lam and a.binder == b.binder:
            stack.append((a.body, b.body))
        elif not (cls is Var and type(b) is Var and a.name == b.name):
            return False
    return True


def _repr(self) -> str:
    """The text of a record, such as Lam(binder='x', body=Var(name='x'))."""
    parts: list[str] = []
    stack: list = [self]
    while stack:
        item = stack.pop()
        if type(item) is Lam:
            stack += (")", item.body, f"Lam(binder={item.binder!r}, body=")
        elif type(item) is App:
            stack += (")", item.arg, ", arg=", item.fn, "App(fn=")
        else:
            parts.append(item if type(item) is str else f"Var(name={item.name!r})")
    return "".join(parts)


Var.__eq__ = Lam.__eq__ = App.__eq__ = _eq
# == terms have the same repr.
Var.__hash__ = Lam.__hash__ = App.__hash__ = lambda self: hash(_repr(self))
Var.__repr__ = Lam.__repr__ = App.__repr__ = _repr
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

    One walk over both terms in step, which numbers each pair of
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
    input, and the walk does not enter it.
    """
    names = frozenset(s)
    if t._fv.isdisjoint(names):
        return t
    return _substitute(t, s, names, _NO_NAMES.union(*(v._fv for v in s.values())))


def _substitute(node: Term, m: Substitution, names: frozenset[str], risk: frozenset[str]) -> Term:
    """node[m], for a node that holds a name of m: names is the set of m's
    keys and risk the union of the free variables of m's values, the names
    a binder may capture.  When risk is empty nothing is renamed.

    The walk keeps a frame for each node above the one it is at, which
    awaits a child's value: an abstraction (or a stand-in with its
    renamed binder) its body's, and (app, fn, m, names, risk) that of
    app's function if fn is None, else its argument's."""
    stack: list = []
    while True:
        # Down: node holds a name of m (a Var that holds one is that name).
        # Exact class tests, for speed: no node class has subclasses.
        cls = type(node)
        if cls is App:
            fn = node.fn
            if not fn._fv.isdisjoint(names):
                if type(fn) is not Var:
                    stack.append((node, None, m, names, risk))
                    node = fn
                    continue
                fn = m[fn.name]
        elif cls is Var:
            new = m[node.name]
            fn = None
        else:
            # A name of m that node holds is not its binder, so the body
            # holds a name of the map it is walked with.
            x = node.binder
            if x in names:
                m = {k: v for k, v in m.items() if k != x}
                names = names - {x}
            if x in risk and any(x in m[k]._fv for k in names & node._fv):
                x = fresh_name(x, set(node.body._fv).union(*(m[k]._fv for k in names & node.body._fv)))
                m = {**m, node.binder: Var(x)}
                names = names | {node.binder}
                risk = risk | {x}
                # A renamed binder changes the body, so node is not kept.
                node = Lam(x, node.body)
            if type(node.body) is not Var:
                stack.append(node)
                node = node.body
                continue
            new = m[node.body.name]
            new = node if new is node.body else Lam(node.binder, new)
            fn = None
        # Up: fn, if set, is the value of node.fn, and node awaits that of
        # its argument; new is the value of the child the frame on top awaits.
        while True:
            if fn is not None:
                a = node.arg
                if not a._fv.isdisjoint(names):
                    if type(a) is not Var:
                        stack.append((node, fn, m, names, risk))
                        node = a
                        break
                    a = m[a.name]
                new = node if fn is node.fn and a is node.arg else App(fn, a)
            if not stack:
                return new
            frame = stack.pop()
            if type(frame) is Lam:
                new = frame if new is frame.body else Lam(frame.binder, new)
                fn = None
                continue
            node, fn, m, names, risk = frame
            if fn is None:
                fn = new
            else:
                new = node if fn is node.fn and new is node.arg else App(fn, new)
                fn = None
