"""Untyped lambda terms: syntax, alpha-equivalence, substitution, combinators.

Terms are immutable trees of `Var`, `Lam`, and `App` nodes carrying string
identifiers.  Structural equality of `Term` values is *not* alpha-equivalence;
use `alpha_eq`, one walk over both terms in step that pairs up their
binders.  All operations are pure.  The one piece of state is a cache on
each `Lam` and each `App` of its free variables, filled by `free_vars` on
first use (and by `mk_pair`, which knows the set of the pair it builds): it
is a memo of the node's immutable subtree, so it never goes stale, and it
takes no part in equality, hashing or `repr`.  Caches that hold equal sets
hold one object: a table in this module keeps each name's one-name set and
each non-empty set that goes into a cache.

The cache of a closed abstraction may also hold one of two marks, empty sets
that say its subtree is beta-normal (`_BETA_NORMAL`) or beta-eta-normal
(`_BETA_ETA_NORMAL`).  The reductions set them on the closed normal forms
they return and walk past a marked abstraction as a normal leaf.  A mark is
still the empty set of free variables, so every reader of the cache works
unchanged; `free_vars` never copies a mark into the cache of a parent, an
application's included, and pickle and deepcopy keep the very mark objects.

Both substitution walks return an abstraction or an application in which no
substituted name is free as it is.  `substitute` of one name, which is every
beta contraction, walks with that name alone and asks for the free
variables of the replacement only where a binder might capture it; several
names take the simultaneous walk.  Both give the same terms, binder names
and shared nodes.  Both walks are module-level recursive functions, not
closures: the one-name walk keeps the replacement's free variables in a
holder that each call makes for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union


# The three node classes keep the frozen dataclass's ==, hash, repr, pickle,
# deepcopy and FrozenInstanceError, but not its generated __init__, which
# stores each field through object.__setattr__: a hand-written one stores
# through the slot descriptors (taken below the classes), about twice as
# fast, and every substitution and reduction step builds nodes.

@dataclass(frozen=True, slots=True, init=False)
class Var:
    name: str

    def __init__(self, name: str) -> None:
        _set_name(self, name)


@dataclass(frozen=True, slots=True, init=False)
class Lam:
    binder: str
    body: "Term"
    # Free variables of this abstraction, set by free_vars, or a mark of a
    # closed normal form.  App has the same field and Var none: a one-name
    # set is looked up by the name.  Kept out of ==, hash, repr and
    # __match_args__; __init__ sets it to None, since copy.deepcopy and
    # pickle read every slot.
    _fv: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, binder: str, body: "Term") -> None:
        _set_binder(self, binder)
        _set_body(self, body)
        _set_lam_fv(self, None)


@dataclass(frozen=True, slots=True, init=False)
class App:
    fn: "Term"
    arg: "Term"
    # Free variables of this application, set by free_vars; never a mark.
    _fv: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, fn: "Term", arg: "Term") -> None:
        _set_fn(self, fn)
        _set_arg(self, arg)
        _set_app_fv(self, None)


_set_name = Var.name.__set__
_set_binder = Lam.binder.__set__
_set_body = Lam.body.__set__
_set_lam_fv = Lam._fv.__set__
_set_fn = App.fn.__set__
_set_arg = App.arg.__set__
_set_app_fv = App._fv.__set__

Term = Union[Var, Lam, App]

Substitution = Mapping[str, Term]

# The free variables of a closed term, shared.
_NO_NAMES: frozenset[str] = frozenset()

# One object per set of free names: each name's one-name set, and every
# non-empty set a cache holds, so that caches that agree share their set.
# The tables grow with the number of distinct sets of free names met, not
# with the number of terms.  The empty set never goes in, so a mark (an
# empty set too) never comes out.
_NAME_SETS: dict[str, frozenset[str]] = {}
_SETS: dict[frozenset[str], frozenset[str]] = {}


def _name_set(name: str) -> frozenset[str]:
    """The shared set {name}."""
    fv = _NAME_SETS.get(name)
    if fv is None:
        fv = frozenset((name,))
        fv = _NAME_SETS[name] = _SETS.setdefault(fv, fv)
    return fv


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, for a cache: the shared object, or _NO_NAMES when empty.
    a and b are cached sets, so an empty one may be a mark."""
    if not b or b <= a:
        return a or _NO_NAMES
    if not a:
        return b
    fv = a | b
    return _SETS.setdefault(fv, fv)


class _Mark(frozenset):
    """The empty set of free variables of a closed abstraction that is known
    to be normal.  Marks are told apart by identity; pickle and deepcopy
    give back the very mark, by its name in this module."""

    def __reduce__(self):
        return self.name


# The marks a closed abstraction's _fv may hold instead of _NO_NAMES.
_BETA_NORMAL = _Mark()
_BETA_NORMAL.name = "_BETA_NORMAL"
_BETA_ETA_NORMAL = _Mark()
_BETA_ETA_NORMAL.name = "_BETA_ETA_NORMAL"


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
    """The pair of m and n: λx.(x m n), binder chosen fresh for both.

    The binder is chosen outside the free variables of m and n, so those
    are exactly the pair's, and they go into its free-variable cache."""
    fv = _union(free_vars(m), free_vars(n))
    x = fresh_name("x", fv) if "x" in fv else "x"
    pair = Lam(x, App(App(Var(x), m), n))
    _set_lam_fv(pair, fv)
    return pair


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


def free_vars(t: Term) -> frozenset[str]:
    """The names with a free occurrence in t.  Cached on each abstraction
    and application, so asking again about a subtree already asked about
    costs nothing, and one object per set: equal answers are the same
    object.  The answer for a marked abstraction is its mark."""
    cls = type(t)
    if cls is Var:
        return _name_set(t.name)
    fv = t._fv
    if fv is not None:
        return fv
    if cls is App:
        # A child's mark says nothing about its parent: _union never hands
        # one up.
        fv = _union(free_vars(t.fn), free_vars(t.arg))
        _set_app_fv(t, fv)
        return fv
    fv = free_vars(t.body)
    if t.binder in fv:
        fv = fv - {t.binder}
        fv = _SETS.setdefault(fv, fv) if fv else _NO_NAMES
    elif not fv:
        fv = _NO_NAMES
    _set_lam_fv(t, fv)
    return fv


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

    A subtree the two terms share is equal without a walk only when its
    cache knows it is closed: a shared open subtree can be bound
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
        elif a is b and a._fv is not None and not a._fv:
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
    Unchanged subtrees are shared with the input: an abstraction in which
    no substituted name is free is returned as it is, without a walk, and
    so is an application whose cache says so.

    One binding, as in every beta contraction, takes its own walk: it
    compares names with the one substituted name instead of looking them
    up, and works out the free variables of the replacement only at the
    first abstraction that the name is free in, once per call.  The walk
    is a module-level function, so a call builds no closure; the set it
    works out is kept in a one-item list made for that call, never past
    it.  At the first binder that the replacement would be captured by,
    it hands that subtree to the simultaneous walk, which is then in
    exactly the state it would have reached there by itself, so the
    renamings, binder names and shared nodes are the same as the
    simultaneous walk's.
    """
    if len(s) == 1:
        ((x, arg),) = s.items()
        return _substitute_one(t, x, arg)
    if not s:
        return t
    fvs = {k: free_vars(v) for k, v in s.items()}
    return _substitute_many(t, dict(s), fvs, frozenset().union(*fvs.values()))


def _substitute_one(t: Term, x: str, arg: Term) -> Term:
    """t[x := arg]; the same result as _substitute_many(t, {x: arg}, ...).

    The walk is `_one`, a module-level function.  The free variables of
    arg, worked out at most once, go into a one-item list made for this
    call, so no call reads the set of another."""
    return _one(t, x, arg, [None])


def _one(node: Term, x: str, arg: Term, arg_fv: list) -> Term:
    """node[x := arg].  arg_fv[0] is free_vars(arg), or None until a walk
    of the same call first needs it."""
    # Exact class tests: the hot path, and Var, Lam and App have no
    # subclasses.
    cls = type(node)
    if cls is Var:
        return arg if node.name == x else node
    if cls is App:
        fv = node._fv
        if fv is not None and x not in fv:
            return node
        fn = _one(node.fn, x, arg, arg_fv)
        a = _one(node.arg, x, arg, arg_fv)
        if fn is node.fn and a is node.arg:
            return node
        return App(fn, a)
    b = node.binder
    if b == x:
        return node
    fv = node._fv
    if fv is None:
        fv = free_vars(node)
    if x not in fv:
        return node
    afv = arg_fv[0]
    if afv is None:
        afv = arg_fv[0] = free_vars(arg)
    if b in afv:
        return _substitute_many(node, {x: arg}, {x: afv}, afv)
    body = _one(node.body, x, arg, arg_fv)
    if body is node.body:
        return node
    return Lam(b, body)


def _substitute_many(node: Term, m: dict[str, Term], mfvs, mrisk) -> Term:
    """node[m], where mfvs maps each name of m to its replacement's free
    variables and mrisk is the union of those sets."""
    cls = type(node)
    if cls is Var:
        return m.get(node.name, node)
    if cls is App:
        fv = node._fv
        if fv is not None and fv.isdisjoint(m):
            return node
        fn = _substitute_many(node.fn, m, mfvs, mrisk)
        arg = _substitute_many(node.arg, m, mfvs, mrisk)
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
        body = _substitute_many(node.body, m3, fvs3, mrisk | {fresh})
        return Lam(fresh, body)
    body = _substitute_many(node.body, m2, mfvs, mrisk)
    if body is node.body:
        return node
    return Lam(x, body)
