"""The named term engine as it was before free variables were cached on
abstractions, kept as the reference for the differential tests.

Each function below is a verbatim copy of the library code of that time:
`fresh_name`, `mk_pair`, `free_vars`, `occurs_free` and `substitute` from
`numlam.terms`, with `to_indexed` as it was before it walked on a stack;
the beta and eta normalizers and `is_beta_eta_normal` from
`numlam.reduction`, which here call the copied `substitute` and
`occurs_free`; and the head reduction of `numlam.reduction` as it was
before it ran on a machine state, `HeadTrace`, `HeadResult`, `head_step`
and `head_reduce`, whose `head_step` calls the copied `substitute` too;
and the parser and printer of `numlam.parser` as they were before tokens
were found by one regex pass, `parse_term`, `parse_program` and `pretty`
with their tokenizer, which here call the copied `mk_pair` and
`substitute` and raise the library's `ParseError` and `DuplicateNameError`.
Last, `_substitute` is the substitution walk of `numlam.terms` over a map
as it was before it kept its pending work on a stack: it reads the free
variables each node holds, loops down a left spine and calls itself on the
arguments, heads and bodies that hold a substituted name.
Do not edit them to follow the library: they are what the
library must agree with, structurally and step for step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from numlam.parser import DuplicateNameError, ParseError, Program
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


# ---------------------------------------------------------------------------
# Parsing and printing

_PUNCT = {
    "\\": "lambda",
    "λ": "lambda",
    ".": "dot",
    "(": "lparen",
    ")": "rparen",
    "<": "langle",
    ">": "rangle",
    ",": "comma",
    "=": "equals",
    ";": "semi",
}

# Every piece of the text, in order: a run of whitespace, a comment, an
# identifier or any other single character.
_PIECE = re.compile(r"\s+|--[^\n]*|[A-Za-z_][A-Za-z0-9_']*|.", re.S)
# Token kind by the first character of a piece; whitespace and comments
# have none.
_KIND = dict(_PUNCT)
_KIND.update(
    dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident")
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    for piece in _PIECE.findall(text):
        kind = _KIND.get(piece[0])
        if kind is not None:
            toks.append((kind, piece, pos))
        elif not (piece.isspace() or piece.startswith("--")):
            raise ParseError(pos, "a term", piece)
        pos += len(piece)
    toks.append(("eof", "", pos))
    return toks


def _unexpected(tok, what: str) -> ParseError:
    return ParseError(tok[2], what, tok[1] or "end of input")


class _Tokens:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise _unexpected(tok, what)
        return tok


_ATOM_STARTS = frozenset(["ident", "lparen", "langle"])

# Frames of the parser's stack, one for each construct still open around
# the token being read:
#   (_LAM, binders)          λbinders. whose body is being read
#   (_PAREN, acc)            '(' ... ')'; acc is the application the group
#                            extends, None when the group comes first
#   (_PAIR1, acc)            '<' ... ',' ... '>' at its first component
#   (_PAIR2, acc, first)     the same at its second component
_LAM, _PAREN, _PAIR1, _PAIR2 = range(4)


def _term(ts: _Tokens) -> Term:
    """Parse one term, leaving ts at the first token after it.

    One loop over an explicit stack of open constructs, so nesting depth is
    not bounded by the recursion limit.  `acc` is the application read so
    far in the innermost open term, None at its start.  A term ends at the
    first token that cannot start an atom, so an abstraction is only read
    where acc is None, as the grammar requires.
    """
    toks = ts.toks
    i = ts.i
    stack: list = []
    acc = None
    while True:
        tok = toks[i]
        i += 1
        kind = tok[0]
        if kind == "ident":
            t = Var(tok[1])
        elif kind == "lparen":
            stack.append((_PAREN, acc))
            acc = None
            continue
        elif kind == "langle":
            stack.append((_PAIR1, acc))
            acc = None
            continue
        elif kind == "lambda":
            binders = []
            while toks[i][0] == "ident":
                binders.append(toks[i][1])
                i += 1
            tok = toks[i]
            if not binders:
                raise _unexpected(tok, "a binder name")
            i += 1
            if tok[0] != "dot":
                raise _unexpected(tok, "'.'")
            stack.append((_LAM, binders))
            continue
        else:
            raise _unexpected(tok, "a term")
        # t is a whole atom: extend the application, or end the term and
        # close the constructs it completes.
        while True:
            acc = t if acc is None else App(acc, t)
            if toks[i][0] in _ATOM_STARTS:
                break
            t = acc
            while stack and stack[-1][0] == _LAM:
                for b in reversed(stack.pop()[1]):
                    t = Lam(b, t)
            if not stack:
                ts.i = i
                return t
            frame = stack.pop()
            tok = toks[i]
            i += 1
            if frame[0] == _PAREN:
                if tok[0] != "rparen":
                    raise _unexpected(tok, "')'")
                acc = frame[1]
            elif frame[0] == _PAIR1:
                if tok[0] != "comma":
                    raise _unexpected(tok, "','")
                stack.append((_PAIR2, frame[1], t))
                acc = None
                break
            else:
                if tok[0] != "rangle":
                    raise _unexpected(tok, "'>'")
                acc = frame[1]
                t = mk_pair(frame[2], t)


def _inline(t: Term, env: Program | None) -> Term:
    if env is None or not env.definitions:
        return t
    return substitute(t, env.as_mapping())


def parse_term(text: str, env: Program | None = None) -> Term:
    """Parse a single term; names defined in `env` are inlined, all other
    identifiers become free variables."""
    ts = _Tokens(_tokenize(text))
    t = _term(ts)
    ts.expect("eof", "end of input")
    return _inline(t, env)


def parse_program(text: str, base: Program | None = None) -> Program:
    """Parse `name = term ;` definitions, inlining earlier names (and the
    optional `base` program) into later bodies."""
    ts = _Tokens(_tokenize(text))
    defs: list[tuple[str, Term]] = list(base.definitions) if base else []
    seen = {name for name, _ in defs}
    while ts.peek()[0] != "eof":
        name_tok = ts.expect("ident", "a definition name")
        name = name_tok[1]
        if name in seen:
            raise DuplicateNameError(name)
        ts.expect("equals", "'='")
        body = _term(ts)
        ts.expect("semi", "';'")
        body = _inline(body, Program(tuple(defs)))
        defs.append((name, body))
        seen.add(name)
    return Program(tuple(defs))


# ---------------------------------------------------------------------------
# Printing

def pretty(t: Term) -> str:
    """Minimal-parentheses rendering; reparsing yields the same term.

    Stack-safe: the walk keeps its pending work on an explicit stack, so
    the depth of t is not bounded by the recursion limit.
    """
    parts: list[str] = []
    # Each entry is text to emit or a term to render where no parentheses
    # are needed: at the top, under a binder or inside parentheses.
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Var):
            parts.append(node.name)
        elif isinstance(node, Lam):
            parts.append("\\" + node.binder + ".")
            stack.append(node.body)
        else:
            # An application spine: the head, then each argument, which
            # needs parentheses unless it is a variable.  Pushed last first.
            while isinstance(node, App):
                arg = node.arg
                if isinstance(arg, Var):
                    stack.append(arg.name)
                else:
                    stack += (")", arg, "(")
                stack.append(" ")
                node = node.fn
            if isinstance(node, Lam):
                stack += (")", node, "(")
            else:
                stack.append(node.name)
    return "".join(parts)


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
