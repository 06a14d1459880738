r"""Concrete syntax for lambda terms and definition files.

Term grammar:

    term  := abs | app
    abs   := ('\' | 'λ') ident+ '.' term
    app   := atom atom*
    atom  := ident | '(' term ')' | '<' term ',' term '>'

Application is left-associative, an abstraction body extends as far right
as possible, and λx y.M sugars λx.λy.M.  `<M,N>` is input sugar for the
pair λx.(x M N); the printer never emits it.  Identifiers match
[A-Za-z_][A-Za-z0-9_']* (primes let freshened binders round-trip).

Definition files are sequences of `name = term ;` with `--` line comments
and blank lines; each body is parsed in the environment of the preceding
definitions and inlined, so parsed bodies are plain terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import App, Lam, Term, Var, mk_pair, substitute


class ParseError(Exception):
    """Malformed input, with offset and what was expected there."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f", found {found!r}" if found else ""
        super().__init__(f"at offset {position}: expected {expected}{detail}")


class DuplicateNameError(Exception):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate definition of {name!r}")


@dataclass(frozen=True)
class Program:
    """Ordered named definitions; bodies are already fully inlined."""

    definitions: tuple[tuple[str, Term], ...] = field(default_factory=tuple)

    def as_mapping(self) -> dict[str, Term]:
        return dict(self.definitions)

    def names(self) -> list[str]:
        return [name for name, _ in self.definitions]


EMPTY_PROGRAM = Program()

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_WS = re.compile(r"\s+")
_COMMENT = re.compile(r"--[^\n]*")

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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        m = _WS.match(text, i) or _COMMENT.match(text, i)
        if m:
            i = m.end()
            continue
        ch = text[i]
        kind = _PUNCT.get(ch)
        if kind:
            toks.append((kind, ch, i))
            i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, "a term", ch)
    toks.append(("eof", "", n))
    return toks


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
            raise ParseError(tok[2], what, tok[1] or "end of input")
        return tok


_ATOM_STARTS = frozenset(["ident", "lparen", "langle"])


def _term(ts: _Tokens) -> Term:
    if ts.peek()[0] == "lambda":
        ts.next()
        binders = []
        while ts.peek()[0] == "ident":
            binders.append(ts.next()[1])
        if not binders:
            tok = ts.peek()
            raise ParseError(tok[2], "a binder name", tok[1] or "end of input")
        ts.expect("dot", "'.'")
        body = _term(ts)
        for b in reversed(binders):
            body = Lam(b, body)
        return body
    return _app(ts)


def _app(ts: _Tokens) -> Term:
    t = _atom(ts)
    while ts.peek()[0] in _ATOM_STARTS:
        t = App(t, _atom(ts))
    return t


def _atom(ts: _Tokens) -> Term:
    kind, value, pos = ts.next()
    if kind == "ident":
        return Var(value)
    if kind == "lparen":
        t = _term(ts)
        ts.expect("rparen", "')'")
        return t
    if kind == "langle":
        first = _term(ts)
        ts.expect("comma", "','")
        second = _term(ts)
        ts.expect("rangle", "'>'")
        return mk_pair(first, second)
    raise ParseError(pos, "a term", value or "end of input")


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
