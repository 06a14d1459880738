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
