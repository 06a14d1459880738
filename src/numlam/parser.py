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

One regex pass finds the tokens, without offsets, and the parser walks them
by index.  Only an error scans the text again, for its offset; a
character that starts no token is reported first, wherever it stands, as
though the whole text were read before it is parsed.
"""

from __future__ import annotations

import re

from .terms import App, Lam, Term, Var, _Record, _set, free_vars, mk_pair, substitute


class ParseError(Exception):
    """Malformed input, with offset and what was expected there."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f", found {found!r}" if found else ""
        super().__init__(f"at offset {position}: expected {expected}{detail}")


class DuplicateNameError(Exception):
    """A definition of a name already defined, with the offset of the
    repeated name when it is known."""

    def __init__(self, name: str, position: int | None = None):
        self.name = name
        self.position = position
        super().__init__(f"duplicate definition of {name!r}")


class Program(_Record):
    """Ordered named definitions; bodies are already fully inlined."""

    __slots__ = ("definitions",)

    def __init__(self, definitions: tuple[tuple[str, Term], ...] = ()):
        _set(self, "definitions", definitions)

    def as_mapping(self) -> dict[str, Term]:
        return dict(self.definitions)


# Each match is one token, as a pair: an identifier and "", or "" and any
# other piece, which is a comment or one character.  Whitespace matches
# nothing, so findall skips it.  A piece that is no punctuation never fits
# where the parser wants a token, so parsing stops there.
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)|(--[^\n]*|\S)")
_END = ("", "")  # after the last token


def _tokens(text: str) -> list[tuple[str, str]]:
    toks = _TOKEN.findall(text)
    if "--" in text:
        toks = [tok for tok in toks if not tok[1].startswith("--")]
    toks.append(_END)
    return toks


def _stray(text: str) -> ParseError | None:
    """The error for the first character of text that starts no token."""
    for m in _TOKEN.finditer(text):
        piece = m[2]
        if piece and piece[:2] != "--" and piece not in "\\λ.()<>,=;":
            return ParseError(m.start(), "a term", piece)
    return None


def _pieces(text: str) -> list[re.Match]:
    """The matches of the tokens of text, one for each item of _tokens."""
    return [m for m in _TOKEN.finditer(text) if m[0][:2] != "--"]


def _unexpected(text: str, i: int, what: str) -> ParseError:
    """The error for token i of text, found where `what` was wanted."""
    pieces = _pieces(text)
    if i < len(pieces):
        return _stray(text) or ParseError(pieces[i].start(), what, pieces[i][0])
    return _stray(text) or ParseError(len(text), what, "end of input")


def _term(text: str, toks: list, i: int, leaves: dict[str, Var]) -> tuple[Term, int]:
    """Parse one term from token i on; return it and the index of the
    first token after it.  Each name gets one Var, kept in `leaves`.

    One loop over an explicit stack of open constructs, so nesting depth is
    not bounded by the recursion limit.  `acc` is the application read so
    far in the innermost open term, None at its start; a token that cannot
    start an atom ends it, so an abstraction is only read where acc is
    None, as the grammar requires.  The frames, told apart by type:
      binders         λbinders. whose body is being read (a list)
      acc             '(' ... ')'; acc is the application the group
                      extends, None when the group comes first
      (acc,)          '<' ... ',' ... '>' at its first component
      (acc, first)    the same at its second component
    """
    stack: list = []
    acc = None
    while True:
        name, piece = toks[i]
        i += 1
        if name:
            t = leaves.get(name)
            if t is None:
                t = leaves[name] = Var(name)
            acc = t if acc is None else App(acc, t)
            continue
        if piece == "(":
            stack.append(acc)
            acc = None
            continue
        if piece == "<":
            stack.append((acc,))
            acc = None
            continue
        if acc is None:
            if piece != "\\" and piece != "λ":
                raise _unexpected(text, i - 1, "a term")
            binders = []
            while toks[i][0]:
                binders.append(toks[i][0])
                i += 1
            if not binders:
                raise _unexpected(text, i, "a binder name")
            if toks[i][1] != ".":
                raise _unexpected(text, i, "'.'")
            i += 1
            stack.append(binders)
            continue
        # The token ends the innermost open term: close the abstractions
        # around it, then the construct it completes.
        t = acc
        while True:
            if not stack:
                return t, i - 1
            frame = stack.pop()
            cls = type(frame)
            if cls is not list:
                break
            for b in reversed(frame):
                t = Lam(b, t)
        if cls is not tuple:
            if piece != ")":
                raise _unexpected(text, i - 1, "')'")
            acc = frame
        elif len(frame) == 1:
            if piece != ",":
                raise _unexpected(text, i - 1, "','")
            stack.append((frame[0], t))
            acc = None
            continue
        else:
            if piece != ">":
                raise _unexpected(text, i - 1, "'>'")
            acc = frame[0]
            t = mk_pair(frame[1], t)
        acc = t if acc is None else App(acc, t)


def _inline(t: Term, env: dict[str, Term]) -> Term:
    """t with each name defined in env that is free in t replaced by its
    definition.  Only those names go to `substitute`, so the cost follows
    t and the definitions it uses, not the size of env."""
    if not env:
        return t
    used = {name: env[name] for name in free_vars(t) if name in env}
    return substitute(t, used) if used else t


def parse_term(text: str, env: Program | None = None) -> Term:
    """Parse a single term; names defined in `env` are inlined, all other
    identifiers become free variables."""
    toks = _tokens(text)
    t, i = _term(text, toks, 0, {})
    if toks[i] is not _END:
        raise _unexpected(text, i, "end of input")
    return _inline(t, env.as_mapping()) if env is not None else t


def parse_program(text: str, base: Program | None = None) -> Program:
    """Parse `name = term ;` definitions, inlining earlier names (and the
    optional `base` program) into later bodies."""
    toks = _tokens(text)
    defs: list[tuple[str, Term]] = list(base.definitions) if base else []
    # The definitions so far by name, grown one definition at a time.
    env = dict(defs)
    leaves: dict[str, Var] = {}
    i = 0
    while toks[i] is not _END:
        name = toks[i][0]
        if not name:
            raise _unexpected(text, i, "a definition name")
        if name in env:
            raise _stray(text) or DuplicateNameError(name, _pieces(text)[i].start())
        if toks[i + 1][1] != "=":
            raise _unexpected(text, i + 1, "'='")
        body, i = _term(text, toks, i + 2, leaves)
        if toks[i][1] != ";":
            raise _unexpected(text, i, "';'")
        i += 1
        body = _inline(body, env)
        defs.append((name, body))
        env[name] = body
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
        cls = type(node)
        if cls is str:
            parts.append(node)
            continue
        while cls is Lam:
            parts.append("\\" + node.binder + ".")
            node = node.body
            cls = type(node)
        if cls is Var:
            parts.append(node.name)
            continue
        # An application spine: the head, then each argument, which needs
        # parentheses unless it is a variable.  The arguments are pushed
        # last first; a variable's name and the space before it go as two
        # items, so no string is built for them.
        while cls is App:
            arg = node.arg
            if type(arg) is Var:
                stack += (arg.name, " ")
            else:
                stack += (")", arg, " (")
            node = node.fn
            cls = type(node)
        if cls is Var:
            parts.append(node.name)
        else:
            parts.append("(")
            stack += (")", node)
    return "".join(parts)
