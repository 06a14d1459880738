"""The built-in numeral systems and their successor/predecessor/zero-test
combinators.

A numeral system maps every natural to a closed term; the three combinator
slots hold whatever closed terms are known for that system (None where none
is shipped).  The contract for each slot is checked by the harness module:

    successor    (S d_n)   beta-eta-equal  d_{n+1}
    predecessor  (P d_{n+1})               d_n
    zero test    (Z d_0) = T,  (Z d_{n+1}) = F
"""

from __future__ import annotations

from collections.abc import Callable
from types import SimpleNamespace

from .terms import App, F, I, Lam, T, Term, Var, _Record, _set, app, lam, mk_pair


class UnknownSystemError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown numeral system {name!r}")


class NumeralSystem(_Record):
    __slots__ = ("name", "numeral", "successor", "predecessor", "zero_test", "_step")

    def __init__(self, name: str, numeral: Callable[[int], Term], successor: Term | None = None,
                 predecessor: Term | None = None, zero_test: Term | None = None,
                 _step: Callable[[int, Term], Term] | None = None):
        _set(self, "name", name)
        _set(self, "numeral", numeral)
        _set(self, "successor", successor)
        _set(self, "predecessor", predecessor)
        _set(self, "zero_test", zero_test)
        # (n, d_n) -> d_{n+1} around the very d_n, for the systems whose
        # numerals nest, or around d_n's body for Church; the harness uses it
        # to build numerals in order.  It gives the term == to `numeral(n + 1)`.
        _set(self, "_step", _step)


# bench/spans.py wraps `numeral` with dataclasses.replace, which reads only
# this table: each field's name, that __init__ takes it, and no class variable.
NumeralSystem.__dataclass_fields__ = {
    name: SimpleNamespace(name=name, init=True, _field_type=None) for name in NumeralSystem.__slots__}


class SequenceSpec(_Record):
    """A sequence of closed normal terms, indexed from 1."""

    __slots__ = ("name", "element")

    def __init__(self, name: str, element: Callable[[int], Term]):
        _set(self, "name", name)
        _set(self, "element", element)


# ---------------------------------------------------------------------------
# Numeral constructors

def _require_natural(n: int) -> None:
    if n < 0:
        raise ValueError(f"numerals are indexed by naturals, got {n}")


def church(n: int) -> Term:
    """λf.λx.(f (f … (f x))) with n occurrences of f."""
    _require_natural(n)
    body: Term = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Lam("f", Lam("x", body))


def _nested(step: Callable[[int, Term], Term], n: int) -> Term:
    """d_n of a system whose d_0 is I and whose step gives d_{k+1} from d_k."""
    _require_natural(n)
    t: Term = I
    for k in range(n):
        t = step(k, t)
    return t


def _barendregt_step(n: int, dn: Term) -> Term:
    return mk_pair(F, dn)


def barendregt(n: int) -> Term:
    """I for zero, then each successor wraps a pair ⟨F, previous⟩."""
    return _nested(_barendregt_step, n)


def a_numeral(n: int) -> Term:
    """n abstractions over I: λx1…λxn.I."""
    _require_natural(n)
    t: Term = I
    for i in range(n, 0, -1):
        t = Lam(f"x{i}", t)
    return t


def b_numeral(n: int) -> Term:
    """⟨T, I⟩ for zero, ⟨F, a_{n-1}⟩ for n ≥ 1."""
    _require_natural(n)
    if n == 0:
        return mk_pair(T, I)
    return mk_pair(F, a_numeral(n - 1))


def bprime_numeral(n: int) -> Term:
    """The b numerals with indices 0 and 1 swapped."""
    if n == 0:
        return b_numeral(1)
    if n == 1:
        return b_numeral(0)
    return b_numeral(n)


def tilde_numeral(n: int) -> Term:
    """I for zero, λx.(x x…x) with n+1 occurrences for n ≥ 1."""
    _require_natural(n)
    if n == 0:
        return I
    body: Term = Var("x")
    for _ in range(n):
        body = App(body, Var("x"))
    return Lam("x", body)


def _church_step(n: int, cn: Term) -> Term:
    """church(n+1) around the body of church(n)."""
    return Lam("f", Lam("x", App(Var("f"), cn.body.body)))


# (n, e_n) -> e_{n+1} for the element functions whose e_{n+1} holds e_n or
# its body, so that a sequence of them is built in O(1) pairs a step.
_ELEMENT_STEPS: dict[Callable[[int], Term], Callable[[int, Term], Term]] = {
    church: _church_step,
    barendregt: _barendregt_step,
}


def _c_step(e: SequenceSpec) -> Callable[[int, Term], Term]:
    """(n, d_n) -> d_{n+1} = ⟨d_n, e_{n+1}⟩.  Where e's element function has
    a step, e_{n+1} grows from e_n, d_n's second component."""
    element_step = _ELEMENT_STEPS.get(e.element)

    def step(n: int, dn: Term) -> Term:
        if n == 0 or element_step is None:
            return mk_pair(dn, e.element(n + 1))
        return mk_pair(dn, element_step(n, dn.body.arg))

    return step


def c_numeral(n: int, e: SequenceSpec) -> Term:
    """I for zero, then ⟨c_{n-1}, e_n⟩."""
    return _nested(_c_step(e), n)


CHURCH_SEQUENCE = SequenceSpec("church", church)


# ---------------------------------------------------------------------------
# Combinators

def _church_successor() -> Term:
    return lam("n", "f", "x", app(Var("f"), app(Var("n"), Var("f"), Var("x"))))


def _church_predecessor() -> Term:
    # Pair iteration: step a pair (k, k-1) upward n times from (0, 0),
    # then keep the second component.
    s = _church_successor()
    step = Lam("a", mk_pair(app(s, app(Var("a"), T)), app(Var("a"), T)))
    return Lam("n", app(Var("n"), step, mk_pair(church(0), church(0)), F))


def _church_zero_test() -> Term:
    return Lam("n", app(Var("n"), Lam("x", F), T))


def _barendregt_system(name: str) -> NumeralSystem:
    return NumeralSystem(
        name,
        barendregt,
        successor=Lam("x", mk_pair(F, Var("x"))),
        predecessor=Lam("x", App(Var("x"), F)),
        zero_test=Lam("x", App(Var("x"), T)),
        _step=_barendregt_step,
    )


def _church_system(name: str) -> NumeralSystem:
    return NumeralSystem(
        name,
        church,
        successor=_church_successor(),
        predecessor=_church_predecessor(),
        zero_test=_church_zero_test(),
        _step=_church_step,
    )


def _a_system(name: str) -> NumeralSystem:
    return NumeralSystem(
        name,
        a_numeral,
        successor=lam("n", "x", Var("n")),
        predecessor=Lam("n", App(Var("n"), I)),
    )


def _b_system(name: str) -> NumeralSystem:
    succ = Lam(
        "n",
        mk_pair(
            F,
            app(Var("n"), T, a_numeral(0), Lam("x", App(Var("n"), F))),
        ),
    )
    return NumeralSystem(
        name,
        b_numeral,
        successor=succ,
        zero_test=Lam("n", App(Var("n"), T)),
    )


def _bprime_system(name: str) -> NumeralSystem:
    return NumeralSystem(name, bprime_numeral)


def _tilde_system(name: str) -> NumeralSystem:
    flip = lam("x", "y", App(Var("y"), Var("x")))
    # In the predecessor, the inner combinators deliberately reference the
    # x bound at the top: they are built inside that scope, capture intended.
    shift = lam("a", "b", "c", "d", app(Var("d"), Var("a"), App(Var("c"), Var("x"))))
    unwind = Lam("y", app(Var("y"), shift, I))
    return NumeralSystem(
        name,
        tilde_numeral,
        successor=lam("n", "x", app(Var("n"), Var("x"), Var("x"))),
        predecessor=lam("n", "x", app(Var("n"), unwind, F)),
        zero_test=Lam("n", app(Var("n"), flip, I, I, T)),
    )


def _c_system(sequence: SequenceSpec) -> NumeralSystem:
    return NumeralSystem(
        f"c[{sequence.name}]",
        lambda n: c_numeral(n, sequence),
        predecessor=Lam("n", App(Var("n"), T)),
        zero_test=Lam("n", app(Var("n"), lam("x", "y", I), T, F, T)),
        _step=_c_step(sequence),
    )


# The builders of the systems that take no sequence, called with their name.
_BUILDERS: dict[str, Callable[[str], NumeralSystem]] = {
    "church": _church_system,
    "barendregt": _barendregt_system,
    "a": _a_system,
    "b": _b_system,
    "bprime": _bprime_system,
    "tilde": _tilde_system,
}

SYSTEM_NAMES = (*_BUILDERS, "c")


def builtin_system(name: str, sequence: SequenceSpec | None = None) -> NumeralSystem:
    """Look up a built-in system by name.  `sequence` applies only to "c";
    it defaults to the Church-numeral sequence."""
    if name == "c":
        return _c_system(sequence or CHURCH_SEQUENCE)
    if sequence is not None:
        raise ValueError("a sequence can only be supplied for the c system")
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownSystemError(name)
    return builder(name)
