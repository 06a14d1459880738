"""Normal-order beta reduction, eta postnormalization, and head reduction.

All reductions are fuel-bounded: beta-normalization of an arbitrary term may
diverge, so every driver returns either a normal form with its step count or
the partial term left when the budget ran out.  Equality of terms is the
three-valued `EqVerdict` (decided by `report.beta_eta_eq`): Equal and
Distinct are definitive (both sides reached beta-eta-normal form), Unknown
means fuel ran out and is never collapsed to a definite answer.

Beta-normalization and head reduction run on one machine, a state
(binders, head, argument spine) in the manner of Krivine's machine: a step
contracts the head redex in place of its spine, so it costs the redex body
and not the length of the spine.  Beta-normalization is one iterative
normal-order pass in the order of Sestoft ("Demonstrating lambda calculus
reduction", 2002): it head-reduces, then normalizes the arguments of the
head normal form left to right, each on a machine of its own, the waiting
machines kept on a stack.  Its invariant: it contracts the leftmost-outermost
redexes that a search from the root after each step would, in the same
order, so the step counts and, at every fuel, the partial term are those of
step-by-step reduction.  `beta_step_normal_order` is one step of that pass.
The eta pass after it is a post-order walk over an explicit stack.
Each contraction is one call of the one-binding walk
`terms.substitute_one(body, binder, arg)`, with no map built for it.

A closed abstraction that a pass returns as normal is marked so in its
set of free variables (see `terms`): beta-normal by `beta_normalize`,
beta-eta-normal by the eta pass.  Every pass and scan here takes a marked
abstraction as a normal leaf and does not walk into it, so a numeral that
one check has normalized costs the next check nothing, and neither do the
marked numerals nested inside a new one.

`head_reduce` records each step as its machine state, and its trace builds
the terms of the states only when they are read.  `head_step`, `head_redex`
and `is_head_normal_form` use the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    _BETA_ETA_NORMAL,
    _BETA_NORMAL,
    _NO_NAMES,
    App,
    Lam,
    Term,
    Var,
    _set_lam_fv,
    # Under this name so that bench/spans.py can wrap contractions, until counters do.
    substitute_one as substitute,
)


class NotBetaNormalError(ValueError):
    """eta_normalize was handed a term that still contains a beta-redex."""


DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True, slots=True)
class Fuel:
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("fuel must allow at least one step")


DEFAULT_FUEL = Fuel()


@dataclass(frozen=True, slots=True)
class Normal:
    """A normal form, with the beta steps spent reaching it.  Eta
    contractions performed after beta-normalization are counted apart."""

    term: Term
    steps: int
    eta_steps: int = 0


@dataclass(frozen=True, slots=True)
class OutOfFuel:
    term: Term
    steps: int


ReductionOutcome = Normal | OutOfFuel


# ---------------------------------------------------------------------------
# The machine
#
# beta_normalize and head_reduce run on a state (binders, head, spine) that
# stands for the term λb1…λbk.(head V1 … Vm).  Both lists are persistent
# cons lists, None when empty, so a step shares them with the state before
# it:
#   binders   (lam, rest), the abstractions around head, the innermost on
#             top; lam.binder is the bound name;
#   spine     (app, rest), the applications whose function is head, the
#             innermost on top; app.arg is an argument, the first on top.
# The lists hold the nodes of the term rather than names and arguments, so
# the head redex of a term is one of its own subterms, and a part of a state
# that no step has changed rebuilds to the very nodes it was read from.


def _state_term(binders, head: Term, spine) -> Term:
    """The term a machine state stands for.  A node of the lists whose
    function or body is the term built so far is reused as it is."""
    while spine is not None:
        node, spine = spine
        head = node if head is node.fn else App(head, node.arg)
    while binders is not None:
        lam, binders = binders
        head = lam if head is lam.body else Lam(lam.binder, head)
    return head


# ---------------------------------------------------------------------------
# Beta

def beta_normalize(t: Term, fuel: Fuel = DEFAULT_FUEL) -> ReductionOutcome:
    """Beta-normalize t in normal order, spending at most fuel.max_steps.

    Each step contracts the leftmost-outermost redex of the whole term, the
    one a search from the root would find, but one iterative pass makes all
    the steps: the steps, their count and, when the fuel runs out, the
    partial term are those of that many single steps.  A normal t comes back as the
    same object; in general, subtrees the reduction leaves unchanged are
    shared with t.  The pass itself does not recurse, so the depth of t is
    not bounded by the recursion limit; the one-binding walk that contracts
    each redex recurses on the parts of its body that hold the bound name.

    A marked abstraction (see `terms`) is a normal leaf: the pass does not
    go into it, though it still contracts it when it is applied.  A normal
    form that is a closed abstraction comes back marked beta-normal.

    The pass runs the head machine (see above) in the order of Sestoft
    ("Demonstrating lambda calculus reduction", 2002): it head-reduces a
    term to λb1…λbk.(x V1 … Vm), then normalizes V1 to Vm left to right,
    each on a machine of its own, and the leftmost-outermost redex is always
    the head redex of the machine at work.  A contraction pops its argument
    off the spine and leaves the contractum as the head, so a contractum
    that is an abstraction meets its next argument without an application
    built around it.  The machines that wait for an argument's normal form
    are kept on a stack of levels; a finished argument is put back into its
    application, which is reused when nothing in it changed.
    """
    max_steps = fuel.max_steps
    steps = 0
    # The waiting machines, outermost first: (binders, fn, spine) waits for
    # the normal form of spine[0].arg; fn is the normal form of what spine[0]
    # applies, and spine[1] holds the applications still to go.
    levels: list = []
    binders = spine = None
    head = t
    # The unwinding, the contraction and the rebuilding of a finished level
    # are written out in this loop rather than called: a function call per
    # step costs a measurable share of the pass.
    while True:
        # Exact class tests, as in terms: Var, Lam and App have no subclasses.
        cls = type(head)
        if cls is App:
            spine = (head, spine)
            head = head.fn
            continue
        if cls is Lam:
            if spine is not None:
                if steps == max_steps:
                    t = _state_term(binders, head, spine)
                    for binders, fn, spine in reversed(levels):
                        node, spine = spine
                        t = node if fn is node.fn and t is node.arg else App(fn, t)
                        t = _state_term(binders, t, spine)
                    return OutOfFuel(t, steps)
                node, spine = spine
                head = substitute(head.body, head.binder, node.arg)
                steps += 1
                continue
            fv = head._fv
            if fv is not _BETA_NORMAL and fv is not _BETA_ETA_NORMAL:
                binders = (head, binders)
                head = head.body
                continue
        elif spine is not None:
            # Head normal form: normalize the first argument.
            levels.append((binders, head, spine))
            head = spine[0].arg
            binders = spine = None
            continue
        # The head is normal and nothing is applied to it: close the
        # binders, then hand the result to the level that waits for it.
        while True:
            while binders is not None:
                lam, binders = binders
                head = lam if head is lam.body else Lam(lam.binder, head)
            if not levels:
                if type(head) is Lam and head._fv is _NO_NAMES:
                    _set_lam_fv(head, _BETA_NORMAL)
                return Normal(head, steps)
            binders, fn, spine = levels.pop()
            node, spine = spine
            head = node if fn is node.fn and head is node.arg else App(fn, head)
            if spine is not None:
                levels.append((binders, head, spine))
                head = spine[0].arg
                binders = spine = None
                break


def beta_step_normal_order(t: Term) -> Term | None:
    """Contract the leftmost-outermost beta-redex; None iff t is beta-normal.

    The redex chosen is the first found depth-first visiting each node
    before its function child before its argument child: the first step of
    `beta_normalize`.
    """
    out = beta_normalize(t, Fuel(1))
    return out.term if out.steps else None


# ---------------------------------------------------------------------------
# Eta

def _is_eta_redex(binder: str, body: Term) -> bool:
    """True iff λbinder.body is an eta-redex λx.(M x) with x not free in M."""
    return (
        isinstance(body, App)
        and isinstance(body.arg, Var)
        and body.arg.name == binder
        and binder not in body.fn._fv
    )


# Marks, on the stack of _eta, that the node below it has had its children
# walked and is to be rebuilt from their results.
_REBUILD = object()


def _eta(t: Term) -> tuple[Term, int]:
    """Contract the eta-redexes of the beta-normal t, innermost first: the
    eta-normal form and the number of contractions.  Unchanged subtrees
    are shared with t, and an eta-normal t comes back as it is.  A
    beta-redex in t raises NotBetaNormalError.

    One post-order walk over an explicit stack, so the depth of t is not
    bounded by the recursion limit: each node is visited, then its
    children, then it is rebuilt from their results, which wait on a
    second stack.  An abstraction marked beta-eta-normal is a leaf, and a
    closed one that comes back unchanged is marked so.  The walk visits
    every application outside such a leaf, so it meets every beta-redex;
    a mark set before it raises is on a subtree it has walked in full."""
    # Most normal forms have no eta-redex, and finding that out takes one
    # scan that rebuilds nothing.
    if is_beta_eta_normal(t):
        _mark_beta_eta_normal(t)
        return t, 0
    contracted = 0
    done: list[Term] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if node is _REBUILD:
            node = stack.pop()
            if isinstance(node, App):
                arg = done.pop()
                fn = done.pop()
                done.append(node if fn is node.fn and arg is node.arg else App(fn, arg))
                continue
            body = done.pop()
            if _is_eta_redex(node.binder, body):
                done.append(body.fn)
                contracted += 1
            elif body is node.body:
                _mark_beta_eta_normal(node)
                done.append(node)
            else:
                done.append(Lam(node.binder, body))
        elif isinstance(node, App):
            if isinstance(node.fn, Lam):
                raise NotBetaNormalError("input contains a beta-redex")
            stack += (node, _REBUILD, node.arg, node.fn)
        elif isinstance(node, Var) or node._fv is _BETA_ETA_NORMAL:
            done.append(node)
        else:
            stack += (node, _REBUILD, node.body)
    return done[0], contracted


def _mark_beta_eta_normal(t: Term) -> None:
    """Mark t beta-eta-normal if it is a closed abstraction; t must be
    beta-eta-normal."""
    if type(t) is Lam and (t._fv is _NO_NAMES or t._fv is _BETA_NORMAL):
        _set_lam_fv(t, _BETA_ETA_NORMAL)


def eta_normalize(t: Term) -> Term:
    """Contract eta-redexes to a fixpoint.  Requires a beta-normal input;
    on such input the result is beta-eta-normal (contracting λx.(M x)
    inside a beta-normal term cannot create a beta-redex, since an applied
    abstraction would already have been one).  A beta-redex in t raises
    NotBetaNormalError."""
    return _eta(t)[0]


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
            if node._fv is _BETA_ETA_NORMAL:
                continue
            if _is_eta_redex(node.binder, node.body):
                return False
            stack.append(node.body)
        elif isinstance(node, App):
            if isinstance(node.fn, Lam):
                return False
            stack.append(node.fn)
            stack.append(node.arg)
    return True


# ---------------------------------------------------------------------------
# Equality

@dataclass(frozen=True, slots=True)
class EqVerdict:
    kind: str  # "equal" | "distinct" | "unknown"
    reason: str | None = None

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.kind == "distinct"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        if self.kind == "unknown" and self.reason:
            return f"Unknown ({self.reason})"
        return self.kind.capitalize()


EQUAL = EqVerdict("equal")
DISTINCT = EqVerdict("distinct")


def unknown(reason: str) -> EqVerdict:
    return EqVerdict("unknown", reason)


# ---------------------------------------------------------------------------
# Head reduction
#
# head_reduce runs the machine of beta_normalize one head step at a time and
# records each state; `_state_term` builds the terms of the states.

def _unwind(head: Term, binders, spine):
    """Make the machine's moves that contract nothing: an application head
    goes onto the spine, an abstraction with no argument onto the binders.
    Stops at a variable head, which is head normal form, or at an
    abstraction with an argument, when spine[0] is the head redex."""
    while True:
        cls = type(head)
        if cls is App:
            spine = (head, spine)
            head = head.fn
        elif cls is Lam and spine is None:
            binders = (head, binders)
            head = head.body
        else:
            return binders, head, spine


class HeadTrace:
    """Successive states of a head reduction; length is the step count.

    The reduction records each step as its machine state, not as a term.
    `states` builds the terms on first read and keeps them; states[0] is the
    reduced term itself.  `final` builds only the last state.
    """

    __slots__ = ("_start", "_steps", "_final", "_states")

    def __init__(self, start: Term, steps: list):
        self._start = start
        self._steps = steps
        self._final = None
        self._states = None

    @property
    def length(self) -> int:
        return len(self._steps)

    @property
    def final(self) -> Term:
        if self._final is None:
            self._final = _state_term(*self._steps[-1]) if self._steps else self._start
        return self._final

    @property
    def states(self) -> tuple[Term, ...]:
        if self._states is None:
            built = [self._start]
            built += (_state_term(*step) for step in self._steps[:-1])
            if self._steps:
                built.append(self.final)
            self._states = tuple(built)
        return self._states


@dataclass(frozen=True, slots=True)
class HeadResult:
    trace: HeadTrace
    reached_hnf: bool


def head_redex(t: Term) -> Term | None:
    """The head redex (λx.U V) of t, or None when t is in head normal form
    λx1…λxn.(x V1…Vm)."""
    _, head, spine = _unwind(t, None, None)
    return spine[0] if isinstance(head, Lam) else None


def is_head_normal_form(t: Term) -> bool:
    return head_redex(t) is None


def head_step(t: Term) -> Term | None:
    """Contract the head redex; None iff t is in head normal form.  One step
    of `head_reduce`."""
    trace = head_reduce(t, Fuel(1)).trace
    return trace.final if trace.length else None


def head_reduce(t: Term, fuel: Fuel = DEFAULT_FUEL) -> HeadResult:
    """Head-reduce t until head normal form or the fuel runs out.
    The trace length is the head-reduction length between the endpoints.

    The reduction runs on a machine state (binders, head, spine) in the
    manner of Krivine ("A call-by-name lambda-calculus machine", HOSC 20,
    2007): a step contracts the head abstraction with the first argument on
    the spine and leaves the rest of the spine and the binders as they are,
    so it costs the redex body, not the length of the spine.  Each step is
    recorded as its state; the trace builds terms from those only when they
    are read.  When the fuel runs out the machine only tests for head normal
    form, and contracts nothing more.
    """
    max_steps = fuel.max_steps
    steps: list = []
    binders, head, spine = _unwind(t, None, None)
    while type(head) is Lam:
        if len(steps) == max_steps:
            return HeadResult(HeadTrace(t, steps), False)
        node, spine = spine
        head = substitute(head.body, head.binder, node.arg)
        steps.append((binders, head, spine))
        binders, head, spine = _unwind(head, binders, spine)
    return HeadResult(HeadTrace(t, steps), True)


def solvable(t: Term, fuel: Fuel = DEFAULT_FUEL) -> int | None:
    """Head steps to head normal form if reached within fuel, else None.

    None means unknown: head-reduction termination is undecidable, so this
    never claims a term unsolvable.
    """
    result = head_reduce(t, fuel)
    return result.trace.length if result.reached_hnf else None
