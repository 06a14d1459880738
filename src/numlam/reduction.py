"""Normal-order beta reduction, eta postnormalization, and head reduction.

All reductions are fuel-bounded: beta-normalization of an arbitrary term may
diverge, so every driver returns either a normal form with its step count or
the partial term left when the budget ran out.  Equality of terms is the
three-valued `EqVerdict` (decided by `report.beta_eta_eq`): Equal and
Distinct are definitive (both sides reached beta-eta-normal form), Unknown
means fuel ran out and is never collapsed to a definite answer.

Beta-normalization is one iterative normal-order pass over a context stack
(a zipper): it reduces the head of each spine, then goes on into binders
and arguments (Sestoft, "Demonstrating lambda calculus reduction", 2002),
resuming at each contraction site instead of searching again from the
root.  Its invariant: it contracts the leftmost-outermost redexes that a
search from the root after each step would, in the same order, so the step
counts and, at every fuel, the partial term are those of step-by-step
reduction.  `beta_step_normal_order` is one step of that pass.  The eta
pass after it is a post-order walk over an explicit stack.

A closed abstraction that a pass returns as normal is marked so in its
free-variable cache (see `terms`): beta-normal by `beta_normalize`,
beta-eta-normal by the eta pass.  Every pass and scan here takes a marked
abstraction as a normal leaf and does not walk into it, so a numeral that
one check has normalized costs the next check nothing, and neither do the
marked numerals nested inside a new one.

Head reduction runs on a machine state (binders, head, argument spine) in
the manner of Krivine's machine: a step contracts the head redex in place
of its spine, so it costs the redex body and not the length of the spine.
`head_reduce` records each step as its state, and its trace builds the
terms of the states only when they are read.  `head_step`, `head_redex` and
`is_head_normal_form` use the same machine.
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
    free_vars,
    substitute,
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
# Beta

# Frames of the context stack (zipper) that beta_normalize keeps
# from the root to its focus:
#   (_BODY, lam)          the focus is the body of lam
#   (_FN, app)            the focus is the function of app; app.arg waits
#   (_ARG, app, fn)       the focus is the argument of app, whose function
#                         is now the normal fn
_BODY, _FN, _ARG = 0, 1, 2


def _plug(t: Term, stack: list) -> Term:
    """The whole term: the focus t put back into its context."""
    for frame in reversed(stack):
        node = frame[1]
        if frame[0] == _BODY:
            t = node if t is node.body else Lam(node.binder, t)
        elif frame[0] == _FN:
            t = node if t is node.fn else App(t, node.arg)
        else:
            fn = frame[2]
            t = node if fn is node.fn and t is node.arg else App(fn, t)
    return t


def beta_normalize(t: Term, fuel: Fuel = DEFAULT_FUEL) -> ReductionOutcome:
    """Beta-normalize t in normal order, spending at most fuel.max_steps.

    Each step contracts the leftmost-outermost redex of the whole term, the
    one a search from the root would find, but one iterative pass makes all
    the steps: the steps, their count and, when the fuel runs out, the
    partial term are those of that many single steps.  A normal t comes back as the
    same object; in general, subtrees the reduction leaves unchanged are
    shared with t.  The pass itself does not recurse, so the depth of t is
    not bounded by the recursion limit; `substitute` still recurses on the
    body of each redex it contracts.

    A marked abstraction (see `terms`) is a normal leaf: the pass does not
    go into it, though it still contracts it when it is applied.  A normal
    form that is an abstraction known to be closed comes back marked
    beta-normal.  Only an abstraction whose cache already says it is closed
    is marked, so no free-variable walk is made for it.

    The pass keeps its focus and the context above it as a stack of frames.
    Everything left of the focus in the order node, function, argument is
    beta-normal and no ancestor of the focus is a redex, so the next redex
    is at or after the focus.  A contraction changes only the focus, and it
    can make a redex above it in one way: a contractum that is an
    abstraction in function position makes its parent application a redex,
    so the pass steps back up to that parent.  Otherwise it resumes at the
    contractum.
    """
    max_steps = fuel.max_steps
    stack: list = []
    steps = 0
    while True:
        # Exact class tests, as in terms: Var, Lam and App have no subclasses.
        cls = type(t)
        if cls is App:
            fn = t.fn
            if type(fn) is Lam:
                if steps == max_steps:
                    return OutOfFuel(_plug(t, stack), steps)
                t = substitute(fn.body, {fn.binder: t.arg})
                steps += 1
                if type(t) is Lam and stack and stack[-1][0] == _FN:
                    t = App(t, stack.pop()[1].arg)
            else:
                stack.append((_FN, t))
                t = fn
            continue
        if cls is Lam:
            fv = t._fv
            if fv is not _BETA_NORMAL and fv is not _BETA_ETA_NORMAL:
                stack.append((_BODY, t))
                t = t.body
                continue
        # The focus is normal: go up to the first argument not yet visited.
        while stack:
            frame = stack.pop()
            node = frame[1]
            if frame[0] == _BODY:
                t = node if t is node.body else Lam(node.binder, t)
            elif frame[0] == _FN:
                stack.append((_ARG, node, t))
                t = node.arg
                break
            else:
                fn = frame[2]
                t = node if fn is node.fn and t is node.arg else App(fn, t)
        else:
            if type(t) is Lam and t._fv is _NO_NAMES:
                _set_lam_fv(t, _BETA_NORMAL)
            return Normal(t, steps)


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
        and binder not in free_vars(body.fn)
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
    """Mark t beta-eta-normal if it is an abstraction known to be closed;
    t must be beta-eta-normal."""
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
# The machine's state (binders, head, spine) stands for the term
# λb1…λbk.(head V1 … Vm).  Both lists are persistent cons lists, None when
# empty, so a step shares them with the state before it:
#   binders   (name, rest), the innermost binder on top;
#   spine     (app, rest), the applications whose function is head, the
#             innermost on top; app.arg is an argument, the first on top.
# The spine holds the application nodes rather than their arguments, so the
# head redex of a term is one of its own subterms.

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
            binders = (head.binder, binders)
            head = head.body
        else:
            return binders, head, spine


def _state_term(binders, head: Term, spine) -> Term:
    """The term a machine state stands for."""
    while spine is not None:
        node, spine = spine
        head = App(head, node.arg)
    while binders is not None:
        name, binders = binders
        head = Lam(name, head)
    return head


class HeadTrace:
    """Successive states of a head reduction; length is the step count.

    The reduction records each step as its machine state, not as a term.
    `states` builds the terms on first read and keeps them; states[0] is the
    reduced term itself.  `final` builds only the last state.  Traces
    compare, hash and print by their states.
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

    def __eq__(self, other):
        if not isinstance(other, HeadTrace):
            return NotImplemented
        return self.states == other.states

    def __hash__(self):
        return hash(self.states)

    def __repr__(self):
        return f"HeadTrace(states={self.states!r})"


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
        head = substitute(head.body, {head.binder: node.arg})
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
