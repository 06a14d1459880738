"""Normal-order beta reduction, eta postnormalization, and head reduction.

All reductions are fuel-bounded: beta-normalization of an arbitrary term may
diverge, so every driver returns either a normal form with its step count or
the partial term left when the budget ran out.

Beta-normalization and head reduction run on the machine described below.

Each pass marks the closed normal abstractions it proves normal (see
`terms`) and takes a marked one as a normal leaf, so a numeral that one
check has normalized costs the next check nothing: the eta pass puts in
the form a mark holds and adds its count.  When the beta pass sees that its
normal form holds no eta-redex, `beta_eta_normalize` makes no eta pass.
With no step to spend, the beta pass is the one test of normal form.
"""

from __future__ import annotations

from itertools import islice

from .terms import (
    _BETA_ETA_NORMAL,
    _NO_NAMES,
    _EtaForm,
    _Record,
    App,
    Lam,
    Term,
    Var,
    _set,
    _set_lam_fv,
    _substitute,
    # bench/spans.py wraps this name, until counters do; the replay of a
    # HeadTrace walks with _substitute, so a wrapper sees a contraction once.
    _substitute as substitute,
)


class NotBetaNormalError(ValueError):
    """eta_normalize was handed a term that still contains a beta-redex."""


DEFAULT_MAX_STEPS = 1_000_000


class Fuel(_Record):
    __slots__ = ("max_steps",)

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS):
        if max_steps < 1:
            raise ValueError("fuel must allow at least one step")
        _set(self, "max_steps", max_steps)


DEFAULT_FUEL = Fuel()


class Normal(_Record):
    """A normal form, with the beta steps spent reaching it.  Eta
    contractions performed after beta-normalization are counted apart."""

    __slots__ = ("term", "steps", "eta_steps")

    def __init__(self, term: Term, steps: int, eta_steps: int = 0):
        _set(self, "term", term)
        _set(self, "steps", steps)
        _set(self, "eta_steps", eta_steps)


class OutOfFuel(_Record):
    __slots__ = ("term", "steps")

    def __init__(self, term: Term, steps: int):
        _set(self, "term", term)
        _set(self, "steps", steps)


ReductionOutcome = Normal | OutOfFuel


# ---------------------------------------------------------------------------
# The machine
#
# beta_normalize and head_reduce run on a state (binders, head, spine) in
# the manner of Krivine ("A call-by-name lambda-calculus machine", HOSC 20,
# 2007) that stands for the term λb1…λbk.(head V1 … Vm).  Both lists are
# persistent cons lists, None when empty, so a step shares them with the
# state before it:
#   binders   (lam, rest), the abstractions around head, the innermost on
#             top; lam.binder is the bound name;
#   spine     (arg, app, rest), the arguments of head, the first on top;
#             app is the application of the term that holds arg, or None
#             for an argument a contraction pushed.
# A contraction (`_contract`) substitutes a map from binders to the
# arguments it popped, and pushes the arguments of the contractum's left
# spine, so a step costs the redex body, not the spine, and builds no
# application for the next step to take apart.  A part of a state that no
# step has changed rebuilds to the very nodes it was read from.  The map
# has one name, but where closed arguments meet a chain of abstractions
# λx1…λxk.B, the beta pass pops them all into {x1: a1, …, xk: ak}, a later
# binder of a name replacing an earlier one: a closed argument is never
# captured, so the walk renames nothing and gives the term of the k single
# steps, which the pass counts.


def _state_term(binders, head: Term, spine) -> Term:
    """The term a machine state stands for.  A node of the lists whose
    function or body is the term built so far is reused as it is."""
    while spine is not None:
        arg, node, spine = spine
        head = node if node is not None and head is node.fn else App(head, arg)
    while binders is not None:
        lam, binders = binders
        head = lam if head is lam.body else Lam(lam.binder, head)
    return head


def _contract(body: Term, m: dict[str, Term], risk: frozenset[str], spine, walk):
    """Contract a redex whose abstractions bind the names of m, risk the
    free variables of m's values, in front of spine: the head of body[m],
    and the spine with the arguments of body's left spine pushed, down to
    the first application without a name of m.  Each argument and the head
    is a replacement if it is a name of m, goes through walk if it holds
    one, and stays as it is otherwise."""
    names = frozenset(m)
    while type(body) is App and not body._fv.isdisjoint(names):
        a = body.arg
        if not a._fv.isdisjoint(names):
            a = m[a.name] if type(a) is Var else walk(a, m, names, risk)
        spine = (a, None, spine)
        body = body.fn
    if not body._fv.isdisjoint(names):
        body = m[body.name] if type(body) is Var else walk(body, m, names, risk)
    return body, spine


# ---------------------------------------------------------------------------
# Beta

def beta_normalize(t: Term, fuel: Fuel = DEFAULT_FUEL) -> ReductionOutcome:
    """Beta-normalize t in normal order, spending at most fuel.max_steps.

    One iterative pass makes the leftmost-outermost steps: at every fuel,
    the partial term and the step count are those of that many single steps
    from the root, so `beta_normalize(t, Fuel(1))` is one step.  A normal t
    comes back as the same object, and subtrees the reduction leaves
    unchanged are shared with t.  A marked abstraction (see `terms`) is a
    normal leaf, though it is still contracted when applied.

    The pass runs the machine (see above) in the order of Sestoft
    ("Demonstrating lambda calculus reduction", 2002): it head-reduces a
    term to λb1…λbk.(x V1 … Vm), then normalizes V1 to Vm left to right,
    each on a machine of its own, kept on a stack of levels.  A finished
    argument goes back into its application, which is reused when nothing
    in it changed and built when a contraction pushed the argument.  A run
    of closed arguments meeting a chain of abstractions is contracted in
    one walk with a map, as far as the fuel goes.
    """
    return _beta_pass(t, fuel.max_steps)[0]


def _beta_pass(t: Term, max_steps: int) -> tuple[ReductionOutcome, bool]:
    """`beta_normalize` with at most max_steps steps, and whether its normal
    form may hold an eta-redex: False only when no abstraction the pass
    closed is an eta-redex and every marked leaf it passed is marked
    beta-eta-normal, and exact (an iff) when the pass made no step.  While
    it is False, the pass marks each closed abstraction it closes
    beta-eta-normal."""
    maybe_eta = False
    steps = 0
    # The waiting machines, outermost first: (binders, fn, spine) waits for
    # the normal form of the argument spine[0]; fn is the normal form of the
    # function it is applied to, and spine[2] holds the arguments to go.
    levels: list = []
    binders = spine = None
    head = t
    # The unwinding and the rebuilding of a finished level are written out
    # in this loop rather than called: a call per move costs a measurable
    # share of the pass.
    while True:
        # Exact class tests, as in terms: Var, Lam and App have no subclasses.
        cls = type(head)
        if cls is App:
            spine = (head.arg, head, spine)
            head = head.fn
            continue
        if cls is Lam:
            if spine is not None:
                if steps == max_steps:
                    t = _state_term(binders, head, spine)
                    for binders, fn, (arg, node, spine) in reversed(levels):
                        t = _state_term(binders, fn, (t, node if t is arg else None, spine))
                    return OutOfFuel(t, steps), True
                arg, _, spine = spine
                m = {head.binder: arg}
                head = head.body
                steps += 1
                risk = arg._fv
                if not risk:
                    # Closed arguments meeting a chain of abstractions go
                    # into the map of one contraction.
                    while (type(head) is Lam and spine is not None
                            and not spine[0]._fv and steps < max_steps):
                        arg, _, spine = spine
                        m[head.binder] = arg
                        head = head.body
                        steps += 1
                head, spine = _contract(head, m, risk, spine, substitute)
                continue
            fv = head._fv
            # A plain set is no mark: every mark is of a subclass.
            if type(fv) is frozenset:
                binders = (head, binders)
                head = head.body
                continue
            if fv is not _BETA_ETA_NORMAL:
                maybe_eta = True
        elif spine is not None:
            # Head normal form: normalize the first argument.
            levels.append((binders, head, spine))
            head = spine[0]
            binders = spine = None
            continue
        # The head is normal and nothing is applied to it: close the
        # binders, then hand the result to the level that waits for it.
        while True:
            while binders is not None:
                lam, binders = binders
                if not maybe_eta:
                    maybe_eta = _is_eta_redex(lam.binder, head)
                head = lam if head is lam.body else Lam(lam.binder, head)
                if not maybe_eta and head._fv is _NO_NAMES:
                    _set_lam_fv(head, _BETA_ETA_NORMAL)
            if not levels:
                return Normal(head, steps), maybe_eta
            binders, fn, (arg, node, spine) = levels.pop()
            head = node if head is arg and node is not None and fn is node.fn else App(fn, head)
            if spine is not None:
                levels.append((binders, head, spine))
                head = spine[0]
                binders = spine = None
                break


# ---------------------------------------------------------------------------
# Eta

def _is_eta_redex(binder: str, body: Term) -> bool:
    """True iff λbinder.body is an eta-redex λx.(M x) with x not free in M."""
    return (
        type(body) is App
        and type(body.arg) is Var
        and body.arg.name == binder
        and binder not in body.fn._fv
    )


# Marks, on the stack of _eta, that the node below it has had its children
# walked and is to be rebuilt from their results.
_REBUILD = object()


def _eta(t: Term) -> tuple[Term, int]:
    """Contract the eta-redexes of the beta-normal t, innermost first: the
    eta-normal form and the number of contractions.  Unchanged subtrees
    are shared with t, and an eta-normal t comes back as it is.

    One post-order walk over an explicit stack, so the depth of t is not
    bounded by the recursion limit: each node is visited, then its
    children, then it is rebuilt from their results, which wait on a
    second stack.  A closed abstraction keeps its eta-normal form and the
    contractions made inside it in a mark, `_BETA_ETA_NORMAL` when it comes
    back unchanged, and is a leaf from then on: the walk puts in the form
    and adds the count."""
    contracted = 0
    done: list[Term] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if node is _REBUILD:
            node = stack.pop()
            if type(node) is App:
                arg = done.pop()
                fn = done.pop()
                done.append(node if fn is node.fn and arg is node.arg else App(fn, arg))
                continue
            body = done.pop()
            # Below a closed abstraction lies the count at which it was
            # entered.  Its set is the one it had then: only the node
            # itself is marked here, and it is not inside its own body.
            entered = stack.pop() if not node._fv else None
            if _is_eta_redex(node.binder, body):
                new = body.fn
                contracted += 1
            elif body is node.body:
                new = node
            else:
                new = Lam(node.binder, body)
            if entered is not None:
                mark = _BETA_ETA_NORMAL if new is node else _EtaForm(new, contracted - entered)
                _set_lam_fv(node, mark)
            done.append(new)
        elif type(node) is App:
            stack += (node, _REBUILD, node.arg, node.fn)
        elif type(node) is Var:
            done.append(node)
        else:
            fv = node._fv
            if type(fv) is _EtaForm:
                done.append(fv.form or node)
                contracted += fv.eta_steps
            elif fv:
                stack += (node, _REBUILD, node.body)
            else:
                stack += (contracted, node, _REBUILD, node.body)
    return done[0], contracted


def eta_normalize(t: Term) -> Term:
    """Contract eta-redexes to a fixpoint.  Requires a beta-normal input;
    on such input the result is beta-eta-normal (contracting λx.(M x)
    inside a beta-normal term cannot create a beta-redex, since an applied
    abstraction would already have been one).  A beta-redex in t, found
    by the beta pass with no step to spend, raises NotBetaNormalError."""
    if type(_beta_pass(t, 0)[0]) is OutOfFuel:
        raise NotBetaNormalError("input contains a beta-redex")
    return _eta(t)[0]


def beta_eta_normalize(t: Term, fuel: Fuel = DEFAULT_FUEL) -> ReductionOutcome:
    """Beta-normalize t, then contract its eta-redexes.  When the beta pass
    saw that its normal form holds no eta-redex, there is no eta pass."""
    out, maybe_eta = _beta_pass(t, fuel.max_steps)
    if type(out) is OutOfFuel or not maybe_eta:
        return out
    term, eta_steps = _eta(out.term)
    return Normal(term, out.steps, eta_steps)


def is_beta_eta_normal(t: Term) -> bool:
    """Purely syntactic: no beta-redex and no eta-redex anywhere.  The beta
    pass with no step to spend decides it: it stops at the first redex
    before any contraction, so it costs one walk."""
    out, maybe_eta = _beta_pass(t, 0)
    return type(out) is Normal and not maybe_eta


# ---------------------------------------------------------------------------
# Head reduction

def _head_states(t: Term, walk):
    """The states of head-reducing t on the machine, contracting with walk,
    t's first, each unwound: an application head goes onto the spine and an
    abstraction with no argument onto the binders, so the head is a redex
    exactly when it is an abstraction.  They end at head normal form."""
    binders = spine = None
    head = t
    while True:
        if type(head) is App:
            spine = (head.arg, head, spine)
            head = head.fn
        elif type(head) is Lam and spine is None:
            binders = (head, binders)
            head = head.body
        else:
            yield binders, head, spine
            if type(head) is not Lam:
                return
            arg, _, spine = spine
            head, spine = _contract(head.body, {head.binder: arg}, arg._fv, spine, walk)


class HeadTrace:
    """Successive states of a head reduction; length is the step count.

    The reduction keeps the reduced term, the step count and the final
    term.  `states` replays the machine to build the terms between them on
    first read, and keeps them; states[0] is the reduced term itself.
    """

    __slots__ = ("_start", "length", "final", "_states")

    def __init__(self, start: Term, length: int, final: Term):
        self._start = start
        self.length = length
        self.final = final
        self._states = None

    @property
    def states(self) -> tuple[Term, ...]:
        if self._states is None:
            replay = islice(_head_states(self._start, _substitute), 1, self.length)
            middle = (_state_term(*state) for state in replay)
            self._states = (self._start, *middle, self.final) if self.length else (self._start,)
        return self._states


class HeadResult(_Record):
    __slots__ = ("trace", "reached_hnf")

    def __init__(self, trace: HeadTrace, reached_hnf: bool):
        _set(self, "trace", trace)
        _set(self, "reached_hnf", reached_hnf)


def head_reduce(t: Term, fuel: Fuel = DEFAULT_FUEL) -> HeadResult:
    """Head-reduce t until head normal form or the fuel runs out, on the
    machine (see above).  The trace length is the head-reduction length
    between the endpoints.  When the fuel runs out the machine only tests
    for head normal form.
    """
    for length, state in enumerate(_head_states(t, substitute)):
        if length == fuel.max_steps:
            break
    # With no step, the state rebuilds to t itself.
    return HeadResult(HeadTrace(t, length, _state_term(*state)), type(state[1]) is not Lam)
