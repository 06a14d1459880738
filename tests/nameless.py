"""A nameless reference reducer, to judge numlam's named engine by.

In de Bruijn's notation ("Lambda calculus notation with nameless dummies",
Indag. Math. 34, 1972) alpha-equivalent terms are equal.  An int is a
bound variable, the number of binders between it and its own; a str a free
variable; (body,) an abstraction and (fn, arg) an application, so a child
of t lies 2 - len(t) binders deeper.  Tuples share nothing, so a run
raises `TooBig` past its cap on the nodes it builds."""

from numlam import Lam, Var


class TooBig(Exception):
    """A run built more nodes than its cap."""


def nameless(t, m=None, scope=()):
    """The nameless form of the named term t[m], scope the binders around
    t, innermost last.  A value's free variables are names, which no
    binder of t captures, so it goes in as it is."""
    if type(t) is Var:
        if t.name in scope:
            return scope[::-1].index(t.name)
        return nameless(m[t.name]) if m and t.name in m else t.name
    if type(t) is Lam:
        return (nameless(t.body, m, (*scope, t.binder)),)
    return (nameless(t.fn, m, scope), nameless(t.arg, m, scope))


def normalize(t, fuel: int, cap: int):
    """t beta-normalized in normal order, at most fuel steps, then, if
    normal, eta-normalized: (nameless term, beta steps, out of fuel, eta steps)."""
    run = _Run(fuel, cap)
    form = run.beta(nameless(t))
    if not run.out_of_fuel:
        form = run.eta(form)
    return form, run.steps, run.out_of_fuel, run.eta_steps


def _occurs(t, i) -> bool:
    """Whether the variable bound i binders outside t occurs in t."""
    if type(t) is not tuple:
        return t == i
    return any(_occurs(kid, i + 2 - len(t)) for kid in t)


class _Run:
    def __init__(self, fuel: int, cap: int):
        self.fuel = fuel
        self.left = cap
        self.steps = self.eta_steps = 0
        self.out_of_fuel = False

    def walk(self, t, leaf, depth: int = 0):
        """t, depth binders deep, with leaf(i, depth) for each bound variable i."""
        if type(t) is not tuple:
            return t if type(t) is str else leaf(t, depth)
        self.left -= 1
        if self.left < 0:
            raise TooBig
        return tuple(self.walk(kid, leaf, depth + 2 - len(t)) for kid in t)

    def shift(self, t, d: int):
        """t with d added to each variable bound outside it."""
        return self.walk(t, lambda i, depth: i + d if i >= depth else i)

    def put(self, body, arg):
        """A contracted abstraction's body with arg in place of its variable."""
        return self.walk(body, lambda i, depth: (
            i if i < depth else i - 1 if i > depth else self.shift(arg, depth)))

    def beta(self, t):
        """Normal order: contract the head redex while the fuel lasts, then
        normalize under the binder, or the arguments left to right."""
        args = []
        while type(t) is tuple:
            if len(t) == 2:
                args.append(t[1])
                t = t[0]
            elif not args:
                return (self.beta(t[0]),)
            elif self.steps == self.fuel:
                self.out_of_fuel = True
                break
            else:
                self.steps += 1
                t = self.put(t[0], args.pop())
        for arg in reversed(args):
            t = (t, self.beta(arg))
        return t

    def eta(self, t):
        """Contract the eta-redexes of the beta-normal t, innermost first."""
        if type(t) is not tuple:
            return t
        t = tuple(self.eta(kid) for kid in t)
        if len(t) == 1 and type(t[0]) is tuple and t[0][1:] == (0,) and not _occurs(t[0][0], 0):
            self.eta_steps += 1
            return self.shift(t[0][0], -1)
        return t
