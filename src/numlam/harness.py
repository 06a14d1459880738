"""Executable checks for numeral systems.

Everything here reduces actual terms: a check passes only when the engine
reaches both normal forms and they agree up to alpha.  Checks for distinct
indices are independent pure computations; reports aggregate the verdicts.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import pairwise

from .numerals import NumeralSystem, SequenceSpec, builtin_system
from .report import CheckCase, CheckReport, eq_case
from .reduction import DEFAULT_FUEL, Fuel, is_beta_eta_normal
from .terms import App, F, Lam, T, Term, Var, _Record, _set, alpha_eq, app, is_closed, lam, size

DEFAULT_UPTO = 50


class NumericFunction(_Record):
    """A total function on naturals with a fixed arity."""

    __slots__ = ("arity", "eval")

    def __init__(self, arity: int, eval: Callable[..., int]):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        _set(self, "arity", arity)
        _set(self, "eval", eval)


# ---------------------------------------------------------------------------
# System well-formedness and the three combinator contracts

def check_system(sys: NumeralSystem, upto: int = DEFAULT_UPTO) -> CheckReport:
    """Closedness, beta-eta-normality, and pairwise alpha-distinctness of the
    numerals below `upto`.

    Alpha-equal terms have the same size, so a numeral is compared only
    with the earlier ones of its size.  Those are pairwise distinct up to
    the first collision, so at most one of them is alpha-equal to it."""
    if upto < 2:
        raise ValueError("upto must be at least 2")
    cases = []
    by_size: dict[int, list[tuple[int, Term]]] = {}
    collision = None
    for n, t in enumerate(_numerals(sys, upto)):
        cases.append(CheckCase(f"closed n={n}", is_closed(t)))
        cases.append(CheckCase(f"normal n={n}", is_beta_eta_normal(t)))
        if collision is None:
            bucket = by_size.setdefault(size(t), [])
            for m, earlier in bucket:
                if alpha_eq(earlier, t):
                    collision = (m, n)
                    break
            bucket.append((n, t))
    if collision is None:
        cases.append(CheckCase("pairwise distinct", True))
    else:
        witness = f"n={collision[0]} and n={collision[1]} coincide"
        cases.append(CheckCase("pairwise distinct", False, witness=witness))
    return CheckReport(f"{sys.name} well-formedness", tuple(cases))


def _numerals(sys: NumeralSystem, count: int):
    """d_0, …, d_{count-1}, each built once: by the system's step around the
    one before where the system has a step, else by `sys.numeral`."""
    step = sys._step
    for n in range(count):
        d = sys.numeral(n) if step is None or n == 0 else step(n - 1, d)
        yield d


def check_successor(sys: NumeralSystem, s: Term, upto: int = DEFAULT_UPTO, fuel: Fuel = DEFAULT_FUEL) -> CheckReport:
    cases = [
        eq_case(f"n={n}", app(s, dn), dn1, fuel)
        for n, (dn, dn1) in enumerate(pairwise(_numerals(sys, upto + 1)))
    ]
    return CheckReport(f"{sys.name} successor", tuple(cases))


def check_predecessor(sys: NumeralSystem, p: Term, upto: int = DEFAULT_UPTO, fuel: Fuel = DEFAULT_FUEL) -> CheckReport:
    cases = [
        eq_case(f"n={n + 1}", app(p, dn1), dn, fuel)
        for n, (dn, dn1) in enumerate(pairwise(_numerals(sys, upto + 1)))
    ]
    return CheckReport(f"{sys.name} predecessor", tuple(cases))


def check_zero_test(sys: NumeralSystem, z: Term, upto: int = DEFAULT_UPTO, fuel: Fuel = DEFAULT_FUEL) -> CheckReport:
    cases = [
        eq_case(f"n={n}", app(z, dn), F if n else T, fuel)
        for n, dn in enumerate(_numerals(sys, upto))
    ]
    return CheckReport(f"{sys.name} zero test", tuple(cases))


def check_definable(
    sys: NumeralSystem,
    fterm: Term,
    phi: NumericFunction,
    points: Sequence[tuple[int, ...]],
    fuel: Fuel = DEFAULT_FUEL,
) -> CheckReport:
    """Check (fterm d_{n1} … d_{np}) against d_{phi(n1,…,np)} at each point."""
    cases = []
    for point in points:
        if len(point) != phi.arity:
            raise ValueError(f"point {point} does not match arity {phi.arity}")
        lhs = app(fterm, *[sys.numeral(i) for i in point])
        rhs = sys.numeral(phi.eval(*point))
        label = ",".join(str(i) for i in point)
        cases.append(eq_case(f"({label})", lhs, rhs, fuel))
    return CheckReport(f"{sys.name} definability", tuple(cases))


def is_generator(a: Term, u: SequenceSpec, upto: int, fuel: Fuel = DEFAULT_FUEL) -> CheckReport:
    """Check (A I) against U_1 and (A ⟨U_1,…,U_n⟩) against U_{n+1} for every
    1 ≤ n < upto.  The tuple ⟨U_1,…,U_n⟩ is the numeral d_n of c over u,
    and U_{n+1} is the second component of d_{n+1}."""
    if upto < 1:
        raise ValueError("upto must be at least 1")
    cases = [
        eq_case(f"n={n}" if n else "base", App(a, dn), dn1.body.arg, fuel)
        for n, (dn, dn1) in enumerate(pairwise(_numerals(builtin_system("c", u), upto + 1)))
    ]
    return CheckReport(f"generator for {u.name}", tuple(cases))


# ---------------------------------------------------------------------------
# Zero test as a numeric function, in both directions

def phi_from_zero_test(sys: NumeralSystem, z: Term) -> Term:
    """Turn a zero test into a term defining the function 0 ↦ 0, n+1 ↦ 1:
    λn.(z n d_0 d_1)."""
    return Lam("n", app(z, Var("n"), sys.numeral(0), sys.numeral(1)))


def zero_test_from_phi(sys: NumeralSystem, fphi: Term, w01: Term) -> Term:
    """Recover a zero test from a term defining 0 ↦ 0, n+1 ↦ 1, given a
    discriminator w01 sending d_0 to T and d_1 to F: λn.(w01 (fphi n))."""
    return Lam("n", App(w01, App(fphi, Var("n"))))


# ---------------------------------------------------------------------------
# The binary function that packs successor, predecessor, and zero test

def k_function() -> NumericFunction:
    """k(n, m) = n+1 when m = 0, |n - m| otherwise."""

    def k(n: int, m: int) -> int:
        return n + 1 if m == 0 else abs(n - m)

    return NumericFunction(2, k)


def church_k_term() -> Term:
    """A closed term defining k on the Church system, built from the Church
    successor, predecessor, zero test, addition, and truncated subtraction."""
    sys = builtin_system("church")
    s, p, z = sys.successor, sys.predecessor, sys.zero_test
    add = lam(
        "m", "n", "f", "x",
        app(Var("m"), Var("f"), app(Var("n"), Var("f"), Var("x"))),
    )
    # monus m n: apply the predecessor n times to m
    monus = lam("m", "n", app(Var("n"), p, Var("m")))
    absdiff = lam(
        "m", "n",
        app(add, app(monus, Var("m"), Var("n")), app(monus, Var("n"), Var("m"))),
    )
    return lam(
        "n", "m",
        app(
            app(z, Var("m")),
            app(s, Var("n")),
            app(absdiff, Var("n"), Var("m")),
        ),
    )


def spz_from_k(sys: NumeralSystem, kterm: Term, w10: Term) -> tuple[Term, Term, Term]:
    """Derive successor, predecessor, and zero test from a term defining k.

    s n = k(n, 0), p n = k(n, 1), and z n tests k(n, n) with a discriminator
    w10 sending d_1 to T and d_0 to F.  The derived predecessor satisfies the
    standard contract on successor numerals only: k(0, 1) = 1 means (p d_0)
    is d_1, which the contract does not constrain.
    """
    d0 = sys.numeral(0)
    d1 = sys.numeral(1)
    s = Lam("n", app(kterm, Var("n"), d0))
    p = Lam("n", app(kterm, Var("n"), d1))
    z = Lam("n", App(w10, app(kterm, Var("n"), Var("n"))))
    return s, p, z
