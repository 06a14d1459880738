"""The three benchmark workloads and the known answers they are checked against.

Each workload builds its inputs from the seed before any timing starts, runs
one pass over them through an `api` object (numlam's exported names, or
traced wrappers around them), and checks a pass's outcomes afterwards.  A
pass returns plain outcome records; checking them is never timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# contracts: the acceptance S/P/Z contracts, many short cases

CONTRACT_UPTO = 50
CONTRACT_SYSTEMS = ("church", "barendregt", "a", "b", "tilde", "c[church]", "c[barendregt]")
CONTRACTS = ("successor", "predecessor", "zero_test")

# ---------------------------------------------------------------------------
# kgrid: the 11x11 k grid and the S/P/Z derived from it, few long cases

KGRID_SIDE = 11
KGRID_DERIVED_UPTO = 20

# ---------------------------------------------------------------------------
# head: substitution-lemma instances on generated text, plus divergent terms

HEAD_INSTANCES = 2500
HEAD_FUEL = 50
# Terms without a head normal form; the known answer is "no hnf within fuel".
DIVERGENT = (
    (r"(\x.x x x)(\x.x x x)", 1000),
    (r"(\x.x x)(\x.x x)", 2000),
    (r"(\x.\y.x x y)(\x.\y.x x y)", 1000),
)
BINDERS = ("x", "y", "z", "f", "g", "x'", "y1")
FREE = ("u", "v", "w")


@dataclass(frozen=True)
class Outcome:
    """One verdict of a pass.  `ok` is None when the call raised."""

    label: str
    ok: bool | None
    cases: int = 1
    beta_steps: int = 0
    head_steps: int = 0
    text: str | None = None
    term: object = None


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


class Contracts:
    """850 cases (21,290 beta steps in bench/baseline/); every answer is `equal`."""

    name = "contracts"

    def __init__(self, numlam, seed: int):
        self.systems = {}
        for label in CONTRACT_SYSTEMS:
            if label == "c[barendregt]":
                seq = numlam.SequenceSpec("barendregt", numlam.barendregt)
                self.systems[label] = numlam.builtin_system("c", seq)
            elif label == "c[church]":
                self.systems[label] = numlam.builtin_system("c")
            else:
                self.systems[label] = numlam.builtin_system(label)
        groups = [
            (label, contract)
            for label, system in self.systems.items()
            for contract in CONTRACTS
            if getattr(system, contract) is not None
        ]
        self.groups = _shuffled(groups, random.Random(seed))
        self.expected_cases = CONTRACT_UPTO * len(self.groups)

    def run_pass(self, api) -> list[Outcome]:
        out = []
        for label, contract in self.groups:
            system = api.numeral_system(self.systems[label])
            check = getattr(api, f"check_{contract}")
            try:
                report = check(system, getattr(system, contract), CONTRACT_UPTO)
            except Exception:
                out.append(Outcome(f"{label} {contract}", None, CONTRACT_UPTO))
                continue
            out.extend(_case_outcomes(f"{label} {contract}", report))
        return out


class KGrid:
    """181 cases (55,135 beta steps in bench/baseline/); every answer is `equal`."""

    name = "kgrid"

    def __init__(self, numlam, seed: int):
        rng = random.Random(seed)
        self.system = numlam.builtin_system("church")
        self.kterm = numlam.church_k_term()
        self.k = numlam.k_function()
        # w10 sends the Church 1 to T and 0 to F
        self.w10 = numlam.Lam(
            "n", numlam.app(numlam.Var("n"), numlam.Lam("x", numlam.T), numlam.F)
        )
        side = range(KGRID_SIDE)
        self.points = _shuffled([(n, m) for n in side for m in side], rng)
        self.derived = _shuffled(CONTRACTS, rng)
        self.expected_cases = len(self.points) + KGRID_DERIVED_UPTO * len(CONTRACTS)

    def run_pass(self, api) -> list[Outcome]:
        system = api.numeral_system(self.system)
        out = []
        try:
            report = api.check_definable(system, self.kterm, self.k, self.points)
        except Exception:
            out.append(Outcome("k grid", None, len(self.points)))
        else:
            out.extend(_case_outcomes("k grid", report))
        try:
            derived = dict(zip(CONTRACTS, api.spz_from_k(system, self.kterm, self.w10)))
        except Exception:
            out.append(Outcome("derived", None, KGRID_DERIVED_UPTO * len(CONTRACTS)))
            return out
        for contract in self.derived:
            check = getattr(api, f"check_{contract}")
            try:
                report = check(system, derived[contract], KGRID_DERIVED_UPTO)
            except Exception:
                out.append(Outcome(f"derived {contract}", None, KGRID_DERIVED_UPTO))
                continue
            out.extend(_case_outcomes(f"derived {contract}", report))
        return out


def _case_outcomes(group: str, report) -> list[Outcome]:
    return [
        Outcome(f"{group} {case.label}", case.ok, beta_steps=case.steps or 0)
        for case in report.cases
    ]


class Head:
    """Criterion-7 substitution-lemma instances, sized up, given as text.

    Each instance is a term u with a head redex and a substitution sigma of
    open terms whose free names collide with u's binders.  The known answer
    is the substitution lemma: u[sigma] head-reduces in exactly h steps to a
    term alpha-equal to v[sigma], where u reaches v in h steps.
    """

    name = "head"

    def __init__(self, numlam, seed: int):
        self.fuel = numlam.Fuel
        rng = random.Random(seed)
        self.instances = [_instance(rng) for _ in range(HEAD_INSTANCES)]
        self.divergent = list(DIVERGENT)
        self.expected_cases = len(self.instances) + len(self.divergent)

    def run_pass(self, api) -> list[Outcome]:
        out = []
        fuel = self.fuel
        for i, (u_text, sigma_text) in enumerate(self.instances):
            try:
                u = api.parse_term(u_text)
                first = api.head_reduce(u, fuel(HEAD_FUEL)).trace
                h = first.length
                sigma = {name: api.parse_term(text) for name, text in sigma_text}
                replay = api.head_reduce(api.substitute(u, sigma), fuel(h)).trace
                ok = replay.length == h and api.alpha_eq(
                    replay.final, api.substitute(first.final, sigma)
                )
                text = api.pretty(replay.final)
            except Exception:
                out.append(Outcome(f"instance {i}", None))
                continue
            out.append(Outcome(f"instance {i}", ok, head_steps=h + replay.length,
                               text=text, term=replay.final))
        for text, steps in self.divergent:
            try:
                result = api.head_reduce(api.parse_term(text), fuel(steps))
                trace = result.trace
                ok = not result.reached_hnf and trace.length == steps
                final_text = api.pretty(trace.final)
            except Exception:
                out.append(Outcome(text, None))
                continue
            out.append(Outcome(text, ok, head_steps=trace.length,
                               text=final_text, term=trace.final))
        return out


WORKLOADS = {w.name: w for w in (Contracts, KGrid, Head)}


# ---------------------------------------------------------------------------
# The head generator.  It lives here rather than in tests/termgen.py so that
# edits to the tests cannot move the benchmark's inputs.  Terms are nested
# tuples rendered straight to text; the program sees only the text.

def _gen(rng: random.Random, budget: int, scope: tuple, free: list) -> tuple:
    if budget <= 1 or (budget < 3 and rng.random() < 0.5):
        names = scope + FREE if scope else FREE
        name = rng.choice(names)
        if name not in scope:
            free.append(name)
        return ("var", name)
    roll = rng.random()
    if budget >= 3 and roll < 0.5:
        left = rng.randint(1, budget - 2)
        return ("app", _gen(rng, left, scope, free), _gen(rng, budget - 1 - left, scope, free))
    if budget >= 5 and roll < 0.58:
        half = (budget - 1) // 2
        return ("pair", _gen(rng, half, scope, free), _gen(rng, budget - 1 - half, scope, free))
    name = rng.choice(BINDERS)
    return ("lam", name, _gen(rng, budget - 1, scope + (name,), free))


def _text(t: tuple) -> str:
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "lam":
        # collapse runs of binders with the \x y.M sugar
        binders = []
        while t[0] == "lam":
            binders.append(t[1])
            t = t[2]
        return "(\\" + " ".join(binders) + "." + _text(t) + ")"
    if kind == "pair":
        return "<" + _text(t[1]) + "," + _text(t[2]) + ">"
    return "(" + _text(t[1]) + " " + _text(t[2]) + ")"


def _instance(rng: random.Random) -> tuple[str, tuple[tuple[str, str], ...]]:
    """u = \\b1...bk.(\\x.B) A R1...Rm, so u always has a head redex."""
    free: list[str] = []
    outer = tuple(rng.choice(BINDERS) for _ in range(rng.randint(0, 2)))
    x = rng.choice(BINDERS)
    body = _gen(rng, rng.randint(3, 30), outer + (x,), free)
    term = ("app", ("lam", x, body), _gen(rng, rng.randint(1, 20), outer, free))
    for _ in range(rng.randint(0, 2)):
        term = ("app", term, _gen(rng, rng.randint(1, 12), outer, free))
    for b in reversed(outer):
        term = ("lam", b, term)
    sigma = []
    for name in sorted(set(free)):
        if rng.random() < 0.8:
            # open replacements: their free binder-pool names force renaming
            scope = tuple(rng.sample(BINDERS, 2))
            repl = _gen(rng, rng.randint(1, 12), scope, [])
            sigma.append((name, _text(repl)))
    return _text(term), tuple(sigma)
