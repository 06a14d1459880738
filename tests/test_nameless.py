"""The engine against the nameless reference reducer of tests/nameless.py.

`tests/oracle.py` is the engine's older named code, so a renaming or
capture bug the two share passes every test against it.  The reference has
no names to get wrong: `substitute` must agree with it up to alpha on maps
whose values capture binders, and `beta_eta_normalize` on normal forms up to
alpha, beta and eta steps, and, below a term's step count, on running out
of fuel at the same step with the same partial term.  The inputs are the
shipped S/P/Z of every system on d_0 … d_29, a slice of the `k` grid and
seeded termgen terms, judged where the reference stays under its node cap.
"""

import random

import nameless
from numlam import (
    App,
    Fuel,
    Lam,
    OutOfFuel,
    T,
    F,
    Var,
    app,
    barendregt,
    beta_eta_normalize,
    builtin_system,
    church,
    church_k_term,
    parse_term,
    spz_from_k,
    substitute,
)
from numlam.numerals import SYSTEM_NAMES
from termgen import (
    BINDER_POOL,
    FREE_POOL,
    beta_expand,
    binders,
    random_chain_redex,
    random_closed_term,
    random_hnf,
    random_spine_redex,
    random_term,
)

# Above the nodes any case here builds: 151,038 for the largest k case.
CAP = 200_000


def judge(t, fuel):
    """Compare beta_eta_normalize(t, Fuel(fuel)) with the reference: the
    beta steps, or None where the reference passes its cap."""
    try:
        form, steps, out_of_fuel, eta_steps = nameless.normalize(t, fuel, CAP)
    except nameless.TooBig:
        return None
    out = beta_eta_normalize(t, Fuel(fuel))
    assert (type(out) is OutOfFuel, out.steps) == (out_of_fuel, steps)
    assert getattr(out, "eta_steps", 0) == eta_steps
    assert nameless.nameless(out.term) == form
    return steps


def judge_and_halve(t, fuel):
    """judge t, and again at half its step count, where the fuel runs out."""
    steps = judge(t, fuel)
    if steps is not None and steps > 1:
        judge(t, steps // 2)
    return steps


def test_substitute_agrees_with_nameless_on_capturing_maps():
    """The values draw their free names from the binder pool, so a binder
    they go under must be renamed, and keys draw on it too, so a binder
    shadows a key."""
    rng = random.Random(2601)
    names = BINDER_POOL + FREE_POOL
    renamed = 0
    for _ in range(1500):
        t = random_term(rng, rng.randint(1, 30))
        keys = [name for name in names if rng.random() < 0.3]
        s = {k: random_term(rng, rng.randint(1, 8), free_pool=names) for k in keys}
        out = substitute(t, s)
        assert nameless.nameless(out) == nameless.nameless(t, s)
        renamed += bool(binders(out) - binders(t) - set().union(*map(binders, s.values())))
    assert renamed > 50


def test_contracts_agree_with_nameless():
    """The shipped successor, predecessor and zero test of every system,
    applied to d_0 … d_29."""
    total = 0
    for name in SYSTEM_NAMES:
        system = builtin_system(name)
        numerals = list(system.first(30))
        for comb in (system.successor, system.predecessor, system.zero_test):
            if comb is not None:
                for d in numerals:
                    total += judge_and_halve(App(comb, d), 1_000_000)
    assert total > 7_000


def test_k_grid_slice_agrees_with_nameless():
    k = church_k_term()
    total = 0
    for n in range(0, 11, 3):
        for m in range(0, 11, 4):
            total += judge_and_halve(app(k, church(n), church(m)), 1_000_000)
    w10 = Lam("n", app(Var("n"), Lam("x", T), F))
    for comb in spz_from_k(builtin_system("church"), k, w10):
        for n in range(0, 11, 5):
            total += judge_and_halve(App(comb, church(n)), 1_000_000)
    assert total > 3_500


def test_generated_terms_agree_with_nameless():
    """Open and closed random terms, beta-expanded head normal forms, spine
    redexes and chain redexes, at fuel 200, under the reference's cap.
    The engine walks past the closed normal forms it has marked."""
    rng = random.Random(2602)
    marked = (*(church(n) for n in range(4)), *(barendregt(n) for n in range(1, 4)))
    for d in marked:
        beta_eta_normalize(d)
    outcomes = []
    for _ in range(300):
        for t in (
            random_term(rng, rng.randint(1, 25)),
            random_closed_term(rng, rng.randint(2, 25)),
            beta_expand(random_hnf(rng), rng, rng.randint(1, 10)),
            random_spine_redex(rng),
            random_chain_redex(rng, marked),
        ):
            outcomes.append(judge_and_halve(t, 200))
    judged = [steps for steps in outcomes if steps is not None]
    assert len(judged) > 0.95 * len(outcomes)
    assert sum(1 for steps in judged if steps > 1) > 500
    # Each step of this term adds to it, so the reference meets its cap
    # long before the fuel runs out.
    assert judge(parse_term(r"(\x.x x x) (\x.x x x)"), 1_000_000) is None
