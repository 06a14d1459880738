import pickle
from itertools import product

import pytest

from numlam import (
    App,
    CheckReport,
    F,
    Fuel,
    I,
    Lam,
    NumeralSystem,
    NumericFunction,
    T,
    SYSTEM_NAMES,
    SequenceSpec,
    Var,
    app,
    barendregt,
    beta_eta_eq,
    builtin_system,
    check_definable,
    check_predecessor,
    check_successor,
    check_system,
    check_zero_test,
    church,
    church_k_term,
    k_function,
    lam,
    mk_pair,
    parse_term,
    phi_from_zero_test,
    spz_from_k,
    substitute,
    zero_test_from_phi,
)

CHURCH = builtin_system("church")
CHURCH_W10 = Lam("n", app(Var("n"), Lam("x", T), F))


# The numerals that hold an eta-redex: Church's 1, λf.λx.f x, and every d_n
# with n ≥ 1 of c over the Church sequence, since each holds e_1.
NOT_ETA_NORMAL = {"church": [1], "c[church]": range(1, 8)}


@pytest.mark.parametrize("system", [
    *map(builtin_system, SYSTEM_NAMES),
    builtin_system("c", SequenceSpec("barendregt", barendregt)),
], ids=lambda system: system.name)
def test_check_system_on_every_builtin(system):
    report = check_system(system, 8)
    bad = [c.label for c in report.cases if not c.ok]
    assert bad == [f"normal n={n}" for n in NOT_ETA_NORMAL.get(system.name, ())]


def test_check_system_reports_church_eta_anomaly():
    # ⌜1⌝ = λf.λx.(f x) contains an eta-redex, so the normality case at
    # n=1 fails; closedness and distinctness hold throughout.
    report = check_system(CHURCH, 20)
    assert report.overall == "fail"
    bad = [c.label for c in report.cases if not c.ok]
    assert bad == ["normal n=1"]


def test_check_system_flags_degenerate_distinctness():
    degenerate = NumeralSystem("degenerate", lambda n: I)
    report = check_system(degenerate, 3)
    assert report.overall == "fail"
    distinct = [c for c in report.cases if c.label == "pairwise distinct"]
    assert distinct and not distinct[0].ok


@pytest.mark.parametrize("numerals, witness", [
    # T and F have the same size and are not alpha-equal.
    ([I, T, F, I], "n=0 and n=3 coincide"),
    # Three pairs collide, up to the names of binders; the first is named.
    ([I, T, F, parse_term(r"\a.\b.a"), parse_term(r"\y.y"), F], "n=1 and n=3 coincide"),
])
def test_check_system_names_the_first_collision(numerals, witness):
    system = NumeralSystem("listed", numerals.__getitem__)
    report = check_system(system, len(numerals))
    bad = [(c.label, c.witness) for c in report.cases if not c.ok]
    assert bad == [("pairwise distinct", witness)]


def test_check_system_requires_two_numerals():
    with pytest.raises(ValueError):
        check_system(CHURCH, 1)


def test_check_successor_rejects_wrong_combinator():
    report = check_successor(builtin_system("bprime"), builtin_system("b").successor, 2)
    assert report.overall == "fail"
    assert not report.cases[0].ok
    assert report.cases[0].witness  # the wrong normal form is shown


def test_c_over_church_has_a_successor_though_none_is_shipped():
    # λd. Z_c d ⟨I, e_1⟩ ⟨d, S_church (d F)⟩: d_1 from d_0, and from
    # d_{n+1} = ⟨d_n, e_{n+1}⟩ the pair of it and the next Church numeral.
    c = builtin_system("c")
    d = Var("d")
    succ = Lam("d", app(c.zero_test, d, mk_pair(I, church(1)),
                        mk_pair(d, App(CHURCH.successor, App(d, F)))))
    assert c.successor is None
    report = check_successor(c, succ, 30)
    assert report.overall == "pass" and len(report.cases) == 30


def test_check_definable_identity_for_every_system():
    points = [(n,) for n in range(10)]
    identity = NumericFunction(1, lambda n: n)
    for name in ("church", "barendregt", "a", "b", "bprime", "tilde", "c"):
        sys_ = builtin_system(name)
        assert check_definable(sys_, I, identity, points).overall == "pass"


def test_check_definable_successor_on_church():
    succ_fn = NumericFunction(1, lambda n: n + 1)
    points = [(n,) for n in range(20)]
    report = check_definable(CHURCH, CHURCH.successor, succ_fn, points)
    assert report.overall == "pass"


def test_check_definable_zero_indicator_via_zero_test():
    step = NumericFunction(1, lambda n: 0 if n == 0 else 1)
    fterm = Lam("n", app(CHURCH.zero_test, Var("n"), church(0), church(1)))
    points = [(n,) for n in range(20)]
    assert check_definable(CHURCH, fterm, step, points).overall == "pass"


def test_check_definable_arity_mismatch():
    with pytest.raises(ValueError):
        check_definable(CHURCH, I, k_function(), [(1,)])


@pytest.mark.parametrize("name", ["barendregt", "church", "b"])
def test_phi_from_zero_test_defines_the_step_function(name):
    sys_ = builtin_system(name)
    fterm = phi_from_zero_test(sys_, sys_.zero_test)
    step = NumericFunction(1, lambda n: 0 if n == 0 else 1)
    points = [(n,) for n in range(20)]
    assert check_definable(sys_, fterm, step, points).overall == "pass"


@pytest.mark.parametrize("name", ["barendregt", "church", "b"])
def test_lemma_round_trip_recovers_a_zero_test(name):
    sys_ = builtin_system(name)
    fphi = phi_from_zero_test(sys_, sys_.zero_test)
    recovered = zero_test_from_phi(sys_, fphi, sys_.zero_test)
    assert check_zero_test(sys_, recovered, 20).overall == "pass"


def test_zero_test_from_phi_with_bad_discriminator_fails():
    fphi = phi_from_zero_test(CHURCH, CHURCH.zero_test)
    bogus = zero_test_from_phi(CHURCH, fphi, Lam("x", T))
    report = check_zero_test(CHURCH, bogus, 5)
    assert report.overall == "fail"
    assert report.cases[0].ok  # n=0 still maps to T
    assert not report.cases[1].ok


def test_k_function_values():
    k = k_function().eval
    assert k(4, 0) == 5
    assert k(0, 0) == 1
    assert k(3, 3) == 0
    assert k(2, 5) == 3
    assert k(7, 7) == 0


def test_k_function_is_one_value_that_pickles():
    k = k_function()
    assert k is k_function()
    clone = pickle.loads(pickle.dumps(k))
    assert clone == k
    points = list(product(range(3), repeat=2))
    assert check_definable(CHURCH, church_k_term(), clone, points).overall == "pass"


def test_church_k_term_spot_checks():
    kterm = church_k_term()
    for n, m in [(4, 0), (2, 5), (7, 7), (0, 0), (0, 3)]:
        expected = church(k_function().eval(n, m))
        assert beta_eta_eq(app(kterm, church(n), church(m)), expected).kind == "equal"


def test_w10_discriminator():
    assert beta_eta_eq(App(CHURCH_W10, church(0)), F).kind == "equal"
    assert beta_eta_eq(App(CHURCH_W10, church(1)), T).kind == "equal"


def test_spz_from_k_produces_working_combinators():
    s, p, z = spz_from_k(CHURCH, church_k_term(), CHURCH_W10)
    assert check_successor(CHURCH, s, 8).overall == "pass"
    assert check_predecessor(CHURCH, p, 8).overall == "pass"
    assert check_zero_test(CHURCH, z, 8).overall == "pass"


def test_derived_predecessor_unconstrained_at_zero():
    _, p, _ = spz_from_k(CHURCH, church_k_term(), CHURCH_W10)
    # k(0, 1) = 1, so applying the derived predecessor to d_0 yields d_1;
    # the contract only speaks about successor numerals.
    assert beta_eta_eq(App(p, church(0)), church(1)).kind == "equal"


def test_reports_never_pass_with_unknowns():
    report = check_successor(CHURCH, CHURCH.successor, 5, Fuel(1))
    assert report.unknown > 0
    assert report.overall == "inconclusive"


def test_reports_never_pass_with_no_cases():
    assert CheckReport("nothing").overall == "inconclusive"
    for check, comb in ((check_successor, CHURCH.successor),
                        (check_zero_test, CHURCH.zero_test)):
        report = check(CHURCH, comb, 0)
        assert report.cases == () and report.overall == "inconclusive"
    report = check_definable(CHURCH, CHURCH.successor, NumericFunction(1, lambda n: n + 1), [])
    assert report.to_dict()["overall"] == "inconclusive"


def test_report_counts_and_serialization():
    report = check_zero_test(CHURCH, CHURCH.zero_test, 5)
    assert report.passed == 5 and report.failed == 0 and report.unknown == 0
    payload = report.to_dict()
    assert payload["format"] == 1
    assert payload["overall"] == "pass"
    assert payload["counts"] == {"passed": 5, "failed": 0, "unknown": 0}
    assert [c["label"] for c in payload["cases"]][:2] == ["n=0", "n=1"]


def test_numeric_function_requires_positive_arity():
    with pytest.raises(ValueError):
        NumericFunction(0, lambda: 0)


# ---------------------------------------------------------------------------
# Contracts for every n: a hole variable in place of the numeral

v, w = Var("v"), Var("w")

# (system, slot, argument, expected): (slot argument) = expected holds with
# the holes v and w free, so it holds for every numeral put in their place.
# For b the argument ⟨F, w⟩ is d_n with n ≥ 1, and for c the argument
# ⟨v, w⟩ is d_{n+1} over any sequence.
CONTRACT_SCHEMAS = [
    ("barendregt", "successor", v, mk_pair(F, v)),
    ("barendregt", "predecessor", mk_pair(F, v), v),
    ("barendregt", "zero_test", mk_pair(F, v), F),
    ("a", "successor", v, Lam("y", v)),
    ("a", "predecessor", Lam("y", v), v),
    ("b", "successor", mk_pair(F, w), mk_pair(F, Lam("y", w))),
    ("b", "zero_test", mk_pair(F, w), F),
    ("c", "predecessor", mk_pair(v, w), v),
    ("c", "zero_test", mk_pair(v, w), F),
]


@pytest.mark.parametrize("name, slot, arg, expected", CONTRACT_SCHEMAS,
                         ids=[f"{name}-{slot}" for name, slot, *_ in CONTRACT_SCHEMAS])
def test_contract_holds_with_a_hole_for_the_numeral(name, slot, arg, expected):
    comb = getattr(builtin_system(name), slot)
    assert beta_eta_eq(App(comb, arg), expected).kind == "equal"


def test_a_wrong_combinator_is_distinct_on_the_hole():
    # λx.x T takes the first component, F, where barendregt's P takes v.
    assert beta_eta_eq(App(Lam("x", App(Var("x"), T)), mk_pair(F, v)), v).kind == "distinct"


def test_the_holes_filled_give_the_next_numeral():
    """⟨F, v⟩ with d_n for v, and ⟨v, w⟩ with d_n and e_{n+1}, are == to
    d_{n+1} of barendregt and of c over the Church sequence."""
    d = list(builtin_system("barendregt").first(51))
    c = list(builtin_system("c").first(51))
    for n in range(50):
        assert substitute(mk_pair(F, v), {"v": d[n]}) == d[n + 1]
        assert substitute(mk_pair(v, w), {"v": c[n], "w": church(n + 1)}) == c[n + 1]


# ---------------------------------------------------------------------------
# Barendregt's translation: a system with S, P and Z and the Church numerals

def transported(sys_: NumeralSystem, fterm):
    """The binary Church term `fterm` carried to `sys_` through
    to = Y(λr.λd. Z d c_0 (S_church (r (P d)))), which sends d_n to c_n,
    and from = λc. c S d_0, which sends c_n to d_n."""
    half = Lam("x", App(Var("f"), App(Var("x"), Var("x"))))
    to = App(Lam("f", App(half, half)), lam("r", "d", app(
        sys_.zero_test, Var("d"), church(0),
        App(CHURCH.successor, App(Var("r"), App(sys_.predecessor, Var("d")))))))
    from_ = Lam("c", app(Var("c"), sys_.successor, sys_.numeral(0)))
    return lam("n", "m", App(from_, app(fterm, App(to, Var("n")), App(to, Var("m")))))


@pytest.mark.parametrize("name, steps, upto", [("barendregt", 103_422, 20), ("tilde", 409_871, 10)])
def test_church_k_transported_defines_k_and_derives_spz(name, steps, upto):
    sys_ = builtin_system(name)
    k = transported(sys_, church_k_term())
    grid = [(n, m) for n in range(11) for m in range(11)]
    report = check_definable(sys_, k, k_function(), grid)
    assert report.overall == "pass" and sum(c.steps for c in report.cases) == steps
    w10 = Lam("n", app(sys_.zero_test, Var("n"), F, T))
    s, p, z = spz_from_k(sys_, k, w10)
    assert check_successor(sys_, s, upto).overall == "pass"
    assert check_predecessor(sys_, p, upto).overall == "pass"
    assert check_zero_test(sys_, z, upto).overall == "pass"


def test_the_translation_needs_all_three_slots():
    slots = ("successor", "predecessor", "zero_test")
    missing = {name: [s for s in slots if getattr(builtin_system(name), s) is None] for name in "abc"}
    assert missing == {"a": ["zero_test"], "b": ["predecessor"], "c": ["successor"]}
