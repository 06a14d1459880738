"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the lines as
they print).  Every check reduces real terms; nothing is stubbed.
"""

import random
import time

from numlam import (
    App,
    F,
    Fuel,
    Lam,
    Normal,
    SequenceSpec,
    T,
    Var,
    alpha_eq,
    app,
    barendregt,
    beta_eta_eq,
    beta_normalize,
    bprime_numeral,
    builtin_system,
    check_definable,
    check_predecessor,
    check_successor,
    check_zero_test,
    church_k_term,
    eta_normalize,
    free_vars,
    head_reduce,
    is_beta_eta_normal,
    k_function,
    parse_term,
    phi_from_zero_test,
    pretty,
    spz_from_k,
    substitute,
    zero_test_from_phi,
)
from termgen import oracle_alpha_eq, random_closed_term, random_term, rename_bound


def _assert_all_equal(report):
    assert report.unknown == 0, report.to_dict()
    assert report.overall == "pass", report.to_dict()
    assert all(case.ok for case in report.cases)


def test_criterion_01_barendregt_contracts():
    start = time.perf_counter()
    sys_ = builtin_system("barendregt")
    _assert_all_equal(check_successor(sys_, sys_.successor, 50))
    _assert_all_equal(check_predecessor(sys_, sys_.predecessor, 50))
    _assert_all_equal(check_zero_test(sys_, sys_.zero_test, 50))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"barendregt suite took {elapsed:.2f}s"
    print(f"criterion 1 PASS: barendregt S/P/Z all Equal for n < 50 in {elapsed:.2f}s")


def test_criterion_02_church_contracts():
    sys_ = builtin_system("church")
    _assert_all_equal(check_successor(sys_, sys_.successor, 50))
    _assert_all_equal(check_predecessor(sys_, sys_.predecessor, 50))
    _assert_all_equal(check_zero_test(sys_, sys_.zero_test, 50))
    print("criterion 2 PASS: church S/P/Z all Equal for n < 50 (default fuel)")


def test_criterion_03_a_system():
    sys_ = builtin_system("a")
    _assert_all_equal(check_successor(sys_, sys_.successor, 50))
    _assert_all_equal(check_predecessor(sys_, sys_.predecessor, 50))
    assert sys_.zero_test is None
    print("criterion 3 PASS: a-system S/P Equal for n < 50, zero test absent")


def test_criterion_04_b_system():
    sys_ = builtin_system("b")
    _assert_all_equal(check_successor(sys_, sys_.successor, 50))
    _assert_all_equal(check_zero_test(sys_, sys_.zero_test, 50))
    assert sys_.predecessor is None
    assert beta_eta_eq(App(sys_.successor, bprime_numeral(0)), bprime_numeral(1)).kind == "distinct"
    assert beta_eta_eq(App(sys_.successor, bprime_numeral(0)), bprime_numeral(2)).kind == "equal"
    print("criterion 4 PASS: b-system S/Z Equal for n < 50, predecessor absent, "
          "b' sanity holds")


def test_criterion_05_tilde_system():
    sys_ = builtin_system("tilde")
    _assert_all_equal(check_successor(sys_, sys_.successor, 30))
    _assert_all_equal(check_zero_test(sys_, sys_.zero_test, 30))
    _assert_all_equal(check_predecessor(sys_, sys_.predecessor, 30))
    # the zero test lands on a term alpha-equal to F, not on F syntactically
    for n in (1, 2, 7):
        out = beta_normalize(App(sys_.zero_test, sys_.numeral(n)))
        assert isinstance(out, Normal)
        assert out.term != F and alpha_eq(out.term, F)
    print("criterion 5 PASS: tilde S/Z/P Equal for n < 30, "
          "zero test lands alpha-equal to F")


def test_criterion_06_c_system_both_sequences():
    for seq in (None, SequenceSpec("barendregt", barendregt)):
        sys_ = builtin_system("c", seq)
        _assert_all_equal(check_predecessor(sys_, sys_.predecessor, 50))
        _assert_all_equal(check_zero_test(sys_, sys_.zero_test, 50))
        assert sys_.successor is None
    print("criterion 6 PASS: c-system P/Z Equal for n < 50 under the default "
          "and an alternative sequence, successor absent")


def test_criterion_07_head_reduction_substitution_lemma():
    rng = random.Random(0xC0FFEE)
    instances = 0
    while instances < 500:
        u = random_term(rng, rng.randint(3, 40))
        run = head_reduce(u, Fuel(50))
        h = run.trace.length
        if h == 0:
            continue
        v = run.trace.states[h]
        sigma = {
            name: random_closed_term(rng, rng.randint(2, 12))
            for name in sorted(free_vars(u))
            if rng.random() < 0.7
        }
        replay = head_reduce(substitute(u, sigma), Fuel(h))
        assert replay.trace.length == h, pretty(u)
        assert alpha_eq(replay.trace.states[h], substitute(v, sigma)), pretty(u)
        instances += 1
    print("criterion 7 PASS: 500 substitution instances preserve head "
          "reductions and their lengths exactly")


def test_criterion_08_lemma_round_trip():
    for name in ("barendregt", "church", "b"):
        sys_ = builtin_system(name)
        fphi = phi_from_zero_test(sys_, sys_.zero_test)
        recovered = zero_test_from_phi(sys_, fphi, sys_.zero_test)
        _assert_all_equal(check_zero_test(sys_, recovered, 20))
    print("criterion 8 PASS: zero-test round trip through the step function "
          "passes for barendregt, church, and b (n < 20)")


def test_criterion_09_k_term_and_derived_combinators():
    sys_ = builtin_system("church")
    kterm = church_k_term()
    points = [(n, m) for n in range(11) for m in range(11)]
    report = check_definable(sys_, kterm, k_function(), points)
    assert len(report.cases) == 121
    _assert_all_equal(report)
    w10 = Lam("n", app(Var("n"), Lam("x", T), F))
    s, p, z = spz_from_k(sys_, kterm, w10)
    _assert_all_equal(check_successor(sys_, s, 20))
    _assert_all_equal(check_predecessor(sys_, p, 20))
    _assert_all_equal(check_zero_test(sys_, z, 20))
    print("criterion 9 PASS: k term Equal on the full 11x11 grid; derived "
          "S/P/Z pass their contracts for n < 20")


def test_criterion_10_engine_hygiene():
    rng = random.Random(0xBEEF)
    for _ in range(2000):
        t = random_term(rng, rng.randint(1, 200))
        assert parse_term(pretty(t)) == t

    rng = random.Random(0xFACE)
    for _ in range(1000):
        t1 = random_term(rng, rng.randint(1, 12))
        t2 = rename_bound(t1, rng) if rng.random() < 0.5 else random_term(rng, rng.randint(1, 12))
        assert alpha_eq(t1, t2) == oracle_alpha_eq(t1, t2)

    rng = random.Random(0xD00D)
    checked = 0
    for _ in range(400):
        t = random_term(rng, rng.randint(1, 30))
        out = beta_normalize(t, Fuel(300))
        if isinstance(out, Normal):
            assert is_beta_eta_normal(eta_normalize(out.term))
            checked += 1
    assert checked > 200
    print(f"criterion 10 PASS: 2000 round trips, 1000 oracle comparisons, "
          f"{checked} eta-normalized beta-normal terms all beta-eta-normal")
