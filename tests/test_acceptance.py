"""Acceptance gate: eleven end-to-end criteria with pinned budgets.

Each criterion is one test; the verbose run shows one pass/fail line per
criterion.  Two bracket claims are recorded as strict expected failures:
each has a genuine counterexample at the edge of its stated range, and
the passing companions directly after pin the exact exception sets.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fibwalk import automata as au
from fibwalk import identities as idn
from fibwalk import logic
from fibwalk import repetitions as rp
from fibwalk.exact import exceeds_alpha_squared
from fibwalk.numeration import fib, floor_alpha2

G_THROUGH_43 = [13, 14, 22, 23, 24, 26, 27, 34, 35, 36, 37, 38, 39, 40, 43]
B1_THROUGH_33 = [2, 4, 5, 7, 9, 10, 12, 15, 17, 18, 20, 25, 28, 30, 31, 33]
B2_THROUGH_87 = [3, 6, 8, 11, 16, 19, 21, 29, 32, 42, 50, 53, 55, 76, 84, 87]


def batch_ok(dfa, rows):
    """All rows accepted (rows as an int array)."""
    out = np.ones(0, dtype=bool)
    rows = np.asarray(rows, dtype=np.int64)
    got = []
    for lo in range(0, len(rows), 500_000):
        got.append(au.accepts_batch(dfa, rows[lo:lo + 500_000]))
    return np.concatenate(got) if got else out


def test_criterion_01_section2_script_good_has_12_states():
    t0 = time.perf_counter()
    report = logic.run_session(rp.script_text("good_partition.wal"))
    elapsed = time.perf_counter() - t0
    line = next(e for e in report.entries if e.data.get("name") == "good")
    assert line.data["states"] == 12
    assert elapsed < 10.0, f"compilation took {elapsed:.1f}s"
    print(f"criterion 1: PASS (good has 12 states, {elapsed:.1f}s)")


def test_criterion_02_set_listings_match():
    good = rp.good_automaton()
    b1 = rp.b1_set_automaton()
    b2 = rp.b2_set_automaton()
    t0 = time.perf_counter()
    g_list = au.enumerate_accepted(good, 43)
    b1_list = au.enumerate_accepted(b1, 33)
    b2_list = au.enumerate_accepted(b2, 87)
    elapsed = time.perf_counter() - t0
    assert g_list == G_THROUGH_43
    assert b1_list == B1_THROUGH_33
    assert b2_list == B2_THROUGH_87
    assert elapsed < 5.0
    print(f"criterion 2: PASS (three listings exact, {elapsed:.2f}s)")


def test_criterion_03_session_verdicts_true():
    t0 = time.perf_counter()
    rep_a = logic.run_session(rp.script_text("good_partition.wal"))
    rep_b = logic.run_session(rp.script_text("lemma_checks.wal"))
    elapsed = time.perf_counter() - t0
    verdicts = {e.data["name"]: e.data["verdict"]
                for e in rep_a.entries + rep_b.entries
                if e.data.get("command") == "eval"}
    assert verdicts == {"test": True, "check1": True,
                        "check2a": True, "check2b": True}
    assert elapsed < 60.0, f"sessions took {elapsed:.1f}s"
    print(f"criterion 3: PASS (4 TRUE verdicts, {elapsed:.1f}s)")


def test_criterion_04_good_agrees_with_oracle_to_1500():
    t0 = time.perf_counter()
    table = rp.ensure_table(1500)
    ns = np.arange(2, 1501, dtype=np.int64).reshape(-1, 1)
    by_automaton = au.accepts_batch(rp.good_automaton(), ns)
    for pos, n in enumerate(range(2, 1501)):
        x, y = table[n - 1].tolist()
        assert bool(by_automaton[pos]) == exceeds_alpha_squared(x, y), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 4: PASS (1499 memberships agree, {elapsed:.1f}s)")


def test_criterion_05_theorem_bound_to_20000():
    t0 = time.perf_counter()
    rep = rp.verify_theorem(20000)
    elapsed = time.perf_counter() - t0
    assert rep["verdict"] is True
    assert rep["base_range_pass"] is True
    assert rep["failures"] == []
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 5: PASS (margin positive on [1,20000], "
          f"min slack {rep['min_slack']:.6f} at n={rep['argmin']}, "
          f"{elapsed:.1f}s)")


def test_criterion_06_lemma_periods_to_2000():
    rep1 = rp.lemma1_report(2000)
    rep2 = rp.lemma2_report(2000)
    assert rep1["verdict"] is True and rep1["failures"] == []
    assert rep2["verdict"] is True and rep2["failures"] == []
    print(f"criterion 6: PASS (lemma1 {rep1['witness_pairs']} pairs, "
          f"lemma2 {rep2['witness_pairs']} pairs)")


def test_criterion_07_identity_suite():
    t0 = time.perf_counter()
    assert idn.check_eq1((-30, 30), (-30, 30))
    assert idn.check_lemma3(200)
    rep4 = idn.lemma4_report(200)
    assert rep4["verdict"] is True  # holds on ranges AND sharp at k0 - 1
    repc = idn.closed_forms_report(100)
    assert repc["verdict"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 7: PASS (identity battery to k=200/100, "
          f"{elapsed:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "the B1 bracket claim on 6 <= i <= 400 has a counterexample at i=7: "
    "g(7,4) - f(7,4) = rho(7,4)/(F_5 F_2) = -1/5 < 0; the closed form "
    "covering rho(2k+1,k+1) is only nonnegative from k=4, i.e. i >= 9"))
def test_criterion_08_crossover_bracket_b1():
    assert all(idn.crossover(i, "b1").bracket_ok for i in range(6, 401))


@pytest.mark.xfail(strict=True, reason=(
    "the B2 bracket claim on 1 <= i <= 400 fails at both edge indices: "
    "r(1,0) = 1 > s(1,0) = 0, and s(2,j) has denominator F_0 = 0"))
def test_criterion_08_crossover_bracket_b2():
    for i in range(1, 401):
        assert idn.crossover(i, "b2").bracket_ok, i


def test_criterion_08_companion_b1_holds_off_i7():
    bad = [i for i in range(6, 401) if not idn.crossover(i, "b1").bracket_ok]
    assert bad == [7]
    # and at the crossover the reverse inequality really holds at j'+1
    t = idn.crossover(20, "b1")
    assert t.bracket_ok
    print("criterion 8 companion: B1 bracket holds on [6,400] \\ {7}")


def test_criterion_08_companion_b2_holds_from_3():
    assert not idn.crossover(1, "b2").bracket_ok
    with pytest.raises(ValueError):
        idn.crossover(2, "b2")
    bad = [i for i in range(3, 401) if not idn.crossover(i, "b2").bracket_ok]
    assert bad == []
    # the sign-form bracket needs no division and already holds from i=2
    assert not idn.psi_bracket_ok(1)
    assert [i for i in range(2, 401) if not idn.psi_bracket_ok(i)] == []
    print("criterion 8 companion: B2 bracket holds on [3,400], "
          "psi form on [2,400]")


def test_criterion_09_largest_index_conjecture():
    t0 = time.perf_counter()
    rp.ensure_table(30512)  # largest target 28512 plus the check margin
    for k in range(6, 13):
        p, q = fib(k + 1) - 1, fib(k - 1)
        want = fib(2 * k - 1) - fib(k) - 1
        got = rp.largest_index_below(p, q)  # oracle margin checked inside
        assert got == want, (k, got, want)
        # independent sweep: no later index below the threshold in view
        gamma = Fraction(p, q)
        assert rp.exponent_record(want).exponent < gamma
        assert all(rp.exponent_record(m).exponent >= gamma
                   for m in range(want + 1, want + 2001))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"conjecture check took {elapsed:.1f}s"
    print(f"criterion 9: PASS (k=6..12 all equal F_2k-1 - F_k - 1, "
          f"{elapsed:.1f}s)")


def test_criterion_10_relation_automata_vs_integer_oracles():
    n = 2001
    a_grid, b_grid = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a_flat = a_grid.ravel()
    b_flat = b_grid.ravel()

    add = au.adder()
    rows = np.stack([a_flat, b_flat, a_flat + b_flat], axis=1)
    assert batch_ok(add, rows).all()
    rows_bad = np.stack([a_flat, b_flat, a_flat + b_flat + 1], axis=1)
    assert not batch_ok(add, rows_bad).any()
    nz = a_flat + b_flat > 0
    rows_bad2 = np.stack([a_flat[nz], b_flat[nz],
                          a_flat[nz] + b_flat[nz] - 1], axis=1)
    assert not batch_ok(add, rows_bad2).any()

    import operator
    pairs = np.stack([a_flat, b_flat], axis=1)
    for name, op in [("<", operator.lt), ("<=", operator.le),
                     ("=", operator.eq), (">", operator.gt),
                     (">=", operator.ge)]:
        got = batch_ok(au.linear((1, -1), name, 0), pairs)
        want = op(a_flat, b_flat)
        assert (got == want).all(), name

    ns = np.arange(n)
    for c in (2, 3, 5, 13, 64):
        mul = au.const_multiple(c)
        assert batch_ok(mul, np.stack([ns, c * ns], axis=1)).all()
        assert not batch_ok(mul, np.stack([ns, c * ns + 1], axis=1)).any()
        assert not batch_ok(
            mul, np.stack([ns[1:], c * ns[1:] - 1], axis=1)).any()

    phi = rp.session_env().lookup("phi2n").validated()
    fa2 = np.array([floor_alpha2(int(v)) for v in ns])
    assert batch_ok(phi, np.stack([ns, fa2], axis=1)).all()
    assert not batch_ok(phi, np.stack([ns, fa2 + 1], axis=1)).any()
    assert not batch_ok(phi, np.stack([ns[1:], fa2[1:] - 1], axis=1)).any()
    print("criterion 10: PASS (adder, 5 comparators, 5 multiples, "
          "phi2n exhaustive to 2000)")


def test_criterion_11_property_suite():
    env = rp.session_env()

    # quantifier duality: A x phi == ~ E x ~ phi after minimization
    dual_cases = [
        ("?msd_fib Ax (x<=n) => x<=m", "?msd_fib ~(Ex (x<=n) & ~(x<=m))"),
        ("?msd_fib Ai (i<k) => F[i]=F[i+p]",
         "?msd_fib ~(Ei (i<k) & ~(F[i]=F[i+p]))"),
        ("?msd_fib At (t<n) => F[i+t]=F[j+t]",
         "?msd_fib ~(Et (t<n) & ~(F[i+t]=F[j+t]))"),
    ]
    for a_src, b_src in dual_cases:
        a = logic.compile_predicate(env, a_src)
        b = logic.compile_predicate(env, b_src)
        assert au.minimize(a.dfa) == au.minimize(b.dfa), a_src

    # minimization idempotence on the session automata
    for name in ("ffactoreq", "suff", "phi2n", "good", "b1", "b2"):
        dfa = env.lookup(name).dfa
        once = au.minimize(dfa)
        assert au.minimize(once) == once, name

    # leading-zero invariance on sampled tuples
    good = env.lookup("good").validated()
    suff = env.lookup("suff").validated()
    for n in (2, 13, 40, 130):
        word = au.columns_of((n,))
        base = au.accepts(good, (n,))
        for pad in (1, 2, 3):
            q = good.initial
            for sym in [0] * pad + word:
                q = good.transitions[q][sym]
            assert good.final[q] == base, n
    for tup in [(6, 6, 3), (12, 7, 3), (130, 12, 5), (10, 4, 2)]:
        word = au.columns_of(tup)
        base = au.accepts(suff, tup)
        q = suff.initial
        for sym in [0, 0] + word:
            q = suff.transitions[q][sym]
        assert suff.final[q] == base, tup

    # brute-force interpreter agreement at domain bound 300
    from test_logic import base_semantics
    bf = logic.BruteForce(base_semantics(), 300)
    bf.load_script(rp.script_text("good_partition.wal"))
    ff = env.lookup("ffactoreq").validated()
    for i, j, m in [(0, 3, 4), (1, 6, 3), (2, 7, 5), (5, 5, 9), (3, 11, 8)]:
        assert bf.holds("ffactoreq", i, j, m) == au.accepts(ff, (i, j, m))
    suff_cases = [(6, 6, 3), (6, 6, 4), (12, 7, 3), (12, 8, 3),
                  (130, 12, 5), (80, 10, 5)]
    for tup in suff_cases:
        assert bf.holds("suff", *tup) == au.accepts(suff, tup), tup
    phi = env.lookup("phi2n").validated()
    for m in range(0, 111, 10):
        s = floor_alpha2(m)
        assert bf.holds("phi2n", m, s)
        assert au.accepts(phi, (m, s))
    assert not bf.holds("phi2n", 60, floor_alpha2(60) + 1)
    print("criterion 11: PASS (duality, idempotence, padding, "
          "interpreter at bound 300)")
