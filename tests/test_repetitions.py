"""Prefix-length classification, threshold automata, verification sweeps."""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fibwalk import automata as au
from fibwalk import logic
from fibwalk import repetitions as rp
from fibwalk.exact import exceeds_alpha_squared, theorem_margin_sign
from fibwalk.fibword import e_of_n, exponent_record_fast, exponent_table
from fibwalk.numeration import fib, fib_index

G_THROUGH_43 = [13, 14, 22, 23, 24, 26, 27, 34, 35, 36, 37, 38, 39, 40, 43]
B1_THROUGH_33 = [2, 4, 5, 7, 9, 10, 12, 15, 17, 18, 20, 25, 28, 30, 31, 33]
B2_THROUGH_87 = [3, 6, 8, 11, 16, 19, 21, 29, 32, 42, 50, 53, 55, 76, 84, 87]


def test_good_automaton_states_and_listing():
    good = rp.good_automaton()
    assert au.live_state_count(good) == 12
    assert au.enumerate_accepted(good, 43) == G_THROUGH_43


def test_family_set_listings():
    b1, b2 = rp.family_automaton("b1"), rp.family_automaton("b2")
    assert au.enumerate_accepted(b1, 33) == B1_THROUGH_33
    assert au.enumerate_accepted(b2, 87) == B2_THROUGH_87


def test_families_disjoint_and_cover():
    b1 = set(au.enumerate_accepted(rp.family_automaton("b1"), 3000))
    b2 = set(au.enumerate_accepted(rp.family_automaton("b2"), 3000))
    g = set(au.enumerate_accepted(rp.good_automaton(), 3000))
    assert not (b1 & b2)
    assert not (g & (b1 | b2))
    assert g | b1 | b2 >= set(range(2, 3001))


def test_witness_search():
    def at(pairs, n):
        return [(i, j) for m, i, j in pairs if m == n]
    # 4 = F_6 - F_4 - 1 = 8 - 3 - 1 and 16 = F_8 - F_5 = 21 - 5
    assert at(rp.witness_pairs("b1", 4), 4) == [(6, 4)]
    assert at(rp.witness_pairs("b2", 16), 16) == [(8, 2)]
    assert at(rp.witness_pairs("b1", 13), 13) == []
    assert at(rp.witness_pairs("b2", 13), 13) == []


def _scan_b1(n_max):
    """(n, i, j) of B1 by a search over i for each n, by Fibonacci index."""
    out = []
    for n in range(n_max + 1):
        i = 5
        while fib(i - 1) <= n + 1:  # F_j <= F_{i-2} forces F_{i-1} <= n + 1
            j = fib_index(fib(i) - n - 1)
            if j is not None and 3 <= j <= i - 2:
                out.append((n, i, j))
            i += 1
    return out


def _scan_b2(n_max):
    out = []
    for n in range(n_max + 1):
        i = 5
        while fib(i - 1) <= n:  # F_{2j+1} <= F_{i-2} forces F_{i-1} <= n
            k = fib_index(fib(i) - n)
            if k is not None and k % 2 == 1 and 3 <= k <= i - 2:
                out.append((n, i, (k - 1) // 2))
            i += 1
    return out


@pytest.mark.parametrize("n_max", [2, 3, 4, 21, 2000, 5000])
def test_pairs_match_the_per_n_scan(n_max):
    # 2 and 4 are the least B1 index of i = 5 and 6, 3 and 21 the least
    # B2 index of i = 5 and 8, so a loop bound off by one drops a pair
    assert rp.witness_pairs("b1", n_max) == _scan_b1(n_max)
    assert rp.witness_pairs("b2", n_max) == _scan_b2(n_max)


def test_partition_goldens():
    # the class of n is the count that grows from [2, n - 1] to [2, n]
    def grown(n):
        now = rp.partition_report(n)["counts"]
        before = (rp.partition_report(n - 1)["counts"] if n > 2
                  else dict.fromkeys(now, 0))
        return [c for c in now if now[c] != before[c]]
    assert grown(13) == ["G"]
    assert rp.ensure_table(13)[12].tolist() == [8, 3]  # suffix exponent 8/3
    # 12 = F_8 - F_6 - 1, and 3 = F_5 - F_3 at j = 1
    assert grown(12) == ["B1"] and (12, 8, 6) in rp.witness_pairs("b1", 12)
    assert grown(3) == ["B2"] and (3, 5, 1) in rp.witness_pairs("b2", 3)
    assert grown(2) == ["B1"] and (2, 5, 3) in rp.witness_pairs("b1", 2)
    with pytest.raises(ValueError):
        rp.partition_report(1)


def test_good_automaton_matches_exponent_threshold():
    ns = np.arange(2, 200, dtype=np.int64)
    in_g = au.accepts_batch(rp.good_automaton(), ns).tolist()
    for n, g in zip(ns.tolist(), in_g):
        rec = e_of_n(n)
        assert g == exceeds_alpha_squared(rec.x, rec.y), n


def test_partition_report():
    rep = rp.partition_report(300)
    assert rep["verdict"] is True
    counts = rep["counts"]
    assert counts["G"] + counts["B1"] + counts["B2"] == 299
    assert rp.partition_report(100)["verdict"] is True


def test_lemma1_report():
    rep = rp.lemma1_report(300)
    assert rep["verdict"] is True
    assert rep["witness_pairs"] == 47
    # every pair satisfied at least one alternative; count of both held
    assert 0 < rep["both_alternatives"] <= 47


def test_lemma2_report():
    rep = rp.lemma2_report(300)
    assert rep["verdict"] is True
    assert rep["witness_pairs"] == 26


def test_verify_theorem_window():
    rep = rp.verify_theorem(500)
    assert rep["verdict"] is True
    assert rep["base_range_pass"] is True
    assert rep["failures"] == []
    assert rep["argmin"] == 355
    assert abs(rep["min_slack"] - 0.0412) < 5e-4


@pytest.mark.parametrize("n", [13, 40])
def test_verify_theorem_fails_a_lowered_g_row(monkeypatch, n):
    # a G index takes no square root; lowered in the table until its
    # margin fails, it must be reported, inside the base range or past it
    table = rp.ensure_table(100).copy()
    x, y = table[n - 1].tolist()
    assert exceeds_alpha_squared(x, y)
    while theorem_margin_sign(x, y, n) > 0:
        x -= 1
    table[n - 1] = x, y
    monkeypatch.setattr(rp, "_TABLE", table)
    rep = rp.verify_theorem(100)
    assert rep["verdict"] is False and rep["failures"] == [n]
    assert rep["base_range_pass"] is (n > 21)


def test_verify_theorem_takes_roots_outside_g_only(monkeypatch):
    calls = []

    def counted(x, y, n):
        calls.append(n)
        return theorem_margin_sign(x, y, n)

    monkeypatch.setattr(rp, "theorem_margin_sign", counted)
    n_max = 3000
    assert rp.verify_theorem(n_max)["verdict"] is True
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    in_good = au.accepts_batch(rp.good_automaton(), ns.reshape(-1, 1))
    assert calls == ns[~in_good].tolist() + list(range(1, 22))


def test_largest_index_law_k13_k14_with_oracle_margin():
    # k = 14, 15 and 16 with the default 2,000-wide margin need the table
    # to 198,040, 515,618 and 1,347,281
    t0 = time.perf_counter()
    for k in (13, 14, 15, 16):
        p, q = fib(k + 1) - 1, fib(k - 1)
        assert rp.largest_index_below(p, q) == fib(2 * k - 1) - fib(k) - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"k = 13..16 took {elapsed:.1f}s"


def test_exponent_record_table_and_fast_agree():
    for n in (1, 7, 130, 399, 800):
        rec = rp.exponent_record(n)
        assert rec == exponent_record_fast(n) == e_of_n(n), n


def test_ensure_table_builds_whole_and_only_for_more_rows(monkeypatch):
    built = []

    def counted(n_max):
        built.append(n_max)
        return exponent_table(n_max)

    monkeypatch.setattr(rp, "_TABLE", np.zeros((0, 2), dtype=np.int64))
    monkeypatch.setattr(rp, "exponent_table", counted)
    rp.ensure_table(500)
    rp.ensure_table(300)
    assert rp.exponent_record(500) == e_of_n(500)
    table = rp.ensure_table(1200)
    assert rp.exponent_record(1100) == e_of_n(1100)
    assert built == [500, 1200]
    assert table.tolist() == exponent_table(1200).tolist()


def test_ensure_table_grows_by_doubling(monkeypatch):
    # the requests of mgamma --largest-below for k = 6..9 (n* + 2000) and
    # of verify up to 10,000: a request past the table builds at least
    # twice its rows, so the ratio steps cost two builds, not four
    built = []

    def counted(n_max):
        built.append(n_max)
        return exponent_table(n_max)

    monkeypatch.setattr(rp, "exponent_table", counted)
    ratio = [fib(2 * k - 1) - fib(k) - 1 + 2000 for k in range(6, 10)]
    assert ratio == [2080, 2219, 2588, 3562]
    for steps, builds in ((ratio, [2080, 4160]), ([5000, 10000], [5000, 10000])):
        built.clear()
        monkeypatch.setattr(rp, "_TABLE", np.zeros((0, 2), dtype=np.int64))
        for n_max in steps:
            assert len(rp.ensure_table(n_max)) == n_max
        assert built == builds
    assert rp.ensure_table(3562).tolist() == exponent_table(3562).tolist()


def test_ensure_table_is_read_only():
    table = rp.ensure_table(300)
    with pytest.raises(ValueError, match="read-only"):
        table[12, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        table[:, 1] += 1
    assert rp.exponent_record(13) == e_of_n(13)


def test_sweeps_reject_empty_ranges():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="n_max >= 1"):
            rp.ensure_table(bad)
        with pytest.raises(ValueError, match="theorem needs n_max >= 1"):
            rp.verify_theorem(bad)
    for report in (rp.partition_report, rp.lemma1_report, rp.lemma2_report):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError, match="n_max >= 2"):
                report(bad)
    assert rp.verify_theorem(1)["range"] == [1, 1]
    assert rp.partition_report(2)["range"] == [2, 2]


def test_m_gamma_oracle_agreement():
    rp.ensure_table(1500)
    for p, q in [(2, 1), (5, 2), (3, 1)]:
        dfa = rp.m_gamma_automaton(p, q)
        for n in range(1, 1501):
            rec = rp.exponent_record(n)
            want = rec.exponent >= Fraction(p, q)
            assert au.accepts(dfa, (n,)) == want, (p, q, n)


def test_m_gamma_first_members():
    dfa = rp.m_gamma_automaton(3, 1)
    words = au.first_accepted_words(dfa, 3)
    vals = [au.word_to_values(w, 1)[0] for w in words]
    assert vals == [14, 23, 24]


def test_m_gamma_rejects_bad_ratio():
    with pytest.raises(ValueError, match="numerator must be >= 0"):
        rp.m_gamma_automaton(-3, 1)
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        rp.m_gamma_automaton(3, 0)


def test_m_gamma_low_ratio_warns():
    with pytest.warns(UserWarning):
        rp.m_gamma_automaton(1, 3)


@pytest.mark.parametrize("k", range(6, 10))
def test_largest_accepted_on_ratio_complements(k):
    p, q = fib(k + 1) - 1, fib(k - 1)
    below = au.complement(rp.ratio_reach_automaton(p, q))
    want = max(au.enumerate_accepted(below, fib(2 * k - 1) + 2000))
    assert au.largest_accepted(below) == want == fib(2 * k - 1) - fib(k) - 1


def _largest_index_by_formula(p, q):
    """The largest n with e(n) < p/q as its own formula: n is outside
    M_{p/q} and every larger m is inside, read off by a word search."""
    env = rp.session_env().copy()
    env.define("hs", rp.ratio_reach_automaton(p, q))
    rel = logic.compile_predicate(
        env, "?msd_fib (~$hs(n)) & Am (m>n) => $hs(m)")
    words = au.first_accepted_words(rel.dfa, 2)
    assert len(words) == 1, (p, q, words)
    return au.word_to_values(words[0], 1)[0]


@pytest.mark.parametrize("p, q", [
    *((fib(k + 1) - 1, fib(k - 1)) for k in range(6, 13)),
    (5, 2), (27, 11), (123, 50), (2401, 1000), (251, 100), (2601, 1000)])
def test_largest_index_below_agrees_with_the_formula_route(p, q):
    assert rp.largest_index_below(p, q) == _largest_index_by_formula(p, q)


def test_largest_index_below_goldens():
    assert rp.largest_index_below(12, 5) == 80
    assert rp.largest_index_below(20, 8) == 219


def test_largest_index_below_oracle_margin_fires(monkeypatch):
    # the automata answer 80 for 12/5; a table that disagrees with them
    # just past the answer, or at it, must stop the call
    real = rp.ensure_table

    def table_with(n, x, y):
        def patched(n_max):
            table = real(n_max).copy()
            table[n - 1] = x, y
            return table
        return patched

    monkeypatch.setattr(rp, "ensure_table", table_with(81, 2, 1))
    with pytest.raises(AssertionError,
                       match=r"e\(81\) < 12/5 beyond the answer"):
        rp.largest_index_below(12, 5)
    monkeypatch.setattr(rp, "ensure_table", table_with(80, 12, 5))
    with pytest.raises(AssertionError, match=r"oracle refutes e\(80\)"):
        rp.largest_index_below(12, 5)


def test_largest_index_below_guards():
    with pytest.raises(ValueError):
        rp.largest_index_below(1, 1)
    with pytest.raises(ValueError):
        rp.largest_index_below(8, 3)  # 8/3 > alpha^2


def test_verification_report_json_round_trip():
    import json
    blob = rp.verification_report_json([rp.partition_report(50)])
    data = json.loads(blob)
    assert data[0]["claim"] == "partition"
    assert data[0]["verdict"] is True


def test_script_text_packages_scripts():
    text = rp.script_text("good_partition.wal")
    assert text.lstrip().startswith("#")
    with pytest.raises(FileNotFoundError):
        rp.script_text("missing.wal")
