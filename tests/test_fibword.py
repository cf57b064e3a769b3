"""The infinite word, periods, and maximal suffix exponents."""

import re
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibwalk import automata as au
from fibwalk import fibword, logic
from fibwalk import repetitions as rp
from fibwalk.exact import sign_sqrt5
from fibwalk.fibword import (ExponentRecord, e_of_n, exponent_record_fast,
                             exponent_table, failure_function,
                             generate_prefix, has_period, least_period,
                             periods_found, symbol_at)
from fibwalk.numeration import fib, fib_index, floor_alpha


def test_prefix_golden():
    assert generate_prefix(13) == "0100101001001"
    assert generate_prefix(0) == ""
    assert generate_prefix(1) == "0"


def test_prefix_substitution_fixed_point():
    # applying 0 -> 01, 1 -> 0 to a prefix reproduces a longer prefix
    w = generate_prefix(300)
    image = "".join("01" if c == "0" else "0" for c in w)
    assert image.startswith(w)
    assert generate_prefix(len(image)) == image


def test_prefix_concatenation_recurrence():
    # prefix(F_i) = prefix(F_{i-1}) + prefix(F_{i-2}) for i >= 4
    for i in range(4, 16):
        assert generate_prefix(fib(i)) == \
            generate_prefix(fib(i - 1)) + generate_prefix(fib(i - 2))


def test_symbol_at_matches_prefix():
    w = generate_prefix(3000)
    for n in range(3000):
        assert str(symbol_at(n)) == w[n]


def test_symbol_at_sturmian_formula():
    # f[n] = 2 + n - floor(alpha*(n+2)) + floor(alpha*(n+1)) flavor check:
    # characteristic of non-Fibonacci-shift positions; use difference form
    for n in range(2000):
        diff = floor_alpha(n + 2) - floor_alpha(n + 1)
        assert symbol_at(n) == 2 - diff


def test_failure_function_and_period():
    assert failure_function("abab") == [0, 0, 1, 2]
    assert least_period("abab") == 2
    assert least_period("abcd") == 4
    assert least_period("aaaa") == 1
    assert least_period("010010") == 3
    with pytest.raises(ValueError):
        least_period("")


def test_has_period():
    assert has_period("010010", 3)
    assert not has_period("010010", 2)
    assert has_period("01", 5)  # vacuous beyond the length
    for w in ("", "0", "010010", "0" * 7 + "1", generate_prefix(60)):
        for p in range(1, len(w) + 3):
            assert has_period(w, p) == all(w[i] == w[i + p]
                                           for i in range(len(w) - p)), (w, p)
    with pytest.raises(ValueError):
        has_period("01", 0)


def test_e_of_n_golden_values():
    # maximal suffix records (x, y), hand-checked against the prefixes:
    # n=4 "0100" has suffix "00" (exp 2); n=8 "01001010" has "01010" (5/2)
    want = {1: (1, 1), 2: (1, 1), 3: (3, 2), 4: (2, 1), 5: (5, 3),
            6: (6, 3), 7: (4, 2), 8: (5, 2), 9: (2, 1), 10: (10, 5),
            11: (11, 5), 12: (7, 3), 130: (12, 5)}
    for n, (x, y) in want.items():
        rec = e_of_n(n)
        assert (rec.x, rec.y) == (x, y), n
        assert rec.verify()
    assert e_of_n(12).exponent == Fraction(7, 3)
    with pytest.raises(ValueError):
        e_of_n(0)


@cache
def _table(n_max):
    return exponent_table(n_max)


def test_exponent_record_ties_prefer_short_suffix():
    # the record keeps the shortest suffix attaining the best exponent,
    # with its least period, in the scan and in the table alike
    table = _table(1500)
    for n in range(1, 120):
        rec = e_of_n(n)
        assert table[n - 1].tolist() == [rec.x, rec.y]
        prefix = generate_prefix(n)
        best = rec.exponent
        assert rec.y == least_period(prefix[n - rec.x:])
        for x in range(1, rec.x):
            assert Fraction(x, least_period(prefix[n - x:])) < best


def test_exponent_record_fast_matches_scan():
    for n in range(1, 300):
        slow = e_of_n(n)
        fast = exponent_record_fast(n)
        assert (fast.n, fast.x, fast.y) == (slow.n, slow.x, slow.y)


def test_exponent_table_matches_pointwise():
    table = exponent_table(200)
    assert table.shape == (200, 2) and table.dtype == np.int64
    for n, (x, y) in enumerate(table.tolist(), start=1):
        slow = e_of_n(n)
        assert (x, y) == (slow.x, slow.y)
        assert ExponentRecord(n, x, y).verify()


def test_exponent_table_matches_kmp_sweep():
    # the per-period runs against the independent failure-array route
    n_max = 3000
    table = exponent_table(n_max)
    assert len(table) == n_max
    for n, row in enumerate(table.tolist(), start=1):
        assert exponent_record_fast(n) == ExponentRecord(n, *row), n


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_exponent_table_in_blocks_of_any_size(monkeypatch, block):
    # each period's last mismatch is carried from block to block; one
    # lost at a block boundary shows on tables longer than a block
    full = _table(1500)
    monkeypatch.setattr(fibword, "_BLOCK", block)
    for n_max in (1, 2, 3, 55, 200, 377, 399, 400):
        assert exponent_table(n_max).tolist() == full[:n_max].tolist(), n_max


def _suffix_run(w, end, p):
    """Longest suffix of w[:end] with period p, by backward comparison."""
    k = 0
    while end - 1 - k - p >= 0 and w[end - 1 - k] == w[end - 1 - k - p]:
        k += 1
    return min(end, k + p)


def _square_free_ternary(length):
    # the number of 1s between consecutive 0s of the Thue-Morse word
    zeros = [i for i in range(4 * length) if bin(i).count("1") % 2 == 0]
    return "".join(str(b - a - 1) for a, b in zip(zeros, zeros[1:]))[:length]


def _suffix_runs_in_chunks(w, p, chunk):
    """X_p(n) for n = 1..len(w), from `_last_mismatches` a chunk at a time."""
    f = np.frombuffer(w.encode("ascii"), dtype=np.uint8)
    last, runs = p - 1, []
    for lo in range(0, len(w), chunk):
        hi = min(lo + chunk, len(w))
        mark = fibword._last_mismatches(f, p, lo, hi, last)
        last = int(mark[-1])
        runs += (np.arange(lo + 1, hi + 1) + (p - 1) - mark).tolist()
    return runs


@settings(max_examples=100, deadline=None)
@given(w=st.text(alphabet="01a", min_size=1, max_size=80))
def test_lce_matches_direct_comparison(w):
    # X_p(n) = n + p - 1 - last is the backward common extension of
    # n - 1 and n - 1 - p, plus p; the mismatch pass holds on any word
    for p in range(1, len(w) + 2):
        assert _suffix_runs_in_chunks(w, p, len(w)) == \
            [_suffix_run(w, end, p) for end in range(1, len(w) + 1)], p


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_lce_lifts_in_chunks_of_any_size(chunk):
    # the last mismatch is carried from chunk to chunk; one lost or
    # misplaced at a chunk boundary shows on words longer than a chunk
    for w in (generate_prefix(90), _square_free_ternary(60) + "0" * 9,
              "0" * 30 + "1" + "0" * 29):
        for p in range(1, len(w) + 2):
            assert _suffix_runs_in_chunks(w, p, chunk) == \
                [_suffix_run(w, end, p) for end in range(1, len(w) + 1)], \
                (w, p)


@pytest.mark.parametrize("n", [130, 952, 6675, 46134, 317200])
def test_exponent_table_matches_fast_records_far_out(n):
    # n = 130 and F_{4m} - F_{2m+1} - 1, where sqrt(n)*(alpha^2 - e(n)) is
    # largest; exponent_record_fast scans every suffix with no theory of
    # which periods occur
    row = _table(317200)[n - 1].tolist()
    assert exponent_record_fast(n) == ExponentRecord(n, *row)


def test_workload_growth_is_the_full_tail(monkeypatch):
    # the table grows in these steps under mgamma --largest-below for
    # k = 6..9 and under verify up to 10,000
    full = _table(10000)
    for steps in ((2080, 2219, 2588, 3562), (5000, 10000)):
        monkeypatch.setattr(rp, "_TABLE", np.zeros((0, 2), dtype=np.int64))
        for n_max in steps:
            assert rp.ensure_table(n_max).tolist() == \
                full[:n_max].tolist(), n_max


def test_table_refuses_past_its_int64_bound(monkeypatch):
    # x * y products reach n_max**2, which must stay below 2**63
    assert fibword.TABLE_LIMIT ** 2 < 2 ** 63 <= (fibword.TABLE_LIMIT + 1) ** 2
    with pytest.raises(ValueError, match="3,037,000,499 at most"):
        exponent_table(fibword.TABLE_LIMIT + 1)
    # ensure_table's doubling stops at the bound: with a bound of 100, a
    # 60-row table grows to 100 rows, not 120
    built = []
    monkeypatch.setattr(rp, "TABLE_LIMIT", 100)
    monkeypatch.setattr(rp, "exponent_table",
                        lambda n: built.append(n) or exponent_table(n))
    monkeypatch.setattr(rp, "_TABLE", exponent_table(60))
    assert rp.ensure_table(61).tolist() == _table(61).tolist()
    assert built == [100]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 1500))
def test_exponent_table_record_is_e_of_n(n):
    rec = ExponentRecord(n, *_table(1500)[n - 1].tolist())
    assert rec == e_of_n(n)
    assert rec.verify()


def test_record_verify_rejects_wrong_claims():
    assert not ExponentRecord(10, 11, 3).verify()  # suffix longer than n
    assert not ExponentRecord(10, 4, 0).verify()
    assert ExponentRecord(6, 6, 3).verify()  # "010010" has period 3
    assert not ExponentRecord(6, 6, 4).verify()  # but not period 4


def test_periods_are_fibonacci():
    found = periods_found(500)
    assert found <= {fib(k) for k in range(2, 16)}
    assert {1, 2, 3, 5} <= found


def test_fib_periods_script_proves_the_premise():
    # every factor has a least period, and every least period is a
    # Fibonacci number: the premise of exponent_table, for every factor
    report = logic.run_session(rp.script_text("fib_periods.wal"))
    data = {e.data["name"]: e.data for e in report.entries}
    assert data["per"]["states"] == 42 and data["lper"]["states"] == 19
    assert data["haslper"]["verdict"] is True
    assert data["fibper"]["verdict"] is True


@pytest.mark.parametrize("old, new, claim", [
    # with q <= p no p is least, so lper is empty and fibper holds
    # vacuously; haslper is the eval that fails
    ("q>=1 & q<p", "q>=1 & q<=p", "haslper"),
    ("Ai,m,p $lper(i,m,p)", "Ai,m,p $per(i,m,p)", "fibper"),
])
def test_fib_periods_script_fails_when_broken(old, new, claim):
    text = rp.script_text("fib_periods.wal")
    assert text.count(old) == 1
    report = logic.run_session(text.replace(old, new))
    verdicts = {e.data["name"]: e.data.get("verdict") for e in report.entries}
    assert verdicts[claim] is False


def test_max_repetition_script_proves_the_bound():
    # the script reuses good_partition.wal's adjfib and fib_periods.wal's per
    text = rp.script_text("max_repetition.wal")
    for cmd, script in (("adjfib", "good_partition.wal"),
                        ("per", "fib_periods.wal")):
        line = re.search(rf"^(reg|def) {cmd} [^:]*:", text, re.M).group(0)
        assert line in rp.script_text(script)
    report = logic.run_session(text)
    data = {e.data["name"]: e.data for e in report.entries}
    assert data["adjfib"]["states"] == 4 and data["per"]["states"] == 42
    assert [(n, d["verdict"]) for n, d in data.items() if "verdict" in d] \
        == [("maxlen", True), ("attained", True)]


@pytest.mark.parametrize("old, new, claim", [
    ("m+2<=q+2*p", "m+3<=q+2*p", "maxlen"),
    ("q+2*p-2", "q+2*p-1", "attained"),
])
def test_max_repetition_script_fails_when_broken(old, new, claim):
    text = rp.script_text("max_repetition.wal")
    assert text.count(old) == 1
    report = logic.run_session(text.replace(old, new))
    verdicts = {e.data["name"]: e.data["verdict"] for e in report.entries
                if "verdict" in e.data}
    assert {n for n, v in verdicts.items() if not v} == {claim}


def test_longest_factor_of_each_period_by_string_sweep():
    # max_repetition.wal's two evals on a prefix: the longest factor with
    # period F_k has length F_{k+2} + F_k - 2 and first starts at F_{k+1}
    w = np.frombuffer(generate_prefix(20000).encode(), dtype=np.uint8)
    for k in range(2, 19):
        p = fib(k)
        # the runs of w[i] = w[i+p]; a run of r starts a factor of r + p
        eq = np.concatenate(([False], w[p:] == w[:-p], [False]))
        edges = np.flatnonzero(np.diff(eq.astype(np.int8)))
        starts, ends = edges[::2], edges[1::2]
        best = int(np.argmax(ends - starts))
        assert ends[best] - starts[best] + p == fib(k + 2) + fib(k) - 2, k
        assert starts[best] == fib(k + 1), k


def test_exponent_table_respects_the_period_bound():
    xs, ys = rp.ensure_table(20000).T
    # y = F_k bounds x by F_{k+2} + F_k - 2
    bound = {y: fib(fib_index(y) + 2) + y - 2 for y in set(ys.tolist())}
    assert np.all(xs <= np.array([bound[y] for y in ys.tolist()]))


def test_period_bound_is_below_two_plus_alpha():
    # (F_{k+2} + F_k - 2)/F_k < 2 + alpha = (5 + sqrt5)/2, cleared of
    # denominators: 3 F_k - 2 F_{k+2} + 4 + F_k sqrt5 > 0
    for k in range(2, 200):
        assert sign_sqrt5(3 * fib(k) - 2 * fib(k + 2) + 4, fib(k)) > 0, k


def test_word_atom_matches_word():
    # every pair (s, t) below 400, (n, 0) among them: F[n]=F[0] holds
    # exactly where the word has a 0 at n
    word = np.array([symbol_at(n) for n in range(400)])
    s, t = np.divmod(np.arange(400 * 400), 400)
    accepted = au.accepts_batch(logic.sequence_atom_automaton(),
                                np.column_stack([s, t]))
    assert np.array_equal(accepted, word[s] == word[t])
