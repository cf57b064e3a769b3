"""Synchronized DFAs: constructions, algebra, minimization, enumeration."""

import itertools
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibwalk import automata as au
from fibwalk.numeration import fib, floor_alpha2, zeck_encode


def run_word(a, word):
    q = a.initial
    for sym in word:
        q = a.transitions[q][sym]
    return a.final[q]


def test_validity_automaton_accepts_exactly_canonical():
    v = au.validity_automaton(1)
    for n in range(500):
        assert au.accepts(v, (n,))
    # words with adjacent ones are rejected regardless of padding
    assert not run_word(v, [0, 1, 1])
    assert not run_word(v, [1, 1, 0])
    assert run_word(v, [0, 1, 0, 1])
    # every raw word up to length 4: accepted unless some track has "11"
    for arity in (0, 1, 2, 3):
        v = au.validity_automaton(arity)
        for length in range(5):
            for word in itertools.product(range(1 << arity), repeat=length):
                canonical = not any(s & t for s, t in zip(word, word[1:]))
                assert run_word(v, word) == canonical, (arity, word)


def test_adder_oracle_small_exhaustive():
    add = au.adder()
    for a in range(120):
        for b in range(120):
            assert au.accepts(add, (a, b, a + b))
            assert not au.accepts(add, (a, b, a + b + 1))
            if a + b > 0:
                assert not au.accepts(add, (a, b, a + b - 1))


RELATIONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def least_bound(coeffs, c):
    pos = sum(a for a in coeffs if a > 0)
    neg = -sum(a for a in coeffs if a < 0)
    return max(pos, neg) + abs(c) + 1


def reference_constrain(a, coeffs, rel, c, bound=None):
    """The reference for constrain, not minimized: the same (state, carry)
    walk, but a carry is never decided; it collapses to (B, B) or (-B, -B)
    once both parts are past the bound B, by default least_bound(coeffs, c).
    Any larger B builds the same language."""
    holds = RELATIONS[rel]
    bound = least_bound(coeffs, c) if bound is None else bound
    weight = [sum(x for i, x in enumerate(coeffs) if s >> i & 1)
              for s in range(a.n_symbols)]
    live = au.live_states(a).tolist()
    table = a.transitions.tolist()
    start = (a.initial, 0, 0) if live[a.initial] else None
    index, order, rows = {start: 0}, [start], []
    for key in order:
        row = []
        for s in range(a.n_symbols):
            nxt = None
            if key is not None and live[table[key[0]][s]]:
                q, u, v = key
                u, v = u + v + weight[s], u
                if u >= bound and v >= bound:
                    u = v = bound
                elif u <= -bound and v <= -bound:
                    u = v = -bound
                nxt = (table[q][s], u, v)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    final = [key is not None and bool(a.final[key[0]])
             and holds(key[1] + key[2], c) for key in order]
    return au.SyncDFA(a.arity, np.array(rows, dtype=np.int32), 0,
                      np.array(final, dtype=bool))


def assert_matches_reference(a, coeffs, rel, c):
    want = au.minimize(reference_constrain(a, coeffs, rel, c))
    assert au.constrain(a, coeffs, rel, c) == want, (coeffs, rel, c)


def references_at_bounds(a, coeffs, rel, c):
    least = least_bound(coeffs, c)
    return [au.minimize(reference_constrain(a, coeffs, rel, c, bound))
            for bound in (least, least + 1, 2 * least + 3)]


def test_adder_bound_independent():
    # the least carry bound is already stable: larger ones change nothing
    built = references_at_bounds(au.validity_automaton(3), (1, 1, -1), "=", 0)
    assert built[0] == built[1] == built[2] == au.adder()
    assert au.constrain(au.validity_automaton(3), (1, 1, -1), "=", 0) \
        == au.adder()


def test_constrain_bound_independent():
    for coeffs, rel, c in [((2, -3), "<=", 4), ((5, -12), "<", 0),
                           ((1, 1, -2), "=", -3), ((-4, 1, 3), "!=", 7),
                           ((7,), ">", 20)]:
        a = au.validity_automaton(len(coeffs))
        built = references_at_bounds(a, coeffs, rel, c)
        assert built[0] == built[1] == built[2], (coeffs, rel, c)
        assert au.constrain(a, coeffs, rel, c) == built[0], (coeffs, rel, c)


def test_constrain_matches_reference():
    assert_matches_reference(au.validity_automaton(3), (1, 1, -1), "=", 0)
    for coeffs, rel, c in [((2, -3), "<=", 4), ((5, -12), "<", 0),
                           ((1, 1, -2), "=", -3), ((-4, 1, 3), "!=", 7),
                           ((7,), ">", 20)]:
        assert_matches_reference(au.validity_automaton(len(coeffs)),
                                 coeffs, rel, c)
    with pytest.raises(ValueError):
        au.constrain(au.validity_automaton(2), (2, -3, 1), "<=", 4)
    with pytest.raises(ValueError):
        au.constrain(au.validity_automaton(2), (2, -3), "=<", 4)


@pytest.mark.parametrize("k", range(6, 13))
def test_constrain_suff_matches_reference(env, k):
    # the comparison of ratio_reach_automaton, q*x >= p*y on suff(n, x, y)
    p, q = fib(k + 1) - 1, fib(k - 1)
    assert_matches_reference(env.lookup("suff").dfa, (0, q, -p), ">=", 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rel=st.sampled_from(sorted(RELATIONS)),
       c=st.integers(-20, 20), on_adder=st.booleans())
def test_constrain_matches_reference_random(data, rel, c, on_adder):
    arity = 3 if on_adder else data.draw(st.integers(1, 3))
    coeffs = tuple(data.draw(st.lists(st.integers(-13, 13), min_size=arity,
                                      max_size=arity)))
    a = au.adder() if on_adder else au.validity_automaton(arity)
    assert_matches_reference(a, coeffs, rel, c)


def test_least_over_lengths_is_exact():
    for a in range(-30, 31):
        for b in range(-30, 31):
            terms = [a * fib(s + 2) + b * fib(s + 1) for s in range(40)]
            least = au._least_over_lengths(a, b)
            if least is None:  # falls without bound
                assert terms[-1] < terms[-2] < -abs(a) - abs(b), (a, b)
            else:
                assert least == min(terms), (a, b)


def continuation_sums(coeffs, length):
    """Every value of sum(coeffs[i]*x_i) over canonical digit strings x_i
    of the given length, i.e. over 0 <= x_i < F_{length+2}."""
    sums = np.zeros(1, dtype=np.int64)
    for x in coeffs:
        sums = np.unique(np.add.outer(sums, x * np.arange(fib(length + 2))))
    return sums.tolist()


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.integers(-13, 13), min_size=1, max_size=3),
       rel=st.sampled_from(sorted(RELATIONS)), c=st.integers(-20, 20),
       u=st.integers(-60, 60), v=st.integers(-60, 60))
def test_carry_verdict_is_sound(coeffs, rel, c, u, v):
    holds = RELATIONS[rel]
    pos = sum(x for x in coeffs if x > 0)
    neg = -sum(x for x in coeffs if x < 0)
    verdict = au._carry_verdict(holds, c, pos, neg, u, v)
    bound = least_bound(coeffs, c)
    if min(u, v) >= bound or max(u, v) <= -bound:
        assert verdict is not None  # every carry the bound collapses
    if verdict is None:
        return
    for length in range(9):
        head = u * fib(length + 2) + v * fib(length + 1)
        got = {holds(head + r, c) for r in continuation_sums(coeffs, length)}
        assert got == {verdict}, length


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), max_size=3).map(tuple),
       rel=st.sampled_from(sorted(RELATIONS)), c=st.integers(-10, 10))
def test_linear_matches_integer_oracle(coeffs, rel, c):
    dfa = au.linear(coeffs, rel, c)
    side = 13 if len(coeffs) == 3 else 40
    grid = np.array(list(itertools.product(range(side), repeat=len(coeffs))),
                    dtype=np.int64)
    wide = np.random.default_rng(3).integers(0, 10 ** 12,
                                             size=(300, len(coeffs)))
    for rows in (grid, wide):
        want = RELATIONS[rel](rows @ np.array(coeffs, dtype=np.int64), c)
        assert (au.accepts_batch(dfa, rows) == want).all()


def test_adder_random_large():
    rng = np.random.default_rng(7)
    add = au.adder()
    for _ in range(200):
        a, b = map(int, rng.integers(0, 10 ** 12, size=2))
        assert au.accepts(add, (a, b, a + b))
        assert not au.accepts(add, (a, b, a + b + 17))


def test_comparators_against_oracle():
    import operator
    ops = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
           ">": operator.gt, ">=": operator.ge}
    for name, op in ops.items():
        dfa = au.linear((1, -1), name, 0)
        for a in range(0, 130):
            for b in range(0, 130):
                assert au.accepts(dfa, (a, b)) == op(a, b), (name, a, b)


def test_const_equal_and_const_add():
    for c in [0, 1, 2, 7, 100]:
        eq = au.linear((1,), "=", c)
        hits = [n for n in range(300) if au.accepts(eq, (n,))]
        assert hits == [c]
    for c in [0, 1, 5, 21]:
        plus = au.const_add(c)
        for n in range(300):
            assert au.accepts(plus, (n, n + c))
            assert not au.accepts(plus, (n, n + c + 1))


def test_const_multiple_oracle():
    for c in [2, 3, 5, 12]:
        mul = au.const_multiple(c)
        for n in range(400):
            assert au.accepts(mul, (n, c * n))
            if n:
                assert not au.accepts(mul, (n, c * n - 1))


def test_const_multiple_past_64_and_negative():
    ns = np.arange(2001)
    for c in (65, 100):
        mul = au.const_multiple(c)
        assert au.accepts_batch(mul, np.stack([ns, c * ns], axis=1)).all()
        assert not au.accepts_batch(mul, np.stack([ns, c * ns + 1], axis=1)).any()
        assert not au.accepts_batch(
            mul, np.stack([ns[1:], c * ns[1:] - 1], axis=1)).any()
    with pytest.raises(ValueError):
        au.const_multiple(-2)


def test_accepts_batch_matches_accepts():
    add = au.adder()
    rng = np.random.default_rng(11)
    vals = rng.integers(0, 5000, size=(500, 3))
    got = au.accepts_batch(add, vals)
    for row, ok in zip(vals, got):
        assert au.accepts(add, tuple(int(v) for v in row)) == bool(ok)
    # not closed under leading zeros: each row is padded to its own
    # width, whatever the other rows hold
    empty = au.compile_regex("", 1)
    assert au.accepts(empty, (0,)) and not au.accepts(empty, (1,))
    assert au.accepts_batch(empty, [[0], [1]]).tolist() == [True, False]


@pytest.mark.parametrize("pattern, arity", [
    ("", 1), ("0*1", 1), ("1(0|1)*", 1), ("[1,0][0,1]*", 2),
    ("([0,1]|[1,1])[0,0]*", 2)])
def test_accepts_batch_matches_accepts_on_raw_patterns(pattern, arity):
    # none of these is closed under leading zeros, so a row that reads a
    # column before its own top digit would be misjudged
    dfa = au.compile_regex(pattern, arity)
    side = 400 if arity == 1 else 60
    rows = np.array(list(itertools.product(range(side), repeat=arity)))
    wide = np.random.default_rng(5).integers(0, 10 ** 12, size=(200, arity))
    hits = 0
    for batch in (rows, wide, np.vstack([wide, rows])):
        want = [au.accepts(dfa, tuple(int(v) for v in row)) for row in batch]
        assert au.accepts_batch(dfa, batch).tolist() == want
        hits += sum(want)
    assert hits


def test_accepts_batch_matches_accepts_on_predicates():
    from fibwalk import repetitions as rp
    env = rp.session_env()
    for name, side in (("good", 2000), ("b1", 30)):
        pred = env.lookup(name)
        rows = np.array(list(itertools.product(range(side),
                                               repeat=pred.arity)))
        for dfa in (pred.dfa, pred.validated()):
            want = [au.accepts(dfa, tuple(int(v) for v in row))
                    for row in rows]
            assert au.accepts_batch(dfa, rows).tolist() == want


def test_accepts_batch_rejects_out_of_range():
    eq = au.linear((1, -1), "=", 0)
    with pytest.raises(ValueError):
        au.accepts(eq, (-3, 0))
    with pytest.raises(ValueError):
        au.accepts_batch(eq, [[-3, 0]])
    with pytest.raises(ValueError):
        au.accepts_batch(eq, [[2 ** 63, 0]])
    assert au.accepts_batch(eq, [[2 ** 63 - 1, 2 ** 63 - 1]]).all()


def test_minimize_idempotent_and_canonical():
    samples = [au.adder(), au.linear((1, -1), "<", 0),
               au.validity_automaton(2), au.const_multiple(3)]
    for a in samples:
        m = au.minimize(a)
        assert au.minimize(m) == m
        # conjunction with itself changes nothing
        assert au.minimize(au.product(a, a, "and")) == m


def test_minimize_matches_moore_count():
    for a in [au.adder(), au.linear((1, -1), "<=", 0), au.const_multiple(5)]:
        m = au.minimize(a)
        assert au.moore_state_count(a) == m.n_states


def test_structural_equality_decides_language():
    # x < y built two ways: directly, and as (x <= y) and not (x = y)
    lt = au.minimize(au.linear((1, -1), "<", 0))
    le = au.linear((1, -1), "<=", 0)
    eq = au.linear((1, -1), "=", 0)
    combo = au.minimize(au.product(le, au.complement(eq), "and"))
    # complement leaves the all-words universe, so re-restrict to validity
    combo = au.minimize(au.product(combo, au.validity_automaton(2), "and"))
    lt = au.minimize(au.product(lt, au.validity_automaton(2), "and"))
    assert combo == lt


def test_leading_zero_invariance():
    # prepending all-zero symbols never changes acceptance
    cases = [(au.adder(), [(0, 0, 0), (3, 5, 8), (13, 8, 21), (2, 2, 5)]),
             (au.linear((1, -1), "<", 0), [(3, 5), (8, 8), (13, 2)]),
             (au.const_multiple(3), [(4, 12), (4, 13), (0, 0)])]
    for a, tuples in cases:
        for vals in tuples:
            word = au.columns_of(vals)
            base = run_word(a, word)
            for pad in range(1, 4):
                assert run_word(a, [0] * pad + word) == base


def test_remap_and_expand_tracks():
    lt = au.linear((1, -1), "<", 0)
    gt = au.remap_tracks(lt, 2, (1, 0))  # swap arguments
    for a in range(60):
        for b in range(60):
            assert au.accepts(gt, (a, b)) == (b < a)
    wide = au.expand_insert(lt, 3, (0, 2))  # x < z, middle track free
    for a in range(25):
        for b in range(25):
            for c in range(25):
                assert au.accepts(wide, (a, b, c)) == (a < c)


def test_project_existential():
    # project the sum track away: every pair has a sum
    add = au.adder()
    pairs = au.minimize(au.product(au.project(add, 2),
                                   au.validity_automaton(2), "and"))
    univ = au.minimize(au.validity_automaton(2))
    assert pairs == univ
    # project x from x < y: all y >= 1 remain
    some_below = au.project(au.linear((1, -1), "<", 0), 0)
    for y in range(100):
        assert au.accepts(some_below, (y,)) == (y >= 1)


def test_enumerate_accepted_value_bound(monkeypatch):
    isfib = au.compile_regex("0*10*", 1)
    got = au.enumerate_accepted(isfib, 100)
    assert got == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    lt = au.linear((1, -1), "<", 0)
    pairs = au.enumerate_accepted(lt, 4)
    assert pairs == [(a, b) for a in range(5) for b in range(5) if a < b]
    # lexicographic order holds across chunk boundaries of the tuple grid
    want = [(x, y, x + y) for x in range(13) for y in range(13) if x + y <= 12]
    assert au.enumerate_accepted(au.adder(), 12) == want
    monkeypatch.setattr(au, "_BATCH_ROWS", 7)
    assert au.enumerate_accepted(au.adder(), 12) == want
    monkeypatch.setattr(au, "_BATCH_ROWS", 3)
    assert au.enumerate_accepted(au.linear((1,), "=", 4), 9) == [4]
    assert au.enumerate_accepted(au.adder(), 0) == [(0, 0, 0)]
    with pytest.raises(ValueError, match="limit must be >= 0"):
        au.enumerate_accepted(au.adder(), -2)


def test_first_accepted_words_order():
    isfib = au.compile_regex("0*10*", 1)
    valid = au.minimize(au.product(isfib, au.validity_automaton(1), "and"))
    words = au.first_accepted_words(valid, 5)
    vals = [au.word_to_values(w, 1)[0] for w in words]
    assert vals == [1, 2, 3, 5, 8]


@pytest.mark.parametrize("name, limit", [("phi2n", 60), ("ffactoreq", 20),
                                         ("suff", 20)])
def test_first_accepted_words_match_enumeration(env, name, limit):
    # every canonical word of at most `short` columns has its values
    # <= limit, so enumeration lists all of them, in length-then-lex order
    a = env.lookup(name).validated()
    short = len(zeck_encode(limit + 1)) - 1
    words = sorted((cols for cols in map(au.columns_of,
                                         au.enumerate_accepted(a, limit))
                    if len(cols) <= short), key=lambda w: (len(w), w))
    assert len(words) >= 10
    assert au.first_accepted_words(a, len(words)) == words


@pytest.mark.parametrize("rel", ["<=", "<", "="])
@pytest.mark.parametrize("c", [0, 1, 2, 3, 7, 10, 12, 20, 54, 88, 200])
def test_largest_accepted_matches_enumeration(rel, c):
    # 10 = 10010 is the largest of 8, 9, 10, the five-digit values <= 10,
    # so a walk that tried digit 0 first would answer 8
    a = au.linear((1,), rel, c)
    members = au.enumerate_accepted(a, c + 30)
    assert au.largest_accepted(a) == max(members, default=None)


def test_largest_accepted_keeps_the_longest_word():
    # {4, 8} = {101, 10000}: after 10, digit 1 reaches acceptance soonest
    # but only digit 0 leads on to the longer word
    a = au.product(au.linear((1,), "=", 4), au.linear((1,), "=", 8), "or")
    assert au.largest_accepted(a) == 8


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 300), max_size=6))
def test_largest_accepted_of_a_finite_set(values):
    a = au.linear((1,), "<", 0)  # nothing
    for v in values:
        a = au.product(a, au.linear((1,), "=", v), "or")
    assert au.largest_accepted(a) == max(values, default=None)


def test_largest_accepted_infinite_empty_and_arity():
    isfib = au.product(au.compile_regex("0*10*", 1),
                       au.validity_automaton(1), "and")
    assert au.largest_accepted(isfib) is None
    assert au.largest_accepted(au.validity_automaton(1)) is None
    assert au.largest_accepted(au.linear((1,), ">=", 5)) is None
    assert au.largest_accepted(au.linear((1,), "<", 0)) is None
    assert au.largest_accepted(au.linear((1,), "=", 0)) == 0
    with pytest.raises(ValueError, match="arity 1"):
        au.largest_accepted(au.linear((1, 1), "=", 3))


def test_regex_track_strings_and_values():
    word = au.columns_of((4, 2))
    assert au.word_to_values(word, 2) == (4, 2)
    s1, s2 = au.word_to_track_strings(word, 2)
    assert s1 == "101"
    assert s2 == "010"  # padded to common width


def test_compile_regex_fibonacci_sets():
    evenfib = au.compile_regex("0*1(00)*", 1)
    oddfib = au.compile_regex("0*10(00)*", 1)
    evens = set(au.enumerate_accepted(evenfib, 2000))
    odds = set(au.enumerate_accepted(oddfib, 2000))
    assert evens == {fib(2 * k) for k in range(1, 18) if fib(2 * k) <= 2000}
    assert odds == {fib(2 * k + 1) for k in range(1, 18)
                    if fib(2 * k + 1) <= 2000}


def test_compile_regex_errors():
    with pytest.raises(au.RegexError):
        au.compile_regex("(0*", 1)
    with pytest.raises(au.RegexError):
        au.compile_regex("[0,1]", 1)  # arity mismatch
    with pytest.raises(au.RegexError):
        au.compile_regex("2*", 1)


def _regex_pairs(arity: int):
    """(fibwalk regex, Python re pattern) pairs of one random tuple regex,
    with symbol s written as the character chr(97 + s) for re."""
    def symbol(s):
        digits = [s >> t & 1 for t in range(arity)]
        tuple_form = "[" + ",".join(map(str, digits)) + "]"
        forms = [tuple_form, str(s)] if arity == 1 else [tuple_form]
        return st.sampled_from(forms).map(lambda f: (f, chr(97 + s)))

    leaf = st.one_of(st.just(("", "")),
                     st.integers(0, (1 << arity) - 1).flatmap(symbol))

    def joined(parts, sep):
        return ("(" + sep.join(p[0] for p in parts) + ")",
                "(?:" + sep.join(p[1] for p in parts) + ")")

    def extend(children):
        parts = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            parts.map(lambda ps: joined(ps, "")),
            parts.map(lambda ps: joined(ps, "|")),
            children.map(lambda c: ("(" + c[0] + ")*", "(?:" + c[1] + ")*")),
            children.map(lambda c: ("(" + c[0] + ")", "(?:" + c[1] + ")")))

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(case=st.integers(1, 2).flatmap(
    lambda k: st.tuples(st.just(k), _regex_pairs(k))))
@example(case=(1, ("(|0)*1(0|[1])*", "(?:|a)*b(?:a|b)*")))
@example(case=(2, ("([0,0]|)(([1,0])*|[0,1])*", "(?:a|)(?:(?:b)*|c)*")))
def test_compile_regex_matches_python_re(case):
    # every raw word up to length 6, run through the transition table
    arity, (ours, theirs) = case
    a = au.compile_regex(ours, arity)
    table, final = a.transitions.tolist(), a.final.tolist()
    pattern = re.compile(theirs)
    for length in range(7):
        for word in itertools.product(range(1 << arity), repeat=length):
            q = a.initial
            for sym in word:
                q = table[q][sym]
            text = "".join(chr(97 + sym) for sym in word)
            assert final[q] == bool(pattern.fullmatch(text)), (ours, word)


def test_to_dot_and_to_text_render():
    good = au.linear((1,), "=", 3)
    dot = au.to_dot(good)
    assert dot.startswith("digraph")
    assert "->" in dot
    txt = au.to_text(good)
    assert "states" in txt or "initial" in txt


def test_phi2n_equivalent_from_session(env):
    # the compiled two-track floor(alpha^2 n) relation against the oracle
    phi = env.lookup("phi2n").validated()
    for n in range(0, 600):
        assert au.accepts(phi, (n, floor_alpha2(n)))
        assert not au.accepts(phi, (n, floor_alpha2(n) + 1))
        if n:
            assert not au.accepts(phi, (n, floor_alpha2(n) - 1))


def test_zeck_encoding_feeds_tracks():
    # columns_of agrees with per-track zeck strings
    for vals in [(0, 0), (1, 4), (12, 33), (100, 7)]:
        word = au.columns_of(vals)
        strs = au.word_to_track_strings(word, 2)
        width = len(word)
        for v, s in zip(vals, strs):
            assert s == zeck_encode(v).rjust(width, "0")


@st.composite
def inflated_dfas(draw, arity=None):
    """(a, base): a random complete DFA `a` of up to 40 states whose states
    each copy one state of the smaller random DFA `base`, so `a` has the
    language of `base` and many states that minimization must merge."""
    if arity is None:
        arity = draw(st.integers(0, 3))
    m = 1 << arity
    k = draw(st.integers(1, 8))
    table = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=m, max_size=m),
                          min_size=k, max_size=k))
    final = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    image = list(range(k)) + draw(st.lists(st.integers(0, k - 1), max_size=40 - k))
    copies = [[q for q, b in enumerate(image) if b == c] for c in range(k)]
    pick = draw(st.lists(st.integers(0, 39), min_size=len(image) * m,
                         max_size=len(image) * m))
    rows = [[copies[table[b][s]][pick[q * m + s] % len(copies[table[b][s]])]
             for s in range(m)] for q, b in enumerate(image)]
    initial = draw(st.integers(0, len(image) - 1))
    a = au.SyncDFA(arity, np.array(rows, dtype=np.int32).reshape(-1, m), initial,
                   np.array([final[b] for b in image]))
    base = au.SyncDFA(arity, np.array(table, dtype=np.int32).reshape(-1, m),
                      image[initial], np.array(final))
    return a, base


def words(arity):
    return st.lists(st.lists(st.integers(0, (1 << arity) - 1), max_size=12),
                    min_size=1, max_size=20)


@settings(max_examples=150, deadline=None)
@given(pair=inflated_dfas(), data=st.data())
def test_minimize_on_random_dfas(pair, data):
    a, base = pair
    m = au.minimize(a)
    assert au.minimize(m) == m
    assert m.n_states == au.moore_state_count(a)
    assert m == au.minimize(base)  # same language, same canonical object
    for word in data.draw(words(a.arity)):
        assert run_word(m, word) == run_word(a, word)


def reachable_restriction(a):
    seen = [a.initial]
    for q in seen:
        seen += [r for r in dict.fromkeys(a.transitions[q].tolist())
                 if r not in seen]
    index = {q: i for i, q in enumerate(seen)}
    rows = [[index[r] for r in a.transitions[q].tolist()] for q in seen]
    return au.SyncDFA(a.arity, np.array(rows, dtype=np.int32), 0,
                      a.final[seen])


@settings(max_examples=150, deadline=None)
@given(pair=inflated_dfas(), data=st.data())
def test_minimize_ignores_unreachable_states(pair, data):
    # appended states nothing reaches: copies of states of `a`, which are
    # equivalent to them, and random states, which may be equivalent to none
    a, base = pair
    n, m = a.n_states, a.n_symbols
    copied = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
    k = data.draw(st.integers(0, 8))
    total = n + len(copied) + k
    extra = data.draw(st.lists(st.integers(0, total - 1),
                               min_size=k * m, max_size=k * m))
    rows = np.concatenate([a.transitions, a.transitions[copied],
                           np.array(extra, dtype=np.int32).reshape(k, m)])
    final = np.concatenate([a.final, a.final[copied],
                            data.draw(st.lists(st.booleans(), min_size=k,
                                               max_size=k))]).astype(bool)
    wide = au.SyncDFA(a.arity, rows, a.initial, final)
    got = au.minimize(wide)
    assert got == au.minimize(reachable_restriction(wide))
    assert got == au.minimize(base)
    assert got.n_states == au.moore_state_count(wide)


def signature_minimize(a):
    """minimize by the book: refine blocks by the tuple (block, successor
    blocks) until their count stops growing, then number the blocks of
    the reachable states by BFS from the initial one, symbols ascending."""
    rows, final = a.transitions.tolist(), a.final.tolist()
    block, count = final, len(set(final))
    while True:
        ids = {}
        new = [ids.setdefault((block[q], *(block[r] for r in row)), len(ids))
               for q, row in enumerate(rows)]
        if len(ids) == count:
            break
        block, count = new, len(ids)
    rep = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    order = [block[a.initial]]
    number = {order[0]: 0}
    for b in order:  # appending while iterating: a queue
        for r in rows[rep[b]]:
            if block[r] not in number:
                number[block[r]] = len(order)
                order.append(block[r])
    table = [[number[block[r]] for r in rows[rep[b]]] for b in order]
    return au._dfa(a.arity, table, 0, [final[rep[b]] for b in order])


@st.composite
def wide_dfas(draw):
    """A random complete DFA of arity 5 or 6 over k = 4..300 base states,
    whose rows are a few template rows with some entries redrawn, so that
    states often differ in few columns.  Every base state has copies that
    minimization must merge, and random states that nothing reaches come
    last.  The tables come from a seeded generator, as they are large."""
    arity = draw(st.integers(5, 6))
    m = 1 << arity
    k = draw(st.integers(4, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    templates = rng.integers(0, k, (draw(st.integers(1, 4)), m))
    rows = templates[rng.integers(0, len(templates), k)]
    redrawn = rng.random((k, m)) < draw(st.sampled_from([0.02, 0.1, 0.5]))
    rows[redrawn] = rng.integers(0, k, redrawn.sum())
    final = rng.random(k) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    # state q copies base state image[q]; each successor is any copy
    image = np.concatenate([np.arange(k),
                            rng.integers(0, k, draw(st.integers(0, k)))])
    by_base = image.argsort(kind="stable")
    first = np.searchsorted(image[by_base], np.arange(k))
    size = np.bincount(image, minlength=k)
    to = rows[image]
    table = by_base[first[to] + rng.integers(0, size[to])]
    hidden = draw(st.integers(0, 40))
    total = len(image) + hidden
    table = np.concatenate([table, rng.integers(0, total, (hidden, m))])
    final = np.concatenate([final[image], rng.random(hidden) < 0.5])
    return au.SyncDFA(arity, table.astype(np.int32), int(rng.integers(0, k)),
                      final)


def paired_dfa(pairs):
    """2*pairs states of arity 6 in pairs (2i, 2i+1) that share a row and
    differ in acceptance; the first log2(pairs) symbols step to a state
    whose acceptance is a bit of i, so no two states are equivalent.
    Minimization folds its last round at 2*pairs blocks, where the two
    states of a pair differ in their own block by exactly `pairs` and in
    nothing else: a fold that can pass 2^64 merges them."""
    bits = pairs.bit_length() - 1
    rows = [[2 * s + (i >> s & 1) if s < bits else s % (2 * pairs)
             for s in range(64)] for i in range(pairs) for _ in "ra"]
    return au._dfa(6, rows, 0, [c == "a" for _ in range(pairs) for c in "ra"])


@settings(max_examples=100, deadline=None)
@given(a=wide_dfas())
@example(a=paired_dfa(16))
@example(a=paired_dfa(32))
@example(a=au._dfa(5, [[0] * 32], 0, [True]))  # one state
@example(a=au._dfa(6, [[(q + s) % 5 for s in range(64)] for q in range(5)],
                   3, [True] * 5))  # all accepting
@example(a=au._dfa(6, [[(q * s) % 5 for s in range(64)] for q in range(5)],
                   2, [False] * 5))  # none accepting
@example(a=au._dfa(0, [[1], [2], [0], [4], [3]], 3,
                   [True, False, False, False, True]))  # arity 0
def test_minimize_matches_signature_refinement(a):
    # arity 5 and 6 fold 33 and 65 rows at up to about 300 blocks: keys
    # that need several runs of the int64 fold, and relabels between them
    m = au.minimize(a)
    assert m == signature_minimize(a)
    assert m.n_states == au.moore_state_count(a)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), arity=st.integers(0, 3))
def test_product_modes_follow_truth_table(data, arity):
    a, _ = data.draw(inflated_dfas(arity))
    b, _ = data.draw(inflated_dfas(arity))
    valid = au.validity_automaton(arity)
    tuples = data.draw(st.lists(st.tuples(*[st.integers(0, 400)] * arity),
                                min_size=1, max_size=20))
    raw = data.draw(words(arity))
    for mode, table in (("and", (0, 0, 0, 1)), ("or", (0, 1, 1, 1)),
                        ("imp", (1, 1, 0, 1)), ("iff", (1, 0, 0, 1))):
        p = au.product(a, b, mode)
        for vals in tuples:  # canonical encodings
            want = table[2 * au.accepts(a, vals) + au.accepts(b, vals)]
            assert au.accepts(p, vals) == bool(want), (mode, vals)
        for word in raw:  # any word; imp and iff hold within validity only
            want = table[2 * run_word(a, word) + run_word(b, word)]
            if table[0]:
                want = want and run_word(valid, word)
            assert run_word(p, word) == bool(want), (mode, word)


def test_sync_dfa_arrays_are_read_only():
    a = au.adder()
    with pytest.raises(ValueError):
        a.transitions[0, 0] = 1
    with pytest.raises(ValueError):
        a.final[0] = not a.final[0]
    with pytest.raises(ValueError):
        au.SyncDFA(1, np.zeros((2, 2), dtype=np.int64), 0, np.zeros(2, bool))
    assert hash(au.minimize(a)) == hash(a) and au.minimize(a) == a


# ---------------------------------------------------------------------------
# the int-keyed walks against their tuple- and set-keyed references


def reference_walk(parts, accept):
    """_walk keyed by tuples of part states: the same BFS, not minimized."""
    tables = [p.transitions.tolist() for p in parts]
    start = tuple(p.initial for p in parts)
    index, order, rows = {start: 0}, [start], []
    for key in order:
        row = []
        for nxt in zip(*map(operator.getitem, tables, key)):
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    flags = tuple(p.final[list(qs)] for p, qs in zip(parts, zip(*order)))
    return au.SyncDFA(parts[0].arity, np.array(rows, dtype=np.int32), 0,
                      np.array(accept(flags), dtype=bool))


def reference_project(a, track):
    """project's subset construction over frozensets, not minimized."""
    low = (1 << track) - 1
    base = [s & low | (s >> track) << (track + 1)
            for s in range(1 << (a.arity - 1))]
    table = a.transitions.tolist()
    cols = [[(row[s], row[s | 1 << track]) for row in table] for s in base]
    start, frontier = {a.initial}, [a.initial]
    while frontier:
        for nxt in cols[0][frontier.pop()]:
            if nxt not in start:
                start.add(nxt)
                frontier.append(nxt)
    start = frozenset(start)
    index, sets, rows = {start: 0}, [start], []
    for cur in sets:
        row = []
        for col in cols:
            nxt = frozenset(r for q in cur for r in col[q])
            if nxt not in index:
                index[nxt] = len(sets)
                sets.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    final = [any(a.final[q] for q in group) for group in sets]
    return au.SyncDFA(a.arity - 1, np.array(rows, dtype=np.int32), 0,
                      np.array(final, dtype=bool))


def reference_exact_constrain(a, coeffs, rel, c):
    """constrain keyed by (state, carry) pairs, None for the dead pair,
    with carries decided by _carry_verdict: the same walk, not minimized."""
    holds = RELATIONS[rel]
    pos = sum(x for x in coeffs if x > 0)
    neg = -sum(x for x in coeffs if x < 0)
    weight = [sum(x for i, x in enumerate(coeffs) if s >> i & 1)
              for s in range(a.n_symbols)]

    def resolve(u, v):
        verdict = au._carry_verdict(holds, c, pos, neg, u, v)
        return (u, v) if verdict is None else verdict

    live = au.live_states(a).tolist()
    table = a.transitions.tolist()

    def pair(q, carry):
        return (q, carry) if live[q] and carry is not False else None

    start = pair(a.initial, resolve(0, 0))
    index, order, rows = {start: 0}, [start], []
    for key in order:
        row = []
        for s in range(a.n_symbols):
            nxt = None
            if key is not None:
                q, carry = key
                if carry is not True:
                    u, v = carry
                    carry = resolve(u + v + weight[s], u)
                nxt = pair(table[q][s], carry)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    final = [key is not None and bool(a.final[key[0]])
             and (key[1] is True or holds(sum(key[1]), c)) for key in order]
    return au.SyncDFA(a.arity, np.array(rows, dtype=np.int32), 0,
                      np.array(final, dtype=bool))


def raw(monkeypatch, build, *args, walk=None):
    """What build(*args) walks before its one minimize; with `walk`, the
    product walks run through it instead of automata._walk."""
    with monkeypatch.context() as m:
        m.setattr(au, "minimize", lambda a: a)
        if walk is not None:
            m.setattr(au, "_walk", walk)
        return build(*args)


def random_dfa(rng, arity, max_states=30):
    n = rng.randint(1, max_states)
    rows = [[rng.randrange(n) for _ in range(1 << arity)] for _ in range(n)]
    final = [rng.random() < 0.4 for _ in range(n)]
    return au.SyncDFA(arity, np.array(rows, dtype=np.int32).reshape(n, -1),
                      rng.randrange(n), np.array(final, dtype=bool))


def test_walk_matches_tuple_keyed_reference(env, monkeypatch):
    suff, ffactoreq = env.lookup("suff").dfa, env.lookup("ffactoreq").dfa
    valid = au.validity_automaton(3)
    first, both = operator.itemgetter(0), np.logical_and.reduce
    for parts, accept in [((suff,), first), ((suff, valid), both),
                          ((suff, ffactoreq, valid), both)]:
        got = au._walk(parts, accept)
        assert got == reference_walk(parts, accept)
        assert got.n_states > 1
    # the 3-part products: imp and iff walk validity along with both operands
    for mode in ("and", "or", "imp", "iff"):
        assert (raw(monkeypatch, au.product, suff, ffactoreq, mode)
                == raw(monkeypatch, au.product, suff, ffactoreq, mode,
                       walk=reference_walk)), mode
    assert (raw(monkeypatch, au.expand_insert, suff, 5, (0, 2, 4))
            == raw(monkeypatch, au.expand_insert, suff, 5, (0, 2, 4),
                   walk=reference_walk))


def test_walks_match_references_on_seeded_random_dfas(monkeypatch):
    rng = random.Random(14)
    for _ in range(60):
        arity = rng.randint(0, 3)
        parts = tuple(random_dfa(rng, arity) for _ in range(rng.randint(1, 3)))
        flags = np.logical_or.reduce if rng.random() < 0.5 \
            else np.logical_and.reduce
        assert au._walk(parts, flags) == reference_walk(parts, flags)
        a = parts[0]
        if arity:
            track = rng.randrange(arity)
            assert (raw(monkeypatch, au.project, a, track)
                    == reference_project(a, track))
        coeffs = tuple(rng.randint(-6, 6) for _ in range(arity))
        rel, c = rng.choice(sorted(RELATIONS)), rng.randint(-9, 9)
        assert (raw(monkeypatch, au.constrain, a, coeffs, rel, c)
                == reference_exact_constrain(a, coeffs, rel, c))


def random_regex(rng, arity, depth=3):
    """A random tuple regex for compile_regex; its language may hold
    words that are not canonical, such as "11" on a track."""
    if depth == 0 or rng.random() < 0.3:
        s = rng.randrange(1 << arity)
        return "[" + ",".join(str(s >> t & 1) for t in range(arity)) + "]"
    parts = [random_regex(rng, arity, depth - 1)
             for _ in range(rng.randint(1, 3))]
    out = "(" + rng.choice(("", "|")).join(parts) + ")"
    return out + "*" if rng.random() < 0.4 else out


def test_expand_insert_adds_validity_on_the_inserted_tracks_only():
    # a raw word is accepted exactly when its old tracks are accepted by
    # `a` and no inserted track has "11", on every raw word up to length
    # 6; the words of one length are numpy arrays, symbol fastest
    rng = random.Random(28)
    for _ in range(40):
        k = rng.randint(1, 3)
        arity = rng.randint(0, 3 - k)
        if arity and rng.random() < 0.5:
            pattern = random_regex(rng, arity)
            a = au.compile_regex(pattern, arity)
        else:
            pattern, a = None, random_dfa(rng, arity)
        new_arity = arity + k
        positions = tuple(rng.sample(range(new_arity), arity))
        wide = au.expand_insert(a, new_arity, positions)
        syms = np.arange(1 << new_arity)
        old = np.array([sum((s >> p & 1) << i for i, p in enumerate(positions))
                        for s in syms])
        inserted = sum(1 << t for t in range(new_arity) if t not in positions)
        q_wide, q_old = np.array([wide.initial]), np.array([a.initial])
        last, valid = np.zeros(1, dtype=int), np.ones(1, dtype=bool)
        for length in range(7):
            if length:
                q_wide = wide.transitions[q_wide][:, syms].ravel()
                q_old = a.transitions[q_old][:, old].ravel()
                valid = (valid[:, None]
                         & (last[:, None] & syms & inserted == 0)).ravel()
                last = np.tile(syms, len(last))
            assert (wide.final[q_wide] == (a.final[q_old] & valid)).all(), \
                (pattern, positions, length)


def test_constrain_and_project_match_references_on_a_seeded_sample(
        env, monkeypatch):
    rng = random.Random(1404)
    preds = [env.lookup(n).validated() for n in env.names()]
    for _ in range(40):
        a = rng.choice(preds)
        if a.arity == 0:
            continue
        coeffs = tuple(rng.randint(-13, 13) for _ in range(a.arity))
        rel, c = rng.choice(sorted(RELATIONS)), rng.randint(-20, 20)
        assert (raw(monkeypatch, au.constrain, a, coeffs, rel, c)
                == reference_exact_constrain(a, coeffs, rel, c)), \
            (coeffs, rel, c)
        track = rng.randrange(a.arity)
        assert (raw(monkeypatch, au.project, a, track)
                == reference_project(a, track))

