"""Classification of prefix lengths by their maximal suffix repetition.

For n >= 2 the indices split three ways:

  * G:  e(n) > alpha^2, where e(n) is the largest exponent over all
        suffixes of the length-n prefix of the infinite Fibonacci word;
  * B1: n = F_i - F_j - 1 with i >= 5 and 3 <= j <= i - 2;
  * B2: n = F_i - F_{2j+1} with i >= 5 and 1 <= j <= (i - 3) / 2.

Everything here is double-checked: the compiled automata from the
bundled script against the direct string oracle, and witness arithmetic
against both.
"""

from __future__ import annotations

import json
import os
import warnings
from functools import lru_cache

import numpy as np

from . import automata as au
from . import logic
from .exact import (exceeds_alpha_squared, exceeds_alpha_squared_mask,
                    theorem_margin_sign)
from .fibword import (ExponentRecord, exponent_table, generate_prefix,
                      has_period)
from .numeration import fib


def script_text(name: str) -> str:
    """One of the bundled session scripts by file name."""
    path = os.path.join(os.path.dirname(__file__), "scripts", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@lru_cache(maxsize=1)
def session_env() -> logic.PredicateEnv:
    """Environment with the bundled classification predicates.

    good_partition.wal is registered uncompiled on the first call, and
    each predicate is compiled on its first lookup, through
    compile_predicate's memo: largest_index_below compiles only
    ffactoreq and suff, and a session that compiled them already in this
    process makes that free.
    """
    env = logic.PredicateEnv()
    env.load(script_text("good_partition.wal"))
    return env


def good_automaton() -> au.SyncDFA:
    return session_env().lookup("good").dfa


@lru_cache(maxsize=1)
def b1_set_automaton() -> au.SyncDFA:
    b1 = session_env().lookup("b1").dfa  # tracks (n, x, y)
    return au.project(au.project(b1, 2), 1)


@lru_cache(maxsize=1)
def b2_set_automaton() -> au.SyncDFA:
    b2 = session_env().lookup("b2").dfa
    return au.project(au.project(b2, 2), 1)


# ---------------------------------------------------------------------------
# oracle table, rebuilt whole when more rows are asked for


_TABLE = np.zeros((0, 2), dtype=np.int64)  # row n-1 = (x, y) of e(n)


def _check_range(claim: str, n_max: int, low: int) -> None:
    """Refuse a sweep whose range [low, n_max] is empty."""
    if n_max < low:
        raise ValueError(f"{claim} needs n_max >= {low}, got {n_max}")


def ensure_table(n_max: int) -> np.ndarray:
    """Rows (x, y) of e(n) for n = 1..n_max, row n-1 for n.

    A read-only view of a shared table.  When a caller asks for more
    rows than it holds, one whole build from n = 1 replaces it, with at
    least twice its rows, so growing requests cost a few builds, whose
    rows sum to at most twice those of the last.
    """
    global _TABLE
    _check_range("the e(n) table", n_max, 1)
    if n_max > len(_TABLE):
        _TABLE = exponent_table(max(n_max, 2 * len(_TABLE)))
        _TABLE.flags.writeable = False
    return _TABLE[:n_max]


def exponent_record(n: int) -> ExponentRecord:
    if n < 1:
        raise ValueError("e(n) needs n >= 1")
    x, y = ensure_table(n)[n - 1].tolist()
    return ExponentRecord(n, x, y)


# ---------------------------------------------------------------------------
# witnesses


def b1_pairs(n_max: int) -> list[tuple[int, int, int]]:
    """Every (n, i, j) with n = F_i - F_j - 1 <= n_max, i >= 5 and
    3 <= j <= i - 2, by (n, i)."""
    out = []
    i = 5
    while fib(i - 1) - 1 <= n_max:  # the least n of i, at j = i - 2
        for j in range(i - 2, 2, -1):  # n grows as j falls
            n = fib(i) - fib(j) - 1
            if n > n_max:
                break
            out.append((n, i, j))
        i += 1
    out.sort()
    return out


def b2_pairs(n_max: int) -> list[tuple[int, int, int]]:
    """Every (n, i, j) with n = F_i - F_{2j+1} <= n_max, i >= 5 and
    1 <= j <= (i - 3) / 2, by (n, i)."""
    out = []
    i = 5
    while fib(i - 1) <= n_max:  # F_{2j+1} <= F_{i-2} gives n >= F_{i-1}
        for j in range((i - 3) // 2, 0, -1):  # n grows as j falls
            n = fib(i) - fib(2 * j + 1)
            if n > n_max:
                break
            out.append((n, i, j))
        i += 1
    out.sort()
    return out


# ---------------------------------------------------------------------------
# sweep verifications


def partition_report(n_max: int) -> dict:
    """Totality and unambiguity of the three-way split on [2, n_max]."""
    _check_range("partition", n_max, 2)
    x, y = ensure_table(n_max)[1:].T
    ns = np.arange(2, n_max + 1, dtype=np.int64)
    g = au.accepts_batch(good_automaton(), ns)
    b1 = au.accepts_batch(b1_set_automaton(), ns)
    b2 = au.accepts_batch(b2_set_automaton(), ns)
    with_b1 = np.isin(ns, [n for n, _, _ in b1_pairs(n_max)])
    with_b2 = np.isin(ns, [n for n, _, _ in b2_pairs(n_max)])
    ok = ((g == exceeds_alpha_squared_mask(x, y))
          & (g != (b1 | b2))
          & ~(b1 & b2)
          & (~b1 | with_b1)
          & (~b2 | with_b2))
    counts = {"G": int((ok & g).sum()),
              "B1": int((ok & ~g & b1).sum()),
              "B2": int((ok & ~g & ~b1).sum())}
    return {"claim": "partition", "range": [2, n_max],
            "verdict": bool(ok.all()), "counts": counts,
            "failures": ns[~ok][:20].tolist()}


def lemma1_report(n_max: int) -> dict:
    """String-level period check for every B1 witness pair up to n_max.

    Either the whole prefix has period F_{i-2}, or its suffix of length
    F_j - 1 has period F_{j-2}; both sides are recorded when both hold.
    """
    _check_range("lemma1", n_max, 2)
    prefix = generate_prefix(n_max)
    pairs = b1_pairs(n_max)
    failures = []
    both = 0
    for n, i, j in pairs:
        w = prefix[:n]
        first = has_period(w, fib(i - 2))
        tail = w[n - (fib(j) - 1):] if fib(j) - 1 <= n else ""
        second = bool(tail) and has_period(tail, fib(j - 2))
        if first and second:
            both += 1
        if not (first or second):
            failures.append([n, i, j])
    return {"claim": "lemma1", "range": [2, n_max], "verdict": not failures,
            "witness_pairs": len(pairs), "both_alternatives": both,
            "failures": failures[:20]}


def lemma2_report(n_max: int) -> dict:
    """Period F_{i-2} for every B2 witness; the extra suffix claim for j >= 2."""
    _check_range("lemma2", n_max, 2)
    prefix = generate_prefix(n_max)
    pairs = b2_pairs(n_max)
    failures = []
    for n, i, j in pairs:
        w = prefix[:n]
        ok = has_period(w, fib(i - 2))
        if ok and j >= 2:
            tail = w[n - fib(2 * j + 1):]
            ok = has_period(tail, fib(2 * j - 1))
        if not ok:
            failures.append([n, i, j])
    return {"claim": "lemma2", "range": [2, n_max], "verdict": not failures,
            "witness_pairs": len(pairs), "failures": failures[:20]}


def verify_theorem(n_max: int) -> dict:
    """Exact check of e(n) >= alpha^2 - 3/sqrt(n) for 1 <= n <= n_max.

    Where e(n) > alpha^2 the margin is positive outright, so
    theorem_margin_sign runs only where e(n) <= alpha^2, found for the
    whole column at once by exceeds_alpha_squared_mask, and for the first
    21 n on their own.  The verdict path never touches floats; the reported
    slack is a float rendering of e(n) - (alpha^2 - 3/sqrt(n)) for
    display only, and its minimum is the first one.
    """
    _check_range("theorem", n_max, 1)
    table = ensure_table(n_max)
    x, y = table.T
    rows = np.flatnonzero(~exceeds_alpha_squared_mask(x, y))
    failures = [n for n, (x_n, y_n) in zip((rows + 1).tolist(),
                                           table[rows].tolist())
                if theorem_margin_sign(x_n, y_n, n) < 0]
    # n ** 0.5 is C pow, which differs from np.sqrt in the last bit at
    # some n (2921 is the first); the display keeps to the former
    roots = np.array([n ** 0.5 for n in range(1, n_max + 1)])
    slack = x / y - (2.618033988749895 - 3.0 / roots)
    argmin = int(np.argmin(slack))
    base_pass = all(theorem_margin_sign(x_n, y_n, n) > 0
                    for n, (x_n, y_n) in enumerate(table[:21].tolist(), 1))
    return {"claim": "theorem", "range": [1, n_max],
            "verdict": not failures, "base_range_pass": base_pass,
            "min_slack": float(slack[argmin]), "argmin": argmin + 1,
            "failures": failures[:20]}


# ---------------------------------------------------------------------------
# M_{p/q} automata and the largest-index query


def ratio_reach_automaton(p: int, q: int) -> au.SyncDFA:
    """One-track automaton for {n : e(n) >= p/q}, as the compiled formula.

    In Ex,y $suff(n,x,y) & q*x>=p*y the comparison mentions only tracks
    of the suffix predicate, so it constrains that conjunct and is only
    ever built where a suffix can still follow; on its own it would grow
    with p and q (186,779 states for 232/89).  Ex,y erases x before y,
    which keeps the subset construction small; Ey,x blows it up.
    """
    src = f"?msd_fib Ex,y $suff(n,x,y) & {q}*x>={p}*y"
    return logic.compile_predicate(session_env(), src).dfa


def m_gamma_automaton(p: int, q: int) -> au.SyncDFA:
    """Automaton for M_{p/q} = {n : e(n) >= p/q}."""
    if q < 1:
        raise ValueError("denominator must be >= 1")
    if p < 0:
        raise ValueError("numerator must be >= 0")
    if p < q:
        warnings.warn(f"{p}/{q} < 1: every n >= 1 is accepted",
                      stacklevel=2)
    return ratio_reach_automaton(p, q)


_ORACLE_MARGIN = 2000  # indices past the answer that the oracle checks


def largest_index_below(p: int, q: int) -> int:
    """The largest n with e(n) < p/q, for 1 <= p/q < alpha^2.

    Computed from the automata; then the exponent oracle confirms
    e(n) < p/q at the answer and e(m) >= p/q for the next
    _ORACLE_MARGIN values of m.
    """
    if q < 1:
        raise ValueError("denominator must be >= 1")
    if p <= q:
        raise ValueError(f"{p}/{q} <= 1 but every exponent is >= 1; "
                         "no index lies below")
    if exceeds_alpha_squared(p, q):
        raise ValueError(f"{p}/{q} >= alpha^2: indices below it never "
                         "run out, so no largest one exists")
    env = session_env().copy()
    env.define("hs", ratio_reach_automaton(p, q))
    rel = logic.compile_predicate(
        env, "?msd_fib (~$hs(n)) & Am (m>n) => $hs(m)")
    words = au.first_accepted_words(rel.dfa, 2)
    if len(words) != 1:
        raise AssertionError(f"largest-index automaton for {p}/{q} accepts "
                             f"{len(words)} values, expected exactly 1")
    n_star = au.word_to_values(words[0], 1)[0]
    xs, ys = ensure_table(n_star + _ORACLE_MARGIN)[n_star - 1:].T.tolist()
    # e = x/y < p/q, in integers since y and q are positive
    if not xs[0] * q < p * ys[0]:
        raise AssertionError(f"oracle refutes e({n_star}) < {p}/{q}")
    for m, x, y in zip(range(n_star + 1, n_star + _ORACLE_MARGIN + 1),
                       xs[1:], ys[1:]):
        if x * q < p * y:
            raise AssertionError(
                f"oracle found e({m}) < {p}/{q} beyond the answer")
    return n_star


# ---------------------------------------------------------------------------
# reports


def verification_report_json(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"
