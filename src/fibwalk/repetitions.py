"""Classification of prefix lengths by their maximal suffix repetition.

For n >= 2 the indices split three ways:

  * G:  e(n) > alpha^2, where e(n) is the largest exponent over all
        suffixes of the length-n prefix of the infinite Fibonacci word;
  * B1: n = F_i - F_j - 1 with i >= 5 and 3 <= j <= i - 2;
  * B2: n = F_i - F_{2j+1} with i >= 5 and 1 <= j <= (i - 3) / 2.

FAMILIES holds B1 and B2 and the witnesses of their lemmas.

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
from .fibword import (TABLE_LIMIT, ExponentRecord, exponent_table,
                      generate_prefix, has_period)
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
    compile_predicate's memo.  largest_index_below looks up only
    ffactoreq and suff, free after a session in this process compiled
    them, and compiles one formula, its M_{p/q}, against this env as it
    is: nothing is copied or defined.
    """
    env = logic.PredicateEnv()
    env.load(script_text("good_partition.wal"))
    return env


def good_automaton() -> au.SyncDFA:
    return session_env().lookup("good").dfa


@lru_cache(maxsize=2)
def family_automaton(family: str) -> au.SyncDFA:
    """One-track automaton of the n of family "b1" or "b2"."""
    rel = session_env().lookup(family).dfa  # tracks (n, x, y)
    return au.project(au.project(rel, 2), 1)


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
    rows sum to at most twice those of the last.  The doubling stops at
    TABLE_LIMIT, so only a request past it is refused.
    """
    global _TABLE
    _check_range("the e(n) table", n_max, 1)
    if n_max > len(_TABLE):
        _TABLE = exponent_table(max(n_max, min(2 * len(_TABLE),
                                               TABLE_LIMIT)))
        _TABLE.flags.writeable = False
    return _TABLE[:n_max]


def exponent_record(n: int) -> ExponentRecord:
    if n < 1:
        raise ValueError("e(n) needs n >= 1")
    x, y = ensure_table(n)[n - 1].tolist()
    return ExponentRecord(n, x, y)


# ---------------------------------------------------------------------------
# the two witness families
#
# A witness of Lemma 1 or 2 is a pair (m, p): the last m letters of the
# prefix of length n have period p.  Read as (numerator, denominator),
# denominator positive and not reduced, the same pairs are the bounds of
# the crossover analysis (fibwalk.identities).

Pair = tuple[int, int]


def f_val(i: int, j: int) -> Pair:
    """(F_j - 1)/F_{j-2}; the suffix-repetition lower bound family."""
    if fib(j - 2) <= 0:
        raise ValueError(f"f(i,{j}) needs F_{{j-2}} > 0 (j >= 3)")
    return fib(j) - 1, fib(j - 2)


def g_val(i: int, j: int) -> Pair:
    """(F_i - F_j - 1)/F_{i-2}; the whole-prefix-period bound family."""
    if fib(i - 2) <= 0:
        raise ValueError(f"g({i},j) needs F_{{i-2}} > 0 (i >= 3)")
    return fib(i) - fib(j) - 1, fib(i - 2)


def r_val(i: int, j: int) -> Pair:
    """F_{2j+1}/F_{2j-1} (independent of i; kept two-argument to match g)."""
    if fib(2 * j - 1) <= 0:
        raise ValueError(f"r(i,{j}) needs F_{{2j-1}} > 0 (j >= 0)")
    return fib(2 * j + 1), fib(2 * j - 1)


def s_val(i: int, j: int) -> Pair:
    """(F_i - F_{2j+1})/F_{i-2}."""
    if fib(i - 2) <= 0:
        raise ValueError(f"s({i},j) needs F_{{i-2}} > 0")
    return fib(i) - fib(2 * j + 1), fib(i - 2)


# family -> the admissible j of each i, the crossover index j' of i, and
# the witnesses of (i, j): the whole prefix, so n(i, j) is its m, and a
# suffix
FAMILIES = {
    "b1": {"js": lambda i: range(3, i - 1), "j_prime": lambda i: -(-i // 2),
           "prefix": g_val, "suffix": f_val},
    "b2": {"js": lambda i: range(1, (i - 3) // 2 + 1),
           "j_prime": lambda i: i // 6,
           "prefix": s_val, "suffix": r_val},
}


def witness_pairs(family: str, n_max: int) -> list[tuple[int, int, int]]:
    """Every (n, i, j) of the family with n <= n_max and i >= 5, by (n, i).

    Both families subtract at most F_{i-2} from F_i, so every n of i is
    at least F_{i-1} - 1, which ends the walk over i.
    """
    fam = FAMILIES[family]
    out = []
    i = 5
    while fib(i - 1) - 1 <= n_max:
        out += [(n, i, j) for j in fam["js"](i)
                if (n := fam["prefix"](i, j)[0]) <= n_max]
        i += 1
    return sorted(out)


def _witness_periods(family: str, n_max: int) -> list[tuple]:
    """(n, i, j, whether the whole-prefix witness holds, whether the
    suffix witness holds) for each witness pair up to n_max."""
    word, fam = generate_prefix(n_max), FAMILIES[family]
    out = []
    for n, i, j in witness_pairs(family, n_max):
        (m, p), (k, q) = fam["prefix"](i, j), fam["suffix"](i, j)
        out.append((n, i, j, has_period(word[n - m:n], p),
                    has_period(word[n - k:n], q)))
    return out


# ---------------------------------------------------------------------------
# sweep verifications


def partition_report(n_max: int) -> dict:
    """Totality and unambiguity of the three-way split on [2, n_max]."""
    _check_range("partition", n_max, 2)
    x, y = ensure_table(n_max)[1:].T
    ns = np.arange(2, n_max + 1, dtype=np.int64)
    g = au.accepts_batch(good_automaton(), ns)
    b1, b2 = (au.accepts_batch(family_automaton(f), ns) for f in FAMILIES)
    with_b1, with_b2 = (np.isin(ns, [n for n, _, _ in witness_pairs(f, n_max)])
                        for f in FAMILIES)
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
    checked = _witness_periods("b1", n_max)
    failures = [[n, i, j] for n, i, j, whole, tail in checked
                if not (whole or tail)]
    return {"claim": "lemma1", "range": [2, n_max], "verdict": not failures,
            "witness_pairs": len(checked),
            "both_alternatives": sum(whole and tail
                                     for _, _, _, whole, tail in checked),
            "failures": failures[:20]}


def lemma2_report(n_max: int) -> dict:
    """Period F_{i-2} for every B2 witness; the extra suffix claim, period
    F_{2j-1} on the suffix of length F_{2j+1}, for j >= 2."""
    _check_range("lemma2", n_max, 2)
    checked = _witness_periods("b2", n_max)
    failures = [[n, i, j] for n, i, j, whole, tail in checked
                if not (whole and (tail or j < 2))]
    return {"claim": "lemma2", "range": [2, n_max], "verdict": not failures,
            "witness_pairs": len(checked), "failures": failures[:20]}


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

    The answer is the largest member of the complement of M_{p/q}, a
    finite set below alpha^2, read off the one compiled formula by
    `automata.largest_accepted`'s pass over its states; no second
    formula is compiled.  Then the exponent oracle confirms e(n) < p/q
    at the answer and e(m) >= p/q for the next _ORACLE_MARGIN values of m.
    """
    if q < 1:
        raise ValueError("denominator must be >= 1")
    if p <= q:
        raise ValueError(f"{p}/{q} <= 1 but every exponent is >= 1; "
                         "no index lies below")
    if exceeds_alpha_squared(p, q):
        raise ValueError(f"{p}/{q} >= alpha^2: indices below it never "
                         "run out, so no largest one exists")
    n_star = au.largest_accepted(au.complement(ratio_reach_automaton(p, q)))
    if n_star is None:
        raise AssertionError(f"the complement of M_{{{p}/{q}}} has no "
                             "largest member")
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
