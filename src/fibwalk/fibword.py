"""The Fibonacci word and the string-algorithm oracle for suffix exponents.

Everything in this module works directly on symbols, independent of the
automaton machinery, so it can serve as the ground truth the compiled
automata are tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .numeration import _fib_weights_upto, zeck_encode
from .record import Record, _set

if TYPE_CHECKING:
    from fractions import Fraction


def generate_prefix(n: int) -> str:
    """First n symbols of the Fibonacci word f = 01001010...

    Built from X_1 = "1", X_2 = "0", X_k = X_{k-1} X_{k-2}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ""
    a, b = "1", "0"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def symbol_at(n: int) -> int:
    """f[n] as 0/1: the last Zeckendorf digit of n (0 for n = 0)."""
    return 1 if zeck_encode(n).endswith("1") else 0


def fib_word_dfao() -> dict:
    """Two-state automaton with output computing f[n] from the msd-fib digits.

    Reading the representation msd-first, the state simply tracks the last
    digit read, and the output of a state is that digit.
    """
    return {
        "initial": 0,
        "transition": ((0, 1), (0, 1)),  # [state][digit] -> digit
        "output": (0, 1),
    }


def failure_function(w: str) -> list[int]:
    """KMP failure array: pi[i] = length of the longest proper border of w[0..i]."""
    m = len(w)
    pi = [0] * m
    k = 0
    for i in range(1, m):
        c = w[i]
        while k and w[k] != c:
            k = pi[k - 1]
        if w[k] == c:
            k += 1
        pi[i] = k
    return pi


def least_period(w: str) -> int:
    """Smallest p >= 1 with w[i] = w[i+p] for all valid i."""
    if not w:
        raise ValueError("least_period of empty word")
    return len(w) - failure_function(w)[-1]


def has_period(w: str, p: int) -> bool:
    """w[i] = w[i+p] wherever defined; vacuously true for p >= len(w)."""
    if p < 1:
        raise ValueError("period must be >= 1")
    return p >= len(w) or w[p:] == w[:-p]


class ExponentRecord(Record):
    """Maximal-exponent suffix of f[0..n-1]: length x, period y."""

    __slots__ = ("n", "x", "y")

    def __init__(self, n: int, x: int, y: int):
        _set(self, "n", n)
        _set(self, "x", x)
        _set(self, "y", y)

    @property
    def exponent(self) -> Fraction:
        from fractions import Fraction  # kept off the import path
        return Fraction(self.x, self.y)

    def verify(self) -> bool:
        """Direct symbol check that the claimed suffix has the claimed period."""
        return (1 <= self.y <= self.x <= self.n and has_period(
            generate_prefix(self.n)[self.n - self.x:], self.y))


def e_of_n(n: int) -> ExponentRecord:
    """Largest suffix exponent of f[0..n-1], scanning every suffix length.

    Deliberately ignores any structure theory about which periods can occur;
    each suffix gets its own border array.  Ties on the exponent keep the
    shortest suffix, which the ascending scan with strict improvement gives
    for free.  O(n^2) overall.
    """
    if n < 1:
        raise ValueError("e(n) needs n >= 1")
    prefix = generate_prefix(n)
    best_x, best_y = 1, 1
    for x in range(1, n + 1):
        p = least_period(prefix[n - x:])
        if x * best_y > best_x * p:
            best_x, best_y = x, p
    return ExponentRecord(n, best_x, best_y)


def exponent_record_fast(n: int) -> ExponentRecord:
    """Single e(n) record in O(n) by the KMP route, the table's cross-check.

    Kept independent of `exponent_table` so that each checks the other.
    The failure array of the reversed prefix gives the least period of
    every suffix of f[0..n-1] in one pass: the suffix of length i + 1 has
    least period i + 1 - pi[i].
    """
    if n < 1:
        raise ValueError("e(n) needs n >= 1")
    best_x, best_y = 1, 1
    for i, k in enumerate(failure_function(generate_prefix(n)[::-1])):
        x, p = i + 1, i + 1 - k
        if x * best_y > best_x * p:
            best_x, best_y = x, p
    return ExponentRecord(n, best_x, best_y)


_BLOCK = 1 << 16  # rows of the table per block
# the largest n_max whose cross-multiplied ratios, at most n_max**2, stay
# below 2**63: math.isqrt(2**63 - 1)
TABLE_LIMIT = 3_037_000_499


def _last_mismatches(f: np.ndarray, p: int, lo: int, hi: int,
                     last: int) -> np.ndarray:
    """Last mismatch of period p before each n in lo+1..hi, on any word f.

    Entry n - lo - 1 is the largest t < n with t >= p and f[t] != f[t - p],
    or `last` if there is none in [lo, n): the value for n = lo, carried
    from the block before (p - 1 for the first block).  So the longest
    suffix of f[0..n-1] with period p, X_p(n), is n + p - 1 minus it, and
    the entry for n = hi is the carry into the next block.
    """
    mark = np.full(hi - lo, last, dtype=np.int64)
    s = min(max(lo, p), hi)  # no t >= p in the block when p >= hi
    t = np.flatnonzero(f[s:hi] != f[s - p:hi - p]) + s
    mark[t - lo] = t
    np.maximum.accumulate(mark, out=mark)
    return mark


def exponent_table(n_max: int) -> np.ndarray:
    """e(n) records for n = 1..n_max, from the Fibonacci periods.

    One int64 row (x, y) per n, in order: the record of n is row n - 1.

    For a period p, let X_p(n) be the length of the longest suffix of
    f[0..n-1] with period p.  With `last` the largest t < n such that
    t >= p and f[t] != f[t - p], or p - 1 if there is none, X_p(n) =
    n + p - 1 - last; it is n when p >= n.  Every suffix, of length x
    and least period q, has x <= X_q(n), and the suffix of length
    X_p(n) has exponent at least X_p(n)/p, so e(n) is the largest
    X_q(n)/q over the least periods q that occur.

    Premise.  Every factor of the Fibonacci word has a Fibonacci least
    period (Currie and Saari, 2009, for the factors of Sturmian words).
    The bundled `fib_periods.wal` proves it by automaton for every
    factor (`fibper`), and `periods_found` checks it by string on a
    range.  So p runs over the Fibonacci numbers below n_max only, about
    log_alpha(n_max) of them.  Without the premise each X_p(n)/p is still
    the exponent of a suffix over one of its periods, so each row is
    still a sound lower bound on e(n).

    Ties.  The record keeps the largest ratio, compared cross-multiplied
    in int64, and among ties the smallest p: p ascends and only a
    strictly larger ratio replaces the record, which starts as (1, 1),
    the one-symbol suffix.  A tied p has X_p = e(n)*p, and the least
    period q <= p of that suffix is a Fibonacci number with X_q/q >=
    e(n), so q = p.  The shortest suffix of exponent e(n), of length x
    and least period q, has X_q = x, as X_q/q cannot exceed e(n); so
    the smallest tied p is its q.  This is the record
    `exponent_record_fast` keeps: the shortest suffix of the largest
    exponent, with y its least period.

    Cost.  The rows are built in blocks of `_BLOCK` values of n, and each
    block takes one numpy pass per period: the mismatches f[t] !=
    f[t - p] and their running maximum by `np.maximum.accumulate` from the
    last mismatch carried over from the block before, in
    `_last_mismatches`, then the cross-multiplied comparison.  That is O(N log N) work, and the memory
    is the table's 16 bytes per row plus O(`_BLOCK`) per pass.  Every
    call builds from n = 1.  To 10^4 it takes about 3 ms, and to 10^6
    about 0.4 s with the process peaking near 50 MB, on one core of a
    shared 2-core x86-64 box.  An n_max above TABLE_LIMIT, where the
    int64 comparison could overflow, is refused before anything is
    allocated.
    """
    if n_max > TABLE_LIMIT:
        raise ValueError(f"the e(n) table reaches n = {TABLE_LIMIT:,} at "
                         f"most (its int64 ratio comparisons need "
                         f"n**2 < 2**63), got {n_max:,}")
    f = np.frombuffer(generate_prefix(n_max).encode("ascii"), dtype=np.uint8)
    periods = _fib_weights_upto(n_max - 1)  # 1, 2, 3, 5, ... < n_max
    last = [p - 1 for p in periods]  # no mismatch yet
    table = np.ones((n_max, 2), dtype=np.int64)
    for lo in range(0, n_max, _BLOCK):  # symbols f[lo:hi], n = t + 1
        hi = min(lo + _BLOCK, n_max)
        n = np.arange(lo + 1, hi + 1, dtype=np.int64)
        best_x, best_y = table[lo:hi].T
        for k, p in enumerate(periods):
            if p >= hi:  # X_p(n) = n <= p: a ratio of at most 1
                break
            mark = _last_mismatches(f, p, lo, hi, last[k])
            last[k] = int(mark[-1])
            x = n + (p - 1) - mark
            better = x * best_y > best_x * p
            best_x[better] = x[better]
            best_y[better] = p
    return table


def periods_found(n_max: int) -> set[int]:
    """All least periods over factors f[i..j], j < n_max.

    For each start i one failure pass over f[i..] covers every end j:
    f[i..i+t] has least period t + 1 - pi[t].
    """
    prefix = generate_prefix(n_max)
    return {t + 1 - k for i in range(n_max)
            for t, k in enumerate(failure_function(prefix[i:]))}
