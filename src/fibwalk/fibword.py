"""The Fibonacci word and the string-algorithm oracle for suffix exponents.

Everything in this module works directly on symbols, independent of the
automaton machinery, so it can serve as the ground truth the compiled
automata are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import min_ceil_multiple
from .numeration import zeck_encode

# quadratics (a, b, r, c) meaning (a + b*sqrt(r)) / c
ALPHA = (1, 1, 5, 2)
ALPHA_SQUARED = (3, 1, 5, 2)
SQRT2 = (0, 1, 2, 1)


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
    digits = zeck_encode(n).digits
    return 1 if digits.endswith("1") else 0


def fib_word_dfao() -> dict:
    """Two-state automaton with output computing f[n] from the msd-fib digits.

    Reading the representation msd-first, the state simply tracks the last
    digit read, and the output of a state is that digit.
    """
    return {
        "states": 2,
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


def exponent(w: str) -> Fraction:
    """|w| / per(w) as an exact rational."""
    return Fraction(len(w), least_period(w))


def has_period(w: str, p: int) -> bool:
    """w[i] = w[i+p] wherever defined; vacuously true for p >= len(w)."""
    if p < 1:
        raise ValueError("period must be >= 1")
    return all(w[i] == w[i + p] for i in range(len(w) - p))


def is_alpha_power(w: str, alpha) -> bool:
    """|w| == ceil(alpha * per(w)) for alpha >= 1 given exactly.

    alpha may be an int, a Fraction, or an (a, b, r, c) quadratic tuple
    denoting (a + b*sqrt(r))/c.
    """
    if not w:
        raise ValueError("is_alpha_power of empty word")
    if isinstance(alpha, int):
        quad = (alpha, 0, 0, 1)
    elif isinstance(alpha, Fraction):
        quad = (alpha.numerator, 0, 0, alpha.denominator)
    else:
        quad = tuple(alpha)
    a, b, r, c = quad
    return len(w) == min_ceil_multiple(a, b, r, c, least_period(w))


@dataclass(frozen=True)
class ExponentRecord:
    """Maximal-exponent suffix of f[0..n-1]: length x, period y."""

    n: int
    x: int
    y: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.x, self.y)

    def verify(self, prefix: str | None = None) -> bool:
        """Direct symbol check that the claimed suffix has the claimed period."""
        w = (prefix or generate_prefix(self.n))[self.n - self.x:self.n]
        if len(w) != self.x or not (1 <= self.y <= self.x <= self.n):
            return False
        return all(w[i] == w[i + self.y] for i in range(self.x - self.y))


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


def _sweep_chunk(rev: str, total: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Records for n in [lo, hi): failure array of each reversed prefix.

    The KMP route, kept independent of `exponent_table` so that each
    checks the other.  The reversal of f[0..n-1] is rev[total-n:], and pi
    over it yields the least period of every suffix of f[0..n-1] in one
    O(n) pass.  The pi buffer is reused across n; pi[0] is never written
    so it stays 0.
    """
    out = []
    pi = [0] * total
    for n in range(lo, hi):
        v = rev[total - n:]
        k = 0
        best_x, best_y = 1, 1
        for i in range(1, n):
            c = v[i]
            while k and v[k] != c:
                k = pi[k - 1]
            if v[k] == c:
                k += 1
            pi[i] = k
            p = i + 1 - k
            if (i + 1) * best_y > best_x * p:
                best_x, best_y = i + 1, p
        out.append((best_x, best_y))
    return out


def exponent_record_fast(n: int) -> ExponentRecord:
    """Single e(n) record in O(n), for values too large to sweep up to."""
    if n < 1:
        raise ValueError("e(n) needs n >= 1")
    rev = generate_prefix(n)[::-1]
    x, y = _sweep_chunk(rev, n, n, n + 1)[0]
    return ExponentRecord(n, x, y)


def _last_mismatch(f: np.ndarray, p: int, k: int) -> int:
    """Largest j < k with f[j+p] != f[j], or -1; searched back in doubling chunks."""
    width = 16
    while k > 0:
        lo = max(0, k - width)
        hits = np.flatnonzero(f[lo + p:k + p] != f[lo:k])
        if hits.size:
            return lo + int(hits[-1])
        k, width = lo, 2 * width
    return -1


def _run_records(w: str, start: int) -> list[tuple[int, int]]:
    """(x, y) records of w[:n] for n = start..len(w), by per-period runs.

    w is any word over one-byte symbols; `exponent_table` gives the
    argument.  Each period's runs start from its last mismatch before
    the window, so the cost per period is the window plus the distance
    back to that mismatch.  Memory is O(len(w)).
    """
    n_max = len(w)
    f = np.frombuffer(w.encode("ascii"), dtype=np.uint8)
    best_x = np.ones(n_max + 1 - start, dtype=np.int64)  # indexed by n - start
    best_y = np.ones(n_max + 1 - start, dtype=np.int64)
    ks = np.arange(n_max, dtype=np.int64)
    for p in range(1, n_max):
        lo = max(p + 1, start)
        k0 = lo - p - 1  # n = lo..n_max sits at k = n - p - 1 = k0..
        k = ks[k0:n_max - p]  # k = j - p for j = lo-1..n_max-1
        miss = f[k0 + p:] != f[k0:n_max - p]
        last = np.maximum.accumulate(np.where(miss, k, _last_mismatch(f, p, k0)))
        x = p + k - last  # X_p(n)
        bx, by = best_x[lo - start:], best_y[lo - start:]
        better = x * by > bx * p
        bx[better] = x[better]
        by[better] = p
    return list(zip(best_x.tolist(), best_y.tolist()))


def exponent_table(n_max: int, start: int = 1) -> list[ExponentRecord]:
    """e(n) records for n = start..n_max, one integer numpy pass per period.

    For a period p and an index j >= p, let R_p(j) be the length of the
    run of matches f[i] = f[i-p] that ends at j.  For n > p, a suffix of
    f[0..n-1] of length x >= p has period p exactly when its last x - p
    positions all match p symbols back, that is when x - p <= R_p(n-1);
    and R_p(n-1) <= n - p.  So X_p(n) = p + R_p(n-1) is the length of the
    longest suffix with period p.  Lengths n <= p give exponent <= 1, which
    the record (1, 1) of the one-symbol suffix already attains.

    Every suffix, of length x and least period q, has x <= X_q, so the
    largest X_p/p is e(n).  The record keeps that largest ratio, compared
    cross-multiplied in int64, and among ties the smallest X_p: p ascends
    and only a larger ratio replaces the record, so the smallest tied p,
    whose X_p = e(n)*p is smallest, stays.  A suffix of length x with
    x/q = e(n) has X_q = x, as X_q/q cannot exceed e(n); so the smallest
    tied X_p is the shortest suffix of exponent e(n).  Its least period
    q <= p has X_q >= X_p, so X_q/q >= e(n) forces q = p.  This is the
    record `_sweep_chunk` keeps: the shortest suffix of the largest
    exponent, with y its least period.

    A run ending in the window [start, n_max] is accumulated from the
    last mismatch before the window, so a table started at `start`
    equals the tail of the full table.
    """
    if start < 1:
        raise ValueError("e(n) needs n >= 1")
    if n_max < start:
        return []
    pairs = _run_records(generate_prefix(n_max), start)
    return [ExponentRecord(n, x, y) for n, (x, y) in enumerate(pairs, start=start)]


def check_periods_fibonacci(n_max: int) -> bool:
    """Every factor of f[0..n_max-1] has a Fibonacci least period."""
    return periods_found(n_max) <= _fib_set_upto(n_max)


def periods_found(n_max: int) -> set[int]:
    """All least periods over factors f[i..j], j < n_max.

    For each start i one incremental failure pass covers every end j.
    """
    prefix = generate_prefix(n_max)
    found: set[int] = set()
    for i in range(n_max):
        w = prefix[i:]
        m = len(w)
        pi = [0] * m
        k = 0
        found.add(1)
        for t in range(1, m):
            c = w[t]
            while k and w[k] != c:
                k = pi[k - 1]
            if w[k] == c:
                k += 1
            pi[t] = k
            found.add(t + 1 - k)
    return found


def _fib_set_upto(limit: int) -> set[int]:
    s = set()
    a, b = 1, 2
    while a <= limit:
        s.add(a)
        a, b = b, a + b
    return s

