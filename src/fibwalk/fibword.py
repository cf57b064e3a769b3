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
from .numeration import fib_index, zeck_encode


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
    return p >= len(w) or w[p:] == w[:-p]


def is_alpha_power(w: str, alpha: tuple[int, int, int, int]) -> bool:
    """|w| == ceil(alpha * per(w)) for alpha >= 1 given exactly.

    alpha is a quadratic (a, b, r, c) denoting (a + b*sqrt(r))/c, with
    b >= 0 and c >= 1; a rational alpha is (a, 0, 0, c).
    """
    if not w:
        raise ValueError("is_alpha_power of empty word")
    a, b, r, c = alpha
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


_BAND = 8192  # checkpoints per batch of LCE queries
_LIFT = 1 << 16  # adjacent suffix pairs per lifting step


class _LCE:
    """Exact longest common extension over a byte array f of length N.

    Called on index arrays a and b, with a != b in 0..N (N is the empty
    suffix), it gives the lengths of the longest common prefixes of f[a:]
    and f[b:].  Each is a range minimum over the LCP array between the
    two suffixes' ranks: the suffix array by prefix doubling, the LCP
    array by binary lifting over the doubling rounds' ranks, and a sparse
    table whose level comes from an integer log table.  Every kept array
    is int32.
    """

    def __init__(self, f: np.ndarray):
        n = len(f)
        present = np.zeros(256, dtype=np.int32)
        present[f] = 1
        rank = (np.cumsum(present, dtype=np.int32) - 1)[f]  # dense from 0
        sa = np.argsort(rank)
        # levels[k][i] ranks f[i:i + 2^k], cut at the end of f, so equal
        # ranks mean equal factors; the -1 at index N ends every match
        levels = []
        k = 1
        while rank[sa[-1]] < n - 1:  # ties left; at the latest once 2k >= N
            levels.append(np.append(rank, np.int32(-1)))
            key = rank.astype(np.int64) * (n + 1)  # (rank, second + 1)
            key[:n - k] += rank[k:]
            key[:n - k] += 1
            sa = np.argsort(key)
            key = key[sa]
            rank = np.empty(n, dtype=np.int32)
            rank[sa[0]] = 0
            rank[sa[1:]] = np.cumsum(key[1:] != key[:-1], dtype=np.int32)
            del key
            k *= 2
        # lcp[r] = LCP(f[sa[r-1]:], f[sa[r]:]), lifted from the top level
        # down: the level of 2^j symbols adds 2^j where the next 2^j
        # symbols after the part already matched agree.  Distinct suffixes
        # differ within the 2k symbols the last round ranked, so the sum
        # is exact, and it never reaches past the sentinel.  lcp[0] and
        # lcp[N], the empty suffix's rank, stay 0.  Each level is dropped
        # once used, and pairs are lifted in chunks of `_LIFT`.
        lcp = np.zeros(n + 1, dtype=np.int32)
        while levels:
            level = levels.pop()
            k //= 2
            for lo in range(1, n, _LIFT):
                hi = min(lo + _LIFT, n)
                h = lcp[lo:hi]
                a, b = sa[lo - 1:hi - 1] + h, sa[lo:hi] + h
                h[level[a] == level[b]] += k
            del level
        del sa
        self.rank = np.append(rank, np.int32(n))
        levels = n.bit_length()  # a query range spans at most N entries
        self.table = np.zeros((levels, n + 1), dtype=np.int32)
        self.table[0] = lcp
        for k in range(1, levels):  # table[k, i] = min lcp[i:i + 2^k]
            w = 1 << (k - 1)
            np.minimum(self.table[k - 1, :-w], self.table[k - 1, w:],
                       out=self.table[k, :-w])
        self.log = np.zeros(n + 1, dtype=np.int32)
        for k in range(1, levels):
            self.log[1 << k:] += 1

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ra, rb = self.rank[a], self.rank[b]
        lo = np.minimum(ra, rb) + 1
        hi = np.maximum(ra, rb)
        k = self.log[hi - lo + 1]
        return np.minimum(self.table[k, lo],
                          self.table[k, hi + 1 - (np.int32(1) << k)])


def _improve(best_x: np.ndarray, best_y: np.ndarray, i: np.ndarray,
             x: np.ndarray, p: int) -> None:
    """Records i (distinct) take (x, p) where x/p is strictly larger."""
    better = x * best_y[i] > best_x[i] * p
    best_x[i[better]] = x[better]
    best_y[i[better]] = p


def _runs(fwd: _LCE, bwd: _LCE, n_max: int, start: int) -> np.ndarray:
    """Maximal p-periodic intervals [s, e) with e - s >= 2p and e >= start.

    Rows (p, s, e), one per interval, by ascending p.  Queried at
    checkpoints j = i*p in bands of `_BAND`; an interval ending at e has
    one at some j >= e - 2p, so checkpoints below start - 2p are skipped.
    An interval is kept at its first checkpoint (B < p), or at the first
    one queried when the checkpoints before it were skipped.
    """
    p = np.arange(1, n_max // 2 + 1, dtype=np.int32)
    first = np.maximum((start - p - 1) // p, 0)
    count = np.maximum((n_max - p - 1) // p + 1 - first, 0)
    ends = np.cumsum(count)
    found = [np.zeros((3, 0), dtype=np.int32)]
    for lo in range(0, int(ends[-1]) if ends.size else 0, _BAND):
        g = np.arange(lo, min(lo + _BAND, int(ends[-1])))
        k = np.searchsorted(ends, g, side="right")
        per = p[k]
        i = g - ends[k] + count[k] + first[k]
        j = (i * per).astype(np.int32)
        fw = fwd(j, j + per)
        bw = bwd(n_max - j, n_max - j - per)
        run = np.stack([per, j - bw, j + per + fw])
        once = (bw < per) | (i == first[k])
        found.append(run[:, (fw + bw >= per) & once & (run[2] >= start)])
    return np.concatenate(found, axis=1)


def _run_records(w: str, start: int) -> np.ndarray:
    """(x, y) records of w[:n] for n = start..len(w), from the runs of w.

    w is any word over one-byte symbols; `exponent_table` gives the
    argument.  X_p(n) = n - s on each run [s, e) for n in [s + 2p, e],
    and X_p(n) = p + min(LCS(n, n - p), n - p) for the records left
    below exponent 2, where LCS is the longest common suffix of w[:n]
    and w[:n - p].
    """
    n_max = len(w)
    f = np.frombuffer(w.encode("ascii"), dtype=np.uint8)
    fwd, bwd = _LCE(f), _LCE(f[::-1])  # bwd(N - a, N - b) = LCS(a, b)
    best_x = np.ones(n_max + 1 - start, dtype=np.int64)  # indexed by n - start
    best_y = np.ones(n_max + 1 - start, dtype=np.int64)
    runs = _runs(fwd, bwd, n_max, start)
    del fwd  # only bwd is queried below
    period_at = np.flatnonzero(np.diff(runs[0])) + 1
    for p, s, e in np.split(runs, period_at, axis=1) if runs.size else ():
        p = int(p[0])
        lo = np.maximum(s + 2 * p, start)
        size = e + 1 - lo
        offset = np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)
        n = np.repeat(lo, size) + offset
        _improve(best_x, best_y, n - start, n - np.repeat(s, size), p)
    low = np.flatnonzero(best_x < 2 * best_y) + start  # no square suffix
    for p in range(1, int(low[-1]) if low.size else 0):
        n = low[low > p]
        x = p + np.minimum(bwd(n_max - n, n_max - n + p), n - p)
        _improve(best_x, best_y, n - start, x, p)
    return np.column_stack((best_x, best_y))


def exponent_table(n_max: int, start: int = 1) -> np.ndarray:
    """e(n) records for n = start..n_max, from the runs of the prefix.

    One int64 row (x, y) per n, in order: the record of n is row
    n - start.

    For a period p < n, let X_p(n) be the length of the longest suffix of
    f[0..n-1] with period p.  Lengths n <= p give exponent <= 1, which
    the record (1, 1) of the one-symbol suffix already attains.  Every
    suffix, of length x and least period q, has x <= X_q(n), so the
    largest X_p(n)/p is e(n).

    Checkpoints.  A run is a maximal p-periodic interval [s, e) of length
    >= 2p.  It holds a multiple j of p in [s, s + p), and j + p < e; with
    F = LCE(j, j + p) forward and B the common extension backward from
    j and j + p, the run is [j - B, j + p + F), and F + B = e - s - p >= p.
    Conversely any checkpoint with F + B >= p gives a run.  So querying
    j = i*p for every p <= N/2 finds every run; a run is taken once, at
    its first checkpoint, the one with B < p.  Two runs of one period
    overlap in fewer than p positions, so each n lies in [s + 2p, e] for
    at most one of them, where X_p(n) = n - s.

    Below exponent 2.  The runs give X_p(n) only where X_p(n) >= 2p.
    Where e(n) >= 2 that loses nothing, as a ratio below 2 can neither
    beat nor tie the record.  An n whose record stays below 2 has no
    square suffix, and its best X_p(n)/p lies in no run; its record is
    taken directly from X_p(n) = p + min(LCS(n, n - p), n - p) over
    every p < n, LCS being the backward LCE.  On the Fibonacci word
    these n are 1, 2, 3 and 5.

    Ties.  The record keeps the largest ratio, compared cross-multiplied
    in int64, and among ties the smallest X_p: p ascends and only a
    larger ratio replaces the record, so the smallest tied p, whose
    X_p = e(n)*p is smallest, stays.  A suffix of length x with x/q =
    e(n) has X_q = x, as X_q/q cannot exceed e(n); so the smallest tied
    X_p is the shortest suffix of exponent e(n).  Its least period q <= p
    has X_q >= X_p, so X_q/q >= e(n) forces q = p.  This is the record
    `_sweep_chunk` keeps: the shortest suffix of the largest exponent,
    with y its least period.

    Cost.  Each call builds forward and backward LCE over f[0..n_max-1]:
    the suffix array in O(log N) rounds of one argsort each, keeping each
    round's int32 ranks; the LCP array from those ranks by binary
    lifting, one vectorized step per round, dropping each round's ranks
    once used; and then a sparse table of (log2 N + 1) x (N + 1) int32
    entries, the largest allocation.  There are about N ln N
    checkpoints, each one O(1) query, made in bands of `_BAND` so the
    query arrays stay small.  Applying the runs costs one step per
    (n, p) with a square suffix of period p; on the Fibonacci word,
    whose periods are Fibonacci numbers, that is O(N log N).  The direct
    path costs n queries for each n it serves.  The records are two
    int64 columns, with no Python object per n: to 10^6 the call takes
    about 7.5 s and peaks near 245 MB (13 s and 325 MB with Kasai's scan
    and a list of records), on one core of a shared 2-core x86-64 box.
    Checkpoints whose runs end before `start` are skipped, and runs are
    maximal in the whole prefix, so a table started at `start` equals
    the tail of the full table.
    """
    if start < 1:
        raise ValueError("e(n) needs n >= 1")
    if n_max < start:
        return np.zeros((0, 2), dtype=np.int64)
    return _run_records(generate_prefix(n_max), start)


def check_periods_fibonacci(n_max: int) -> bool:
    """Every factor of f[0..n_max-1] has a Fibonacci least period."""
    return all(fib_index(p) is not None for p in periods_found(n_max))


def periods_found(n_max: int) -> set[int]:
    """All least periods over factors f[i..j], j < n_max.

    For each start i one failure pass over f[i..] covers every end j:
    f[i..i+t] has least period t + 1 - pi[t].
    """
    prefix = generate_prefix(n_max)
    return {t + 1 - k for i in range(n_max)
            for t, k in enumerate(failure_function(prefix[i:]))}
