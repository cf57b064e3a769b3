"""Exact Fibonacci/Lucas arithmetic and the Zeckendorf numeration system.

Numbers are written msd-first over digits {0,1} with weights F_2, F_3, ...
counted from the least significant end.  The canonical representation has
no two adjacent 1 digits and no leading zero; the empty string denotes 0.
Everything here is pure integer arithmetic, no floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0 by fast doubling."""
    if n == 0:
        return (0, 1)
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return (d, c + d)
    return (c, d)


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """F_n for any integer n, F_0 = 0, F_1 = 1.

    Negative indices follow F_{-n} = (-1)^{n+1} F_n, the unique extension
    satisfying the recurrence in both directions.
    """
    if n >= 0:
        return _fib_pair(n)[0]
    k = -n
    s = _fib_pair(k)[0]
    return s if k % 2 == 1 else -s


def lucas(n: int) -> int:
    """L_n for any integer n, L_0 = 2, L_1 = 1.

    L_n = F_{n+1} + F_{n-1}; the reflection works out to
    L_{-n} = (-1)^n L_n (note the sign differs from the Fibonacci case:
    L_{-1} = -1, L_{-2} = 3, L_{-3} = -4).
    """
    return fib(n + 1) + fib(n - 1)


# F_2, F_3, ...: only ever replaced by a longer tuple, so the process
# keeps one copy of the weights, not one per value encoded
_WEIGHTS: tuple[int, ...] = (1, 2)


def _fib_weights_upto(limit: int) -> tuple[int, ...]:
    """Ascending weights F_2, F_3, ... while F_k <= limit (at least F_2)."""
    global _WEIGHTS
    ws = _WEIGHTS
    if ws[-1] <= limit:
        grown = list(ws)
        while grown[-1] <= limit:
            grown.append(grown[-1] + grown[-2])
        _WEIGHTS = ws = tuple(grown)
    return ws[:max(1, bisect_right(ws, limit))]


def zeck_encode(n: int) -> str:
    """Canonical msd-first Zeckendorf digit string of n >= 0, by the
    greedy algorithm; 0 is the empty string."""
    if n < 0:
        raise ValueError("zeck_encode requires n >= 0")
    if n == 0:
        return ""
    ws = _fib_weights_upto(n)
    digits = []
    rem = n
    for w in reversed(ws):
        if w <= rem:
            digits.append("1")
            rem -= w
        else:
            digits.append("0")
    # greedy never leaves a leading zero: the largest weight always fits
    return "".join(digits)


def zeck_decode(digits: str) -> int:
    """Value of a digit string under weights F_2, F_3, ... from the lsd.

    Canonicality is not required; "11" decodes to F_3 + F_2 = 3.
    """
    total = 0
    a, b = 1, 2  # F_2, F_3
    for d in reversed(digits):
        if d == "1":
            total += a
        elif d != "0":
            raise ValueError(f"invalid digit {d!r}")
        a, b = b, a + b
    return total


def floor_alpha(n: int) -> int:
    """floor(alpha*n) for n >= 0, alpha = (1+sqrt 5)/2, exactly.

    alpha*n = (n + sqrt(5 n^2))/2 and 5n^2 is never a perfect square for
    n >= 1, so floor((n + isqrt(5 n^2))/2) is exact.
    """
    if n < 0:
        raise ValueError("floor_alpha requires n >= 0")
    return (n + math.isqrt(5 * n * n)) // 2


def floor_alpha2(n: int) -> int:
    """floor(alpha^2 * n) exactly.  alpha^2 = alpha + 1, so this is n + floor(alpha*n)."""
    return n + floor_alpha(n)


def fib_index(n: int) -> int | None:
    """The index k >= 2 with F_k = n, or None if n is not a positive Fibonacci number.

    Ambiguity note: 1 = F_1 = F_2 reports 2, matching the numeration weights.
    """
    if n < 1:
        return None
    ws = _fib_weights_upto(n)  # F_2, ..., F_k <= n
    return len(ws) + 1 if ws[-1] == n else None
