"""Certified sign computations for expressions mixing integers and square roots.

The verification paths never touch floating point: signs of sums
sum_i c_i * sqrt(r_i) are decided with integer square roots at increasing
precision, and ratio-vs-alpha^2 comparisons reduce to squaring.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def sqrt_bounds(r: int, bits: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) with lo <= sqrt(r)*2^bits <= hi, hi-lo <= 1.

    lo == hi exactly when r << (2*bits) is a perfect square, i.e. when r is.
    """
    if r < 0:
        raise ValueError("negative radicand")
    scaled = r << (2 * bits)
    lo = math.isqrt(scaled)
    hi = lo if lo * lo == scaled else lo + 1
    return lo, hi


_START_BITS = 32  # sign_sqrt_sum's first working precision


def sign_sqrt_sum(terms: Sequence[tuple[int, int]],
                  max_bits: int = 4096) -> int:
    """Sign of sum c*sqrt(r) over (c, r) pairs: -1, 0, or +1.

    Doubles the working precision from _START_BITS bits until the
    enclosing interval excludes 0.
    Returns 0 only when every radicand with a nonzero coefficient is a
    perfect square and the exact total is 0; if the true value is an
    irrational 0-crossing mix the caller must have ruled out equality,
    otherwise the precision cap is hit and ArithmeticError is raised.
    """
    bits = _START_BITS
    while bits <= max_bits:
        lo_total = 0
        hi_total = 0
        all_exact = True
        for c, r in terms:
            if c == 0:
                continue
            lo, hi = sqrt_bounds(r, bits)
            if lo != hi:
                all_exact = False
            if c >= 0:
                lo_total += c * lo
                hi_total += c * hi
            else:
                lo_total += c * hi
                hi_total += c * lo
        if lo_total > 0:
            return 1
        if hi_total < 0:
            return -1
        if all_exact and lo_total == 0 and hi_total == 0:
            return 0
        bits *= 2
    raise ArithmeticError("sign not separated at precision cap; "
                          "possible exact zero with irrational parts")


def cmp_ratio_alpha2(x: int, y: int) -> int:
    """Compare x/y with alpha^2 = (3+sqrt5)/2 for y >= 1: -1 or +1.

    x/y > alpha^2 iff 2x-3y > y*sqrt5; equality is impossible since
    sqrt5 is irrational, so squaring decides.
    """
    if y < 1:
        raise ValueError("denominator must be >= 1")
    d = 2 * x - 3 * y
    if d <= 0:
        return -1
    return 1 if d * d > 5 * y * y else -1


def exceeds_alpha_squared(x: int, y: int) -> bool:
    """True iff the rational x/y exceeds alpha^2 (y >= 1)."""
    return cmp_ratio_alpha2(x, y) > 0


_MASK_LIMIT = 1 << 30  # below it, exceeds_alpha_squared_mask fits int64


def exceeds_alpha_squared_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exceeds_alpha_squared on each row of two integer columns, exactly.

    With |x| and y below 2^30, d = 2x - 3y > 0 is below 2^31, so d*d
    and 5*y*y are below 2^63 and the squaring test runs in int64.  Where
    any value is larger, every row takes the scalar test instead.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if y.size and y.min() < 1:
        raise ValueError("denominator must be >= 1")
    if ((x >= _MASK_LIMIT) | (x <= -_MASK_LIMIT) | (y >= _MASK_LIMIT)).any():
        return np.array([exceeds_alpha_squared(a, b)
                         for a, b in zip(x.tolist(), y.tolist())], dtype=bool)
    d = np.maximum(2 * x - 3 * y, 0)
    return (d > 0) & (d * d > 5 * y * y)


def below_alpha2(p: int, q: int) -> bool:
    """True iff p/q < alpha^2 (q >= 1)."""
    return cmp_ratio_alpha2(p, q) < 0


def theorem_margin_sign(x: int, y: int, n: int) -> int:
    """Sign of x/y - alpha^2 + 3/sqrt(n), for y >= 1, n >= 1.

    Scaling by 2*y*sqrt(n) > 0 turns the margin into
    (2x-3y)*sqrt(n) - y*sqrt(5n) + 6y, a three-radical integer form.
    That value is never 0: if n = m^2 the sqrt5 part -y*m*sqrt5 survives;
    if n = 5m^2 it collapses to (2x-3y)*m*sqrt5 + y*(6-5m) and 5m = 6 is
    impossible; otherwise sqrt(n) does not lie in Q(sqrt5) so the
    combination with the rational 6y cannot vanish.
    """
    if y < 1 or n < 1:
        raise ValueError("y and n must be >= 1")
    sign = sign_sqrt_sum(((2 * x - 3 * y, n), (-y, 5 * n), (6 * y, 1)))
    if sign == 0:
        raise AssertionError("margin cannot be exactly zero")
    return sign


def min_ceil_multiple(a: int, b: int, r: int, c: int, p: int) -> int:
    """ceil(((a + b*sqrt(r)) / c) * p): least m with m*c >= a*p + b*p*sqrt(r).

    All of b, c, p, r must be >= 0 with c, p >= 1.  Exact: m*c - a*p is
    an integer, so it is >= b*p*sqrt(r) iff it is >= that root's ceiling.
    """
    if c < 1 or p < 1 or b < 0 or r < 0:
        raise ValueError("need c >= 1, p >= 1, b >= 0, r >= 0")
    square = b * b * p * p * r
    root = math.isqrt(square)
    root += root * root < square
    return -(-(a * p + root) // c)
