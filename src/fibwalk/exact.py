"""Certified signs of numbers in Q(sqrt 5), on integers only.

Every irrational quantity the verification paths compare lies in
Q(sqrt 5), or in Q(sqrt 5) times sqrt(n).  sign_sqrt5 decides the sign
of a + b*sqrt(5) by squaring: when a and b differ in sign, a^2 against
5b^2 says which term is larger.  The ratio-vs-alpha^2 test and the
theorem margin are cleared of denominators and radicals into that form.
"""

from __future__ import annotations

import numpy as np


def sign_sqrt5(a: int, b: int) -> int:
    """Sign of a + b*sqrt(5) for integers a, b: -1, 0 or +1.

    It is 0 only at a = b = 0, as sqrt(5) is irrational.  Otherwise, if
    a and b share a sign or one is 0, that sign decides; if their signs
    differ, the larger of a^2 and 5b^2 says which term wins.
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > 5 * b * b else sb


def exceeds_alpha_squared(x: int, y: int) -> bool:
    """True iff the rational x/y exceeds alpha^2 = (3+sqrt5)/2 (y >= 1).

    x/y > alpha^2 iff 2x - 3y - y*sqrt5 > 0; equality cannot happen.
    """
    if y < 1:
        raise ValueError("denominator must be >= 1")
    return sign_sqrt5(2 * x - 3 * y, -y) > 0


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


def theorem_margin_sign(x: int, y: int, n: int) -> int:
    """Sign of x/y - alpha^2 + 3/sqrt(n), for y >= 1, n >= 1: -1 or +1.

    Scaled by 2y > 0 the margin is u + 6y/sqrt(n) with u = d - y*sqrt5,
    d = 2x - 3y.  If u > 0 it is positive.  Otherwise u < 0, and the sign
    is that of 6y - sqrt(n)*|u|, two positive terms, so squaring decides:
    36y^2 - n*u^2 = 36y^2 - n(d^2 + 5y^2) + 2ndy*sqrt5.  That is never 0:
    it would need d = 0, and then 5n = 36.
    """
    if y < 1 or n < 1:
        raise ValueError("y and n must be >= 1")
    d = 2 * x - 3 * y
    if sign_sqrt5(d, -y) > 0:
        return 1
    return sign_sqrt5(36 * y * y - n * (d * d + 5 * y * y), 2 * n * d * y)
