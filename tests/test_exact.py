"""Certified integer-only comparisons against quadratic irrationals."""

import ast
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from fibwalk import exact, numeration
from fibwalk import repetitions as rp
from fibwalk.exact import (below_alpha2, cmp_ratio_alpha2,
                           exceeds_alpha_squared, exceeds_alpha_squared_mask,
                           min_ceil_multiple, sign_sqrt_sum, sqrt_bounds,
                           theorem_margin_sign)
from fibwalk.numeration import fib

ALPHA2 = (3 + math.sqrt(5)) / 2


def test_sqrt_bounds_bracket():
    for r in [0, 1, 2, 3, 5, 10, 99, 10 ** 12 + 7]:
        for bits in [1, 8, 32]:
            lo, hi = sqrt_bounds(r, bits)
            assert hi - lo <= 1
            assert lo * lo <= r << (2 * bits) <= hi * hi
    with pytest.raises(ValueError):
        sqrt_bounds(-1, 8)


def test_sqrt_bounds_exact_squares():
    lo, hi = sqrt_bounds(49, 16)
    assert lo == hi == 7 << 16


def test_sign_sqrt_sum_basic():
    assert sign_sqrt_sum([(1, 2), (-1, 3)]) == -1
    assert sign_sqrt_sum([(3, 2), (-2, 3)]) == 1
    assert sign_sqrt_sum([(2, 9), (-3, 4)]) == 0
    assert sign_sqrt_sum([(5, 0), (0, 7)]) == 0
    # close call: 7*sqrt(2) vs sqrt(98) = 7*sqrt(2) exactly, perturbed
    assert sign_sqrt_sum([(7, 2), (-1, 98), (1, 1)]) == 1
    assert sign_sqrt_sum([(7, 2), (-1, 98), (-1, 1)]) == -1


def test_sign_sqrt_sum_irrational_zero_raises():
    # an exact zero with irrational parts never separates; the cap trips
    with pytest.raises(ArithmeticError):
        sign_sqrt_sum([(1, 2), (-1, 2)], max_bits=256)
    with pytest.raises(ArithmeticError):
        sign_sqrt_sum([(1, 8), (-2, 2)], max_bits=256)


def test_sign_sqrt_sum_cancels_perfect_squares():
    # rational parts that cancel exactly are recognized as zero
    assert sign_sqrt_sum([(1, 4), (-2, 1)]) == 0


def test_cmp_ratio_alpha2_brackets_the_constant():
    for y in range(1, 400):
        for x in range(1, 4 * y):
            want = 1 if x / y > ALPHA2 else -1
            # floats are safe as an oracle here: x/y never equals alpha^2
            assert cmp_ratio_alpha2(x, y) == want
    assert exceeds_alpha_squared(21, 8)  # 2.625 > 2.618
    assert not exceeds_alpha_squared(13, 5)  # 2.6 < 2.618
    assert below_alpha2(13, 5)
    assert not below_alpha2(21, 8)
    with pytest.raises(ValueError):
        cmp_ratio_alpha2(1, 0)


def assert_mask_matches_scalar(x, y):
    got = exceeds_alpha_squared_mask(np.array(x, dtype=np.int64),
                                     np.array(y, dtype=np.int64))
    assert got.dtype == bool and got.shape == (len(x),)
    assert got.tolist() == [exceeds_alpha_squared(a, b)
                            for a, b in zip(x, y)]


def test_mask_matches_scalar_on_the_oracle_table():
    x, y = rp.ensure_table(20000).T.tolist()
    assert_mask_matches_scalar(x, y)


def test_mask_matches_scalar_beside_alpha_squared():
    # F_{k+2}/F_k tends to alpha^2 from alternate sides; one off either way
    rows = [(fib(k + 2) + d, fib(k)) for k in range(1, 41) for d in (-1, 0, 1)]
    assert_mask_matches_scalar(*zip(*rows))
    assert len({exceeds_alpha_squared(*r) for r in rows}) == 2


def test_mask_at_and_past_the_int64_guard(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return cmp_ratio_alpha2(x, y) > 0

    monkeypatch.setattr(exact, "exceeds_alpha_squared", counted)
    top = (1 << 30) - 1  # the largest value the int64 test takes
    y = 410_000_000  # alpha^2 * y is just below 2^30
    below = (3 * y + math.isqrt(5 * y * y)) // 2
    edge = [(top, 1), (top, top), (-top, 1), (top, y), (below, y),
            (below + 1, y)]
    assert_mask_matches_scalar(*zip(*edge))
    del calls[:]
    exceeds_alpha_squared_mask(*np.array(edge).T)
    assert calls == []  # all below the guard: no scalar test
    # past it, each row takes the scalar test, exactly
    rows = [(fib(k + 2) + d, fib(k)) for k in range(41, 89) for d in (-1, 0, 1)]
    rows += [(1 << 30, 1), (5, 1 << 30), (-(1 << 30), 3), (1 << 62, 1)]
    assert_mask_matches_scalar(*zip(*rows))
    del calls[:]
    exceeds_alpha_squared_mask(*np.array(edge + rows[-1:]).T)
    assert len(calls) == len(edge) + 1
    with pytest.raises(ValueError):
        exceeds_alpha_squared_mask(np.array([3]), np.array([0]))


def test_convergents_straddle_alpha2():
    # F_{n+2} - alpha^2 F_n = beta^n: below for odd n, above for even n
    from fibwalk.numeration import fib
    for n in range(2, 60):
        side = cmp_ratio_alpha2(fib(n + 2), fib(n))
        assert side == (1 if n % 2 == 0 else -1)


def test_theorem_margin_sign_examples():
    # e(1) = 1 >= alpha^2 - 3: margin positive
    assert theorem_margin_sign(1, 1, 1) == 1
    # 3/2 - alpha^2 + 3/sqrt(3) > 0
    assert theorem_margin_sign(3, 2, 3) == 1
    # 1 - alpha^2 + 3/sqrt(400) = 1 - 2.618 + 0.15 < 0
    assert theorem_margin_sign(1, 1, 400) == -1
    with pytest.raises(ValueError):
        theorem_margin_sign(1, 0, 1)
    with pytest.raises(ValueError):
        theorem_margin_sign(1, 1, 0)


def test_theorem_margin_sign_matches_floats_when_far():
    for n in [1, 2, 3, 5, 10, 49, 100, 500]:
        for x, y in [(1, 1), (3, 2), (7, 3), (12, 5), (8, 3)]:
            margin = x / y - ALPHA2 + 3 / math.sqrt(n)
            if abs(margin) > 1e-9:
                assert theorem_margin_sign(x, y, n) == (
                    1 if margin > 0 else -1)


def test_min_ceil_multiple_is_ceiling():
    # against Fraction-based ceiling for perfect-square radicands
    for a, b, r, c in [(1, 1, 4, 2), (0, 1, 9, 1), (3, 2, 1, 5)]:
        val = Fraction(a + b * math.isqrt(r), c)
        for p in range(1, 50):
            assert min_ceil_multiple(a, b, r, c, p) == math.ceil(val * p)


def test_min_ceil_multiple_alpha_powers():
    # ceil(alpha^2 * p) with alpha^2 = (3 + sqrt5)/2
    for p in range(1, 2000):
        got = min_ceil_multiple(3, 1, 5, 2, p)
        want = math.floor(ALPHA2 * p) + 1  # never integral, so ceil = floor+1
        assert got == want
    with pytest.raises(ValueError):
        min_ceil_multiple(1, 1, 5, 0, 1)
    with pytest.raises(ValueError):
        min_ceil_multiple(1, -1, 5, 1, 1)


def test_min_ceil_multiple_past_float_precision():
    # m is least with m*c >= a*p + b*p*sqrt(r), also past 2^53, where a
    # float of the right side is off by more than 1
    def at_least(m, a, b, r, c, p):
        d = m * c - a * p
        return d >= 0 and d * d >= b * b * p * p * r

    for k in range(1, 90):
        for p in (2 ** k - 1, 2 ** k + 1):
            for a, b, r, c in [(3, 1, 5, 2), (1, 1, 5, 2), (0, 1, 2, 1)]:
                m = min_ceil_multiple(a, b, r, c, p)
                assert at_least(m, a, b, r, c, p), (k, p, a, b, r, c)
                assert not at_least(m - 1, a, b, r, c, p), (k, p, a, b, r, c)
    assert min_ceil_multiple(3, 1, 5, 2, 2 ** 55 - 1) == 94324615169418556
    with pytest.raises(ValueError):
        min_ceil_multiple(1, 0, -5, 1, 1)


_FLOAT_MATH = {"sqrt", "ceil", "floor"}


def _float_sites(module) -> list[str]:
    """Lines of a module's code that divide, write a float, call float()
    or take math.sqrt, math.ceil or math.floor."""
    path = module.__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.Div)
        elif isinstance(node, ast.Constant):
            hit = isinstance(node.value, float)
        elif isinstance(node, ast.Name):
            hit = node.id == "float"
        elif isinstance(node, ast.Attribute):
            hit = (isinstance(node.value, ast.Name) and node.value.id == "math"
                   and node.attr in _FLOAT_MATH)
        else:
            hit = False
        if hit:
            sites.append(f"{os.path.basename(path)}:{node.lineno}")
    return sites


def test_exact_modules_use_no_floats():
    # both module docstrings promise integer-only arithmetic
    assert _float_sites(exact) + _float_sites(numeration) == []
