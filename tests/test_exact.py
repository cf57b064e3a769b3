"""Certified integer-only signs in Q(sqrt 5)."""

import ast
import math
import os
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fibwalk import automata, exact, fibword, identities, numeration
from fibwalk import repetitions as rp
from fibwalk.exact import (exceeds_alpha_squared, exceeds_alpha_squared_mask,
                           sign_sqrt5, theorem_margin_sign)
from fibwalk.numeration import fib, lucas

ALPHA2 = (3 + math.sqrt(5)) / 2


def test_cmp_ratio_alpha2_brackets_the_constant():
    for y in range(1, 400):
        for x in range(1, 4 * y):
            # floats are safe as an oracle here: x/y never equals alpha^2
            assert exceeds_alpha_squared(x, y) == (x / y > ALPHA2)
    assert exceeds_alpha_squared(21, 8)  # 2.625 > 2.618
    assert not exceeds_alpha_squared(13, 5)  # 2.6 < 2.618
    with pytest.raises(ValueError):
        exceeds_alpha_squared(1, 0)


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
        return exceeds_alpha_squared(x, y)

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
    for n in range(2, 60):
        assert exceeds_alpha_squared(fib(n + 2), fib(n)) == (n % 2 == 0)


_PREC = 80  # decimal digits of the reference evaluations


def _decimal_sign(value: Decimal) -> int:
    return (value > 0) - (value < 0)


def _decimal_sqrt5(a: int, b: int) -> Decimal:
    """a + b*sqrt(5) to _PREC digits."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        return a + b * Decimal(5).sqrt()


def test_sign_sqrt5_matches_decimal():
    rng = random.Random(20261019)
    cases = [(0, 0), (7, 0), (-7, 0), (0, 3), (0, -3), (9, -4), (-9, 4)]
    cases += [(rng.randint(-10 ** k, 10 ** k), rng.randint(-10 ** k, 10 ** k))
              for k in (1, 3, 12, 30) for _ in range(2000)]
    # L_k^2 - 5F_k^2 = 4(-1)^k, so L_k - F_k*sqrt5 = 2*beta^k lies within
    # 2/L_k of 0, and its sign alternates with k
    for k in range(1, 150):
        assert sign_sqrt5(lucas(k), -fib(k)) == (-1) ** k
        cases += [(s * lucas(k), t * fib(k)) for s in (1, -1) for t in (1, -1)]
    for a, b in cases:
        assert sign_sqrt5(a, b) == _decimal_sign(_decimal_sqrt5(a, b)), (a, b)


def _margin(x: int, y: int, n: int) -> Decimal:
    """x/y - alpha^2 + 3/sqrt(n) to _PREC digits."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        alpha2 = (3 + Decimal(5).sqrt()) / 2
        return Decimal(x) / y - alpha2 + 3 / Decimal(n).sqrt()


def test_theorem_margin_sign_matches_decimal_on_the_table():
    for n, (x, y) in enumerate(rp.ensure_table(20000).tolist(), 1):
        assert theorem_margin_sign(x, y, n) == _decimal_sign(_margin(x, y, n)), n


def test_theorem_margin_sign_matches_decimal_beside_zero():
    # x/y on either side of alpha^2 - 3/sqrt(n), where the margin is 0;
    # at n = m^2 and n = 5m^2 the radicals collapse into Q(sqrt 5)
    rng = random.Random(20261020)
    for _ in range(2000):
        m = rng.randint(1, 3000)
        n = rng.choice((rng.randint(1, 10 ** 7), m * m, 5 * m * m))
        y = rng.randint(1, 10 ** 6)
        x0 = int(-y * _margin(0, 1, n))  # y*alpha^2 - 3y/sqrt(n), truncated
        for x in (x0 - 1, x0, x0 + 1, x0 + 2, rng.randint(-10 ** 6, 10 ** 7)):
            margin = _margin(x, y, n)
            assert margin != 0
            assert theorem_margin_sign(x, y, n) == _decimal_sign(margin), (x, y, n)


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


_FLOAT_MATH = {"sqrt", "ceil", "floor"}


def _float_sites(module, allowed=()) -> list[str]:
    """Lines of a module's code that divide, write a float, call float()
    or take math.sqrt, math.ceil or math.floor, outside the functions
    named in allowed."""
    path = module.__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in allowed
            for n in ast.walk(f)}
    sites = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
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
    # exact and numeration promise integer-only arithmetic; fibword and
    # automata are on verdict paths too
    modules = (exact, numeration, fibword, automata)
    assert [site for m in modules for site in _float_sites(m)] == []
    # identities decides in integers; only crossover_csv's decimal
    # columns are floats
    assert _float_sites(identities, allowed={"crossover_csv"}) == []
    assert _float_sites(identities) != []
