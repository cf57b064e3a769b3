"""Fibonacci/Lucas values, the Zeckendorf codec, exact floor functions."""

import gc
import math
import tracemalloc

import pytest

from fibwalk.numeration import (fib, fib_index, floor_alpha, floor_alpha2,
                                lucas, zeck_decode, zeck_encode)


def test_fib_small_values():
    assert [fib(n) for n in range(13)] == [0, 1, 1, 2, 3, 5, 8, 13,
                                           21, 34, 55, 89, 144]


def test_lucas_small_values():
    assert [lucas(n) for n in range(11)] == [2, 1, 3, 4, 7, 11, 18,
                                             29, 47, 76, 123]


def test_recurrence_holds_both_directions():
    for n in range(-40, 40):
        assert fib(n + 2) == fib(n + 1) + fib(n)
        assert lucas(n + 2) == lucas(n + 1) + lucas(n)


def test_negative_index_reflection():
    for n in range(1, 30):
        assert fib(-n) == (-1) ** (n + 1) * fib(n)
        assert lucas(-n) == (-1) ** n * lucas(n)


def test_lucas_from_fib():
    for n in range(-20, 21):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_fib_large_no_overflow():
    # digit sums stay consistent far beyond machine ints
    assert fib(300) == fib(299) + fib(298)
    assert len(str(fib(1000))) == 209


def test_zeck_roundtrip_canonical():
    for n in range(3001):
        z = zeck_encode(n)
        assert "11" not in z
        assert not z.startswith("0")
        assert zeck_decode(z) == n


def test_zeck_encode_retains_no_memory_per_value():
    # the weights are kept once, not once per value encoded
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(50_000):
            zeck_encode(n)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_zeck_examples():
    assert zeck_encode(0) == ""
    assert zeck_encode(1) == "1"
    assert zeck_encode(2) == "10"
    assert zeck_encode(4) == "101"
    assert zeck_encode(130) == "1010001010"


def test_zeck_decode_noncanonical_and_padding():
    # decoding tolerates non-canonical digits; weights start at F_2 = 1
    assert zeck_decode("11") == 3
    assert zeck_decode("011") == 3
    # a trailing zero shifts every weight up: it is not a no-op
    assert zeck_decode("1") == 1
    assert zeck_decode("10") == 2


def test_zeck_rejects_bad_digits_and_negatives():
    with pytest.raises(ValueError):
        zeck_decode("102")
    with pytest.raises(ValueError):
        zeck_encode(-1)


def test_floor_alpha_matches_isqrt_form():
    for n in range(0, 5000):
        assert floor_alpha(n) == (n + math.isqrt(5 * n * n)) // 2
        assert floor_alpha2(n) == n + floor_alpha(n)


def test_floor_alpha_spot_values():
    # alpha = 1.6180..., alpha^2 = 2.6180...
    assert floor_alpha(1) == 1
    assert floor_alpha(2) == 3
    assert floor_alpha(100) == 161
    assert floor_alpha2(1) == 2
    assert floor_alpha2(100) == 261
    with pytest.raises(ValueError):
        floor_alpha(-1)


def test_fib_index():
    for k in range(2, 40):
        assert fib_index(fib(k)) == k
    assert fib_index(1) == 2  # F_1 = F_2 = 1 reports the weight index
    assert fib_index(4) is None
    assert fib_index(0) is None
    assert fib_index(-5) is None
