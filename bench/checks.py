"""Independent references and output checks for the fibwalk benchmark.

Nothing here imports fibwalk.  The Fibonacci word, e(n), the two
Fibonacci-difference families and the alpha^2 comparison are recomputed
from their definitions, so a check passes only when the program agrees
with a computation it did not make.  Every check returns a list of error
strings; an empty list means the output is right.
"""

from __future__ import annotations

import json
import re


def fib(k: int) -> int:
    """F_k with F_0 = 0, F_1 = 1, for k >= 0."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fibonacci_word(n: int) -> str:
    """First n symbols of the fixed point of 0 -> 01, 1 -> 0."""
    w = "0"
    while len(w) < n:
        w = "".join("01" if c == "0" else "0" for c in w)
    return w[:n]


def naive_exponent(word: str, n: int) -> tuple[int, int]:
    """(x, y): the shortest suffix of word[:n] with the largest exponent x/y.

    For each period p, scan back from the end while word[j] == word[j-p];
    the longest suffix with period p has length p plus that run.  Among
    equal exponents the shortest suffix wins, and then p is its least
    period (a smaller period would give a larger exponent).
    """
    best_x, best_y = 1, 1
    for p in range(1, n):
        j = n - 1
        while j >= p and word[j] == word[j - p]:
            j -= 1
        x = p + (n - 1 - j)
        if x * best_y > best_x * p or (x * best_y == best_x * p and x < best_x):
            best_x, best_y = x, p
    return best_x, best_y


def exceeds_alpha_squared(x: int, y: int) -> bool:
    """x/y > (3 + sqrt 5)/2, i.e. 2x - 3y > y sqrt 5, decided in integers."""
    d = 2 * x - 3 * y
    return d > 0 and d * d > 5 * y * y


def b1_triples(limit: int) -> set[tuple[int, int, int]]:
    """(n, F_i, F_j) with n = F_i - F_j - 1, i >= 5, 3 <= j <= i - 2, F_i <= limit."""
    out = set()
    i = 5
    while fib(i) <= limit:
        for j in range(3, i - 1):
            out.add((fib(i) - fib(j) - 1, fib(i), fib(j)))
        i += 1
    return out


def b2_triples(limit: int) -> set[tuple[int, int, int]]:
    """(n, F_i, F_{2j+1}) with n = F_i - F_{2j+1}, i >= 5, 1 <= j <= (i-3)/2."""
    out = set()
    i = 5
    while fib(i) <= limit:
        for j in range(1, (i - 3) // 2 + 1):
            out.add((fib(i) - fib(2 * j + 1), fib(i), fib(2 * j + 1)))
        i += 1
    return out


def family_counts(lo: int, hi: int) -> dict[str, int]:
    """How many n in [lo, hi] lie in B1, in B2, and in neither (G).

    Both families have n >= F_{i-1} - 1, so F_i <= 2 * hi + 2 covers them.
    """
    b1 = {t[0] for t in b1_triples(2 * hi + 2) if lo <= t[0] <= hi}
    b2 = {t[0] for t in b2_triples(2 * hi + 2) if lo <= t[0] <= hi}
    return {"B1": len(b1), "B2": len(b2),
            "G": hi - lo + 1 - len(b1 | b2)}


def largest_below_expected(k: int) -> tuple[int, int, int]:
    """(p, q, n) with p/q = (F_{k+1} - 1)/F_{k-1} and n = F_{2k-1} - F_k - 1."""
    return fib(k + 1) - 1, fib(k - 1), fib(2 * k - 1) - fib(k) - 1


# ---------------------------------------------------------------------------
# checks on fibwalk's printed output


def compare_sets(what: str, got: set, want: set) -> list[str]:
    if got == want:
        return []
    extra = sorted(got - want)[:5]
    missing = sorted(want - got)[:5]
    return [f"{what}: unexpected {extra}, missing {missing}"]


def check_test_values(stdout: str, name: str, values: list[int]) -> list[str]:
    """A session's `test NAME K` listed exactly these one-track values."""
    for e in json.loads(stdout):
        if e["command"] == "test" and e["name"] == name:
            got = [w["values"][0] for w in e["witnesses"]]
            return [] if got == values else [
                f"test {name}: expected {values}, got {got}"]
    return [f"test {name}: not in the session report"]


def parse_members(stdout: str) -> set:
    """Lines of `fibwalk enumerate`: an int, or a space-separated tuple."""
    out = set()
    for line in stdout.split("\n"):
        if line.strip():
            vals = tuple(int(v) for v in line.split())
            out.add(vals[0] if len(vals) == 1 else vals)
    return out


def check_good(members: set[int], sample: list[int], word: str) -> list[str]:
    """n is in `good` iff the naive e(n) exceeds alpha^2, for n in sample."""
    errors = []
    for n in sample:
        want = exceeds_alpha_squared(*naive_exponent(word, n))
        if (n in members) != want:
            errors.append(f"good({n}): expected {want}")
    return errors


_LARGEST = re.compile(r"largest n with e\(n\) < (\d+)/(\d+): (\d+)\n\Z")


def check_largest_below(stdout: str, k: int) -> list[str]:
    p, q, n = largest_below_expected(k)
    m = _LARGEST.match(stdout)
    if not m or (int(m[1]), int(m[2]), int(m[3])) != (p, q, n):
        return [f"mgamma {p} {q} --largest-below: expected {n}, "
                f"got {stdout.strip()!r}"]
    return []


def check_below_by_oracle(word: str, p: int, q: int, n_star: int,
                          above: list[int]) -> list[str]:
    """Naive e(n*) < p/q, and e(m) >= p/q for each m in above."""
    errors = []
    x, y = naive_exponent(word, n_star)
    if not x * q < p * y:
        errors.append(f"naive e({n_star}) = {x}/{y} is not below {p}/{q}")
    for m in above:
        x, y = naive_exponent(word, m)
        if x * q < p * y:
            errors.append(f"naive e({m}) = {x}/{y} is below {p}/{q}")
    return errors


def check_verify(stdout: str, claim: str) -> list[str]:
    """A `verify --json` report for one claim with a PASS verdict."""
    reports = json.loads(stdout)
    if [r.get("claim") for r in reports] != [claim]:
        return [f"verify {claim}: unexpected reports {reports}"]
    if reports[0].get("verdict") is not True:
        return [f"verify {claim}: FAIL {reports[0]}"]
    return []


def check_partition_counts(stdout: str) -> list[str]:
    report = json.loads(stdout)[0]
    lo, hi = report["range"]
    want = family_counts(lo, hi)
    if report.get("counts") != want:
        return [f"partition [{lo}..{hi}]: counts {report.get('counts')}, "
                f"closed forms give {want}"]
    return []


_EN = re.compile(r"e\((\d+)\) = (\d+)/(\d+) \(suffix length (\d+), "
                 r"period (\d+)\)\n\Z")


def check_en(stdout: str, n: int, word: str) -> list[str]:
    """`fibwalk en n` prints the naive (x, y)."""
    x, y = naive_exponent(word, n)
    m = _EN.match(stdout)
    if not m or tuple(int(v) for v in m.groups()) != (n, x, y, x, y):
        return [f"en {n}: expected {x}/{y}, got {stdout.strip()!r}"]
    return []
