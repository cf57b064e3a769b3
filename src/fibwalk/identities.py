"""Exact verification of the algebraic layer behind the classification.

Every verdict is decided in plain big integers after clearing
denominators; no float and no Fraction ever participates in one.  The
bound functions f, g, r, s return (numerator, positive denominator)
pairs, compared by cross-multiplication; Lemma 3's comparisons with
alpha^2 go through exact.exceeds_alpha_squared.  The crossover brackets
are decided by the signs of rho and psi; crossover's Fraction rows are
only printed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from .exact import exceeds_alpha_squared
from .numeration import fib, lucas


# ---------------------------------------------------------------------------
# the four bound functions and the two sign polynomials
#
# Each bound is a pair (numerator, denominator) of integers, denominator
# positive and not reduced; _cmp and _sub work on such pairs.

Pair = tuple[int, int]


def f_val(i: int, j: int) -> Pair:
    """(F_j - 1)/F_{j-2}; the suffix-repetition lower bound family."""
    if fib(j - 2) <= 0:
        raise ValueError(f"f(i,{j}) needs F_{{j-2}} > 0 (j >= 3)")
    return fib(j) - 1, fib(j - 2)


def g_val(i: int, j: int) -> Pair:
    """(F_i - F_j - 1)/F_{i-2}; the whole-prefix-period bound family."""
    if fib(i - 2) <= 0:
        raise ValueError(f"g({i},j) needs F_{{i-2}} > 0 (i >= 3)")
    return fib(i) - fib(j) - 1, fib(i - 2)


def r_val(i: int, j: int) -> Pair:
    """F_{2j+1}/F_{2j-1} (independent of i; kept two-argument to match g)."""
    if fib(2 * j - 1) <= 0:
        raise ValueError(f"r(i,{j}) needs F_{{2j-1}} > 0 (j >= 0)")
    return fib(2 * j + 1), fib(2 * j - 1)


def s_val(i: int, j: int) -> Pair:
    """(F_i - F_{2j+1})/F_{i-2}."""
    if fib(i - 2) <= 0:
        raise ValueError(f"s({i},j) needs F_{{i-2}} > 0")
    return fib(i) - fib(2 * j + 1), fib(i - 2)


def _cmp(x: Pair, y: Pair) -> int:
    """Sign of x - y: -1, 0 or +1."""
    d = x[0] * y[1] - y[0] * x[1]
    return (d > 0) - (d < 0)


def _sub(x: Pair, y: Pair) -> Pair:
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def rho(i: int, j: int) -> int:
    """(F_i - F_j - 1) F_{j-2} - (F_j - 1) F_{i-2}; sign of g - f."""
    return (fib(i) - fib(j) - 1) * fib(j - 2) - (fib(j) - 1) * fib(i - 2)


def psi(i: int, j: int) -> int:
    """(F_i - F_{2j+1}) F_{2j-1} - F_{i-2} F_{2j+1}; sign of s - r."""
    return (fib(i) - fib(2 * j + 1)) * fib(2 * j - 1) - fib(i - 2) * fib(2 * j + 1)


# ---------------------------------------------------------------------------
# identity sweeps


def check_eq1(a_range: tuple[int, int] = (-30, 30),
              b_range: tuple[int, int] = (-30, 30)) -> bool:
    """F_a F_{b+2} - F_{a+2} F_b = (-1)^b F_{a-b} for all integers a, b."""
    for a in range(a_range[0], a_range[1] + 1):
        for b in range(b_range[0], b_range[1] + 1):
            lhs = fib(a) * fib(b + 2) - fib(a + 2) * fib(b)
            if lhs != (-1 if b % 2 else 1) * fib(a - b):
                return False
    return True


def check_lemma3(i_max: int) -> bool:
    """Two double inequalities pinning F_{i+2}/F_i and (F_{2i+1}+1)/F_{2i-1}.

    alpha^2 + (-1)^i/F_{2i} < F_{i+2}/F_i < alpha^2 + (-1)^i/(F_{2i}-(-1)^i)
    alpha^2 + 1/(F_{2i-1}+2) < (F_{2i+1}+1)/F_{2i-1} < alpha^2 + 1/F_{2i-1}

    All denominators are positive on i >= 1.  Each strict inequality moves
    its rational term across, so a + p/q < x/y becomes one test of
    x/y - p/q against alpha^2 (exceeds_alpha_squared); equality cannot
    happen, as alpha^2 is irrational.
    """
    for i in range(1, i_max + 1):
        e = (-1) ** i
        d, d2 = fib(2 * i), fib(2 * i - 1)
        mid, mid2 = (fib(i + 2), fib(i)), (fib(2 * i + 1) + 1, d2)
        if not (exceeds_alpha_squared(*_sub(mid, (e, d)))
                and not exceeds_alpha_squared(*_sub(mid, (e, d - e)))
                and exceeds_alpha_squared(*_sub(mid2, (1, d2 + 2)))
                and not exceeds_alpha_squared(*_sub(mid2, (1, d2)))):
            return False
    return True


_LEMMA4_ITEMS = (
    ("i", 4, lambda k: (fib(k + 1) + 1) ** 2 <= 3 * fib(2 * k - 1)),
    ("ii", 3, lambda k: fib(4 * k - 2) ** 2 >= 100 * fib(2 * k + 1)),
    ("iii", 5, lambda k: fib(2 * k + 2) <= 6 * fib(k) ** 2),
    ("iv", 4, lambda k: fib(2 * k) ** 2 >= 8 * fib(2 * k + 2)),
    ("v", 2, lambda k: fib(12 * k - 4) ** 2 >= 10000 * fib(6 * k + 3)),
    ("vi", 2, lambda k: fib(2 * k + 1) ** 2 * fib(6 * k + 3) <= 6 * fib(6 * k - 2) ** 2),
    ("vii", 3, lambda k: fib(4 * k + 2) ** 2 >= 4 * fib(6 * k + 5)),
)


def lemma4_report(k_max: int) -> dict:
    """Seven Fibonacci inequalities, each on its stated range.

    Sharpness: every item's threshold is tight; the inequality fails at
    threshold - 1.  That is part of the report and of the verdict.
    """
    items = {}
    for name, k0, pred in _LEMMA4_ITEMS:
        failures = [k for k in range(k0, k_max + 1) if not pred(k)]
        sharp = not pred(k0 - 1)
        items[name] = {"threshold": k0, "holds": not failures,
                       "sharp": sharp, "failures": failures[:10]}
    verdict = all(v["holds"] and v["sharp"] for v in items.values())
    return {"claim": "lemma4", "range": [1, k_max], "verdict": verdict,
            "items": items}


def check_monotonicity(i_max: int) -> bool:
    """Six growth claims, each via its displayed difference identity.

    f rises in j:    numerator identity (-1)^{j+1} + F_{j-3} >= 0, j >= 3
    g falls in j:    g(i,j+1) - g(i,j) = (F_j - F_{j+1})/F_{i-2} <= 0
    rho rises in i:  rho(i+1,j) - rho(i,j) = F_{i-3} - (-1)^j F_{i-j-1} >= 0
    r rises in j:    F_{2j+3} F_{2j-1} - F_{2j+1}^2 = 1
    s falls in j:    s(i,j+1) - s(i,j) = (F_{2j+1} - F_{2j+3})/F_{i-2} < 0
    psi rises in i:  psi(i+1,j) - psi(i,j) = F_{i-2j-2} >= 0 for i >= 2j+2
    """
    for j in range(3, i_max + 1):
        num = fib(j + 1) * fib(j - 2) - fib(j - 1) * fib(j) + fib(j - 1) - fib(j - 2)
        if num != (-1) ** (j + 1) + fib(j - 3) or num < 0:
            return False
        if _cmp(_sub(f_val(0, j + 1), f_val(0, j)), (num, fib(j - 1) * fib(j - 2))):
            return False
    for i in range(5, i_max + 1):
        for j in range(3, i - 1):
            if _cmp(_sub(g_val(i, j + 1), g_val(i, j)), (fib(j) - fib(j + 1), fib(i - 2))):
                return False
            if _cmp(g_val(i, j + 1), g_val(i, j)) > 0:
                return False
            step = rho(i + 1, j) - rho(i, j)
            if step != fib(i - 1) * fib(j - 2) - (fib(j) - 1) * fib(i - 3):
                return False
            if step != fib(i - 3) - (-1) ** j * fib(i - j - 1) or step < 0:
                return False
    for j in range(0, i_max + 1):
        if fib(2 * j + 3) * fib(2 * j - 1) - fib(2 * j + 1) ** 2 != 1:
            return False
        if _cmp(r_val(0, j + 1), r_val(0, j)) <= 0:
            return False
    for i in range(3, i_max + 1):
        for j in range(0, (i - 1) // 2 + 1):
            if _cmp(_sub(s_val(i, j + 1), s_val(i, j)),
                    (fib(2 * j + 1) - fib(2 * j + 3), fib(i - 2))):
                return False
            if _cmp(s_val(i, j + 1), s_val(i, j)) >= 0:
                return False
    for j in range(0, i_max // 2 + 1):
        for i in range(2 * j + 2, i_max + 1):
            step = psi(i + 1, j) - psi(i, j)
            if step != fib(i - 1) * fib(2 * j - 1) - fib(i - 3) * fib(2 * j + 1):
                return False
            if step != fib(i - 2 * j - 2) or step < 0:
                return False
    return True


def _div_exact(total: int, den: int) -> int:
    if total % den:
        raise ArithmeticError(f"{total} not divisible by {den}")
    return total // den


def closed_forms_report(k_max: int) -> dict:
    """Every displayed closed form, cleared of its 1/5, 1/10, 1/20 factor.

    Each display is checked as an exact integer identity (divisibility
    by the cleared denominator asserted), then its sign conclusion on
    the range where it is actually true:

      * rho(2k+1,k+1) > 0 holds for k >= 4 as stated;
      * rho(2k+2,k+2) < 0 holds for k >= 1 as stated;
      * the odd-index product is stated "> 0 for k >= 0" but both sides
        vanish at k = 0 (and f(1,2) is 0/0 there); the sign is checked
        from k = 1 and the k = 0 exception is recorded;
      * the even-index product sign ">= 0" is stated for k >= 3 (it is
        genuinely negative at k = 2);
      * all four Case-3 displays are ">= 0" from k = 1; at k = 0 the
        i = 6k display is negative, so signs are checked from k = 1.
    """
    out = {"claim": "closed_forms", "range": [0, k_max], "failures": []}
    bad = out["failures"].append
    odd, even, case3 = [], [], []  # the left sides, indexed by k
    for k in range(0, k_max + 1):
        m = (-1) ** k
        if 5 * rho(2 * k + 1, k + 1) != lucas(2 * k - 2) - 5 * fib(k - 1) - 5 * fib(-k) - 3 * m:
            bad(["rho_odd", k])
        if 5 * rho(2 * k + 2, k + 2) != -lucas(2 * k - 2) - 5 * fib(k) + 5 * fib(-k) + 3 * m:
            bad(["rho_even", k])
        odd.append(fib(2 * k - 1) * (fib(k + 2) - 1) - fib(k) * (fib(2 * k + 1) - fib(k + 1) - 1))
        odd_rhs = -2 * m + 2 * lucas(2 * k - 3) + 10 * fib(k) + 5 * fib(-k) + 5 * lucas(-k)
        if odd[k] != _div_exact(odd_rhs, 10):
            bad(["odd_product", k])
        even.append(fib(k) * (fib(2 * k + 2) - fib(k + 1) - 1) - fib(2 * k) * (fib(k + 2) - 1))
        even_rhs = 2 * m + 2 * lucas(2 * k - 1) - 10 * fib(k) - 5 * fib(1 - k) + 5 * lucas(1 - k)
        if even[k] != _div_exact(even_rhs, 10):
            bad(["even_product", k])
        if 5 * psi(6 * k, k) != lucas(4 * k - 2) - 3:
            bad(["psi_6k", k])
        if 5 * psi(6 * k + 5, k + 1) != -lucas(4 * k) - 3:
            bad(["psi_6k5", k])
        case3.append([])
        for a, num, den in _case3_displays(k):
            lhs = fib(6 * k + a - 2) * fib(2 * k + 3) - fib(2 * k + 1) * fib(6 * k + a) + fib(2 * k + 1) ** 2
            case3[k].append((a, lhs))
            if lhs != _div_exact(num, den):
                bad([f"case3_i=6k+{a}", k])
        # the Lemma 4 proof displays, also 1/5-cleared Binet identities
        if 5 * (3 * fib(2 * k - 1) - (fib(k + 1) + 1) ** 2) != (
                8 * fib(2 * k - 3) + 4 * fib(2 * k - 2) - 10 * fib(k + 1) - 5 - 2 * m):
            bad(["lemma4_i_display", k])
        if 5 * (6 * fib(k) ** 2 - fib(2 * k + 2)) != (
                3 * fib(2 * k - 1) - 4 * fib(2 * k - 2) - 12 * m):
            bad(["lemma4_iii_display", k])
    # sign conclusions on their true ranges
    for k in range(4, k_max + 1):
        if not (rho(2 * k + 2, k + 1) >= rho(2 * k + 1, k + 1) > 0):
            bad(["rho_sign_pos", k])
    for k in range(1, k_max + 1):
        if not (rho(2 * k + 1, k + 2) <= rho(2 * k + 2, k + 2) < 0):
            bad(["rho_sign_neg", k])
        if not odd[k] > 0:
            bad(["odd_product_sign", k])
        # each product against its bound difference, cross-multiplied
        num, den = _sub(f_val(0, k + 2), g_val(2 * k + 1, k + 1))
        if odd[k] * den != fib(k) * fib(2 * k - 1) * num:
            bad(["odd_product_fraction", k])
        num, den = _sub(g_val(2 * k + 2, k + 1), f_val(0, k + 2))
        if even[k] * den != fib(k) * fib(2 * k) * num:
            bad(["even_product_fraction", k])
        for a, lhs in case3[k]:
            if not lhs >= 0:
                bad([f"case3_sign_i=6k+{a}", k])
            num, den = _sub(r_val(0, k + 1), s_val(6 * k + a, k))
            if lhs * den != fib(2 * k + 1) * fib(6 * k + a - 2) * num:
                bad([f"case3_fraction_i=6k+{a}", k])
        # psi chains around j' for both neighbouring j
        chain1 = [psi(6 * k + d, k) for d in range(6)]
        if not all(x >= y for x, y in zip(chain1[1:], chain1)) or chain1[0] < 0:
            bad(["psi_chain_lower", k])
        chain2 = [psi(6 * k + d, k + 1) for d in range(6)]
        if not all(x <= y for x, y in zip(chain2, chain2[1:])) or chain2[5] > 0:
            bad(["psi_chain_upper", k])
    for k in range(3, k_max + 1):
        if not even[k] >= 0:
            bad(["even_product_sign", k])
    for k in range(4, k_max + 1):
        if 3 * fib(2 * k - 1) - (fib(k + 1) + 1) ** 2 < 0:
            bad(["lemma4_i_sign", k])
    for k in range(5, k_max + 1):
        if 6 * fib(k) ** 2 - fib(2 * k + 2) < 0:
            bad(["lemma4_iii_sign", k])
    # the stated-but-false boundary cases, recorded as exceptions
    out["exceptions"] = {
        "odd_product_sign_k0": "stated for k >= 0 but both sides are 0 at k = 0",
        "case3_i6k_sign_k0": "the i = 6k display equals -1 at k = 0",
    }
    out["verdict"] = not out["failures"]
    out["failures"] = out["failures"][:20]
    return out


def _case3_displays(k: int):
    m3 = lucas(4 * k - 3)
    f4 = fib(4 * k)
    return (
        (0, 7 * m3 + 15 * f4 + 8, 20),
        (1, -2 * m3 + 5 * f4 + 2, 5),
        (2, m3 + 5 * f4 + 4, 10),
        (3, -3 * m3 + 5 * f4 + 8, 20),
    )


# ---------------------------------------------------------------------------
# crossover tables


@dataclass(frozen=True)
class CrossoverRow:
    j: int
    rising: Fraction   # f for B1, r for B2
    falling: Fraction  # g for B1, s for B2


@dataclass(frozen=True)
class CrossoverTable:
    i: int
    family: str  # "b1" | "b2"
    j_prime: int
    rows: tuple[CrossoverRow, ...]
    bracket_ok: bool


def crossover(i: int, family: str) -> CrossoverTable:
    """The rows of the rising and the falling bound around j', to print.

    B1: j' = ceil(i/2), rows f and g, for i >= 6.  B2: j' = floor(i/6),
    rows r and s, for i >= 1 (s is undefined at i = 2).  bracket_ok is
    rho_bracket_ok or psi_bracket_ok, which fail at B1's i = 7 and B2's 1.
    """
    if family == "b1":
        if i < 6:
            raise ValueError("B1 crossover needs i >= 6")
        jp, ok = -(-i // 2), rho_bracket_ok(i)
        js, rising, falling = range(3, i - 1), f_val, g_val
    elif family == "b2":
        if i < 1:
            raise ValueError("B2 crossover needs i >= 1")
        jp, ok = i // 6, psi_bracket_ok(i)
        js, rising, falling = range(1, (i - 3) // 2 + 1), r_val, s_val
    else:
        raise ValueError(f"unknown family {family!r}")
    rows = tuple(CrossoverRow(j, Fraction(*rising(i, j)),
                              Fraction(*falling(i, j)))
                 for j in sorted(set(js) | {jp, jp + 1}))
    for prev, cur in zip(rows, rows[1:]):
        if cur.rising < prev.rising or cur.falling > prev.falling:
            raise AssertionError(f"monotonicity broken in table i={i}")
    return CrossoverTable(i, family, jp, rows, ok)


def rho_bracket_ok(i: int) -> bool:
    """B1's bracket g >= f at j' = ceil(i/2) and g < f at j'+1, in sign
    form: rho is (g - f) F_{i-2} F_{j-2}, a positive factor for i >= 6."""
    jp = -(-i // 2)
    return rho(i, jp) >= 0 > rho(i, jp + 1)


def psi_bracket_ok(i: int) -> bool:
    """B2's bracket r <= s at j' = floor(i/6) and r >= s at j'+1, in sign
    form: psi is (s - r) F_{i-2} F_{2j-1}, a positive factor at i = 1 and
    i >= 3.  Only the sign form is defined at i = 2."""
    jp = i // 6
    return psi(i, jp) >= 0 >= psi(i, jp + 1)


def crossover_csv(table: CrossoverTable, out: IO[str]) -> None:
    a, b = ("f", "g") if table.family == "b1" else ("r", "s")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", a, b, f"{a}_decimal", f"{b}_decimal"])
    for row in table.rows:
        writer.writerow([table.i, row.j, str(row.rising), str(row.falling),
                         f"{float(row.rising):.10f}", f"{float(row.falling):.10f}"])


# ---------------------------------------------------------------------------
# the oracle-facing check


def e_lower_bound_report(i_max_b1: int = 26, i_max_b2: int = 26) -> dict:
    """Pointwise e(n) lower bounds from the crossover analysis.

    B1: for n = F_i - F_j - 1 (i in [8, i_max], admissible j),
    e(n) >= min(g(i,j'), f(i,j'+1)) with j' = ceil(i/2).
    B2: for n = F_i - F_{2j+1} (i in [6, i_max], admissible j),
    e(n) >= min(s(i,j'), r(i,j'+1)) with j' = floor(i/6).
    The B2 bound is false at i = 5 (e(3) = 3/2 < 2): the underlying
    theorem handles n <= 21 by direct check, so the sweep starts at 6.
    e(n) = x/y is below the min exactly when it is below both bounds.
    """
    from .repetitions import ensure_table
    cases = []
    for i in range(8, i_max_b1 + 1):
        jp = -(-i // 2)
        bounds = (g_val(i, jp), f_val(i, jp + 1))
        cases += [("b1", i, j, fib(i) - fib(j) - 1, bounds)
                  for j in range(3, i - 1)]
    for i in range(6, i_max_b2 + 1):
        jp = i // 6
        bounds = (s_val(i, jp), r_val(i, jp + 1))
        cases += [("b2", i, j, fib(i) - fib(2 * j + 1), bounds)
                  for j in range(1, (i - 3) // 2 + 1)]
    # one ask, for the largest n: ensure_table rebuilds whole to grow
    table = ensure_table(max((n for _, _, _, n, _ in cases), default=1))
    failures = [[family, i, j, n] for family, i, j, n, bounds in cases
                if all(_cmp(tuple(table[n - 1].tolist()), b) < 0
                       for b in bounds)]
    return {"claim": "e_lower_bounds", "checked": len(cases),
            "verdict": not failures, "failures": failures[:20]}


def identities_report(k_max: int = 200) -> list[dict]:
    """The full identity battery as a list of claim reports."""
    if k_max < 1:
        raise ValueError(f"identities needs k_max >= 1, got {k_max}")
    return [
        {"claim": "eq1", "range": [-30, 30], "verdict": check_eq1()},
        {"claim": "lemma3", "range": [1, k_max], "verdict": check_lemma3(k_max)},
        lemma4_report(k_max),
        {"claim": "monotonicity", "range": [1, 60],
         "verdict": check_monotonicity(60)},
        closed_forms_report(100),
        {"claim": "crossover", "range": [1, 400],
         "verdict": (all(rho_bracket_ok(i) for i in (6, *range(8, 401)))
                     and all(psi_bracket_ok(i) for i in range(2, 401))),
         "exceptions": {
             "b1_i7": "g(7,4) < f(7,4): rho(7,4) = -1, outside the "
                      "closed-form range k >= 4",
             "b2_i1": "r(1,0) = 1 > s(1,0) = 0",
             "b2_i2": "s(2,0) is 0/0; psi(2,0) = 0 holds in sign form",
         }},
    ]
