"""The bound families and the identity battery, in integers."""

import io
from fractions import Fraction

import numpy as np
import pytest

from fibwalk import identities as idn
from fibwalk.fibword import exponent_table
from fibwalk.identities import (check_eq1, check_lemma3, check_monotonicity,
                                closed_forms_report, crossover, crossover_csv,
                                e_lower_bound_report, f_val, g_val,
                                identities_report, lemma4_report, psi,
                                psi_bracket_ok, r_val, rho, rho_bracket_ok,
                                s_val)
from fibwalk.numeration import fib


# ---------------------------------------------------------------------------
# the bound families f, g, r, s and their integerized differences


def test_f_g_values_and_guards():
    # (numerator, positive denominator) pairs, not reduced
    assert f_val(9, 4) == (fib(4) - 1, fib(2))  # (3-1)/1
    assert g_val(9, 4) == (fib(9) - fib(4) - 1, fib(7))
    assert g_val(8, 4) == (17, 8)
    assert s_val(8, 1) == (19, 8)
    with pytest.raises(ValueError):
        f_val(9, 2)  # F_0 = 0 denominator
    with pytest.raises(ValueError):
        g_val(2, 3)
    with pytest.raises(ValueError):
        s_val(2, 0)  # F_0 = 0 denominator
    assert r_val(5, 0) == (fib(1), fib(-1))  # 1/1
    assert r_val(5, 2) == (5, 2)


def test_rho_psi_spec_examples():
    # rho(i,j) clears denominators of g - f
    assert rho(9, 4) == 4
    assert rho(9, 5) == 4
    assert rho(7, 4) == -1  # the one negative value in the band
    assert psi(6, 1) == (fib(6) - fib(3)) * fib(1) - fib(4) * fib(3)


def test_rho_matches_cleared_difference():
    for i in range(6, 40):
        for j in range(3, i - 1):
            gap = Fraction(*g_val(i, j)) - Fraction(*f_val(i, j))
            want = gap * fib(i - 2) * fib(j - 2)
            assert rho(i, j) == want


def test_psi_matches_cleared_difference():
    for i in range(4, 40):
        for j in range(1, (i - 3) // 2 + 1):
            gap = Fraction(*s_val(i, j)) - Fraction(*r_val(i, j))
            want = gap * fib(i - 2) * fib(2 * j - 1)
            assert psi(i, j) == want


# ---------------------------------------------------------------------------
# identity batteries


def test_eq1_range():
    assert check_eq1()
    assert check_eq1((-10, 10), (-10, 10))
    # F_{a-b} passes 2^53 here, so a float sign (-1)**b for b < 0 would
    # lose digits of the right side
    assert check_eq1((-100, 100), (-100, 100))


def test_lemma3_inequalities():
    assert check_lemma3(120)


def test_lemma4_thresholds_and_sharpness():
    rep = lemma4_report(120)
    assert rep["verdict"] is True
    assert set(rep["items"]) == {"i", "ii", "iii", "iv", "v", "vi", "vii"}
    for item in rep["items"].values():
        assert item["holds"] is True
        assert item["sharp"] is True
    assert rep["items"]["i"]["threshold"] == 4  # fails at k = 3
    assert lemma4_report(60)["verdict"] is True


def test_monotonicity_identities():
    assert check_monotonicity(50)


def test_closed_forms_battery():
    rep = closed_forms_report(60)
    assert rep["verdict"] is True
    assert rep["failures"] == []
    # the two stated-range sign exceptions are recorded, not hidden
    assert "odd_product_sign_k0" in rep["exceptions"]
    assert "case3_i6k_sign_k0" in rep["exceptions"]


# ---------------------------------------------------------------------------
# crossover brackets


def test_crossover_b1_golden():
    t = crossover(20, "b1")
    assert t.j_prime == 10
    assert t.bracket_ok is True
    assert t.family == "b1"
    js = [row.j for row in t.rows]
    assert js == sorted(js)


def test_crossover_b1_fails_only_at_7(cached_crossover):
    bad = [i for i in range(6, 401) if not cached_crossover(i, "b1").bracket_ok]
    assert bad == [7]


def test_crossover_b2_golden():
    t = crossover(30, "b2")
    assert t.j_prime == 5
    assert t.bracket_ok is True


def test_crossover_b2_range(cached_crossover):
    assert not cached_crossover(1, "b2").bracket_ok  # r(1,0)=1 > s(1,0)=0
    with pytest.raises(ValueError):
        cached_crossover(2, "b2")  # s(2,j) has denominator F_0 = 0
    bad = [i for i in range(3, 401)
           if not cached_crossover(i, "b2").bracket_ok]
    assert bad == []


def test_psi_bracket_holds_from_2():
    assert not psi_bracket_ok(1)
    bad = [i for i in range(2, 401) if not psi_bracket_ok(i)]
    assert bad == []


def test_crossover_tables_agree_with_sign_brackets(cached_crossover):
    # the Fraction tables are the reference route: at every i the report
    # covers, their values at j' and j'+1 bracket exactly when the sign
    # polynomials do (building each table also checks its rows monotone)
    for family, i_range, sign_ok in (
            ("b1", range(6, 401), rho_bracket_ok),
            ("b2", [1, *range(3, 401)], psi_bracket_ok)):
        for i in i_range:
            t = cached_crossover(i, family)
            row = {r.j: r for r in t.rows}
            lo, hi = row[t.j_prime], row[t.j_prime + 1]
            if family == "b1":  # g >= f, then g < f
                want = lo.falling >= lo.rising and hi.falling < hi.rising
            else:  # r <= s, then r >= s
                want = lo.rising <= lo.falling and hi.rising >= hi.falling
            assert sign_ok(i) is want, (family, i)


def test_crossover_guards():
    with pytest.raises(ValueError):
        crossover(5, "b1")
    with pytest.raises(ValueError):
        crossover(0, "b2")
    with pytest.raises(ValueError):
        crossover(10, "b3")


def test_crossover_csv_format():
    buf = io.StringIO()
    crossover_csv(crossover(20, "b1"), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "i,j,f,g,f_decimal,g_decimal"
    assert lines[1].split(",")[0] == "20"
    buf2 = io.StringIO()
    crossover_csv(crossover(30, "b2"), buf2)
    assert buf2.getvalue().splitlines()[0] == "i,j,r,s,r_decimal,s_decimal"


# ---------------------------------------------------------------------------
# the e(n) lower-bound sweep


def test_e_lower_bound_report_small():
    rep = e_lower_bound_report(14, 14)
    assert rep["verdict"] is True
    assert rep["checked"] > 0


def test_e_lower_bound_report_default_range():
    # i <= 26 on both families: records up to n = F_26 - 2, from the table
    rep = e_lower_bound_report()
    assert rep == {"claim": "e_lower_bounds", "checked": 378,
                   "verdict": True, "failures": []}


def test_e_lower_bound_report_builds_one_table(monkeypatch):
    # from an empty table, the sweep asks for its largest n once
    from fibwalk import repetitions as rp
    builds = []

    def counted(n_max):
        builds.append(n_max)
        return exponent_table(n_max)

    monkeypatch.setattr(rp, "_TABLE", np.zeros((0, 2), dtype=np.int64))
    monkeypatch.setattr(rp, "exponent_table", counted)
    rep = e_lower_bound_report()
    assert rep == {"claim": "e_lower_bounds", "checked": 378,
                   "verdict": True, "failures": []}
    assert builds == [fib(26) - fib(3)]  # B2 at i = 26, j = 1


def test_e_lower_bound_b2_onset():
    # at i=5 the B2 pointwise bound fails: e(3) = 3/2 < 2
    from fibwalk.repetitions import exponent_record
    from fibwalk.identities import r_val, s_val
    bound = min(Fraction(*s_val(5, 0)), Fraction(*r_val(5, 1)))
    assert bound == 2
    assert exponent_record(3).exponent == Fraction(3, 2)
    assert exponent_record(3).exponent < bound


def test_identities_report_all_green():
    reports = identities_report(k_max=60)
    for rep in reports:
        assert rep["verdict"] is True, rep["claim"]
    claims = {r["claim"] for r in reports}
    assert {"eq1", "lemma3", "lemma4", "monotonicity", "closed_forms",
            "crossover"} <= claims


def test_identities_report_builds_no_table(monkeypatch):
    # the crossover claim is decided by rho and psi alone, and every
    # verdict in integers: with crossover and Fraction refused, the
    # reports are the same, claim for claim
    want = identities_report(k_max=60)

    def refuse(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(idn, "crossover", refuse)
    monkeypatch.setattr(idn, "Fraction", refuse)
    reports = identities_report(k_max=60)
    assert reports == want
    assert [r["verdict"] for r in reports] == [True] * 6
    assert reports[-1]["claim"] == "crossover"
    assert e_lower_bound_report(14, 14)["verdict"] is True
