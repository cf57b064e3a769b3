"""Each output check of the benchmark accepts the right answer and rejects a
wrong one; the metric lists agree with BENCHMARK.json.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORD = checks.fibonacci_word(3000)


def _session(*entries) -> str:
    return json.dumps(list(entries))


def test_references_match_hand_values():
    assert WORD.startswith("0100101001001010010100100101")
    assert checks.naive_exponent(WORD, 12) == (7, 3)  # README: e(12) = 7/3
    assert checks.naive_exponent(WORD, 3) == (3, 2)
    assert checks.exceeds_alpha_squared(8, 3) and not checks.exceeds_alpha_squared(7, 3)
    assert checks.largest_below_expected(6) == (12, 5, 80)
    assert checks.family_counts(2, 5000) == {"B1": 121, "B2": 64, "G": 4814}


def test_check_test_values_rejects_other_index():
    entry = {"command": "test", "name": "largest_index", "count": 1,
             "witnesses": [{"reps": ["1010001010"], "values": [130]}]}
    assert checks.check_test_values(_session(entry), "largest_index", [130]) == []
    assert checks.check_test_values(_session(entry), "largest_index", [80])
    assert checks.check_test_values(_session(), "largest_index", [130])


def test_membership_checks_reject_a_wrong_member():
    sample = list(range(1, 400))
    good = {n for n in sample
            if checks.exceeds_alpha_squared(*checks.naive_exponent(WORD, n))}
    assert checks.check_good(good, sample, WORD) == []
    assert checks.check_good(good ^ {sample[5]}, sample, WORD)
    triples = checks.b1_triples(90)
    listing = "\n".join(" ".join(map(str, t)) for t in sorted(triples)) + "\n"
    got = checks.parse_members(listing)
    assert checks.compare_sets("b1", got, triples) == []
    assert checks.compare_sets("b1", got - {min(got)}, triples)
    assert checks.compare_sets("b2", got, checks.b2_triples(90))


def test_check_largest_below_rejects_wrong_index_and_ratio():
    assert checks.check_largest_below("largest n with e(n) < 12/5: 80\n", 6) == []
    assert checks.check_largest_below("largest n with e(n) < 12/5: 81\n", 6)
    assert checks.check_largest_below("largest n with e(n) < 12/5: 80\n", 7)
    assert checks.check_below_by_oracle(WORD, 12, 5, 80, [81, 500, 2080]) == []
    assert checks.check_below_by_oracle(WORD, 12, 5, 81, [])
    assert checks.check_below_by_oracle(WORD, 12, 5, 80, [79, 80])


def test_check_verify_rejects_fail_and_wrong_claim():
    ok = json.dumps([{"claim": "lemma1", "verdict": True}])
    assert checks.check_verify(ok, "lemma1") == []
    assert checks.check_verify(ok, "lemma2")
    assert checks.check_verify(json.dumps([{"claim": "lemma1", "verdict": False}]),
                               "lemma1")


def test_check_partition_counts_rejects_miscount():
    report = {"claim": "partition", "range": [2, 5000], "verdict": True,
              "counts": {"B1": 121, "B2": 64, "G": 4814}}
    assert checks.check_partition_counts(json.dumps([report])) == []
    report["counts"] = {"B1": 122, "B2": 64, "G": 4813}
    assert checks.check_partition_counts(json.dumps([report]))


def test_check_en_rejects_wrong_record():
    assert checks.check_en("e(12) = 7/3 (suffix length 7, period 3)\n", 12, WORD) == []
    assert checks.check_en("e(12) = 8/3 (suffix length 8, period 3)\n", 12, WORD)
    assert checks.check_en("e(13) = 7/3 (suffix length 7, period 3)\n", 12, WORD)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def fibwalk_modules():
    sys.path.insert(0, str(ROOT / "src"))
    from fibwalk import automata, fibword, repetitions
    yield automata, fibword, repetitions
    sys.path.remove(str(ROOT / "src"))


def test_tracer_patches_every_namespace_and_restores(fibwalk_modules):
    automata, fibword, repetitions = fibwalk_modules
    orig = fibword.exponent_table
    t = tracer.Tracer()
    t.install()
    try:
        assert repetitions.exponent_table is not orig
        repetitions.exponent_table(30)
        automata.const_multiple(3)
    finally:
        t.uninstall()
    assert repetitions.exponent_table is orig and fibword.exponent_table is orig
    m = t.layer_metrics(wall_s=1.0)
    assert m["fibword.exponent_table.calls"] == 1
    assert m["fibword.exponent_table.records"] == 30
    assert m["automata.const_multiple.states_max"] > 0
    assert all(m[k] >= 0 for k in m if k.endswith("self_s"))
