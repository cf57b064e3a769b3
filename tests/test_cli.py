"""The batch front end: subcommands, exit codes, output stability."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from fibwalk import automata as au
from fibwalk import cli, logic
from fibwalk import repetitions as rp
from fibwalk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def script_path(name):
    import fibwalk
    return os.path.join(os.path.dirname(fibwalk.__file__), "scripts", name)


def test_session_largest_index_golden(capsys):
    code, out, err = run(capsys, "session", script_path("largest_index.wal"))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "test largest_index 1: 1010001010 (=130)"
    assert lines[0] == "def ffactoreq: arity 3, states 11"


# sha256 of fibwalk session's stdout for each bundled script, as text and
# with --json: any change to a line, a state count or a witness shows here
SESSION_DIGESTS = {
    ("good_partition.wal", False):
        "881d37a777eb1bca8b010c23bc0773604b591aa4c0afa4831689ab0b8edc33bb",
    ("good_partition.wal", True):
        "28999d26a78f9d234702977b81378dbc7285a5cd05649a55836f440d61108b9d",
    ("largest_index.wal", False):
        "012412608dc51b5cd1674b03e25ee7e3a0930bd222460c81cdef1bc0cbf56c49",
    ("largest_index.wal", True):
        "50925117f279ccfc77f913863739515a860bdb357b3a23fb38cac4df40cd4739",
    ("lemma_checks.wal", False):
        "ffbe153fd4bd932a18657661ece7f43b293902375b3e3c9195b1e4f1a6e79391",
    ("lemma_checks.wal", True):
        "ad3a4f7503df3c03fde8e99bc4223633df3aba422e1387b012d6af155a959bfc",
    ("fib_periods.wal", False):
        "10d3844cb87b295deffb0a56fdafc6aab98b96650b0626127559273f92b7f127",
    ("fib_periods.wal", True):
        "ae961aac6c4caa917d611a4bfb4a5b9af11f7703cb6f0b36a806574b2044f3de",
}


@pytest.mark.parametrize("name, as_json", sorted(SESSION_DIGESTS))
def test_bundled_session_output_is_pinned(capsys, name, as_json):
    argv = ["session", script_path(name)] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SESSION_DIGESTS[name, as_json]


# sha256 of verify's --json stdout at each target's default bound, and of
# the CSV bytes of two crossover tables: the witness counts, the lemma
# verdicts and every Fraction row show here
VERIFY_DIGESTS = {
    "partition":
        "e62b0a931b1dafc7150e934ded01cfe9f3a5c12fac27cb6f040464ad331e7038",
    "lemma1":
        "da9c95fee11bb56a760a2ece94a6ca1fd6a09b09b93ae4707de725576e7f72e9",
    "lemma2":
        "9bfe82dc3cc7919af0c86059b8cb7257efd2815bdb5546d179b394826a64e92f",
}
CROSSOVER_DIGESTS = {
    ("20", "b1"):
        "891be3de5d2c124d614c728f83098b9f2f2521733b8e684807da60ee1af212b7",
    ("30", "b2"):
        "818bf842cccffd0b9d9e30c2644284ced24493ddc93b36ac0afcd68d9d46f340",
}


@pytest.mark.parametrize("target", sorted(VERIFY_DIGESTS))
def test_verify_json_output_is_pinned(capsys, target):
    code, out, err = run(capsys, "verify", target, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[target]


@pytest.mark.parametrize("i, family", sorted(CROSSOVER_DIGESTS))
def test_crossover_csv_is_pinned(tmp_path, capsys, i, family):
    target = tmp_path / "c.csv"
    code, out, err = run(capsys, "crossover", i, "--family", family,
                         "--csv", str(target))
    assert (code, err) == (0, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == \
        CROSSOVER_DIGESTS[i, family]


# one failing command after a valid first line: (script, its failing line,
# a piece of the message)
SESSION_ERRORS = {
    "malformed formula": ('def bad "?msd_fib x=":', 2, "at offset 3"),
    "unknown callee": ('def ok "?msd_fib n=1":\n'
                       'def d "?msd_fib $nope(n)":', 3,
                       "unknown predicate 'nope'"),
    "call arity": ('def d "?msd_fib $isfib(x,y)":', 2,
                   "$isfib takes 1 arguments, got 2"),
    "product of variables": ('eval e "?msd_fib Ex,y x*y=1":', 2,
                             "multiplication needs a literal constant side"),
    "unknown test name": ('test nothere 3:', 2, "unknown predicate 'nothere'"),
    "duplicate name": ('def a "?msd_fib n=1":\n\ndef a "?msd_fib n=2":', 4,
                       "name 'a' is already defined"),
    "bad reg pattern": ('reg r msd_fib "(0":', 2, "in reg r:"),
    "deep nesting": ('def a "?msd_fib ' + "+".join(["x"] * 3000) + '=0":', 2,
                     "formula nests too deeply"),
    # the first faulty command is reported, though only its compile fails
    "two faulty commands": ('def a "?msd_fib x*y=1":\n'
                            'def b "?msd_fib x=":', 2,
                            "multiplication needs a literal constant side"),
}


@pytest.mark.parametrize("kind", sorted(SESSION_ERRORS))
def test_session_error_names_its_line(tmp_path, capsys, kind):
    body, line, message = SESSION_ERRORS[kind]
    src = tmp_path / "err.wal"
    src.write_text('reg isfib msd_fib "0*10*":\n' + body + "\n")
    code, out, err = run(capsys, "session", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"fibwalk: {src}: ") and err.count("\n") == 1
    assert err.endswith(f" (line {line}, column 1)\n")
    assert message in err


def test_session_missing_file(capsys):
    code, out, err = run(capsys, "session", "/nonexistent/x.wal")
    assert code == 2
    assert "fibwalk:" in err


def test_session_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "binary.wal"
    bad.write_bytes(b"reg isfib msd_fib \"0*\":\n\xd0\x00\xff\xfe")
    code, out, err = run(capsys, "session", str(bad))
    assert code == 2 and out == ""
    assert "binary.wal: not UTF-8 text" in err


@pytest.mark.parametrize("text", ['def a "?msd_fib x=\u00b2":',
                                  'eval a "?msd_fib Ex x=\u0663":',
                                  'reg isfib msd_fib "0*(10*)?":\n'
                                  'test isfib \u00b2:'])
def test_session_rejects_non_ascii_digits(tmp_path, capsys, text):
    src = tmp_path / "digits.wal"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "session", str(src))
    assert code == 2
    assert "digits.wal" in err and ("offset" in err or "column" in err)

@pytest.mark.parametrize("text", ['def a "?msd_fib x\u00b2=1":',
                                  'eval a "?msd_fib Ex x\u00e9=1":',
                                  'def \u00e9 "?msd_fib n=1":'])
def test_session_rejects_non_ascii_names(tmp_path, capsys, text):
    src = tmp_path / "names.wal"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "session", str(src))
    assert code == 2 and out == ""
    assert "names.wal" in err and ("offset" in err or "column" in err)


def test_session_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.wal"
    bad.write_text('def broken "?msd_fib x=":')
    code, out, err = run(capsys, "session", str(bad))
    assert code == 2
    assert "bad.wal" in err


@pytest.mark.parametrize("shape", ["brackets", "nots", "imps", "ands", "sum"])
def test_session_deep_nesting_exits_2(tmp_path, shape):
    # a fresh process, so the recursion limit is met as a user meets it
    from test_logic import DEEP, deep_formula
    src = tmp_path / "deep.wal"
    src.write_text(f'def a "{deep_formula(shape, DEEP[shape])}":\n')
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-m", "fibwalk.cli", "session",
                        str(src)], env=env, capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (f"fibwalk: {src}: formula nests too deeply "
                        "(line 1, column 1)\n")


def test_session_deep_reg_pattern_exits_2(tmp_path):
    # a fresh process, as in the formula case above
    from test_logic import deep_reg
    src = tmp_path / "deep.wal"
    src.write_text(deep_reg(400))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-m", "fibwalk.cli", "session",
                        str(src)], env=env, capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (f"fibwalk: {src}: in reg deep: pattern nests too "
                        "deeply (line 1, column 1)\n")


def test_session_test_past_the_search_limit_exits_2(tmp_path, capsys,
                                                   monkeypatch):
    # isfib has one word per length: six within 6 columns, more beyond
    monkeypatch.setattr(au, "_MAX_WORD_LEN", 6)
    src = tmp_path / "cap.wal"
    src.write_text('reg isfib msd_fib "0*10*":\ntest isfib 5:\n')
    code, out, err = run(capsys, "session", str(src))
    assert (code, err) == (0, "")
    assert out.endswith("(=1), 10 (=2), 100 (=3), 1000 (=5), 10000 (=8)\n")
    src.write_text('reg isfib msd_fib "0*10*":\ntest isfib 10:\n')
    code, out, err = run(capsys, "session", str(src))
    assert (code, out) == (2, "")
    assert err == (f"fibwalk: {src}: test isfib: found 6 of 10 words within "
                   "6 columns, the search limit (line 2, column 1)\n")


def test_out_of_memory_exits_2():
    # a fresh process under its own address-space limit
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from fibwalk.cli import main\n"
            "sys.exit(main(['en', '1000000000']))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "fibwalk: en: out of memory\n"


def test_session_json(tmp_path, capsys):
    script = tmp_path / "tiny.wal"
    script.write_text('eval t "?msd_fib En n=3":')
    code, out, err = run(capsys, "session", str(script), "--json")
    assert code == 0
    data = json.loads(out)
    assert data == [{"command": "eval", "name": "t", "verdict": True}]


def test_enumerate_good_limit_43(capsys):
    code, out, err = run(capsys, "enumerate", "good", "--limit", "43")
    assert code == 0
    got = [int(line) for line in out.split()]
    assert got == [13, 14, 22, 23, 24, 26, 27, 34, 35, 36, 37, 38, 39, 40, 43]


def test_enumerate_multi_track(capsys):
    code, out, err = run(capsys, "enumerate", "adjfib", "--limit", "8")
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert set(rows) == {(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)}


def test_enumerate_rejects_negative_limit(capsys):
    code, out, err = run(capsys, "enumerate", "good", "--limit", "-5")
    assert code == 2
    assert out == ""
    assert "limit must be >= 0" in err
    code, out, err = run(capsys, "enumerate", "good", "--limit", "0")
    assert (code, out) == (0, "")


def test_enumerate_unknown_predicate(capsys):
    code, out, err = run(capsys, "enumerate", "nothere", "--limit", "5")
    assert code == 2
    # compiled and pending names alike
    assert err == ("fibwalk: unknown predicate 'nothere'; have: adjfib, b1, "
                   "b2, evenfib, ffactoreq, good, isfib, oddfib, phi2n, "
                   "shift, suff, test\n")


def test_ratio_commands_compile_suff_once(capsys, monkeypatch):
    # the bench's ratio workload: one session, then four largest-below
    # queries, each needing suff through the session env
    logic.clear_compile_memo()
    rp.session_env.cache_clear()
    suff = next(logic.parse_formula(c.source) for c in
                logic.parse_script(rp.script_text("largest_index.wal"))
                if c.name == "suff")
    compiled, compile_formula = [], logic.compile_formula
    monkeypatch.setattr(logic, "compile_formula", lambda f, env:
                        compiled.append(f) or compile_formula(f, env))
    searched, first_accepted_words = [], au.first_accepted_words
    monkeypatch.setattr(au, "first_accepted_words", lambda a, k:
                        searched.append(a) or first_accepted_words(a, k))
    assert run(capsys, "session", script_path("largest_index.wal"),
               "--json")[0] == 0
    assert compiled.count(suff) == 1
    searched.clear()  # the session's test witnesses
    # each query compiles its M_{p/q} and nothing else, and reads the
    # answer off it without a word search
    for p, q in ((12, 5), (20, 8), (33, 13), (54, 21)):
        compiled.clear()
        assert run(capsys, "mgamma", str(p), str(q), "--largest-below")[0] == 0
        assert compiled == [logic.parse_formula(
            f"?msd_fib Ex,y $suff(n,x,y) & {q}*x>={p}*y")]
    assert searched == []


@pytest.mark.parametrize("argv", [["en", str(10 ** 23)],
                                  ["verify", "theorem", "--max-n",
                                   str(10 ** 10)]])
def test_table_past_its_int64_bound_exits_2(argv):
    # a fresh process under a 1 GB address-space cap: the request must be
    # refused before the table is allocated, not die of memory
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from fibwalk.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (f"fibwalk: the e(n) table reaches n = 3,037,000,499 "
                        f"at most (its int64 ratio comparisons need "
                        f"n**2 < 2**63), got {int(argv[-1]):,}\n")


def test_verify_theorem_base_range(capsys):
    code, out, err = run(capsys, "verify", "theorem", "--max-n", "21")
    assert code == 0
    assert out.startswith("verify theorem [1..21]: PASS")


def test_verify_partition_json_stable(capsys):
    code1, out1, _ = run(capsys, "verify", "partition", "--max-n", "150",
                         "--json")
    code2, out2, _ = run(capsys, "verify", "partition", "--max-n", "150",
                         "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data[0]["claim"] == "partition"
    assert data[0]["verdict"] is True


def test_verify_lemmas(capsys):
    code, out, err = run(capsys, "verify", "lemma1", "--max-n", "150")
    assert code == 0
    assert "verify lemma1 [2..150]: PASS" in out
    code, out, err = run(capsys, "verify", "lemma2", "--max-n", "150")
    assert code == 0
    assert "PASS" in out


def test_verify_rejects_empty_ranges(capsys):
    cases = [("theorem", "-5", "--json"), ("theorem", "-5"),
             ("theorem", "0"), ("partition", "1"), ("lemma1", "-3"),
             ("lemma2", "0"), ("identities", "0"), ("all", "1")]
    for target, max_n, *flags in cases:
        code, out, err = run(capsys, "verify", target, "--max-n", max_n,
                             *flags)
        assert code == 2, (target, max_n)
        assert out == ""
        assert err.startswith("fibwalk: ") and f"got {max_n}" in err


def test_verify_identities_json_golden(capsys):
    code, out, err = run(capsys, "verify", "identities", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "443dfb448b7a100e5eb8aa716e6758df4f34673c07251015b04547d08bd9387e")


def test_en_record(capsys):
    code, out, err = run(capsys, "en", "12")
    assert code == 0
    assert out == "e(12) = 7/3 (suffix length 7, period 3)\n"
    code, out, err = run(capsys, "en", "0")
    assert code == 2
    assert "n >= 1" in err


def test_mgamma_listing(capsys):
    code, out, err = run(capsys, "mgamma", "3", "1")
    assert code == 0
    assert out.startswith("M_{3/1}:")
    assert "first members: 14, 23, 24" in out


def test_mgamma_low_ratio_warns_in_one_line(capsys):
    # the ratio below 1 is a warning of the library; the CLI prints it as
    # one line of its own, with no source path or line, and still lists
    for _ in range(2):  # every call warns, not only the first
        code, out, err = run(capsys, "mgamma", "0", "1")
        assert code == 0
        assert out == ("M_{0/1}: 3 states; first members: "
                       "1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n")
        assert err == "fibwalk: warning: 0/1 < 1: every n >= 1 is accepted\n"


def test_mgamma_largest_below(capsys):
    code, out, err = run(capsys, "mgamma", "12", "5", "--largest-below")
    assert code == 0
    assert out == "largest n with e(n) < 12/5: 80\n"


def test_mgamma_errors(capsys):
    code, out, err = run(capsys, "mgamma", "1", "1", "--largest-below")
    assert code == 2
    assert "no index lies below" in err
    code, out, err = run(capsys, "mgamma", "8", "3", "--largest-below")
    assert code == 2
    assert "alpha^2" in err


def test_mgamma_rejects_negative_numerator(capsys):
    code, out, err = run(capsys, "mgamma", "--", "-3", "1")
    assert code == 2
    assert out == ""
    assert "numerator must be >= 0" in err


def test_export_dfa(tmp_path, capsys):
    target = tmp_path / "good.dot"
    code, out, err = run(capsys, "export-dfa", "good", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph")
    assert "12 states" in out


def test_crossover_csv_and_exit_codes(tmp_path, capsys):
    target = tmp_path / "c.csv"
    code, out, err = run(capsys, "crossover", "20", "--family", "b1",
                         "--csv", str(target))
    assert code == 0
    assert "bracketed" in out
    assert target.read_text().splitlines()[0] == "i,j,f,g,f_decimal,g_decimal"
    # the one non-bracketing index reports failure through the exit code
    code, out, err = run(capsys, "crossover", "7", "--family", "b1",
                         "--csv", str(tmp_path / "c7.csv"))
    assert code == 1
    assert "NOT bracketed" in out
    code, out, err = run(capsys, "crossover", "2", "--family", "b2",
                         "--csv", str(tmp_path / "c2.csv"))
    assert code == 2
    # the CSV is the table the identities layer writes for the same i
    from fibwalk import identities as idn
    want = io.StringIO(newline="")
    idn.crossover_csv(idn.crossover(20, "b1"), want)
    with open(target, newline="") as fh:
        assert fh.read() == want.getvalue()


def test_error_paths_print_one_line(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    cases = [
        (["export-dfa", "good", "--dot", f"{missing}.dot"],
         f"[Errno 2] No such file or directory: '{missing}.dot'"),
        (["crossover", "20", "--family", "b1", "--csv", f"{missing}.csv"],
         f"[Errno 2] No such file or directory: '{missing}.csv'"),
        (["en", "-3"], "e(n) needs n >= 1"),
        (["mgamma", "3", "0"], "denominator must be >= 1"),
        (["verify", "identities", "--max-n", "0"],
         "identities needs k_max >= 1, got 0"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", f"fibwalk: {message}\n"), argv
    assert not (tmp_path / "no").exists()


def test_enumerate_reports_a_failed_compile(capsys, monkeypatch):
    # a pending predicate that fails to compile is not an unknown one
    env = logic.PredicateEnv()
    env.load('def bad "?msd_fib x*y=1":')
    monkeypatch.setattr(rp, "session_env", lambda: env)
    assert run(capsys, "enumerate", "bad", "--limit", "3") == (
        2, "", "fibwalk: multiplication needs a literal constant side "
               "at offset 2 (line 1, column 1)\n")
    assert run(capsys, "enumerate", "other", "--limit", "3") == (
        2, "", "fibwalk: unknown predicate 'other'; have: bad\n")


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["enumerate", "good"]) == 2  # missing --limit
    assert main(["verify", "nonsense"]) == 2
    capsys.readouterr()


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "verify", "nonsense")[0] == 2
    code, out, err = run(capsys, "en", "13")
    assert (code, out, err) == (0, "e(13) = 8/3 (suffix length 8, period 3)\n", "")
    assert cli._build_parser.cache_info().misses == 1


def test_verify_help_names_each_default():
    # the --max-n help spells out the defaults that _VERIFY applies
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    verify = sub.choices["verify"]
    text = next(a.help for a in verify._actions
                if "--max-n" in a.option_strings)
    target = next(a for a in verify._actions if a.dest == "target")
    assert target.choices == [*cli._VERIFY, "all"]
    for name, (_, default) in cli._VERIFY.items():
        assert (re.search(rf"\b{default} for [a-z0-9 ]*\b{name}\b", text)
                or re.search(rf"\bfor {name}\b[^;]*\(default {default}\)",
                             text)), name


def test_cli_import_leaves_identities_out():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, fibwalk.cli; print('fibwalk.identities' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_entry_point_matches_manifest():
    manifest = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    text = open(manifest).read()
    assert 'fibwalk = "fibwalk.cli:main"' in text
