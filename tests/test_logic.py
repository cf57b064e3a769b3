"""Predicate DSL: parsing, compilation, sessions, interpreter agreement."""

import functools
import hashlib
import itertools
import random
import re
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibwalk import automata as au
from fibwalk import logic
from fibwalk import repetitions as rp
from fibwalk.brute import BruteForce
from fibwalk.logic import (Arith, Cmp, Conn, Const, LogicError, Not,
                           PredicateEnv, Quant, Var, compile_predicate,
                           parse_formula, parse_script, run_session)
from fibwalk.numeration import fib, floor_alpha2, zeck_decode, zeck_encode
from fibwalk.record import Record

SEC2_GOLDEN = """\
reg isfib: arity 1, states 2
reg evenfib: arity 1, states 3
reg oddfib: arity 1, states 3
reg adjfib: arity 2, states 4
def ffactoreq: arity 3, states 11
def suff: arity 3, states 75
reg shift: arity 2, states 2
def phi2n: arity 2, states 8
def good: arity 1, states 12
def b1: arity 3, states 8
def b2: arity 3, states 7
eval test: TRUE
"""


def shift_value(a):
    # appending a zero digit bumps every Fibonacci weight one index up
    return zeck_decode(zeck_encode(a) + "0")


def base_semantics(limit=4000):
    fibs = set()
    k = 2
    while fib(k) <= limit:
        fibs.add(fib(k))
        k += 1
    even = {fib(2 * j) for j in range(1, 25) if fib(2 * j) <= limit}
    odd = {fib(2 * j + 1) for j in range(1, 25) if fib(2 * j + 1) <= limit}
    adj = {(1, 1)} | {(fib(j + 1), fib(j)) for j in range(2, 25)
                      if fib(j + 1) <= limit}
    return {
        "isfib": lambda x: x in fibs,
        "evenfib": lambda x: x in even,
        "oddfib": lambda x: x in odd,
        "adjfib": lambda x, y: (x, y) in adj,
        "shift": lambda a, b: shift_value(a) == b,
    }


# the base predicates that call atoms use, as automata and as callables
CALL_SCRIPT = """reg isfib msd_fib "0*10*":
reg adjfib msd_fib msd_fib "([0,0]*[1,1])|[0,0]*[1,0][0,1][0,0]*":"""


@functools.cache
def call_env():
    env = PredicateEnv()
    run_session(CALL_SCRIPT, env)
    return env


# ---------------------------------------------------------------------------
# parsing


def test_parse_formula_shapes():
    f = parse_formula("?msd_fib x=1 & y=2")
    assert isinstance(f, Conn) and f.op == "and"
    f = parse_formula("?msd_fib ~x=1")
    assert isinstance(f, Not)
    f = parse_formula("?msd_fib Ex x=y")
    assert isinstance(f, Quant) and not f.every
    f = parse_formula("?msd_fib Ax,y x=y")
    assert isinstance(f, Quant) and f.every
    assert f.names == ("x", "y")
    # the op and the quantifier kind are part of a node's identity
    a, b = Var("a"), Var("b")
    assert Conn("and", a, b) != Conn("or", a, b)
    assert Quant(True, ("x",), a) != Quant(False, ("x",), a)
    assert Arith("+", a, b) != Arith("-", a, b)


def _unpos(f):
    """A parse tree with every source position reset to -1."""
    if isinstance(f, tuple):
        return tuple(map(_unpos, f))
    if not isinstance(f, Record):
        return f
    fields = {name: _unpos(getattr(f, name)) for name in f.__slots__}
    if "pos" in fields:
        fields["pos"] = -1
    return type(f)(**fields)


def _atom(k):
    return Cmp("=", Var("x"), Const(k))


A, B, C, D, E = map(_atom, range(1, 6))
_x, _y, _z = map(Var, "xyz")

PARSE_TREES = {
    # => is right associative
    "x=1 => x=2 => x=3": Conn("imp", A, Conn("imp", B, C)),
    # <=>, | and & are left associative
    "x=1 <=> x=2 <=> x=3": Conn("iff", Conn("iff", A, B), C),
    "x=1 | x=2 | x=3": Conn("or", Conn("or", A, B), C),
    "x=1 & x=2 & x=3": Conn("and", Conn("and", A, B), C),
    # & binds tighter than |, | than =>, and => than <=>
    "x=1 <=> x=2 => x=3 | x=4 & x=5":
        Conn("iff", A, Conn("imp", B, Conn("or", C, Conn("and", D, E)))),
    "x=1 & x=2 | x=3 => x=4 <=> x=5":
        Conn("iff", Conn("imp", Conn("or", Conn("and", A, B), C), D), E),
    "x=1 => x=2 <=> x=3 => x=4":
        Conn("iff", Conn("imp", A, B), Conn("imp", C, D)),
    "x=1 | x=2 => x=3 | x=4 => x=5":
        Conn("imp", Conn("or", A, B), Conn("imp", Conn("or", C, D), E)),
    # ~ takes the nearest unary formula
    "~x=1 & x=2": Conn("and", Not(A), B),
    # a quantifier reaches as far right as it can, up to a closing bracket
    "x=1 & Ex x=2 | x=3 => x=4 <=> x=5":
        Conn("and", A, Quant(False, ("x",), Conn(
            "iff", Conn("imp", Conn("or", B, C), D), E))),
    "(Ax,y x=1 | x=2) & x=3":
        Conn("and", Quant(True, ("x", "y"), Conn("or", A, B)), C),
    # + and - are left associative, and * binds tighter than both
    "x-y+z=0": Cmp("=", Arith("+", Arith("-", _x, _y), _z), Const(0)),
    "x+2*y-z=0": Cmp("=", Arith("-", Arith("+", _x, Arith("*", Const(2), _y)),
                                _z), Const(0)),
    "x*2+y=0": Cmp("=", Arith("+", Arith("*", _x, Const(2)), _y), Const(0)),
}


@pytest.mark.parametrize("src", sorted(PARSE_TREES))
def test_parse_trees(src):
    assert _unpos(parse_formula("?msd_fib " + src)) == PARSE_TREES[src]


def test_parse_precedence_via_interpreter():
    bf = BruteForce({}, 5)
    # & binds tighter than |
    f = parse_formula("?msd_fib x=1 | x=2 & x=3")
    assert bf.eval(f, {"x": 1})
    assert not bf.eval(f, {"x": 2})
    # => is right associative and looser than |
    g = parse_formula("?msd_fib x=1 | x=2 => x=2")
    assert bf.eval(g, {"x": 2})
    assert not bf.eval(g, {"x": 1})
    assert bf.eval(g, {"x": 3})  # antecedent false
    # ~ applies to the nearest atom
    h = parse_formula("?msd_fib ~x=1 & x=2")
    assert bf.eval(h, {"x": 2})
    assert not bf.eval(h, {"x": 1})


def test_parse_arithmetic_terms():
    bf = BruteForce({}, 20)
    f = parse_formula("?msd_fib x+2*y=10")
    assert bf.eval(f, {"x": 4, "y": 3})
    assert not bf.eval(f, {"x": 3, "y": 3})
    # natural subtraction: an underflowing atom is false
    g = parse_formula("?msd_fib x-y=1")
    assert bf.eval(g, {"x": 3, "y": 2})
    assert not bf.eval(g, {"x": 2, "y": 3})


def test_parse_errors_carry_position():
    with pytest.raises(LogicError) as ei:
        parse_formula("?msd_fib x=")
    assert "offset" in str(ei.value)
    with pytest.raises(LogicError):
        parse_formula("?msd_fib Ex")
    with pytest.raises(LogicError):
        parse_formula("?msd_fib x==1")
    with pytest.raises(LogicError):
        parse_formula("?msd_fib $f(x")
    # script-level errors are tagged with line and column
    with pytest.raises(LogicError) as ei:
        parse_script('def x "?msd_fib n=1"')
    assert "line 1" in str(ei.value)


# formulas nested past Python's recursion limit in the parser (brackets,
# ~, a => chain) or only in the compiler (an & chain, a sum), and the
# same shapes at a depth that compiles
def deep_formula(shape: str, n: int) -> str:
    return "?msd_fib " + {
        "brackets": "(" * n + "x=x" + ")" * n,
        "nots": "~" * n + "x=x",
        "imps": " => ".join(["x=x"] * n),
        "ands": " & ".join(["x=x"] * n),
        "sum": "+".join(["x"] * n) + "=0",
    }[shape]


DEEP = {"brackets": 400, "nots": 1200, "imps": 1000, "ands": 2000,
        "sum": 3000}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_nesting_is_a_logic_error(shape):
    src = deep_formula(shape, DEEP[shape])
    if shape in ("brackets", "nots", "imps"):
        with pytest.raises(LogicError, match="^formula nests too deeply$"):
            parse_formula(src)
    with pytest.raises(LogicError, match="^formula nests too deeply$"):
        compile_predicate(PredicateEnv(), src)
    # in a script the error names the command's line, raised by load
    # (which reads the callees, not the terms) or else by the compile
    located = r"^formula nests too deeply \(line 1, column 1\)$"
    if shape != "sum":
        with pytest.raises(LogicError, match=located):
            PredicateEnv().load(f'def a "{src}":')
    with pytest.raises(LogicError, match=located):
        run_session(f'def a "{src}":')
    # below the limit the same shape still compiles
    rel = compile_predicate(PredicateEnv(), deep_formula(shape, 200))
    assert rel.names == ("x",)
    assert au.accepts(rel.dfa, (0,))


def deep_reg(n: int) -> str:
    return 'reg deep msd_fib "' + "(" * n + "0" + ")" * n + '":\n'


def test_deep_reg_pattern_is_a_logic_error():
    # the regex parser recurses per bracket too; past the limit a reg is
    # refused like a formula, in a session and at a lookup
    want = r"^in reg deep: pattern nests too deeply \(line 1, column 1\)$"
    with pytest.raises(LogicError, match=want):
        run_session(deep_reg(400))
    env = PredicateEnv()
    env.load(deep_reg(400))
    with pytest.raises(LogicError, match=want):
        env.lookup("deep")
    # below the limit the same pattern still compiles
    assert run_session(deep_reg(200)).text == "reg deep: arity 1, states 2\n"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff17"])
def test_constants_take_ascii_digits_only(digit):
    # superscript two, Arabic-Indic three, fullwidth seven: str.isdigit
    # takes each, and int() reads the last two as 3 and 7
    src = f"?msd_fib x={digit}"
    with pytest.raises(LogicError, match=f"{digit!r} in formula at offset 3"):
        parse_formula(src)
    with pytest.raises(LogicError, match=r"offset 4"):
        parse_formula(f"?msd_fib x=1{digit}")
    with pytest.raises(LogicError, match=r"test needs a count \(line 1, column 12\)"):
        parse_script(f"test isfib {digit}:")
    assert parse_script("test isfib 07:")[0].count == 7


def test_names_take_ascii_only():
    # str.isalnum takes superscript two and e-acute inside a name
    with pytest.raises(LogicError, match=r"'\u00b2' in formula at offset 2"):
        parse_formula("?msd_fib x\u00b2=1")
    with pytest.raises(LogicError, match=r"'\u00e9' in formula at offset 2"):
        parse_formula("?msd_fib x\u00e9=1")
    with pytest.raises(LogicError, match=r"'\u00e9' in formula at offset 1"):
        parse_formula("?msd_fib \u00e9=1")
    with pytest.raises(LogicError,
                       match=r"expected a name, found '\u00e9' \(line 1, column 5\)"):
        parse_script('def \u00e9 "?msd_fib n=1":')
    with pytest.raises(LogicError, match=r"\(line 2, column 6\)"):
        parse_script('reg isfib msd_fib "0*(10*)?":\ntest \u00e9 3:')
    assert logic.free_vars(parse_formula("?msd_fib _x=y2_")) == {"_x", "y2_"}


def test_predicate_names_may_start_with_quantifier_letters():
    # E and A start a quantifier, but after '$' the name is read whole
    report = run_session(
        'def Eq "?msd_fib x=x":\n'
        'def Ab "?msd_fib x+1>x":\n'
        'def E "?msd_fib Ay x+y>=y":\n'
        'eval t "?msd_fib Ax $Eq(x) & $Ab(x) & $ E(x)":\n')
    assert report.entries[-1].line == "eval t: TRUE"
    with pytest.raises(LogicError, match="expected predicate name after"):
        parse_formula("?msd_fib $(x)")


def test_parse_script_commands():
    cmds = parse_script(rp.script_text("good_partition.wal"))
    kinds = [type(c).__name__ for c in cmds]
    assert kinds.count("RegCmd") == 5
    assert kinds.count("DefCmd") == 7  # six defs plus the closed eval
    names = [c.name for c in cmds]
    assert names[-1] == "test"


# (script, its exact error message, line, column): every message of the
# script reader, the formula tokenizer's, and two of registration
SCRIPT_ERRORS = [
    ('def', "unexpected end of script", 1, 4),
    ('reg s msd_fib', "unexpected end of script", 1, 14),
    ('def x "?msd_fib n=1":\n# last\ndef', "unexpected end of script", 3, 4),
    ('def 1x "?msd_fib n=1":', "expected a name, found '1'", 1, 5),
    ('\n  eval \x0c "?msd_fib n=1":', r"expected a name, found '\x0c'", 2, 8),
    ('def x "y": :', "expected a name, found ':'", 1, 12),
    ('def é "x":', "expected a name, found 'é'", 1, 5),
    ('reg s msd_fib {0,1} 7 "x":', "expected a name, found '7'", 1, 21),
    ('def x y:', "expected a double-quoted string", 1, 7),
    ('def x', "expected a double-quoted string", 1, 6),
    ('def x "?msd_fib n=1', "unterminated string", 1, 7),
    ('reg s msd_fib "x', "unterminated string", 1, 15),
    ('# note "\ndef x "?msd_fib n=1"\n', "expected ':' to end the command",
     3, 1),
    ('def x "?msd_fib n=1" def', "expected ':' to end the command", 1, 22),
    ('reg s msd_fib "x"', "expected ':' to end the command", 1, 18),
    ('test x 5abc:', "expected ':' to end the command", 1, 9),
    ('reg s {0,1 "x":', "unterminated alphabet tag", 1, 7),
    ('reg s {0,2} "x":', "unsupported alphabet '{0,2}'", 1, 7),
    ('reg s {0, 1}\n  { 1 , 0 } "x":', "unsupported alphabet '{1,0}'", 2, 3),
    ('reg s {0,2} "x', "unsupported alphabet '{0,2}'", 1, 7),  # tags first
    # inside a tag, as between tokens, only space, tab, CR and LF are space
    ('reg s {0,\x0c1} "[0,0]":', r"unsupported alphabet '{0,\x0c1}'", 1, 7),
    ('reg s\n {0,\xa01} "[0,0]":', r"unsupported alphabet '{0,\xa01}'", 2, 2),
    ('reg s msd_2 "0":', "unsupported numeration tag 'msd_2'", 1, 7),
    ('reg s "0*":', "reg needs at least one track tag", 1, 1),
    ('test x:', "test needs a count", 1, 7),
    ('test x', "test needs a count", 1, 7),
    ('foo x:', "unknown command 'foo'", 1, 1),
    ('\n\n   tset x 5:', "unknown command 'tset'", 3, 4),
    ('reg s msd_fib "0":\neval t "?msd_fib x @ y":',
     "unexpected character '@' in formula at offset 3", 2, 1),
    ('def t "?msd_fib x=1 &\n é":',
     "unexpected character 'é' in formula at offset 8", 1, 1),
    ('def a "?msd_fib n=1":\ndef a "?msd_fib n=2":',
     "name 'a' is already defined", 2, 1),
    ('eval t "?msd_fib $nothere(n)":', "unknown predicate 'nothere'", 1, 1),
]


def test_script_errors():
    for script, message, line, col in SCRIPT_ERRORS:
        with pytest.raises(LogicError) as info:
            run_session(script)
        assert str(info.value) == f"{message} (line {line}, column {col})", \
            script
        assert info.value.line == line, script


# ---------------------------------------------------------------------------
# compilation


def test_compile_simple_relations():
    env = PredicateEnv()
    rel = compile_predicate(env, "?msd_fib x+y=z")
    assert rel.names == ("x", "y", "z")
    assert au.accepts(rel.dfa, (3, 5, 8))
    assert not au.accepts(rel.dfa, (3, 5, 9))
    rel2 = compile_predicate(env, "?msd_fib Ey x+y=10 & y>=4")
    got = [n for n in range(12) if au.accepts(rel2.dfa, (n,))]
    assert got == list(range(7))


def test_compile_sequence_atom():
    env = PredicateEnv()
    rel = compile_predicate(env, "?msd_fib F[i]=F[j]")
    from fibwalk.fibword import symbol_at
    for i in range(40):
        for j in range(40):
            assert au.accepts(rel.dfa, (i, j)) == (symbol_at(i) == symbol_at(j))


def test_compile_closed_formulas():
    env = PredicateEnv()
    yes = compile_predicate(env, "?msd_fib An n>=1 => n+1>=2")
    assert yes.dfa.arity == 0
    assert au.decide_true(yes.dfa)
    no = compile_predicate(env, "?msd_fib En n+2=1")
    assert not au.decide_true(no.dfa)


def test_quantifier_duality_small():
    env = PredicateEnv()
    a = compile_predicate(env, "?msd_fib Ax (x<=n) => x<=10")
    b = compile_predicate(env, "?msd_fib ~(Ex (x<=n) & ~(x<=10))")
    assert au.minimize(a.dfa) == au.minimize(b.dfa)


def agrees_with_brute_force(src, limit, bound=None):
    """The compiled relation and BruteForce agree on every tuple <= limit;
    calls go to call_env's automata and to base_semantics' callables.
    BruteForce's quantifiers range over 0..bound (default limit).
    Returns the compiled relation."""
    f = parse_formula(src)
    rel = compile_predicate(call_env(), src)
    bf = BruteForce(base_semantics(), bound or limit)
    for vals in itertools.product(range(limit + 1), repeat=len(rel.names)):
        want = bf.eval(f, dict(zip(rel.names, vals)))
        assert au.accepts(rel.dfa, vals) == want, (src, vals)
    return rel


# the shapes logic._negate rewrites: (formula, tuple limit, BruteForce
# bound, sha256 of its automaton as it was built before A and ~ went
# through _negate).  The bound covers every value a quantifier must take
# at a tuple within the limit: x = n + y in the last shape.
NEGATE_SHAPES = [
    ("?msd_fib ~~($isfib(x) & x<y)", 14, 14,
     "438d0e8bc8c1bafb93a0935a75ed320687223631a65c5d2d8a242ae028d6bcee"),
    ("?msd_fib ~($isfib(x) => x<y)", 14, 14,
     "605b37a7b3feecb847b69e592edb01075e78a723405b525b65c1e987d0a76407"),
    ("?msd_fib ~(x<y => ~$isfib(y))", 14, 14,
     "12254a2981bafb2a17b17a61e485d7207953462210def60b039457ecc2860fc1"),
    ("?msd_fib Ax (x<n) => ~$adjfib(n,x)", 40, 40,
     "81a79c8a135a2e968e457737c034e433f059084ab84c312c5b13efd69f77f2e3"),
    ("?msd_fib Ax,y (x+y=n) => ($isfib(x) | $isfib(y))", 30, 30,
     "7d53e5ea65659e26da5a1f8c6f00a923e9a635e5968ce063b73b5912d5d5238f"),
    ("?msd_fib Ax $isfib(n)", 30, 30,
     "e9714b450d94e750a4e1a388802d539bda127d3f770f468d943c1c99e1bc4b0c"),
    ("?msd_fib Ax (x-y=n) => $isfib(x)", 12, 24,
     "5ece46315a8de1621f2c9db571547d2fb14a8d86c652d46c6fc49857171044c9"),
]


def test_negate_has_two_rules():
    a, b = parse_formula("?msd_fib x<y"), parse_formula("?msd_fib $isfib(y)")
    assert logic._negate(Not(a)) == a
    assert logic._negate(Conn("imp", a, b)) == Conn("and", a, Not(b))
    for op in ("and", "or", "iff"):
        assert logic._negate(Conn(op, a, b)) is None
    for f in (a, b, parse_formula("?msd_fib Ex x<y"),
              parse_formula("?msd_fib Ax x<y")):
        assert logic._negate(f) is None


@pytest.mark.parametrize("src, limit, bound, want", NEGATE_SHAPES)
def test_negate_shapes_match_brute_force_and_digest(src, limit, bound, want):
    rel = agrees_with_brute_force(src, limit, bound)
    assert digest(rel.dfa) == want, src


def test_readme_comparison_operators_compile():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ops = re.search(r"comparisons `([^`]*)`", readme).group(1).split()
    assert "!=" in ops
    for op in ops:
        agrees_with_brute_force(f"?msd_fib x{op}y+1", 14)


def test_readme_connective_order_is_the_parsers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    order = re.search(r"connectives, tightest first, `~` \(prefix\),([^;]*)",
                      readme).group(1)
    tokens = re.findall(r"`([^`]*)`", order.split(", where")[0])
    assert tokens[::-1] == list(logic._LEVELS)


# each command form README's script grammar lists, with instances that
# use every tag and every reg-pattern construct it names
README_FORMS = {
    'reg NAME TAG [TAG ...] "REGEX":': [
        'reg isfib msd_fib "0*10*":',
        'reg adj msd_fib msd_fib "([0,0]*[1,1])|[0,0]*[1,0][0,1][0,0]*":',
        'reg sh { 0 , 1 } {0,1} "([0,0]|[0,1][1,1]*[1,0])*":',
        'reg mixed msd_fib\n  {0, 1} "[0, 1] ( [1,0] | [0,0] )*":'],
    'def NAME "?msd_fib FORMULA":': [
        'def big "?msd_fib $isfib(n) &\n  n>1":'],
    'eval NAME "?msd_fib FORMULA":': ['eval has8 "?msd_fib En $big(n) & n=8":'],
    'test NAME K:': ['test big 3:'],
    '# text': ['# a comment, "with a quote and a {'],
}


def test_readme_command_forms_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"each ending with a colon:\n\n```text\n(.*?)```",
                      readme, re.S).group(1)
    assert [re.split(r"\s{2,}", row)[0] for row in block.splitlines()] \
        == list(README_FORMS)
    text = "\n".join(row for rows in README_FORMS.values() for row in rows)
    assert run_session(text).text == (
        "reg isfib: arity 1, states 2\n"
        "reg adj: arity 2, states 4\n"
        "reg sh: arity 2, states 2\n"
        "reg mixed: arity 2, states 2\n"
        "def big: arity 1, states 3\n"
        "eval has8: TRUE\n"
        "test big 3: 10 (=2), 100 (=3), 1000 (=5)\n")


def test_multi_term_atoms_match_brute_force():
    for src in ("?msd_fib 2*x+3*y<=z+4", "?msd_fib x-y+1=z",
                "?msd_fib x+y=y+z", "?msd_fib 2*(x-y)!=z+1",
                "?msd_fib 3*x>2*y+5", "?msd_fib (x-y)-z=0",
                "?msd_fib 3*(x-(y-z))>=x",
                "?msd_fib x-y<x+1",  # only the guard x>=y can fail
                # call arguments: a constant, a repeated variable, and
                # differences whose inner guard the helper does not imply
                "?msd_fib $isfib(3) & $isfib(x)", "?msd_fib $adjfib(x,x)",
                "?msd_fib $isfib((x-y)+3)", "?msd_fib $isfib(x-(y-2))",
                "?msd_fib $adjfib(x-y,(x-y)+1)",
                "?msd_fib $adjfib(y+1,x-(y-1))",
                # helpers tied through each other: x and y cancel and the
                # other equation binds them; a zero coefficient of the
                # argument's own (z, then x) keeps its variable's track
                "?msd_fib $adjfib(x+y,(x+y)+z)",
                "?msd_fib $adjfib(x+y,(x+z)-(y+z))",
                "?msd_fib $adjfib(y,(x+y)-(x))"):
        agrees_with_brute_force(src, 10)
    # a variable whose coefficients cancel keeps its track
    for src, names in (("?msd_fib x+y=y+z", ("x", "y", "z")),
                       ("?msd_fib $adjfib(y,(x+y)-(x))", ("x", "y")),
                       ("?msd_fib $adjfib(x+y,(x+z)-(y+z))", ("x", "y", "z"))):
        assert compile_predicate(call_env(), src).names == names


def assert_minimal(dfa, what):
    assert au.minimize(dfa) == dfa, what


@pytest.mark.parametrize("a, b", [
    ("x<y+2", "F[y]=F[z]"),
    ("$isfib(x)", "Et (t<=y) & x=t+t"),
    ("2*y!=z+1", "F[x+1]=F[y] | $isfib(z)"),
])
def test_imp_and_iff_match_their_expansions(env, a, b):
    # a and b have different free variables, so their tracks are aligned
    cases = [(f"({a}) <=> ({b})", f"(({a}) & ({b})) | (~({a}) & ~({b}))"),
             (f"({a}) => ({b})", f"~({a}) | ({b})")]
    for one, two in cases:
        got = compile_predicate(env, "?msd_fib " + one)
        want = compile_predicate(env, "?msd_fib " + two)
        assert got == want, one
        assert_minimal(got.dfa, one)
        assert_minimal(want.dfa, two)


@pytest.mark.parametrize("script", ["good_partition.wal", "lemma_checks.wal",
                                    "largest_index.wal"])
def test_stored_session_automata_are_minimal(script_run, script):
    _, env = script_run(script)
    for name, pred in env.preds.items():
        assert_minimal(pred.dfa, (script, name))


@pytest.mark.parametrize("script", ["good_partition.wal", "lemma_checks.wal",
                                    "largest_index.wal"])
def test_validated_is_the_validity_product(script_run, script):
    _, env = script_run(script)
    for name, pred in env.preds.items():
        want = au.product(pred.dfa, au.validity_automaton(pred.arity), "and")
        assert pred.validated() == want, (script, name)


# sha256 of automata.to_text: any change to the canonical numbering, or to
# the automata themselves, changes a digest
STORED_DIGESTS = {
    "isfib": "e9714b450d94e750a4e1a388802d539bda127d3f770f468d943c1c99e1bc4b0c",
    "evenfib": "f138d95f2414b8da12a93d73e45600ece3dfe94b419d0cf16ec7096bf02cb161",
    "oddfib": "f3256151512e3ac9ea18c92911ed9c632d203fa6171279a123e68fccc083fca9",
    "adjfib": "26529ec58000d08038338c8ec033ac3840f68111f1b7c7787a2ae8f463df2ace",
    "ffactoreq": "97718d26b41e7aabfde098f21adf0a8d65cb44232cf49aebe8eef09c67db693b",
    "suff": "f2869863270f2a281febf698608580eae61a4bc02c25a0f9bbd4a838478725f5",
    "shift": "a53c10559b58afa6335b53fc48e16b06760826ab371885f70bd364aad155e026",
    "phi2n": "f5263a500a0302ebfbf7f9f8def575e2527b5844d7486d584b8dabfc5bcf59ab",
    "good": "b0c73afffc632762e13e4a18b0f0338ebac972b9e454fb4c894e2473b162536c",
    "b1": "68e5e0a50c7601bc24db2fb36b99ae48d876c8d5fd233f98dd44239b47710a71",
    "b2": "e20927db479c177493fa372578d77a97b629eb5b0ff29956b23b251db47c24a0",
    "test": "c07d34ef7ac42e0e152d255fbb851bc533b3e230581412654e3480635c0bce5a",
    "check1": "c07d34ef7ac42e0e152d255fbb851bc533b3e230581412654e3480635c0bce5a",
    "check2a": "c07d34ef7ac42e0e152d255fbb851bc533b3e230581412654e3480635c0bce5a",
    "check2b": "c07d34ef7ac42e0e152d255fbb851bc533b3e230581412654e3480635c0bce5a",
    "has_suff": "4cd1a5a002dc4dca1bda560b874bebd1a5bdc0afdc456f5c6867520305f10140",
    "largest_index": "aaabd18852940a94ca91b2b86683a3356eb74f87b32f155bcdce790b75546464",
}
BUILT_DIGESTS = {
    "adder": "e7c0b27a890ca4bfdfa836953602c87a9c74f010c7a891be514e9ff6db8da424",
    "const_multiple(13)": "f7788e1a24dd55b7d87e87a11dc8a9da6d1a1c941568d113780be1953f311dee",
    "ratio_reach_automaton(54, 21)": "228daddb4a6362f966878d5efb14b3f50fc0eb3e3a29f9586effbce0b1ae859d",
    "sequence_atom_automaton()": "4ff5cec1cbd2877de822edd984810b14394a4fc27a1d2eb04d7dacc4d0081504",
}


def digest(dfa):
    return hashlib.sha256(au.to_text(dfa).encode()).hexdigest()


@pytest.mark.parametrize("script", ["good_partition.wal", "lemma_checks.wal",
                                    "largest_index.wal"])
def test_stored_automata_match_golden_digests(script_run, script):
    _, env = script_run(script)
    assert set(env.preds) <= set(STORED_DIGESTS)
    for name, pred in env.preds.items():
        assert digest(pred.dfa) == STORED_DIGESTS[name], (script, name)


def test_built_automata_match_golden_digests():
    built = {"adder": au.adder(), "const_multiple(13)": au.const_multiple(13),
             "ratio_reach_automaton(54, 21)": rp.ratio_reach_automaton(54, 21),
             "sequence_atom_automaton()": logic.sequence_atom_automaton()}
    assert {k: digest(a) for k, a in built.items()} == BUILT_DIGESTS


# {n : e(n) >= p/q} for p/q = (F_{k+1}-1)/F_{k-1}, k = 6..12; pinned from
# the hand-fused construction (suff constrained by q*x - p*y >= 0) that
# the compiled formula replaced
RATIO_DIGESTS = {
    (12, 5): "e6cd640d8982da88a845751679d70c83ca556e867af2e02cd42a0937ba252441",
    (20, 8): "36221ac149092150965ad3217a92c0873114873715d317851ae654d8952cb83b",
    (33, 13): "e9192c8953d8971ce63d758a86ddc9affa48be037fd7bc124fe5e1ec974d4ac7",
    (54, 21): "228daddb4a6362f966878d5efb14b3f50fc0eb3e3a29f9586effbce0b1ae859d",
    (88, 34): "378a0352191c6eea9c9e0713bae76bdd0fce178796c6d2f3aaef555f11e78330",
    (143, 55): "9aaf004b719e5e9b8d52fb93ef4d8c49d40ec6e2221890b268ff0a8467c633dc",
    (232, 89): "2bc3468147a6d42249d511a97d30e839e333e973f1bfab50f931865bfd2fd72a",
}


@pytest.mark.parametrize("p, q", sorted(RATIO_DIGESTS))
def test_ratio_reach_automaton_matches_golden_digests(p, q):
    assert digest(rp.ratio_reach_automaton(p, q)) == RATIO_DIGESTS[p, q]


@pytest.fixture
def recorded(env, monkeypatch):
    """Lists of the (coeffs, rel, c) that automata.linear and
    automata.constrain are called with from here on.

    The compile memo is cleared first, so a formula compiled earlier in
    the process is compiled again; suff, which the tests call, is
    compiled before recording starts."""
    logic.clear_compile_memo()
    env.lookup("suff")
    built, constrained = [], []
    linear, constrain = au.linear, au.constrain

    def recorded_linear(coeffs, rel, c):
        built.append((coeffs, rel, c))
        return linear(coeffs, rel, c)

    def recorded_constrain(a, coeffs, rel, c):
        constrained.append((coeffs, rel, c))
        return constrain(a, coeffs, rel, c)

    monkeypatch.setattr(au, "linear", recorded_linear)
    monkeypatch.setattr(au, "constrain", recorded_constrain)
    return built, constrained


def timed_compile(env, src):
    start = time.perf_counter()
    rel = compile_predicate(env, src)
    assert time.perf_counter() - start < 1.0, src
    return rel


def test_bound_comparison_constrains_its_conjunction(env, recorded):
    built, constrained = recorded
    rel = timed_compile(env, "?msd_fib Ex,y $suff(n,x,y) & 89*x>=232*y")
    # no standalone atom: the comparison went onto suff's tracks (n, x, y)
    assert built == []
    assert constrained == [((0, 89, -232), ">=", 0)]
    assert rel.names == ("n",) and len(rel.dfa.transitions) == 32


def test_natural_difference_constrains_its_conjunction(env, recorded):
    built, constrained = recorded
    rel = timed_compile(env, "?msd_fib Ex,y $suff(n,x,y) & 34*(x-y)>=54*y")
    # 34*(x-y)-54*y >= 0, then the guard x-y >= 0, both on suff's tracks
    assert built == []
    assert constrained == [((0, 34, -88), ">=", 0), ((0, 1, -1), ">=", 0)]
    assert rel.names == ("n",) and len(rel.dfa.transitions) == 26
    assert rel.dfa == rp.ratio_reach_automaton(88, 34)


def test_repeated_compile_is_memoized(env, recorded, monkeypatch):
    built, constrained = recorded
    ops, product, project = [], au.product, au.project
    monkeypatch.setattr(au, "product", lambda a, b, mode:
                        ops.append(mode) or product(a, b, mode))
    monkeypatch.setattr(au, "project", lambda a, track:
                        ops.append(track) or project(a, track))
    src = "?msd_fib Ex,y $suff(n,x,y) & $isfib(y) & 21*x>=54*y"
    first = compile_predicate(env, src)
    assert constrained and "and" in ops  # the first compile ran in full
    constrained.clear()
    ops.clear()
    # an env that agrees on the callees shares the entry
    again = compile_predicate(env.copy(), src)
    assert (built, constrained, ops) == ([], [], [])
    assert again == first


def test_redefined_callee_recompiles(env):
    src = "?msd_fib (~$hs(n)) & Am (m>n) => $hs(m)"
    got = {}
    for p, q in ((12, 5), (20, 8)):
        scoped = env.copy()
        scoped.define("hs", rp.ratio_reach_automaton(p, q))
        got[p, q] = compile_predicate(scoped, src)
        assert got[p, q] == logic.compile_formula(parse_formula(src), scoped)
    assert got[12, 5] != got[20, 8]


@pytest.mark.parametrize("src, message", [
    ("?msd_fib x*y=1", "multiplication needs a literal constant side"),
    ("?msd_fib $nothere(x) | x*y=1", "unknown predicate 'nothere'"),
    ("?msd_fib x*y=1 | $nothere(x)", "multiplication needs"),
    ("?msd_fib $isfib(x,y)", "$isfib takes 1 arguments, got 2"),
])
def test_failed_compile_raises_every_time(src, message):
    for _ in range(2):
        with pytest.raises(LogicError, match=re.escape(message)):
            compile_predicate(call_env(), src)
    assert all(key[0] != src for key in logic._COMPILED)


FREE = ("n", "x", "y")


CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


def reference_conjoin_linear(rel, form, op):
    """rel and `form op 0` by another route: the constraint built on its
    own by automata.linear, then conjoined with rel by one full product."""
    coeffs, const = form
    names = tuple(sorted(coeffs))
    atom = logic.Rel(au.linear(tuple(coeffs[v] for v in names), op, -const),
                     names)
    return logic._boolean(rel, atom, "and")


SCRIPTS = ("good_partition.wal", "lemma_checks.wal", "largest_index.wal")


def test_every_constraint_of_the_scripts_matches_the_product_route(
        monkeypatch):
    calls = []
    conjoin = logic._conjoin_linear

    def recorded(rel, form, op):
        out = conjoin(rel, form, op)
        calls.append((rel, form, op, out))
        return out

    built = []
    linear = au.linear
    monkeypatch.setattr(logic, "_conjoin_linear", recorded)
    monkeypatch.setattr(au, "linear", lambda *a: built.append(a) or linear(*a))
    logic.clear_compile_memo()
    try:
        for name in SCRIPTS:
            run_session(rp.script_text(name))
    finally:
        logic.clear_compile_memo()
    on_rel = [(rel, form, op, out) for rel, form, op, out in calls
              if rel is not None]
    # linear is built only for a constraint with nothing to constrain
    assert len(built) == len(calls) - len(on_rel) > 0
    widened = 0
    for rel, form, op, out in on_rel:
        assert out == reference_conjoin_linear(rel, form, op), (form, op)
        widened += not form[0].keys() <= set(rel.names)
    # the helper equations of the calls bring in variables, e.g. suff's
    # #1 = (n+y)-x brings in y
    assert widened >= 3


@st.composite
def linear_cases(draw):
    """(rel, form, op): a bundled predicate on sorted names drawn from
    a..e, and a form over names drawn from the same pool."""
    env = rp.session_env()
    name = draw(st.sampled_from(["isfib", "adjfib", "ffactoreq", "suff",
                                 "phi2n", "b1", "b2"]))
    dfa = env.lookup(name).validated()
    pool = "abcde"
    names = tuple(sorted(draw(st.lists(st.sampled_from(pool), unique=True,
                                       min_size=dfa.arity,
                                       max_size=dfa.arity))))
    variables = draw(st.lists(st.sampled_from(pool), unique=True,
                              min_size=1, max_size=3))
    coeffs = {v: draw(st.integers(-4, 4)) for v in variables}
    const, op = draw(st.integers(-8, 8)), draw(st.sampled_from(CMP_OPS))
    return logic.Rel(dfa, names), (coeffs, const), op


@settings(max_examples=60, deadline=None)
@given(case=linear_cases())
def test_conjoin_linear_matches_the_product_route(case):
    rel, form, op = case
    got = logic._conjoin_linear(rel, form, op)
    assert got == reference_conjoin_linear(rel, form, op)
    assert got.names == tuple(sorted(set(rel.names) | form[0].keys()))


@st.composite
def terms(draw, scope, subtract=True):
    v, w = draw(st.sampled_from(scope)), draw(st.sampled_from(scope))
    c, k = draw(st.integers(0, 3)), draw(st.integers(3, 13))
    shapes = [v, str(c), f"{v}+{c}", f"2*{v}", f"{k}*{v}", f"{v}+{w}"]
    if subtract:
        shapes += [f"{v}-{w}", f"({v}-{w})+{c}", f"{v}-({w}-{c})"]
    return draw(st.sampled_from(shapes))


@st.composite
def formulas(draw, scope=FREE, depth=0):
    """Connectives and guarded quantifiers over comparison, word and call
    atoms.

    A quantified q_d is bounded by a variable already in scope, so every
    value it can take lies inside BruteForce's domain.  The "bound" shape
    conjoins a word atom with a comparison over the atom's own variables,
    which the compiler applies to the atom rather than building alone.
    The right term of an atom repeats the left one about half of the
    time, which gives $adjfib and word atoms a repeated argument.
    """
    kinds = (["atom", "call", "bound"] if depth >= 3 else
             ["atom", "call", "bound", "not", "bin", "bin", "quant"])
    kind = draw(st.sampled_from(kinds))
    if kind in ("atom", "call"):
        left = draw(terms(scope))
        right = draw(st.one_of(st.just(left), terms(scope)))
        ops = ["$isfib", "$adjfib"] if kind == "call" else CMP_OPS + ["F"]
        op = draw(st.sampled_from(ops))
        if op == "$isfib":
            return f"$isfib({left})"
        if op == "$adjfib":
            return f"$adjfib({left},{right})"
        return f"F[{left}]=F[{right}]" if op == "F" else f"{left}{op}{right}"
    if kind == "bound":
        pair = (draw(st.sampled_from(scope)), draw(st.sampled_from(scope)))
        left, right = draw(terms(pair, False)), draw(terms(pair, False))
        op = draw(st.sampled_from(CMP_OPS))
        return f"F[{pair[0]}]=F[{pair[1]}] & {left}{op}{right}"
    if kind == "not":
        return f"~({draw(formulas(scope, depth + 1))})"
    if kind == "bin":
        op = draw(st.sampled_from(["&", "|", "=>", "<=>"]))
        left = draw(formulas(scope, depth + 1))
        return f"({left}) {op} ({draw(formulas(scope, depth + 1))})"
    q, guard = f"q{depth}", draw(st.sampled_from(scope))
    body = draw(formulas(scope + (q,), depth + 1))
    if draw(st.booleans()):
        return f"E{q} ({q}<={guard}) & ({body})"
    return f"A{q} ({q}<={guard}) => ({body})"


@contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError naming `what` once the block has run `seconds`,
    by this process's real-time interval timer."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s: {what}")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


FUZZ_SECONDS = 60  # a whole run of the fuzz below takes about 1-11 s


@settings(max_examples=100, deadline=None)
@given(f=formulas())
def test_random_formulas_match_brute_force(f):
    # the draws are unseeded, and one once held a test run for minutes
    # while its memory grew: a draw that runs too long fails, naming
    # its formula, where it would hang
    with time_limit(FUZZ_SECONDS, f):
        agrees_with_brute_force("?msd_fib " + f, 5)


def test_call_argument_aliasing():
    # repeated variables in a call collapse tracks; adjfib(x,x) only at 1
    env = rp.session_env()
    rel = compile_predicate(env, "?msd_fib $adjfib(x,x)")
    got = [n for n in range(200) if au.accepts(rel.dfa, (n,))]
    assert got == [1]
    # a term argument gets a helper track, tied to n by its equation
    rel2 = compile_predicate(env, "?msd_fib $adjfib(n+1,n)")
    got2 = [n for n in range(200) if au.accepts(rel2.dfa, (n,))]
    assert got2 == [1, 2]  # (2,1) and (3,2) only


def linear_argument(rng, fresh):
    """(argument, the equation that names it `fresh`): a sum of 1-3 of x,
    y, z, perhaps plus 1, or a natural difference of two such sums, which
    fresh + subtrahend = minuend states exactly."""
    def total(names):
        return "+".join(names + ["1"] * rng.randint(0, 1))
    names = rng.sample("xyz", rng.randint(1, 3))
    if len(names) == 1 or rng.random() < 0.5:
        arg = total(names)
        return arg, f"{fresh}={arg}"
    cut = rng.randint(1, len(names) - 1)
    minuend, subtrahend = total(names[:cut]), total(names[cut:])
    return f"({minuend})-({subtrahend})", f"{fresh}+{subtrahend}={minuend}"


def test_planned_call_atoms_match_explicit_variables(env, script_run):
    # the argument order the planner picks must not change the relation:
    # Ea,b,c $ffactoreq(a,b,c) & a+x=n & ... is the call with each
    # argument named and constrained by hand
    scoped = env.copy()
    scoped.define("per", script_run("fib_periods.wal")[1]
                  .lookup("per").dfa)
    rng = random.Random(17)
    for callee in ("ffactoreq", "b1", "per", "F"):
        for _ in range(3):
            fresh = "ab" if callee == "F" else "abc"
            n_linear = rng.randint(2, len(fresh))
            args, equations = [], []
            for i, a in enumerate(fresh):
                if i < n_linear:
                    arg, equation = linear_argument(rng, a)
                else:
                    arg = rng.choice("xyz")
                    equation = f"{a}={arg}"
                args.append(arg)
                equations.append(equation)
            if callee == "F":
                call = "F[{}]=F[{}]".format(*args)
                named = "F[{}]=F[{}]".format(*fresh)
            else:
                call = f"${callee}({','.join(args)})"
                named = f"${callee}({','.join(fresh)})"
            explicit = (f"?msd_fib E{','.join(fresh)} {named} & "
                        + " & ".join(equations))
            got = logic.compile_formula(parse_formula("?msd_fib " + call),
                                        scoped)
            want = logic.compile_formula(parse_formula(explicit), scoped)
            assert got == want, (call, explicit)


def test_suff_ties_its_arguments_through_each_other(env, monkeypatch):
    # $ffactoreq(n-x,(n+y)-x,x-y): (n+y)-x less the pending n-x brings in
    # only y, then x-y only x, then n-x only n
    suff = env.lookup("suff").dfa  # ffactoreq is compiled before recording
    equations, sizes = [], []
    conjoin, constrain = logic._conjoin_linear, au.constrain

    def recorded(rel, form, op):
        if op == "=":
            equations.append({v: c for v, c in form[0].items()
                              if not v.startswith("#")})
        return conjoin(rel, form, op)

    def recorded_constrain(a, coeffs, op, c):
        sizes.append(len(a.transitions))
        return constrain(a, coeffs, op, c)

    monkeypatch.setattr(logic, "_conjoin_linear", recorded)
    monkeypatch.setattr(au, "constrain", recorded_constrain)
    src = "?msd_fib n>=x & x>=y & y>=1 & $ffactoreq(n-x,(n+y)-x,x-y)"
    rel = logic.compile_formula(parse_formula(src), env)
    assert equations == [{"y": -1}, {"x": -1, "y": 1}, {"n": -1, "x": 1}]
    # state counts are exact: tying the arguments one by one took 246
    assert max(sizes) <= 117, sizes
    assert rel.dfa == suff


def test_forall_compiles_as_negated_exists(env, monkeypatch):
    # At (t<n) => g is ~Et (t<n & ~g): the word atom and the E are
    # complemented, once each, and no imp product is built
    want = env.lookup("ffactoreq").dfa
    complemented, modes, projected = [], [], []
    complement, product, project = au.complement, au.product, au.project
    monkeypatch.setattr(au, "complement", lambda a:
                        complemented.append(a.arity) or complement(a))
    monkeypatch.setattr(au, "product", lambda a, b, mode:
                        modes.append(mode) or product(a, b, mode))
    monkeypatch.setattr(au, "project", lambda *args:
                        projected.append(len(args)) or project(*args))
    rel = logic.compile_formula(
        parse_formula("?msd_fib At (t<n) => F[i+t]=F[j+t]"), PredicateEnv())
    assert rel.names == ("i", "j", "n")
    assert rel.dfa == want
    assert complemented == [3, 3]
    assert "imp" not in modes
    assert projected and set(projected) == {2}


# ---------------------------------------------------------------------------
# sessions


def test_session_golden_text(script_report):
    assert script_report("good_partition.wal").text == SEC2_GOLDEN


def test_session_test_lists_the_first_fibonacci_numbers():
    report = run_session('reg isfib msd_fib "0*10*":\ntest isfib 1000:')
    witnesses = report.entries[-1].data["witnesses"]
    assert [w["values"] for w in witnesses] == [[fib(k)]
                                                for k in range(2, 1002)]
    assert [w["reps"] for w in witnesses] == [["1" + "0" * k]
                                              for k in range(1000)]


def test_session_json_shape(script_report):
    import json
    data = json.loads(script_report("good_partition.wal").to_json())
    assert data[-1] == {"command": "eval", "name": "test", "verdict": True}
    assert data[5]["states"] == 75


def test_phi2n_wythoff_script_proves_floor_alpha2():
    # the script proves good_partition.wal's own phi2n
    text = rp.script_text("phi2n_wythoff.wal")
    for cmd in ("shift", "phi2n"):
        line = re.search(rf"^(reg|def) {cmd} [^:]*:", text, re.M).group(0)
        assert line in rp.script_text("good_partition.wal")
    report = run_session(text)
    data = {e.data["name"]: e.data for e in report.entries}
    assert data["wa"]["states"] == 7 and data["wa"]["tracks"] == ["n", "v"]
    assert [(n, d["verdict"]) for n, d in data.items() if "verdict" in d] \
        == [("func", True), ("bincr", True), ("aincr", True),
            ("compl", True), ("a1", True)]


@pytest.mark.parametrize("new, fails", [
    ("s=y+1", {"aincr", "a1"}),
    ("s=y+3", {"compl", "a1"}),
])
def test_phi2n_wythoff_script_fails_when_broken(new, fails):
    text = rp.script_text("phi2n_wythoff.wal")
    assert text.count("s=y+2") == 1
    report = run_session(text.replace("s=y+2", new))
    verdicts = {e.data["name"]: e.data["verdict"] for e in report.entries
                if "verdict" in e.data}
    assert {n for n, v in verdicts.items() if not v} == fails


def test_session_parses_each_formula_once(monkeypatch):
    # load reads each formula for its callees and lookup compiles it, from
    # one parse
    parsed, parser = [], logic._FormulaParser
    monkeypatch.setattr(logic, "_FormulaParser",
                        lambda body: parsed.append(body) or parser(body))
    # a tab after each tag: sources no other test parses
    text = rp.script_text("largest_index.wal").replace('"?msd_fib ',
                                                       '"?msd_fib\t')
    run_session(text)
    formulas = [c for c in parse_script(text) if isinstance(c, logic.DefCmd)]
    assert len(formulas) == 4
    assert len(parsed) == len(formulas)


def test_session_test_command_lists_representations():
    report = run_session(
        'reg isfib msd_fib "0*10*":\ntest isfib 4:')
    assert report.entries[-1].line == \
        "test isfib 4: 1 (=1), 10 (=2), 100 (=3), 1000 (=5)"


def test_session_test_command_lists_tuples_zero_and_none():
    report = run_session(CALL_SCRIPT + '\ntest adjfib 3:\n'
                         'def z "?msd_fib x=0":\ntest z 1:\n'
                         'def none "?msd_fib x+1=0":\ntest none 2:')
    assert report.text.splitlines()[2:] == [
        "test adjfib 3: [1,1] (=1,1), [10,01] (=2,1), [100,010] (=3,2)",
        "def z: arity 1, states 1",
        "test z 1: 0 (=0)",
        "def none: arity 1, states 0",
        "test none 2: (none)"]
    assert report.entries[2].data["witnesses"][1] == {
        "reps": ["10", "01"], "values": [2, 1]}


def test_session_env_reuse():
    env = rp.session_env()
    assert env.lookup("good").arity == 1
    assert au.live_state_count(env.lookup("good").dfa) == 12
    with pytest.raises(LogicError):
        env.lookup("missing")


GOOD_PARTITION_NAMES = ["adjfib", "b1", "b2", "evenfib", "ffactoreq", "good",
                        "isfib", "oddfib", "phi2n", "shift", "suff", "test"]


def fresh_session_env():
    """A new session_env, not the one the process shares."""
    return rp.session_env.__wrapped__()


def test_session_env_compiles_on_demand(monkeypatch):
    env = fresh_session_env()
    assert env.preds == {} and env.names() == GOOD_PARTITION_NAMES
    compiled, compile_predicate = [], logic.compile_predicate
    monkeypatch.setattr(logic, "compile_predicate", lambda e, src:
                        compiled.append(src) or compile_predicate(e, src))
    env.lookup("suff")
    assert sorted(env.preds) == ["ffactoreq", "suff"]
    assert len(compiled) == 2
    assert env.names() == GOOD_PARTITION_NAMES


def test_session_env_copy_resolves_pending_names():
    env = fresh_session_env()
    scoped = env.copy()
    assert au.live_state_count(scoped.lookup("good").dfa) == 12
    assert env.preds == {} and "good" in env.pending
    assert env.lookup("good") == scoped.lookup("good")


def test_define_refuses_a_pending_name():
    env = fresh_session_env()
    with pytest.raises(LogicError, match="'good' is already defined"):
        env.define("good", au.linear((1,), "=", 0))
    with pytest.raises(LogicError, match="'isfib' is already defined"):
        env.load(CALL_SCRIPT)


def test_load_allows_only_earlier_callees():
    # as in a run: a def cannot call a name the script defines later
    with pytest.raises(LogicError, match="unknown predicate 'later'"):
        PredicateEnv().load('def early "?msd_fib $later(n)":\n'
                            'def later "?msd_fib n=1":')


def test_lookup_names_a_failing_callees_line_once():
    # b compiles a on demand: the error is a's, at a's line only
    env = PredicateEnv()
    env.load('def a "?msd_fib x*y=1":\n\ndef b "?msd_fib $a(n,n)":')
    for _ in range(2):  # a stays pending, so it fails again
        with pytest.raises(LogicError, match=r"^multiplication needs a "
                           r"literal constant side at offset 2 "
                           r"\(line 1, column 1\)$"):
            env.lookup("b")
    assert sorted(env.pending) == ["a", "b"]


def test_session_env_lookups_match_golden_digests():
    env = fresh_session_env()
    for name in env.names():
        assert digest(env.lookup(name).dfa) == STORED_DIGESTS[name], name
    assert env.pending == {} and sorted(env.preds) == GOOD_PARTITION_NAMES


# ---------------------------------------------------------------------------
# compiled automata vs the brute-force interpreter


def test_interpreter_agrees_on_suff_samples(env):
    bf = BruteForce(base_semantics(), 60)
    bf.load_script(rp.script_text("good_partition.wal"))
    dfa = env.lookup("suff").validated()
    cases = [(n, x, y) for n in (5, 8, 12) for x in range(1, n + 1)
             for y in range(1, x + 1)]
    for n, x, y in cases:
        assert bf.holds("suff", n, x, y) == au.accepts(dfa, (n, x, y)), \
            (n, x, y)


def test_interpreter_agrees_on_ffactoreq_samples(env):
    bf = BruteForce(base_semantics(), 40)
    bf.load_script(rp.script_text("good_partition.wal"))
    dfa = env.lookup("ffactoreq").validated()
    for i in range(0, 12):
        for j in range(0, 12):
            for n in range(0, 8):
                assert bf.holds("ffactoreq", i, j, n) == \
                    au.accepts(dfa, (i, j, n))


def test_interpreter_agrees_on_phi2n(env):
    bf = BruteForce(base_semantics(), 170)
    bf.load_script(rp.script_text("good_partition.wal"))
    dfa = env.lookup("phi2n").validated()
    for n in range(0, 61):
        s = floor_alpha2(n)
        assert bf.holds("phi2n", n, s)
        assert au.accepts(dfa, (n, s))
    for n, s in [(0, 1), (1, 3), (5, 12), (50, 129)]:
        assert not bf.holds("phi2n", n, s)
        assert not au.accepts(dfa, (n, s))


def test_interpreter_agrees_on_good_small(env):
    bf = BruteForce(base_semantics(), 30)
    bf.load_script(rp.script_text("good_partition.wal"))
    dfa = env.lookup("good").validated()
    for n in range(2, 11):
        assert bf.holds("good", n) == au.accepts(dfa, (n,)), n
    bf40 = BruteForce(base_semantics(), 40)
    bf40.load_script(rp.script_text("good_partition.wal"))
    for n in (13, 14):
        assert bf40.holds("good", n)
        assert au.accepts(dfa, (n,))


def test_interpreter_agrees_on_b1_b2(env):
    bf = BruteForce(base_semantics(), 150)
    bf.load_script(rp.script_text("good_partition.wal"))
    b1 = env.lookup("b1").validated()
    b2 = env.lookup("b2").validated()
    b1_members = {n for n in range(2, 34)
                  if any(au.accepts(b1, (n, x, y))
                         for x in range(150) for y in range(x))}
    # spot-check the interpreter on a thinned grid; full product is slow
    for n in (2, 4, 6, 9, 12, 17, 20, 25, 33):
        got = any(bf.holds("b1", n, x, y)
                  for x in range(n, 70) for y in range(36))
        assert got == (n in b1_members), n
    for n, x, y in [(3, 5, 2), (16, 21, 5), (29, 34, 5)]:
        assert bf.holds("b2", n, x, y)
        assert au.accepts(b2, (n, x, y))
    assert not bf.holds("b2", 4, 5, 2)
    assert not au.accepts(b2, (4, 5, 2))


def test_brute_force_guards():
    bf = BruteForce({}, 10)
    with pytest.raises(LogicError):
        bf.load_script('reg mystery msd_fib "0*":')
    bf2 = BruteForce(base_semantics(), 10)
    bf2.load_script(rp.script_text("good_partition.wal"))
    with pytest.raises(LogicError):
        bf2.add_def("suff", parse_formula("?msd_fib x=1"))
