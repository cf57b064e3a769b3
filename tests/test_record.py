"""Immutable records (fibwalk.record) and what `import fibwalk.cli` loads."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fibwalk.cli  # noqa: F401  (defines every record class on its path)
from fibwalk import automata as au
from fibwalk import logic
from fibwalk.fibword import ExponentRecord
from fibwalk.logic import (Arith, Call, Cmp, Conn, Const, DefCmd, Not, Quant,
                           RegCmd, Rel, SeqEq, SessionEntry, SessionReport,
                           StoredPred, Var, _Tok)
from fibwalk.record import Record

SRC = Path(__file__).resolve().parents[1] / "src"

_a, _b = Var("a"), Var("b")
_dfa = au._dfa(1, [[0, 0]], 0, [True])

# one instance of every record class
SAMPLES = [
    Var("x"), Const(5), Arith("+", _a, _b, 2), Cmp("<", _a, _b),
    Call("p", (_a, _b), 0), SeqEq(_a, _b), Not(_a), Conn("and", _a, _b),
    Quant(True, ("x", "y"), _a), _Tok("var", "x", 0),
    RegCmd("isfib", 1, "0*1", 1),
    DefCmd("d", "?msd_fib x=1", 2, "def"), logic.TestCmd("d", 3, 4),
    Rel(_dfa, ("x",)), StoredPred(_dfa, _dfa, ("x",)),
    SessionEntry({"command": "eval", "name": "e", "verdict": True}), SessionReport(()),
    au.SyncDFA(1, np.zeros((1, 2), dtype=np.int32), 0, np.ones(1, dtype=bool)),
    ExponentRecord(12, 7, 3),
]
IDS = [type(r).__name__ for r in SAMPLES]


def _values(r):
    return tuple(getattr(r, name) for name in type(r).__slots__)


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


def test_every_record_class_has_a_sample():
    defined = {c for c in _all_records()
               if c.__module__.startswith("fibwalk.")}
    assert defined == {type(r) for r in SAMPLES}


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(rec):
    for name in type(rec).__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_equality_is_by_class_and_fields(rec):
    cls = type(rec)
    same = cls(*_values(rec))
    assert same == rec and not same != rec
    # a look-alike class with the same name, slots and __init__
    twin = type(cls.__name__, (Record,),
                {"__slots__": cls.__slots__, "__init__": cls.__init__})
    assert twin(*_values(rec)) != rec
    assert rec != twin(*_values(rec))
    assert rec != _values(rec) and _values(rec) != rec


@pytest.mark.parametrize("rec", SAMPLES, ids=IDS)
def test_equal_records_hash_equal(rec):
    same = type(rec)(*_values(rec))
    if isinstance(rec, SessionEntry):  # holds a dict
        with pytest.raises(TypeError):
            hash(rec)
        return
    assert hash(same) == hash(rec)
    if not isinstance(rec, au.SyncDFA):  # SyncDFA hashes its bytes
        assert hash(rec) == hash(_values(rec))


def test_records_of_one_shape_differ_by_class_and_op():
    assert Var("x") != Const("x")
    assert Arith("+", _a, _b) != Cmp("+", _a, _b)
    assert Conn("and", _a, _b) != Conn("or", _a, _b)
    assert Quant(True, ("x",), _a) != Quant(False, ("x",), _a)
    nodes = {Conn("and", _a, _b), Conn("and", _a, _b), Conn("or", _a, _b)}
    assert len(nodes) == 2


def test_repr_matches_the_dataclass_form():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Not(Const(0))) == "Not(body=Const(value=0))"
    assert repr(ExponentRecord(12, 7, 3)) == "ExponentRecord(n=12, x=7, y=3)"
    # the validated automaton is left out, as field(repr=False) did
    assert "_validated" not in repr(StoredPred(_dfa, _dfa, ("x",)))


def test_exponent_record_exponent_is_a_fraction():
    e = ExponentRecord(12, 7, 3).exponent
    assert e == Fraction(7, 3) and type(e) is Fraction


def test_sync_dfa_checks_its_arrays():
    t = np.zeros((1, 2), dtype=np.int32)
    with pytest.raises(ValueError):
        au.SyncDFA(1, t.astype(np.int64), 0, np.ones(1, dtype=bool))
    with pytest.raises(ValueError):
        au.SyncDFA(2, t, 0, np.ones(1, dtype=bool))
    with pytest.raises(ValueError):
        au.SyncDFA(1, t, 1, np.ones(1, dtype=bool))
    d = au.SyncDFA(1, t, 0, np.ones(1, dtype=bool))
    assert not d.transitions.flags.writeable and not d.final.flags.writeable


def test_import_cli_loads_no_test_only_or_unused_modules():
    # -S skips site-packages' .pth files, one of which may preload
    # importlib.resources; numpy's directory is appended by hand
    site_dir = os.path.dirname(os.path.dirname(np.__file__))
    unwanted = ["dataclasses", "fractions", "decimal", "importlib.resources",
                "fibwalk.identities", "fibwalk.brute"]
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"sys.path.append({site_dir!r}); import fibwalk.cli; "
            f"print([m for m in {unwanted!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert "BruteForce" not in vars(logic)
