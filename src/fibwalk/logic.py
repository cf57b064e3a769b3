"""A first-order predicate language compiled to synchronized automata.

Scripts are sequences of commands, each ended by a colon:

    reg NAME (msd_fib | {0,1})+ "REGEX":
    def NAME "?msd_fib FORMULA":
    eval NAME "?msd_fib FORMULA":
    test NAME COUNT:

Formulas quantify over naturals written in Zeckendorf form.  Operators,
weakest binding first: E/A quantifiers (maximal rightward scope), <=>,
=> (right associative), |, &, ~; <=>, | and & group to the left.  Atoms
are comparisons (= != < <= > >=), positional predicate calls
$name(term, ...), and word atoms F[term]=F[term] over the infinite
Fibonacci word.  Terms use + - and multiplication by a literal constant;
* binds tighter, and + and - group to the left.  Subtraction is natural: each
a - b adds the constraint a - b >= 0 to its atom, so an atom containing
a - b is false whenever a < b.

Free variables of a stored predicate are ordered alphabetically; calls
bind arguments to that order positionally.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from functools import lru_cache

from . import automata as au
from .automata import SyncDFA
from .fibword import fib_word_dfao
from .record import Record, _set


class LogicError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)


@contextmanager
def _logic_errors(line: int | None = None, what: str = "formula"):
    """Report Python's recursion limit, which only a deeply nested formula
    or reg pattern reaches in the recursive parsers and compiler, as a
    LogicError, and name line in a LogicError raised inside that names
    none yet (a callee compiled on demand names its own)."""
    try:
        yield
    except RecursionError:
        raise LogicError(f"{what} nests too deeply", line, 1) from None
    except LogicError as exc:
        if line is None or exc.line is not None:
            raise
        raise LogicError(str(exc), line, 1) from None


# ---------------------------------------------------------------------------
# AST


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class Arith(Record):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left, right, pos: int = -1):
        _set(self, "op", op)  # "+", "-" (natural) or "*"
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "pos", pos)


class Cmp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(Record):
    __slots__ = ("name", "args", "pos")

    def __init__(self, name: str, args: tuple, pos: int = -1):
        _set(self, "name", name)
        _set(self, "args", args)
        _set(self, "pos", pos)


class SeqEq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)


class Not(Record):
    __slots__ = ("body",)

    def __init__(self, body):
        _set(self, "body", body)


class Conn(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        # the automata.product mode: "and", "or", "imp" or "iff"
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Quant(Record):
    __slots__ = ("every", "names", "body")

    def __init__(self, every: bool, names: tuple[str, ...], body):
        _set(self, "every", every)  # A when True, E when False
        _set(self, "names", names)
        _set(self, "body", body)


def free_vars(f) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, (Arith, Cmp, SeqEq, Conn)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Call):
        out = frozenset()
        for a in f.args:
            out |= free_vars(a)
        return out
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, Quant):
        return free_vars(f.body) - frozenset(f.names)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# formula tokenizer / parser


_MULTI_OPS = ("<=>", "<=", ">=", "=>", "!=", "<", ">", "=", "+", "-", "*",
              "&", "|", "~", "(", ")", "[", "]", ",", "$")


# the binary connectives, loosest first: token -> (level, Conn op, right
# associative)
_LEVELS = {"<=>": (0, "iff", False), "=>": (1, "imp", True),
           "|": (2, "or", False), "&": (3, "and", False)}

# the comparison tokens
_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))


# every name, in formulas and scripts: ASCII only, as str.isalnum takes
# letters and digits of any script
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Tok(Record):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        # kind: the op text, "var", "seq", "num", "E", "A" or "end"
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "pos", pos)


def _tokenize_formula(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if "0" <= c <= "9":  # ASCII only: str.isdigit takes any script
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        name = _NAME.match(src, i)
        if name:
            # a quantifier letter, except as a predicate name after '$'
            if c in "EA" and not (toks and toks[-1].kind == "$"):
                toks.append(_Tok(c, c, i))
                i += 1
                continue
            toks.append(_Tok("seq" if c.isupper() else "var", name[0], i))
            i = name.end()
            continue
        for op in _MULTI_OPS:
            if src.startswith(op, i):
                toks.append(_Tok(op, op, i))
                i += len(op)
                break
        else:
            raise LogicError(f"unexpected character {c!r} in formula at offset {i}")
    toks.append(_Tok("end", "", n))
    return toks


class _Backtrack(Exception):
    pass


class _FormulaParser:
    def __init__(self, src: str):
        self.toks = _tokenize_formula(src)
        self.i = 0
        self.strict = True  # raise LogicError; False inside backtracking probes

    def _peek(self) -> _Tok:
        return self.toks[self.i]

    def _next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def _fail(self, message: str, pos: int):
        if self.strict:
            raise LogicError(f"{message} at offset {pos}")
        raise _Backtrack()

    def _expect(self, kind: str) -> _Tok:
        t = self._next()
        if t.kind != kind:
            self._fail(f"expected {kind!r}, found {t.text or 'end'!r}", t.pos)
        return t

    def parse(self):
        f = self._conn()
        t = self._peek()
        if t.kind != "end":
            raise LogicError(f"trailing {t.text!r} at offset {t.pos}")
        return f

    def _conn(self, level: int = 0):
        """Unary formulas joined by connectives of the given level or tighter.

        Precedence climbing: a right operand takes only tighter connectives,
        or the same one where it groups to the right.
        """
        f = self._unary()
        while (entry := _LEVELS.get(self._peek().kind)) and entry[0] >= level:
            self._next()
            k, op, right_assoc = entry
            f = Conn(op, f, self._conn(k if right_assoc else k + 1))
        return f

    def _unary(self):
        t = self._peek()
        if t.kind == "~":
            self._next()
            return Not(self._unary())
        if t.kind in ("E", "A"):
            self._next()
            names = [self._expect("var").text]
            while self._peek().kind == ",":
                self._next()
                names.append(self._expect("var").text)
            body = self._conn()  # maximal rightward scope
            return Quant(t.kind == "A", tuple(names), body)
        return self._atom()

    def _atom(self):
        t = self._peek()
        if t.kind == "$":
            self._next()
            name_tok = self._next()
            if name_tok.kind not in ("var", "seq"):
                self._fail("expected predicate name after '$'", name_tok.pos)
            self._expect("(")
            args = [self._term()]
            while self._peek().kind == ",":
                self._next()
                args.append(self._term())
            self._expect(")")
            return Call(name_tok.text, tuple(args), t.pos)
        if t.kind == "seq":
            return self._seq_atom()
        if t.kind == "(":
            saved = self.i
            self.strict = False
            try:
                return self._cmp_atom()
            except _Backtrack:
                self.i = saved
            finally:
                self.strict = True
            self._next()
            f = self._conn()
            self._expect(")")
            return f
        return self._cmp_atom()

    def _seq_atom(self):
        t = self._next()
        if t.text != "F":
            self._fail(f"unknown sequence {t.text!r}", t.pos)
        self._expect("[")
        left = self._term()
        self._expect("]")
        self._expect("=")
        t2 = self._next()
        if t2.kind != "seq" or t2.text != "F":
            self._fail("expected 'F' on the right of a word atom", t2.pos)
        self._expect("[")
        right = self._term()
        self._expect("]")
        return SeqEq(left, right)

    def _cmp_atom(self):
        left = self._term()
        t = self._next()
        if t.kind not in _COMPARISONS:
            self._fail(f"expected comparison, found {t.text or 'end'!r}", t.pos)
        right = self._term()
        return Cmp(t.kind, left, right)

    def _term(self):
        f = self._mul()
        while self._peek().kind in ("+", "-"):
            op = self._next()
            f = Arith(op.kind, f, self._mul(), op.pos)
        return f

    def _mul(self):
        f = self._primary()
        while self._peek().kind == "*":
            op = self._next()
            f = Arith("*", f, self._primary(), op.pos)
        return f

    def _primary(self):
        t = self._next()
        if t.kind == "num":
            return Const(int(t.text))
        if t.kind == "var":
            return Var(t.text)
        if t.kind == "(":
            inner = self._term()
            self._expect(")")
            return inner
        self._fail(f"expected a term, found {t.text or 'end'!r}", t.pos)


@lru_cache(maxsize=None)
def parse_formula(src: str):
    """Parse the body of a def/eval command, including the ?msd_fib tag;
    memoized (the tree is immutable): register and lookup share a parse."""
    stripped = src.lstrip()
    if not stripped.startswith("?msd_fib"):
        raise LogicError("formula must start with the ?msd_fib numeration tag")
    body = stripped[len("?msd_fib"):]
    if body[:1] not in ("", " ", "\t", "\n", "(", "~", "$"):
        raise LogicError("formula must start with the ?msd_fib numeration tag")
    with _logic_errors():
        return _FormulaParser(body).parse()


# ---------------------------------------------------------------------------
# script-level parsing


class RegCmd(Record):
    __slots__ = ("name", "arity", "pattern", "line")
    kind = "reg"

    def __init__(self, name: str, arity: int, pattern: str, line: int):
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "pattern", pattern)
        _set(self, "line", line)


class DefCmd(Record):
    __slots__ = ("name", "source", "line", "kind")

    def __init__(self, name: str, source: str, line: int, kind: str):
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "line", line)
        _set(self, "kind", kind)  # "def" | "eval"


class TestCmd(Record):
    __slots__ = ("name", "count", "line")
    kind = "test"

    def __init__(self, name: str, count: int, line: int):
        _set(self, "name", name)
        _set(self, "count", count)
        _set(self, "line", line)


class _ScriptScanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def _line(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def _col(self, pos: int) -> int:
        nl = self.text.rfind("\n", 0, pos)
        return pos - nl

    def _skip(self) -> None:
        while self.i < len(self.text):
            c = self.text[self.i]
            if c in " \t\r\n":
                self.i += 1
            elif c == "#":
                nl = self.text.find("\n", self.i)
                self.i = len(self.text) if nl < 0 else nl + 1
            else:
                return

    def _error(self, message: str, pos: int):
        raise LogicError(message, self._line(pos), self._col(pos))

    def _word(self) -> tuple[str, int]:
        self._skip()
        start = self.i
        if start >= len(self.text):
            self._error("unexpected end of script", start)
        name = _NAME.match(self.text, start)
        if not name:
            self._error(f"expected a name, found {self.text[start]!r}", start)
        self.i = name.end()
        return name[0], start

    def _quoted(self) -> tuple[str, int]:
        self._skip()
        start = self.i
        if start >= len(self.text) or self.text[start] != '"':
            self._error('expected a double-quoted string', start)
        end = self.text.find('"', start + 1)
        if end < 0:
            self._error("unterminated string", start)
        self.i = end + 1
        return self.text[start + 1:end], start + 1

    def _colon(self) -> None:
        self._skip()
        if self.i >= len(self.text) or self.text[self.i] != ":":
            self._error("expected ':' to end the command", self.i)
        self.i += 1

    def commands(self) -> list:
        out = []
        while True:
            self._skip()
            if self.i >= len(self.text):
                return out
            word, pos = self._word()
            line = self._line(pos)
            if word == "reg":
                name, _ = self._word()
                arity = 0  # one track per tag
                while True:
                    self._skip()
                    c = self.text[self.i:self.i + 1]
                    if c == '"':
                        break
                    if c == "{":
                        end = self.text.find("}", self.i)
                        if end < 0:
                            self._error("unterminated alphabet tag", self.i)
                        tag = "".join(self.text[self.i:end + 1].split())
                        if tag != "{0,1}":
                            self._error(f"unsupported alphabet {tag!r}", self.i)
                        self.i = end + 1
                    else:
                        tag, tpos = self._word()
                        if tag != "msd_fib":
                            self._error(f"unsupported numeration tag {tag!r}", tpos)
                    arity += 1
                if not arity:
                    self._error("reg needs at least one track tag", pos)
                pattern, _ = self._quoted()
                self._colon()
                out.append(RegCmd(name, arity, pattern, line))
            elif word in ("def", "eval"):
                name, _ = self._word()
                source, _ = self._quoted()
                self._colon()
                out.append(DefCmd(name, source, line, word))
            elif word == "test":
                name, _ = self._word()
                self._skip()
                start = self.i
                while (self.i < len(self.text)
                       and "0" <= self.text[self.i] <= "9"):
                    self.i += 1
                if self.i == start:
                    self._error("test needs a count", start)
                count = int(self.text[start:self.i])
                self._colon()
                out.append(TestCmd(name, count, line))
            else:
                self._error(f"unknown command {word!r}", pos)


def parse_script(text: str) -> list:
    return _ScriptScanner(text).commands()


# ---------------------------------------------------------------------------
# compilation to automata


class Rel(Record):
    """An automaton together with the variable owning each track."""

    __slots__ = ("dfa", "names")

    def __init__(self, dfa: SyncDFA, names: tuple[str, ...]):
        _set(self, "dfa", dfa)
        _set(self, "names", names)  # sorted; names[i] owns track i


class StoredPred(Record):
    __slots__ = ("dfa", "_validated", "tracks")

    def __init__(self, dfa: SyncDFA, _validated: SyncDFA,
                 tracks: tuple[str, ...]):
        _set(self, "dfa", dfa)
        _set(self, "_validated", _validated)
        _set(self, "tracks", tracks)  # a def's variables; () if unnamed

    @property
    def arity(self) -> int:
        return self.dfa.arity

    def validated(self) -> SyncDFA:
        """The relation intersected with per-track canonicality."""
        return self._validated


class PredicateEnv:
    """Named predicates: compiled ones in preds, uncompiled ones in pending.

    register stores a command uncompiled (load, each of a script's), and
    lookup, the one place a command is compiled, compiles a pending one
    on its first use through compile_predicate's memo; define stores a
    built automaton.  Each name is defined once, and a def or test may
    name only the predicates before it, as when the script runs.  A
    LogicError of a command, from register or lookup, names its line.
    """

    def __init__(self):
        self.preds: dict[str, StoredPred] = {}
        self.pending: dict[str, RegCmd | DefCmd] = {}

    def names(self) -> list[str]:
        """Every defined name, compiled or pending, sorted."""
        return sorted(self.preds.keys() | self.pending.keys())

    def define(self, name: str, dfa: SyncDFA) -> StoredPred:
        """Store dfa, canonical on every track as a compiled def is."""
        if name in self.names():
            raise LogicError(f"name {name!r} is already defined")
        p = self.preds[name] = StoredPred(dfa, dfa, ())
        return p

    def register(self, cmd) -> None:
        """Store a reg, def or eval command uncompiled; check a test's name."""
        with _logic_errors(cmd.line):
            if isinstance(cmd, TestCmd):
                if cmd.name not in self.names():
                    raise LogicError(f"unknown predicate {cmd.name!r}")
                return
            if cmd.name in self.names():
                raise LogicError(f"name {cmd.name!r} is already defined")
            if isinstance(cmd, DefCmd):
                for callee in sorted(_called(parse_formula(cmd.source))):
                    if callee not in self.names():
                        raise LogicError(f"unknown predicate {callee!r}")
            self.pending[cmd.name] = cmd

    def load(self, text: str) -> None:
        """Register every command of a script, in order."""
        for cmd in parse_script(text):
            self.register(cmd)

    def lookup(self, name: str) -> StoredPred:
        p = self.preds.get(name)
        if p is not None:
            return p
        cmd = self.pending.get(name)
        if cmd is None:
            raise LogicError(f"unknown predicate {name!r}")
        with _logic_errors(cmd.line):
            if isinstance(cmd, RegCmd):
                try:
                    with _logic_errors(what="pattern"):
                        dfa = au.compile_regex(cmd.pattern, cmd.arity)
                except (au.RegexError, LogicError) as exc:
                    raise LogicError(f"in reg {cmd.name}: {exc}") from None
                # a raw regex is not canonical; a compiled formula is
                p = StoredPred(dfa, au.product(
                    dfa, au.validity_automaton(dfa.arity), "and"), ())
            else:
                rel = compile_predicate(self, cmd.source)
                p = StoredPred(rel.dfa, rel.dfa, rel.names)
        del self.pending[name]
        self.preds[name] = p
        return p

    def copy(self) -> "PredicateEnv":
        env = PredicateEnv()
        env.preds = dict(self.preds)
        env.pending = dict(self.pending)
        return env


@lru_cache(maxsize=1)
def sequence_atom_automaton() -> SyncDFA:
    """Two-track relation {(s, t): word symbol at s equals symbol at t}."""
    dfao = fib_word_dfao()
    word = au._dfa(1, dfao["transition"], dfao["initial"], dfao["output"])
    return au.product(au.remap_tracks(word, 2, (0,)),
                      au.remap_tracks(word, 2, (1,)), "iff")


def _boolean(a: Rel, b: Rel, mode: str) -> Rel:
    """a mode b over the union of their tracks: align both, one product.

    Only "or" needs its operands made canonical on the tracks they lack
    (automata.expand_insert).  For "and" each track is canonical in the
    operand that owns it, and "imp" and "iff" hold only where product's
    own validity_automaton does, so a plain remap_tracks serves them.
    """
    names = tuple(sorted(set(a.names) | set(b.names)))
    pos = {v: i for i, v in enumerate(names)}
    align = au.expand_insert if mode == "or" else au.remap_tracks
    wa = align(a.dfa, len(names), tuple(pos[v] for v in a.names))
    wb = align(b.dfa, len(names), tuple(pos[v] for v in b.names))
    return Rel(au.product(wa, wb, mode), names)


def _project_name(a: Rel, name: str, every: bool = False) -> Rel:
    """E name (A name with every=True) over a; a itself if name is not free."""
    if name not in a.names:
        return a
    t = a.names.index(name)
    rest = a.names[:t] + a.names[t + 1:]
    return Rel(au.project(a.dfa, t, every), rest)


def _combine(a: tuple[dict[str, int], int], b: tuple[dict[str, int], int],
             sign: int) -> tuple[dict[str, int], int]:
    """The linear form a + sign*b."""
    coeffs = dict(a[0])
    for v, x in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + sign * x
    return coeffs, a[1] + sign * b[1]


def _form(term, guards: list) -> tuple[dict[str, int], int]:
    """term as (coefficient per variable, constant).

    Each natural difference a - b appends the form of a - b to guards:
    the term has a natural value only where every guard is >= 0.  Inner
    differences come first, so a - b's own guard is the last one.
    """
    if isinstance(term, Var):
        return {term.name: 1}, 0
    if isinstance(term, Const):
        return {}, term.value
    if not isinstance(term, Arith):
        raise TypeError(f"not a term: {term!r}")
    if term.op == "*":
        l, r = term.left, term.right
        if isinstance(r, Const):
            l, r = r, l
        if not isinstance(l, Const):
            raise LogicError(
                f"multiplication needs a literal constant side "
                f"at offset {term.pos}")
        coeffs, const = _form(r, guards)
        return {v: l.value * a for v, a in coeffs.items()}, l.value * const
    left, right = _form(term.left, guards), _form(term.right, guards)
    if term.op == "+":
        return _combine(left, right, 1)
    diff = _combine(left, right, -1)
    guards.append(diff)
    return diff


def _conjoin_linear(rel: Rel | None, form: tuple[dict[str, int], int],
                    op: str) -> Rel:
    """rel conjoined with `form op 0` (alone when rel is None).

    The constraint is applied to rel by automata.constrain, so it is only
    built where rel can hold.  A variable of form that rel does not bind
    first gets a track of its own (automata.expand_insert, which keeps it
    canonical); a zero coefficient keeps its variable's track.  Only with
    no rel at all is the cached atom automata.linear built.
    """
    coeffs, const = form
    if rel is None:
        names = tuple(sorted(coeffs))
        return Rel(au.linear(tuple(coeffs[v] for v in names), op, -const),
                   names)
    names, dfa = rel.names, rel.dfa
    if not coeffs.keys() <= set(names):
        names = tuple(sorted(set(names) | coeffs.keys()))
        pos = {v: i for i, v in enumerate(names)}
        dfa = au.expand_insert(dfa, len(names),
                               tuple(pos[v] for v in rel.names))
    aligned = tuple(coeffs.get(v, 0) for v in names)
    return Rel(au.constrain(dfa, aligned, op, -const), names)


def _tie_choices(equations: list):
    """(k, a form to tie for equation k, whether another was subtracted).

    Each pending equation comes as it is, then minus each other pending
    one, the later equation first.  Subtracting an equation that is still
    pending is a row operation, so the relation stays the same.  A
    variable that cancels out is dropped, since the subtracted equation
    binds it when it is tied; a zero coefficient the equation has on its
    own, as x has in t-((y+x)-x), stays and keeps its variable's track.
    """
    for k in reversed(range(len(equations))):
        yield k, equations[k], False
        for j, other in enumerate(equations):
            if j != k:
                coeffs, const = _combine(equations[k], other, -1)
                yield k, ({v: c for v, c in coeffs.items()
                           if c or v not in other[0]}, const), True


def _conjuncts(f) -> list:
    """The operands of an & chain, left to right."""
    if isinstance(f, Conn) and f.op == "and":
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


class _Compiler:
    """Formula to Rel; every Rel it returns is minimal and canonical.

    Every linear term is lowered by _form, and every linear constraint is
    conjoined by _conjoin_linear.  An & chain is one conjunction: first
    its other conjuncts, then each comparison followed by the guards of
    its natural differences.  Each comparison constrains the conjunction
    built so far, widened by the variables it does not bind yet, so it is
    only built where the rest can hold; built on its own, its size would
    grow with its constants.  A chain of comparisons alone starts from
    the first one's own automaton.

    A call or word atom starts from the predicate's automaton.  Each
    argument other than a fresh variable (a repeated variable, a
    constant, a sum, a difference) gets a helper track t, which the
    equation t - argument = 0 ties to the argument's variables before t
    is projected away.  A natural t already implies the guard of an
    argument a - b itself, so only the guards nested inside it are added.
    The equations are tied one at a time.  Each step ties a pending
    equation either as it is or less another pending one (_tie_choices):
    the choice with the fewest variables of nonzero coefficient that are
    not yet tracks of the Rel built so far, then with the fewest
    variables; the plain equation wins a tie, then the later argument.
    For $ffactoreq(n-x,(n+y)-x,x-y) that is (n+y)-x less n-x, which
    brings in only y, then x-y, then n-x, so each constraint widens the
    Rel by as few tracks as it can: the largest constrain input has 117
    states, where tying each argument as it is took 246.  The order reads
    only the formula and the tracks, and the result does not depend on it.

    E projects each of its variables existentially, and A universally
    (automata.project with every=True), with no complement around it.
    """

    def __init__(self, env: PredicateEnv):
        self.env = env

    def compile(self, f) -> Rel:
        if isinstance(f, Not):
            rel = self.compile(f.body)
            return Rel(au.complement(rel.dfa), rel.names)
        if isinstance(f, Conn) and f.op != "and":
            return _boolean(self.compile(f.left), self.compile(f.right), f.op)
        if isinstance(f, (Conn, Cmp)):
            acc = None
            parts = _conjuncts(f)
            for g in parts:
                if not isinstance(g, Cmp):
                    rel = self.compile(g)
                    acc = rel if acc is None else _boolean(acc, rel, "and")
            for g in parts:
                if isinstance(g, Cmp):
                    guards = []
                    form = _combine(_form(g.left, guards),
                                    _form(g.right, guards), -1)
                    acc = _conjoin_linear(acc, form, g.op)
                    for guard in guards:
                        acc = _conjoin_linear(acc, guard, ">=")
            return acc
        if isinstance(f, Quant):
            rel = self.compile(f.body)
            for v in f.names:
                rel = _project_name(rel, v, f.every)
            return rel
        if isinstance(f, (Call, SeqEq)):
            return self._atom(f)
        raise TypeError(f"not a formula node: {f!r}")

    def _atom(self, f) -> Rel:
        if isinstance(f, SeqEq):
            dfa, args = sequence_atom_automaton(), (f.left, f.right)
        elif isinstance(f, Call):
            pred = self.env.lookup(f.name)
            if len(f.args) != pred.arity:
                raise LogicError(
                    f"${f.name} takes {pred.arity} arguments, "
                    f"got {len(f.args)} at offset {f.pos}")
            dfa, args = pred.validated(), f.args
        else:
            raise TypeError(f"not an atom: {f!r}")
        names: list[str] = []
        helpers = []  # (track, its equation, the guards nested in it)
        for i, term in enumerate(args):
            if isinstance(term, Var) and term.name not in names:
                names.append(term.name)
                continue
            t, guards = f"#{i}", []
            form = _form(term, guards)
            if isinstance(term, Arith) and term.op == "-":
                guards.pop()  # the argument's own guard
            names.append(t)
            helpers.append((t, _combine(({t: 1}, 0), form, -1), guards))
        ordered = tuple(sorted(names))
        if ordered != tuple(names):  # a remap changes the canonical numbering
            pos = {v: i for i, v in enumerate(ordered)}
            dfa = au.minimize(au.remap_tracks(
                dfa, len(names), tuple(pos[v] for v in names)))
        rel = Rel(dfa, ordered)
        while helpers:  # in the class docstring's order
            bound = set(rel.names)

            def cost(choice):
                _, (coeffs, _), subtracted = choice
                return (sum(1 for v, a in coeffs.items()
                            if a and v not in bound),
                        len(coeffs), subtracted)

            k, equation, _ = min(_tie_choices([h[1] for h in helpers]),
                                 key=cost)
            t, _, guards = helpers.pop(k)
            rel = _project_name(_conjoin_linear(rel, equation, "="), t)
            for guard in guards:
                rel = _conjoin_linear(rel, guard, ">=")
        return rel


def compile_formula(f, env: PredicateEnv) -> Rel:
    return _Compiler(env).compile(f)


def _called(f) -> frozenset[str]:
    """The names of the predicates a formula calls."""
    if isinstance(f, Call):
        return frozenset([f.name])
    if isinstance(f, (Not, Quant)):
        return _called(f.body)
    if isinstance(f, Conn):
        return _called(f.left) | _called(f.right)
    return frozenset()


# compile_predicate's results, keyed by (source, ((callee, its validated
# automaton), ...)); filled on demand, never at import
_COMPILED: dict[tuple, Rel] = {}


def clear_compile_memo() -> None:
    """Forget every memoized compile, so the next one runs in full."""
    _COMPILED.clear()


def compile_predicate(env: PredicateEnv, source: str) -> Rel:
    """Compile a '?msd_fib ...' formula against an environment.

    The result is memoized for the whole process.  The key is the source
    and the name and validated automaton of each predicate it calls:
    nothing else a compile reads can vary (linear and
    sequence_atom_automaton are pure), and a Rel and its automaton are
    immutable, so one entry serves every caller and every env that
    agrees on the callees.  A redefined callee is a new key.  A compile
    that raises stores nothing, so it raises again on every call; a
    callee the env lacks is left to the compiler, which reports the
    first error in the formula, as it always has.  A formula nested past
    Python's recursion limit raises LogicError, as parse_formula does.
    """
    f = parse_formula(source)
    with _logic_errors():
        try:
            key = (source, tuple((name, env.lookup(name).validated())
                                 for name in sorted(_called(f))))
        except LogicError:
            return compile_formula(f, env)
        rel = _COMPILED.get(key)
        if rel is None:
            rel = _COMPILED[key] = compile_formula(f, env)
        return rel


# ---------------------------------------------------------------------------
# sessions


class SessionEntry(Record):
    __slots__ = ("data",)

    def __init__(self, data: dict):
        _set(self, "data", data)  # the entry as --json prints it

    @property
    def line(self) -> str:
        """The entry as text, read off its data."""
        data = self.data
        head = f"{data['command']} {data['name']}"
        if "verdict" in data:
            return f"{head}: {'TRUE' if data['verdict'] else 'FALSE'}"
        if "witnesses" not in data:
            return f"{head}: arity {data['arity']}, states {data['states']}"
        shown = []
        for w in data["witnesses"]:
            reps, vals = w["reps"], ",".join(map(str, w["values"]))
            shown.append(f"{reps[0]} (={vals})" if len(reps) == 1
                         else f"[{','.join(reps)}] (={vals})")
        return f"{head} {data['count']}: {', '.join(shown) or '(none)'}"


class SessionReport(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[SessionEntry, ...]):
        _set(self, "entries", entries)

    @property
    def text(self) -> str:
        return "".join(e.line + "\n" for e in self.entries)

    def to_json(self) -> str:
        return json.dumps([e.data for e in self.entries],
                          indent=2, sort_keys=True) + "\n"


def run_session(text: str, env: PredicateEnv | None = None) -> SessionReport:
    """Execute a script and report each command, in script order.

    Each command is registered and compiled (env.lookup) before the next
    is registered, so the first faulty one is reported; this only reads
    the stored automata for the report.
    """
    if env is None:
        env = PredicateEnv()
    entries = []
    for cmd in parse_script(text):
        env.register(cmd)
        pred = env.lookup(cmd.name)
        data = {"command": cmd.kind, "name": cmd.name}
        if isinstance(cmd, TestCmd):
            if pred.arity == 0:
                raise LogicError(f"test {cmd.name}: needs arity >= 1", cmd.line, 1)
            data["count"] = cmd.count
            data["witnesses"] = [
                {"reps": [r or "0" for r in
                          au.word_to_track_strings(w, pred.arity)],
                 "values": list(au.word_to_values(w, pred.arity))}
                for w in au.first_accepted_words(pred.validated(), cmd.count)]
        elif cmd.kind == "eval" and pred.arity == 0:
            data["verdict"] = au.decide_true(pred.dfa)
        else:
            data["arity"] = pred.arity
            data["states"] = au.live_state_count(pred.dfa)
            if isinstance(cmd, DefCmd):
                data["tracks"] = list(pred.tracks)
        entries.append(SessionEntry(data))
    return SessionReport(tuple(entries))
