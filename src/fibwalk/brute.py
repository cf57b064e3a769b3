"""A brute-force interpreter for formulas, independent of the automata.

It shares only the parser with the compiler in `logic`, and so checks the
compiled relations by a second route: direct recursion over bounded
naturals.  Only tests import it.
"""

from __future__ import annotations

import operator
from itertools import product as iter_product

from .fibword import symbol_at
from .logic import (Arith, Call, Cmp, Conn, Const, DefCmd, LogicError, Not,
                    Quant, RegCmd, SeqEq, Var, free_vars, parse_formula,
                    parse_script)

# the comparison tokens and their meaning
_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class BruteForce:
    """Evaluates formulas by direct recursion over bounded naturals.

    Base predicates (reg names) are supplied as Python callables; def
    bodies are macro-expanded with memoization.  Quantifiers range over
    0..bound.  Subtraction below zero makes the enclosing atom false,
    mirroring the compiled existential closure.
    """

    def __init__(self, base: dict[str, object], bound: int):
        self.base = dict(base)
        self.defs: dict[str, tuple[tuple[str, ...], object]] = {}
        self.bound = bound
        self._memo: dict[tuple, bool] = {}

    def add_def(self, name: str, formula) -> None:
        if name in self.base or name in self.defs:
            raise LogicError(f"name {name!r} is already defined")
        params = tuple(sorted(free_vars(formula)))
        self.defs[name] = (params, formula)

    def load_script(self, text: str) -> None:
        """Register every def command; reg names must already be in base."""
        for cmd in parse_script(text):
            if isinstance(cmd, RegCmd):
                if cmd.name not in self.base:
                    raise LogicError(
                        f"no base semantics supplied for reg {cmd.name!r}")
            elif isinstance(cmd, DefCmd) and cmd.kind == "def":
                self.add_def(cmd.name, parse_formula(cmd.source))

    def term(self, t, asg: dict) -> int | None:
        if isinstance(t, Var):
            return asg[t.name]
        if isinstance(t, Const):
            return t.value
        if isinstance(t, Arith):
            a = self.term(t.left, asg)
            b = self.term(t.right, asg)
            if a is None or b is None:
                return None
            if t.op == "+":
                return a + b
            if t.op == "*":
                return a * b
            return a - b if a >= b else None
        raise TypeError(f"not a term: {t!r}")

    def call(self, name: str, args: tuple[int, ...]) -> bool:
        fn = self.base.get(name)
        if fn is not None:
            return bool(fn(*args))
        params, body = self.defs[name]
        if len(params) != len(args):
            raise LogicError(f"${name} takes {len(params)} arguments")
        key = (name, args)
        hit = self._memo.get(key)
        if hit is None:
            hit = self.eval(body, dict(zip(params, args)))
            self._memo[key] = hit
        return hit

    def eval(self, f, asg: dict) -> bool:
        if isinstance(f, Cmp):
            a = self.term(f.left, asg)
            b = self.term(f.right, asg)
            if a is None or b is None:
                return False
            return _COMPARISONS[f.op](a, b)
        if isinstance(f, SeqEq):
            a = self.term(f.left, asg)
            b = self.term(f.right, asg)
            if a is None or b is None:
                return False
            return symbol_at(a) == symbol_at(b)
        if isinstance(f, Call):
            vals = tuple(self.term(t, asg) for t in f.args)
            if any(v is None for v in vals):
                return False
            return self.call(f.name, vals)
        if isinstance(f, Not):
            return not self.eval(f.body, asg)
        if isinstance(f, Conn):
            a = self.eval(f.left, asg)
            if f.op == "and":
                return a and self.eval(f.right, asg)
            if f.op == "or":
                return a or self.eval(f.right, asg)
            if f.op == "imp":
                return not a or self.eval(f.right, asg)
            return a == self.eval(f.right, asg)
        if isinstance(f, Quant):
            rng = range(self.bound + 1)
            want_any = not f.every
            for combo in iter_product(rng, repeat=len(f.names)):
                inner = dict(asg)
                inner.update(zip(f.names, combo))
                if self.eval(f.body, inner) == want_any:
                    return want_any
            return not want_any
        raise TypeError(f"not a formula node: {f!r}")

    def holds(self, name: str, *args: int) -> bool:
        return self.call(name, args)
