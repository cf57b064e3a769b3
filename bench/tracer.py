"""Span tracing of fibwalk's public functions, installed from outside.

`Tracer.install` replaces each function named in TARGETS by a timing
wrapper, in every fibwalk module namespace that holds that function:
`repetitions` imports `exponent_table`, `theorem_margin_sign` and others
by name, so patching only the defining module would miss those calls.
Each call records a span (name, parent, start, end, size) in memory;
`write` saves them when the round ends, and `layer_metrics` derives the
per-layer metrics.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _states_out(args, out):
    return len(out.transitions)


def _states_in(args, out):
    return len(args[0].transitions)


def _length(args, out):
    return len(out)


def _first_arg(args, out):
    return args[0]


# module.function -> the size its spans record, or None
TARGETS = {
    "automata.product": _states_out,
    "automata.minimize": _states_in,
    "automata.project": _states_out,
    "automata.expand_insert": None,
    "automata.complement": None,
    "automata.compile_regex": None,
    "automata.first_accepted_words": None,
    "automata.accepts_batch": _length,
    "automata.adder": None,
    "automata.const_add": None,
    "automata.const_multiple": _states_out,
    "logic.compile_predicate": None,
    "logic.parse_formula": None,
    "fibword.exponent_table": _length,
    "fibword.generate_prefix": None,
    "repetitions.ensure_table": _first_arg,
    "repetitions.partition_report": None,
    "repetitions.lemma1_report": None,
    "repetitions.lemma2_report": None,
    "repetitions.verify_theorem": None,
    "repetitions.largest_index_below": None,
    "repetitions.ratio_reach_automaton": None,
    "exact.theorem_margin_sign": None,
    "exact.exceeds_alpha_squared": None,
    "numeration.fib_index": None,
}

# the commands of the bundled scripts the workloads compile
# (good_partition.wal, through the session env, and largest_index.wal); a
# command's span covers its whole step in logic.run_session, and commands
# of one name add up
COMMANDS = ("isfib", "evenfib", "oddfib", "adjfib", "ffactoreq", "suff",
            "shift", "phi2n", "good", "b1", "b2", "test", "has_suff",
            "largest_index")

_CORE = ("automata.product", "automata.minimize", "automata.project",
         "automata.expand_insert", "automata.complement")
_LRU = ("automata.adder", "automata.const_add", "automata.const_multiple")
_INCL = ("automata.const_multiple", "logic.compile_predicate",
         "repetitions.partition_report", "repetitions.lemma1_report",
         "repetitions.lemma2_report", "repetitions.verify_theorem",
         "repetitions.largest_index_below",
         "repetitions.ratio_reach_automaton")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for f in _CORE:
        specs += [(f + ".calls", "count", "lower"), (f + ".self_s", "s", "lower")]
    specs += [
        ("automata.minimize.states_in_max", "states", "lower"),
        ("automata.minimize.states_in_sum", "states", "lower"),
        ("automata.product.states_max", "states", "lower"),
        ("automata.project.states_max", "states", "lower"),
        ("automata.compile_regex.self_s", "s", "lower"),
        ("automata.first_accepted_words.self_s", "s", "lower"),
    ]
    specs += [(f + ".misses", "count", "lower") for f in _LRU]
    specs += [
        ("automata.const_multiple.states_max", "states", "lower"),
        ("automata.accepts_batch.calls", "count", "lower"),
        ("automata.accepts_batch.rows", "count", "lower"),
        ("automata.accepts_batch.self_s", "s", "lower"),
        ("logic.compile_predicate.calls", "count", "lower"),
        ("logic.parse_formula.self_s", "s", "lower"),
        ("fibword.exponent_table.calls", "count", "lower"),
        ("fibword.exponent_table.records", "count", "lower"),
        ("fibword.exponent_table.self_s", "s", "lower"),
        ("fibword.generate_prefix.self_s", "s", "lower"),
        ("repetitions.ensure_table.calls", "count", "lower"),
        ("repetitions.table_reuse", "ratio", "higher"),
    ]
    specs += [(f + ".incl_s", "s", "lower") for f in _INCL]
    specs += [(f"logic.cmd.{c}.incl_s", "s", "lower") for c in COMMANDS]
    for f in ("exact.theorem_margin_sign", "exact.exceeds_alpha_squared",
              "numeration.fib_index"):
        specs += [(f + ".calls", "count", "lower"), (f + ".self_s", "s", "lower")]
    specs += [
        ("trace.wall_s", "s", "lower"),
        ("trace.top_spans_s", "s", "lower"),
        ("trace.remainder_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return specs


class _Commands(list):
    """parse_script's command list; iterating it opens one span per command."""

    def __init__(self, commands, tracer: "Tracer"):
        super().__init__(commands)
        self._tracer = tracer

    def __iter__(self):
        for cmd in list.__iter__(self):
            span = self._tracer.open("logic.cmd." + cmd.name)
            try:
                yield cmd
            finally:
                self._tracer.close(span)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, parent span or -1, start, end, size or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._lru: dict[str, object] = {}
        self._misses0: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._id(name), parent, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, size):
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(args, out)
            return out
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "fibwalk" or k.startswith("fibwalk.")]
        wrappers = {}
        for qual, size in TARGETS.items():
            mod, fname = qual.split(".")
            orig = getattr(sys.modules["fibwalk." + mod], fname)
            wrappers[id(orig)] = self._wrap(qual, orig, size)
            if hasattr(orig, "cache_info"):
                self._lru[qual] = orig
                self._misses0[qual] = orig.cache_info().misses
        parse_script = sys.modules["fibwalk.logic"].parse_script
        wrappers[id(parse_script)] = functools.wraps(parse_script)(
            lambda text: _Commands(parse_script(text), self))
        for m in modules:
            for attr, val in list(vars(m).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, val))

    def uninstall(self) -> None:
        for m, attr, val in reversed(self._patched):
            setattr(m, attr, val)
        self._patched.clear()

    def write(self, path, t0: float) -> None:
        """Spans as {"names": [...], "spans": [[name, parent, start, end, size]]},
        times in seconds from t0."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[n, p, s - t0, e - t0, z]
                                 for n, p, s, e, z in self.spans]},
                      fh, separators=(",", ":"))

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Every metric of metric_specs() from the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; inclusive time adds up only the spans of a name that no
        span of the same name encloses, so recursion is counted once.
        """
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for n, p, s, e, _ in spans:
            if p >= 0:
                child[p] += e - s
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        sizes: dict[str, list] = {}
        for sid, (n, p, s, e, z) in enumerate(spans):
            name = names[n]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (e - s) - child[sid]
            if z is not None:
                sizes.setdefault(name, []).append(z)
            a = p
            while a >= 0 and spans[a][0] != n:
                a = spans[a][1]
            if a < 0:
                incl_s[name] = incl_s.get(name, 0.0) + (e - s)
        top = [sid for sid, sp in enumerate(spans) if sp[1] < 0]
        top_s = sum(spans[t][3] - spans[t][2] for t in top)
        records = sum(sizes.get("fibword.exponent_table", []))
        largest = max(sizes.get("repetitions.ensure_table", [0]))
        special = {
            "repetitions.table_reuse": largest / records if records else 1.0,
            "trace.wall_s": wall_s,
            "trace.top_spans_s": top_s,
            "trace.remainder_s": wall_s - top_s,
            "trace.unattributed_s": sum(spans[t][3] - spans[t][2] - child[t]
                                        for t in top),
            "trace.spans": len(spans),
        }
        out: dict[str, float] = {}
        for name, _, _ in metric_specs():
            f, _, kind = name.rpartition(".")
            if name in special:
                out[name] = special[name]
            elif kind == "calls":
                out[name] = calls.get(f, 0)
            elif kind == "self_s":
                out[name] = self_s.get(f, 0.0)
            elif kind == "incl_s":
                out[name] = incl_s.get(f, 0.0)
            elif kind == "misses":
                out[name] = self._lru[f].cache_info().misses - self._misses0[f]
            elif kind.endswith("_max"):
                out[name] = max(sizes.get(f, [0]))
            else:  # states_in_sum, rows, records
                out[name] = sum(sizes.get(f, []))
        return out
