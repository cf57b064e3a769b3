"""Batch front end: sessions, verification sweeps, enumerations, exports.

Exit codes: 0 success, 1 a verification failed, 2 usage, parse, input or
file error.  main turns every ValueError (LogicError among them),
OSError and MemoryError of a handler into one "fibwalk: ..." line on
stderr and exit 2.
Identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from functools import cache
from importlib import import_module

from . import automata as au
from . import logic
from . import repetitions as rp


# verify's targets, in the order "all" runs them: (the reports for a
# bound, the default bound); each module is read at the call, and
# identities is imported only then
_VERIFY = {
    "partition": (lambda n: [rp.partition_report(n)], 5000),
    "lemma1": (lambda n: [rp.lemma1_report(n)], 2000),
    "lemma2": (lambda n: [rp.lemma2_report(n)], 2000),
    "theorem": (lambda n: [rp.verify_theorem(n)], 20000),
    "identities": (lambda n: import_module(".identities", __package__)
                   .identities_report(n), 200),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fibwalk")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("session", help="run a session script")
    s.add_argument("file")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("enumerate", help="list members of a predicate")
    s.add_argument("pred")
    s.add_argument("--limit", type=int, required=True,
                   help="inclusive bound on every component")

    s = sub.add_parser("verify", help="run a verification sweep")
    s.add_argument("target", choices=[*_VERIFY, "all"])
    s.add_argument("--max-n", type=int, default=None, metavar="N",
                   help="the largest n to check (by default 5000 for "
                        "partition, 2000 for lemma1 and lemma2, 20000 for "
                        "theorem); for identities, the largest k of "
                        "lemma3 and lemma4 only (default 200)")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("en", help="print the e(n) record")
    s.add_argument("n", type=int)

    s = sub.add_parser("mgamma", help="automaton for {n : e(n) >= p/q}")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--largest-below", action="store_true",
                   help="print the largest n with e(n) < p/q instead")

    s = sub.add_parser("export-dfa", help="write a predicate's automaton")
    s.add_argument("pred")
    s.add_argument("--dot", required=True, metavar="PATH")

    s = sub.add_parser("crossover", help="bound-crossover table for one i")
    s.add_argument("i", type=int)
    s.add_argument("--family", choices=["b1", "b2"], required=True)
    s.add_argument("--csv", required=True, metavar="PATH")
    return p


def _lookup_pred(name: str) -> au.SyncDFA:
    env = rp.session_env()
    if name not in env.names():
        raise ValueError(f"unknown predicate {name!r}; "
                         f"have: {', '.join(env.names())}")
    return env.lookup(name).validated()


def _cmd_session(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        report = logic.run_session(text)
    except UnicodeDecodeError as e:
        raise ValueError(f"{args.file}: not UTF-8 text: {e}") from None
    except logic.LogicError as e:
        raise ValueError(f"{args.file}: {e}") from None
    sys.stdout.write(report.to_json() if args.json else report.text)
    return 0


def _cmd_enumerate(args) -> int:
    for item in au.enumerate_accepted(_lookup_pred(args.pred), args.limit):
        print(" ".join(map(str, item)) if isinstance(item, tuple) else item)
    return 0


def _cmd_verify(args) -> int:
    reports = [r for name, (run, default) in _VERIFY.items()
               if args.target in (name, "all")
               for r in run(default if args.max_n is None else args.max_n)]
    if args.json:
        print(rp.verification_report_json(reports), end="")
    else:
        for r in reports:
            lo, hi = r.get("range", ["-", "-"])
            verdict = "PASS" if r["verdict"] else "FAIL"
            extra = ""
            if "min_slack" in r:
                extra = f"  min slack {r['min_slack']:.6f} at n={r['argmin']}"
            print(f"verify {r['claim']} [{lo}..{hi}]: {verdict}{extra}")
    return 0 if all(r["verdict"] for r in reports) else 1


def _cmd_en(args) -> int:
    rec = rp.exponent_record(args.n)
    print(f"e({rec.n}) = {rec.x}/{rec.y} "
          f"(suffix length {rec.x}, period {rec.y})")
    return 0


def _cmd_mgamma(args) -> int:
    if args.largest_below:
        n = rp.largest_index_below(args.p, args.q)
        print(f"largest n with e(n) < {args.p}/{args.q}: {n}")
        return 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dfa = rp.ratio_reach_automaton(args.p, args.q)
    for warning in caught:
        print(f"fibwalk: warning: {warning.message}", file=sys.stderr)
    first = [au.word_to_values(w, 1)[0]
             for w in au.first_accepted_words(dfa, 10)]
    print(f"M_{{{args.p}/{args.q}}}: {au.live_state_count(dfa)} states; "
          f"first members: {', '.join(str(v) for v in first)}")
    return 0


def _cmd_export_dfa(args) -> int:
    dfa = _lookup_pred(args.pred)
    with open(args.dot, "w") as fh:
        fh.write(au.to_dot(dfa))
    print(f"wrote {args.pred} ({au.live_state_count(dfa)} states) "
          f"to {args.dot}")
    return 0


def _cmd_crossover(args) -> int:
    from . import identities as idn
    table = idn.crossover(args.i, args.family)
    with open(args.csv, "w") as fh:
        idn.crossover_csv(table, fh)
    verdict = "bracketed" if table.bracket_ok else "NOT bracketed"
    print(f"crossover i={table.i} family={table.family} "
          f"j'={table.j_prime}: {verdict}; wrote {args.csv}")
    return 0 if table.bracket_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handler = {
        "session": _cmd_session,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "en": _cmd_en,
        "mgamma": _cmd_mgamma,
        "export-dfa": _cmd_export_dfa,
        "crossover": _cmd_crossover,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as e:  # LogicError is a ValueError
        print(f"fibwalk: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"fibwalk: {args.command}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
