"""One round of one workload, in a fresh interpreter.

Set up (import fibwalk, load the inputs), run the workload's fibwalk
commands through `fibwalk.cli.main` as the timed part, check every
output against `checks`, and print one JSON object.  `run.py` starts
this script; see README.md for what each workload runs and why.

    python3 bench/worker.py --workload W --seed N [--setup-only]
                            [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = "src/fibwalk/scripts/"

# ratio: mgamma --largest-below for p/q = (F_{k+1}-1)/F_{k-1}, k in K_RANGE;
# ABOVE_SAMPLE seeded m in (n*, n* + 2000] must have e(m) >= p/q
K_RANGE, ABOVE_SAMPLE = range(6, 10), 4
# oracle: verify theorem up to THEOREM_N, then e(n) for EN_SAMPLE seeded n;
# good membership is checked for a seeded sample of n up to GOOD_LIMIT,
# b1/b2 triples exactly while every component <= TRIPLE_LIMIT
THEOREM_N, EN_SAMPLE = 10000, 40
GOOD_LIMIT, GOOD_SAMPLE, TRIPLE_LIMIT = 1500, 200, 90


def _script(name: str) -> str:
    (ROOT / SCRIPTS / name).read_text()  # fail in set-up if it is missing
    return SCRIPTS + name


def ratio_inputs(rng: random.Random):
    ops = [["session", _script("largest_index.wal"), "--json"]]
    above = {}
    for k in K_RANGE:
        p, q, n_star = checks.largest_below_expected(k)
        ops.append(["mgamma", str(p), str(q), "--largest-below"])
        above[k] = sorted(rng.sample(range(n_star + 1, n_star + 2001),
                                     ABOVE_SAMPLE))
    return ops, above


def ratio_check(outs, above, call) -> list[str]:
    errors = []
    if outs[0] is not None:
        errors += checks.check_test_values(outs[0], "largest_index", [130])
    word = checks.fibonacci_word(max(max(ms) for ms in above.values()))
    for out, k in zip(outs[1:], K_RANGE):
        if out is not None:
            errors += checks.check_largest_below(out, k)
        p, q, n_star = checks.largest_below_expected(k)
        errors += checks.check_below_by_oracle(word, p, q, n_star, above[k])
    return errors


def oracle_inputs(rng: random.Random):
    ops = [["verify", claim, "--json"]
           for claim in ("partition", "lemma1", "lemma2")]
    ops.append(["verify", "theorem", "--max-n", str(THEOREM_N), "--json"])
    return ops, (sorted(rng.sample(range(1, THEOREM_N + 1), EN_SAMPLE)),
                 sorted(rng.sample(range(1, GOOD_LIMIT + 1), GOOD_SAMPLE)))


def oracle_check(outs, samples, call) -> list[str]:
    errors = []
    for out, claim in zip(outs, ("partition", "lemma1", "lemma2", "theorem")):
        if out is not None:
            errors += checks.check_verify(out, claim)
    if outs[0] is not None:
        errors += checks.check_partition_counts(outs[0])
    en_sample, good_sample = samples
    word = checks.fibonacci_word(THEOREM_N)
    for n in en_sample:
        errors += checks.check_en(call(["en", str(n)]), n, word)
    # the partition's three parts: good, and the closed forms of b1 and b2
    good = checks.parse_members(call(["enumerate", "good", "--limit",
                                      str(GOOD_LIMIT)]))
    errors += checks.check_good(good, good_sample, word)
    for name, want in (("b1", checks.b1_triples), ("b2", checks.b2_triples)):
        got = checks.parse_members(call(["enumerate", name, "--limit",
                                         str(TRIPLE_LIMIT)]))
        errors += checks.compare_sets(name, got, want(TRIPLE_LIMIT))
    return errors


WORKLOADS = {
    "ratio": (ratio_inputs, ratio_check),
    "oracle": (oracle_inputs, oracle_check),
}


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code or None if it raised, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from fibwalk import cli
    make_inputs, check = WORKLOADS[args.workload]
    ops, sample = make_inputs(random.Random(args.seed))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    outs: list[str | None] = []
    for argv in ops:
        span = tracer.open("op." + " ".join(argv)) if tracer else None
        rc, out, err = run_cli(cli, argv)
        if tracer:
            tracer.close(span)
        if rc != 0:
            print(f"bench: fibwalk {' '.join(argv)} failed ({rc}):\n{err}",
                  file=sys.stderr)
        outs.append(out if rc == 0 else None)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics(wall_s)
        tracer.write(args.trace_out, t0)

    def call(argv: list[str]) -> str:
        rc, out, err = run_cli(cli, argv)
        if rc != 0:
            raise RuntimeError(f"check command fibwalk {' '.join(argv)} "
                               f"failed ({rc}): {err}")
        return out

    try:
        errors = check(outs, sample, call)
    except Exception:
        errors = [traceback.format_exc()]
    for e in errors:
        print(f"bench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "ready": ready, "attempted": len(ops),
        "failed": sum(o is None for o in outs), "correct": not errors,
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kib / 1024,
        "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
