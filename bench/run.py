"""The fibwalk benchmark: one workload, timed end to end or traced.

    python3 bench/run.py --workload {ratio,oracle} [--seed N]
                         [--seconds S] [--trace {0,1}]

Run from the root of a fibwalk checkout; fibwalk is imported from src/.
Each round runs the workload in a fresh interpreter (bench/worker.py),
one at a time.  Rounds repeat while the run would end nearer to S
seconds with another round than without it (at least half of a round as
long as the last one still fits), and at least one runs.  With --trace 0
the end-to-end metrics are the medians over rounds, and before each
round set-up is also timed in SETUP_PROBES extra interpreters that only
set up, so the set-up samples spread over the whole run; with --trace 1
the per-layer metrics come from traced rounds.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Each run also writes its rounds to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import metric_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("ratio", "oracle")
SETUP_PROBES = 3  # before each round
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pinned_env() -> dict[str, str]:
    """The environment every worker runs in: single-threaded, fixed hashing."""
    env = dict(os.environ)
    env.pop("FIBWALK_THREADS", None)  # fibwalk's default: 1, no worker pool
    # no run writes .pyc files, so set-up is not faster after the first
    # run; fibwalk is compiled from source unless bytecode already exists
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run bench/worker.py; (set-up seconds from its start, its JSON report)."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - start), text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    report = json.loads(lines[-1])
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for all processes
    return report["ready"] - start, report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fibwalk" / "cli.py").is_file():
        print(f"bench: no fibwalk sources under {ROOT / 'src'}; run the "
              "benchmark from the root of a fibwalk checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups, rounds = [], []
        start = time.monotonic()
        while True:
            extra = ["--trace-out", str(OUT / f"trace-{tag}-round{len(rounds)}.json")]
            begun = time.monotonic()
            if not args.trace:
                setups += [run_worker(base + ["--setup-only"], deadline)[0]
                           for _ in range(SETUP_PROBES)]
            setup_s, r = run_worker(base + (extra if args.trace else []), deadline)
            setups.append(setup_s)
            rounds.append(r)
            print(f"round {len(rounds)}: set-up {setup_s:.3f} s, wall "
                  f"{r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, peak "
                  f"{r['peak_rss_mb']:.1f} MB, {r['failed']}/{r['attempted']} "
                  f"failed, correct {r['correct']}", flush=True)
            now = time.monotonic()
            # a whole number of rounds, as near to --seconds as it gets
            if now - start + (now - begun) / 2 > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": median(r["layers"][name] for r in rounds),
                          "unit": unit} for name, unit, _ in metric_specs()}
    else:
        values = {"setup_s": median(setups)}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[name] = median(r[name] for r in rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"result": result, "setups": setups, "rounds": rounds}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
