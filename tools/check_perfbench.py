#!/usr/bin/env python3
"""Known-answer smoke of the end-to-end benchmark (perfbench/run.py).

Used by the CI `perfbench-smoke` job and handy locally, from the
repository root:

  python3 tools/check_perfbench.py [--seed 1] [--seconds 2]

Runs every workload once with --trace 0 and once with --trace 1 and gates
on answers, never on timings:

  - every run reports attempted > 0 and failed == 0;
  - corpus-verify, cert-check and fuzz-secure report correct: true
    (serve-open's `correct` also includes the open-loop sender's lateness
    check, which a loaded runner can trip, so it is not gated);
  - every traced run reports bench.nondeterministic_counts 0.

The first run builds the harness (perfbench/run.py does that). Exit 1
after listing every violated clause.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["corpus-verify", "cert-check", "fuzz-secure", "serve-open"]
CORRECT_GATED = {"corpus-verify", "cert-check", "fuzz-secure"}


def check(workload, trace, seed, seconds):
    """Runs one workload; returns the list of violated clauses."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"run.py exited {proc.returncode}"]
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return ["the last line is not a result object"]
    problems = []
    if not result.get("attempted", 0) > 0:
        problems.append(f"attempted = {result.get('attempted')}")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    if workload in CORRECT_GATED and result.get("correct") is not True:
        problems.append(f"correct = {result.get('correct')}")
    if trace:
        nondet = result["metrics"]["bench.nondeterministic_counts"]["value"]
        if nondet != 0:
            problems.append(f"bench.nondeterministic_counts = {nondet}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, args.seed, args.seconds)
            status = "FAIL: " + "; ".join(problems) if problems else "ok"
            print(f"{workload} --trace {trace}: {status}", flush=True)
            failures += bool(problems)
    if failures:
        print(f"check_perfbench: {failures} run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
