#!/usr/bin/env python3
"""End-to-end benchmark of hyperviper.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 10 --trace 0

Workloads: corpus-verify, cert-check, fuzz-secure, serve-open (see
perfbench/README.md). The first run configures and builds the harness
(perfbench/CMakeLists.txt, a Release build of the CommCSL libraries plus the
harness) into .bench_build; later runs only check that it is up to date.

The harness prints every metric with its unit and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. This wrapper checks that the metric names and units are exactly
those BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1); on a mismatch it prints no result and exits with code 4. Build
output goes to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns (exit code, captured stdout or None); the code is None on
    timeout.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the CommCSL sources (src/) are missing; run from a "
              "full checkout", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                            stderr=sys.stderr)
        if code != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def metric_mismatches(result_line, declared):
    """Lists how the result line's metrics differ from the declared ones."""
    try:
        emitted = {k: v["unit"]
                   for k, v in json.loads(result_line)["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return ["the last line is not a result object"]
    problems = ["missing " + n for n in sorted(set(declared) - set(emitted))]
    problems += ["undeclared " + n
                 for n in sorted(set(emitted) - set(declared))]
    problems += ["unit of %s is %s, declared %s" % (n, emitted[n], declared[n])
                 for n in sorted(set(emitted) & set(declared))
                 if emitted[n] != declared[n]]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus-verify", "cert-check", "fuzz-secure",
                             "serve-open"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in 1..120")

    binary = build()
    if binary is None:
        return 2
    code, out = run_group([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)],
                          RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if code != 0:  # the harness printed no result
        sys.stdout.write(out)
        return code
    lines = out.rstrip("\n").split("\n")
    problems = metric_mismatches(lines[-1], declared_metrics(args.trace))
    if problems:
        sys.stderr.write(out)
        print("perfbench: metrics differ from BENCHMARK.json: " +
              "; ".join(problems), file=sys.stderr)
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
