#!/usr/bin/env python3
"""Smoke-check the `hyperviper serve` daemon end to end.

Used by the CI `serve-smoke` job and handy locally:

  check_serve.py BIN FILE.hv [FILE2.hv ...]

Spawns `BIN serve --port 0`, parses the "listening on" banner, then
drives the ndjson protocol over TCP and enforces the daemon's contract:

  - a cold `verify` of each FILE returns byte-for-byte the combined
    stderr+stdout of the one-shot CLI (`BIN --jobs 1 FILE`), with the
    same exit code;
  - a warm repeat is byte-identical, reports `program_cache_hit`, misses
    the spec-eval memo nowhere, and hits it iff the cold request filled it
    (specs proved unbounded memoize nothing);
  - `stats` has the documented shape and a nonzero warm hit rate;
  - malformed JSON, unknown verbs and wrong-typed fields get typed errors
    (the connection survives each);
  - `shutdown` drains and the process exits 0.

Exit 1 with a description on the first violated clause.
"""

import json
import signal
import socket
import subprocess
import sys


def fail(msg):
    print(f"check_serve: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, obj=None, raw=None):
        self.file.write(raw if raw is not None else json.dumps(obj) + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            fail("daemon closed the connection mid-exchange")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


def one_shot(bin_path, path):
    """The reference output: one-shot CLI, stderr and stdout combined."""
    proc = subprocess.run(
        [bin_path, "--jobs", "1", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.stdout, proc.returncode


def check_verify(client, bin_path, path):
    with open(path, encoding="utf-8") as f:
        source = f.read()
    want_report, want_exit = one_shot(bin_path, path)
    req = {"id": path, "verb": "verify", "source": source, "name": path}

    cold = client.rpc(req)
    if cold.get("id") != path:
        fail(f"{path}: response id {cold.get('id')!r} != request id")
    if cold.get("report") != want_report:
        fail(
            f"{path}: cold report differs from one-shot CLI\n"
            f"  cli:    {want_report!r}\n  daemon: {cold.get('report')!r}"
        )
    if cold.get("exit") != want_exit:
        fail(f"{path}: cold exit {cold.get('exit')} != CLI {want_exit}")

    warm = client.rpc(req)
    if warm.get("report") != want_report:
        fail(f"{path}: warm report differs from cold")
    if not warm.get("program_cache_hit"):
        fail(f"{path}: warm request missed the program cache")
    memoized = cold.get("cache", {}).get("misses", 0) > 0
    hits = warm.get("cache", {}).get("hits", 0)
    misses = warm.get("cache", {}).get("misses", 0)
    if (hits > 0) != memoized or misses != 0:
        want = "> 0" if memoized else "0"
        fail(f"{path}: warm memo hits/misses {hits}/{misses}, want {want}/0")
    print(
        f"check_serve: {path}: cold==cli, warm==cold, "
        f"{warm['cache']['hits']} warm memo hits"
    )


def check_stats(client):
    resp = client.rpc({"id": "s", "verb": "stats"})
    stats = resp.get("stats")
    if not isinstance(stats, dict):
        fail("stats response has no stats object")
    for key in (
        "requests",
        "queue_depth",
        "in_flight",
        "program_cache",
        "spec_cache",
        "specs_cached",
        "metrics",
    ):
        if key not in stats:
            fail(f"stats missing key {key!r}")
    rate = stats["spec_cache"].get("hit_rate", 0)
    if not rate > 0:
        fail(f"stats spec_cache.hit_rate is {rate}, expected > 0 after warm pass")
    print(f"check_serve: stats ok, warm hit rate {rate:.4f}")


def check_errors(client):
    resp = client.rpc(raw="this is not json\n")
    if resp.get("error", {}).get("type") != "bad-request":
        fail(f"malformed line: expected bad-request, got {resp!r}")
    resp = client.rpc({"id": 7, "verb": "frobnicate"})
    if resp.get("error", {}).get("type") != "unknown-verb":
        fail(f"unknown verb: expected unknown-verb, got {resp!r}")
    if resp.get("id") != 7:
        fail("error response dropped the request id")
    resp = client.rpc({"verb": "verify", "source": "x", "max_steps": "1"})
    error = resp.get("error", {})
    if error.get("type") != "bad-request" or "max_steps" not in error["message"]:
        fail(f"wrong-typed max_steps: expected bad-request, got {resp!r}")
    print("check_serve: typed errors ok")


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    bin_path, files = sys.argv[1], sys.argv[2:]

    daemon = subprocess.Popen(
        [bin_path, "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = daemon.stdout.readline().strip()
        if not banner.startswith("listening on "):
            fail(f"unexpected banner: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])

        client = Client(port)
        for path in files:
            check_verify(client, bin_path, path)
        check_stats(client)
        check_errors(client)

        resp = client.rpc({"id": "bye", "verb": "shutdown"})
        if not resp.get("shutting_down"):
            fail(f"shutdown verb: expected shutting_down, got {resp!r}")
        client.close()
        code = daemon.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code} after shutdown verb, expected 0")
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGKILL)
            daemon.wait()

    print("check_serve: OK")


if __name__ == "__main__":
    main()
