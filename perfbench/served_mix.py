"""served-mix: one client process against ``python -m repro serve``.

The server runs in its own process with in-memory shards, no tracing
and no metrics port, so it serves lookups and inserts on its inline
fast paths.  ``served_client.py`` runs the closed loop in a second
process on one connection.  Only this workload crosses the wire codec,
server dispatch, group commit and the client; its inserts are uniformly
random, the unordered contrast to ordered-ingest.

Set-up (timed as ``setup_s``) is starting the server with its seed
facts until it accepts connections; it runs several times and the last
server is kept for the rounds.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import Context, uniform_facts
from harness import rss_mb, timed_setup
from served_client import HORIZON, MAX_DURATION

SEED_FACTS = 8_000
#: A server start varies more than the other set-ups (process start and
#: imports), so its median is taken over more of them.
SETUP_REPEATS = 7
SHARDS = 4
START_TIMEOUT_S = 60.0
CLIENT_GRACE_S = 90.0


def _start_server(ctx: Context, csv_path: str) -> "tuple[subprocess.Popen, int]":
    """Start the server and wait until it accepts connections.

    Its output goes to a log file, polled for the ``serving ... on
    host:port`` line: a pipe nobody drains could fill and stall it.
    """
    env = dict(os.environ)
    src = os.path.join(ctx.root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    log_path = os.path.join(ctx.workdir, "server.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--kind", "sum",
             "--shards", str(SHARDS), "--lo", "0",
             "--hi", str(HORIZON + MAX_DURATION), "--port", "0",
             "--csv", csv_path],
            cwd=ctx.workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline and proc.poll() is None:
        with open(log_path) as log:
            for line in log:
                if line.startswith("serving ") and line.endswith("\n"):
                    address = line.split(" on ", 1)[1].split()[0]
                    return proc, int(address.rsplit(":", 1)[1])
        time.sleep(0.002)
    _stop(proc)
    with open(log_path) as log:
        raise RuntimeError("server did not start:\n" + log.read()[-2000:])


def _stop(proc: subprocess.Popen) -> None:
    """Drain the server with SIGINT; kill it if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run(ctx: Context) -> None:
    result, meter = ctx.result, ctx.meter
    facts = uniform_facts(ctx.rng("facts"), SEED_FACTS, HORIZON, MAX_DURATION)
    csv_path = os.path.join(ctx.workdir, "seed.csv")
    with open(csv_path, "w") as handle:
        for value, start, end in facts:
            handle.write(f"{value},{start},{end}\n")

    # Server, client and this process share one CPU: the client's probe
    # then reads the speed of the CPU the server runs on too.  On two
    # CPUs, a slow episode on the server's CPU alone slowed the client's
    # rounds without showing in the client's probe.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups, setups_raw = [], []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                _stop(server[0])
                server = None
            server, raw, scaled = timed_setup(
                meter, lambda cp: _start_server(ctx, csv_path))
            setups.append(scaled)
            setups_raw.append(raw)
        proc, port = server
        server_rss = rss_mb(proc.pid)
        client = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "served_client.py"),
             "--port", str(port), "--seed", str(ctx.seed),
             "--seconds", str(ctx.seconds), "--facts", csv_path,
             "--trace", "1" if ctx.traced else "0"],
            cwd=ctx.root, capture_output=True, text=True,
            timeout=ctx.seconds + CLIENT_GRACE_S,
        )
    finally:
        if server is not None:
            _stop(server[0])
    if client.returncode != 0:
        raise RuntimeError(f"served-mix client failed:\n{client.stderr[-3000:]}")
    out = json.loads(client.stdout.strip().splitlines()[-1])

    result.attempted = out["attempted"]
    result.failed = out["failed"]
    result.correct = out["correct"]
    result.failures = out["failures"]
    result.notes.update(rounds=out["rounds"], requests=out["requests"],
                        inserted=out["inserted"],
                        probe_median_rate=round(out["probe_median_rate"]),
                        view_p50_us=round(out["view_p50_us"][0], 1))
    for name in ("ops_s", "op_p50_us", "read_p50_us", "range_p50_us"):
        scaled, raw = out[name]
        ctx.metric(name, scaled, raw)
    scaled, raw = out["read_p99_us"]
    result.notes.update(read_p99_us=round(raw, 1),
                        read_p99_us_scaled=round(scaled, 1))
    ctx.metric("rss_mb", server_rss)
    ctx.metric("setup_s", statistics.median(setups),
               statistics.median(setups_raw))
    if ctx.traced:
        ctx.metric("core.tree_height", out["shard_height"])
        for name, value in out["layers"].items():
            ctx.metric(name, value)
