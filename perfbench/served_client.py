"""The served-mix client: one process, one connection, a closed loop.

Started by ``served_mix.py`` against a ``python -m repro serve`` process.
Each round sends the tree requests of ``common.SERVED_MIX`` (the
service's own load mix): sequential ``lookup``s and ``rangeq``s, and
``insert``s pipelined in bursts of a fixed depth.  That mix has no view
requests, so each round adds the least that reads and writes each
hosted view once: one ``table_insert`` and two ``query_view``s (a group
of the grouped view, and the rollup).  Every
reply is checked against the oracle after the timed rounds.  Prints one
JSON object with the timings, the checks and the server's own per-op
records (from the ``stats`` op, taken before and after the rounds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

HORIZON = 1_000_000
MAX_DURATION = 4_000
KEYS = 8
TABLE = "sv_facts"
GROUPED = "sv_by_key"
ROLLUP = "sv_total"
TABLE_PRELOAD = 400
RANGE_WIDTH = 2_000
INSERT_DEPTH = 8
TABLE_ROWS_PER_ROUND = 4


def _server_op(stats, op):
    wall = (stats.get("ops", {}).get(f"service.{op}") or {}).get("wall_us") or {}
    count = wall.get("count", 0)
    return count, count * (wall.get("mean") or 0.0)


def _per_op_us(before, after, op):
    c0, s0 = _server_op(before, op)
    c1, s1 = _server_op(after, op)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def _batch_mean(stats):
    size = (stats.get("batch") or {}).get("size") or {}
    count = size.get("count", 0)
    return count, count * (size.get("mean") or 0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--facts", required=True, help="the seed CSV")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [HERE, SRC]

    import random

    from common import SERVED_MIX, Context, uniform_fact
    from harness import Meter, Result, Rounds, Series
    from oracle import SweepOracle, coalesce
    from repro.service import protocol as wire
    from repro.service.client import ServiceClient
    from spans import Recorder

    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.wrap(wire, "encode_frame", "client.encode",
                      size=lambda a, r: len(r))
        recorder.wrap(wire, "decode_body", "client.decode",
                      size=lambda a, r: len(a[0]) + 4)
    ctx = Context("served-mix", args.seed, args.seconds, HERE, HERE,
                  recorder=recorder, meter=Meter(), result=Result())
    result, meter = ctx.result, ctx.meter
    with open(args.facts) as handle:
        seed_facts = [tuple(int(x) for x in line.split(","))
                      for line in handle if line.strip()]
    inputs = random.Random(f"served-mix:inputs:{args.seed}")
    queries = random.Random(f"served-mix:queries:{args.seed}")

    client = ServiceClient("127.0.0.1", args.port, timeout=30.0, retries=0)
    table_rows = []
    preload = []
    for _ in range(TABLE_PRELOAD):
        value, start, end = uniform_fact(inputs, HORIZON, MAX_DURATION)
        preload.append([value, start, end, f"k{inputs.randrange(KEYS)}"])
    client.create_view(GROUPED, TABLE, "sum", key="key", lag="downstream")
    client.create_view(ROLLUP, GROUPED, "sum", lag="downstream")
    client.table_insert(TABLE, preload)
    table_rows.extend(preload)
    before = client.stats()

    lookups, ranges, inserts, views = Series(meter), Series(meter), Series(meter), Series(meter)
    rounds = Rounds(meter)
    inserted = []  # facts acked by the server, in order
    log = []  # (kind, facts acked, table rows, request, answer)
    requests = 0
    clock = time.perf_counter
    if recorder is not None:
        recorder.reset()
    deadline = ctx.deadline()
    while clock() < deadline:
        meter.begin()
        round_started = clock()
        lat = []
        for _ in range(SERVED_MIX["lookup"]):
            t = queries.randrange(HORIZON)
            started = clock()
            try:
                answer = client.lookup(t)
            except Exception as exc:  # a failed request is a failed operation
                answer = exc
            lat.append(clock() - started)
            log.append(("lookup", len(inserted), len(table_rows), t, answer))
        rlat = []
        for _ in range(SERVED_MIX["rangeq"]):
            lo = queries.randrange(HORIZON - RANGE_WIDTH)
            started = clock()
            try:
                answer = client.rangeq(lo, lo + RANGE_WIDTH)
            except Exception as exc:
                answer = exc
            rlat.append(clock() - started)
            log.append(("rangeq", len(inserted), len(table_rows), lo, answer))
        wlat = []
        for _ in range(SERVED_MIX["insert"] // INSERT_DEPTH):
            burst = [uniform_fact(inputs, HORIZON, MAX_DURATION)
                     for _ in range(INSERT_DEPTH)]
            started = clock()
            futures = [client.submit_insert(v, s, e, flush=False)
                       for v, s, e in burst]
            client.flush()
            for fact, future in zip(burst, futures):
                try:
                    future.result()
                    inserted.append(fact)
                except Exception as exc:
                    log.append(("insert", len(inserted), len(table_rows), fact, exc))
                wlat.append(clock() - started)
        rows = []
        for _ in range(TABLE_ROWS_PER_ROUND):
            value, start, end = uniform_fact(inputs, HORIZON, MAX_DURATION)
            rows.append([value, start, end, f"k{inputs.randrange(KEYS)}"])
        try:
            client.table_insert(TABLE, rows)
            table_rows.extend(rows)
        except Exception as exc:
            log.append(("table_insert", len(inserted), len(table_rows), None, exc))
        vlat = []
        for view in (GROUPED, ROLLUP):
            t = queries.randrange(HORIZON)
            key = f"k{queries.randrange(KEYS)}" if view == GROUPED else None
            started = clock()
            try:
                answer = client.query_view(view, t, key=key)["value"]
            except Exception as exc:
                answer = exc
            vlat.append(clock() - started)
            log.append(("view", len(inserted), len(table_rows), (t, key), answer))
        elapsed = clock() - round_started
        round_id = meter.end()
        lookups.extend(lat, round_id)
        ranges.extend(rlat, round_id)
        inserts.extend(wlat, round_id)
        views.extend(vlat, round_id)
        n = len(lat) + len(rlat) + len(wlat) + 1 + len(vlat)
        rounds.add(n, elapsed, round_id)
        requests += n
    after = client.stats()
    client.close()
    if recorder is not None:
        recorder.close()

    # Checks, outside the timed rounds.
    facts = seed_facts + inserted
    oracle = SweepOracle(c for _, s, e in facts for c in (s, e))
    table = SweepOracle(c for _, s, e, _ in table_rows for c in (s, e))
    for value, start, end in seed_facts:
        oracle.add(value, start, end)
    applied = len(seed_facts)
    for value, start, end, key in table_rows[:TABLE_PRELOAD]:
        table.add(value, start, end, key)
    applied_rows = TABLE_PRELOAD
    result.attempted = requests
    for kind, acked, nrows, request, answer in log:
        while applied < len(seed_facts) + acked:
            oracle.add(*facts[applied])
            applied += 1
        while applied_rows < nrows:
            value, start, end, key = table_rows[applied_rows]
            table.add(value, start, end, key)
            applied_rows += 1
        if isinstance(answer, Exception):
            result.fail(f"{kind} {request!r} raised {answer!r}")
        elif kind == "lookup":
            if answer != oracle.value_at(request):
                result.fail(f"lookup({request}) = {answer!r}, "
                            f"oracle {oracle.value_at(request)!r}")
        elif kind == "rangeq":
            got = coalesce((v, iv.start, iv.end) for v, iv in answer)
            if got != oracle.steps(request, request + RANGE_WIDTH):
                result.fail(f"rangeq({request}) differs")
        elif kind == "view":
            t, key = request
            want = table.value_at(t, key) if key else table.value_at(t)
            if (answer or 0) != want:
                result.fail(f"query_view {key or ROLLUP}@{t} = {answer!r}, "
                            f"oracle {want!r}")

    out = {
        "attempted": result.attempted,
        "failed": result.failed,
        "correct": result.correct,
        "failures": result.failures,
        "probe_median_rate": meter.median_rate(),
        "rounds": len(rounds),
        "requests": requests,
        "inserted": len(inserted),
        "ops_s": [rounds.rate(), rounds.rate(False)],
        "read_p50_us": [lookups.quantile(0.5) * 1e6, lookups.quantile(0.5, False) * 1e6],
        "read_p99_us": [lookups.p99() * 1e6, lookups.p99(False) * 1e6],
        "range_p50_us": [ranges.quantile(0.5) * 1e6, ranges.quantile(0.5, False) * 1e6],
        "op_p50_us": [inserts.quantile(0.5) * 1e6, inserts.quantile(0.5, False) * 1e6],
        "view_p50_us": [views.quantile(0.5) * 1e6, views.quantile(0.5, False) * 1e6],
        "shard_height": max(s["height"] for s in after["shards"]["shards"]),
    }
    if recorder is not None:
        scale = ctx.layer_scale()
        server_lookup = _per_op_us(before, after, "lookup")
        out["layers"] = {
            "service.server_us.lookup": server_lookup * scale,
            "service.server_us.insert": _per_op_us(before, after, "insert") * scale,
            "service.server_us.query_view":
                _per_op_us(before, after, "query_view") * scale,
            "service.wire_us.lookup":
                (sum(lookups.raw) / len(lookups) * 1e6 - server_lookup) * scale
                if len(lookups) else 0.0,
        }
        encode, decode = recorder.get("client.encode"), recorder.get("client.decode")
        sent = encode.calls
        out["layers"]["service.client_codec_us"] = (
            (encode.total_s + decode.total_s) / sent * 1e6 * scale if sent else 0.0)
        out["layers"]["service.request_bytes"] = encode.size / sent if sent else 0.0
        out["layers"]["service.reply_bytes"] = (
            decode.size / decode.calls if decode.calls else 0.0)
        b0, s0 = _batch_mean(before)
        b1, s1 = _batch_mean(after)
        out["layers"]["service.facts_per_flush"] = (s1 - s0) / (b1 - b0) if b1 > b0 else 0.0
        counters0, counters1 = before.get("counters", {}), after.get("counters", {})
        fast = sum(counters1.get(n, 0) - counters0.get(n, 0)
                   for n in ("service.fast_reads", "service.fast_writes"))
        eligible = sum(_server_op(after, op)[0] - _server_op(before, op)[0]
                       for op in ("lookup", "insert"))
        out["layers"]["service.fast_path_share"] = fast / eligible if eligible else 0.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
