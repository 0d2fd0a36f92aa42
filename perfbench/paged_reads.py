"""paged-reads: point lookups and short range queries on a paged SUM tree.

The tree holds many times more pages than the buffer pool has frames,
so most node reads miss the pool and go through the pager and the node
codec: the storage layer carries the work and no other layer is
crossed.
"""

from __future__ import annotations

import os
import statistics
import time

from common import (
    SERVED_MIX, SETUP_REPEATS, Context, per, remove_files, uniform_facts,
)
from harness import Rounds, Series, rss_mb, timed_setup
from oracle import SweepOracle, coalesce

FACTS = 16_000
HORIZON = 1_000_000
MAX_DURATION = 4_000
BRANCHING = 32
POOL_FRAMES = 32
RANGE_WIDTH = 2_000
LOOKUPS_PER_ROUND = 100
#: The read part of the service's load mix: two lookups per range query.
RANGES_PER_ROUND = (LOOKUPS_PER_ROUND * SERVED_MIX["rangeq"]
                    // SERVED_MIX["lookup"])
CHECKED_HEIGHT_SAMPLE = 500


def _build(path, facts, checkpoint):
    from repro import SBTree
    from repro.storage import PagedNodeStore

    remove_files(path, path + "-journal")
    memory = SBTree("sum", branching=BRANCHING)
    for i, (value, start, end) in enumerate(facts):
        memory.insert(value, (start, end))
        if i % 500 == 499:
            checkpoint()
    table = memory.to_table(coalesced=True, drop_initial=False)
    checkpoint()
    store = PagedNodeStore(path, "sum", journaled=True,
                           buffer_capacity=POOL_FRAMES)
    SBTree("sum", store, branching=BRANCHING).bulk_load(table)
    store.commit()
    store.close()
    checkpoint()
    store = PagedNodeStore(path, journaled=True, buffer_capacity=POOL_FRAMES)
    return store, SBTree(store=store)


def run(ctx: Context) -> None:
    result, meter = ctx.result, ctx.meter
    facts = uniform_facts(ctx.rng("facts"), FACTS, HORIZON, MAX_DURATION)
    path = os.path.join(ctx.workdir, "paged.sbt")

    setups, setups_raw = [], []
    store = tree = None
    for _ in range(SETUP_REPEATS):
        if store is not None:
            store.close()
        (store, tree), raw, scaled = timed_setup(
            meter, lambda cp: _build(path, facts, cp))
        setups.append(scaled)
        setups_raw.append(raw)
    meter.reset()
    rss = rss_mb()

    if ctx.traced:
        ctx.recorder.reset()
    spans = ctx.spans()
    queries = ctx.rng("queries")
    lookups, ranges, rounds = Series(meter), Series(meter), Rounds(meter)
    reads = Series(meter)  # lookups and range queries together
    lookup_answers, range_answers = [], []
    buffer_before = store.buffer.stats.snapshot()
    clock = time.perf_counter
    deadline = ctx.deadline()
    while clock() < deadline:
        meter.begin()
        spans.mark()
        round_started = clock()
        lat = []
        for _ in range(LOOKUPS_PER_ROUND):
            t = queries.randrange(HORIZON)
            started = clock()
            value = tree.lookup(t)
            lat.append(clock() - started)
            lookup_answers.append((t, value))
        spans.add_since_mark("lookup")
        rlat = []
        for _ in range(RANGES_PER_ROUND):
            lo = queries.randrange(HORIZON - RANGE_WIDTH)
            started = clock()
            rows = tree.range_query((lo, lo + RANGE_WIDTH)).rows
            rlat.append(clock() - started)
            range_answers.append((lo, rows))
        spans.add_since_mark("range")
        elapsed = clock() - round_started
        round_id = meter.end()
        lookups.extend(lat, round_id)
        ranges.extend(rlat, round_id)
        reads.extend(lat + rlat, round_id)
        rounds.add(len(lat) + len(rlat), elapsed, round_id)
    buffer_delta = store.buffer.stats.snapshot() - buffer_before

    # Checks, outside the timed rounds.
    oracle = SweepOracle.of_facts(facts)
    result.attempted = len(lookup_answers) + len(range_answers)
    for t, value in lookup_answers:
        want = oracle.value_at(t)
        if value != want:
            result.fail(f"lookup({t}) = {value!r}, oracle {want!r}")
    for lo, rows in range_answers:
        got = coalesce((v, iv.start, iv.end) for v, iv in rows)
        want = oracle.steps(lo, lo + RANGE_WIDTH)
        if got != want:
            result.fail(f"range_query([{lo}, {lo + RANGE_WIDTH})) differs")
    height = tree.height
    reads_before = store.stats.reads
    for t, _ in lookup_answers[:CHECKED_HEIGHT_SAMPLE]:
        tree.lookup(t)
    reads_per_lookup = per(store.stats.reads - reads_before,
                           min(CHECKED_HEIGHT_SAMPLE, len(lookup_answers)))
    result.require(reads_per_lookup <= height,
                   f"{reads_per_lookup} node reads per lookup exceed "
                   f"tree height {height}")
    pages = tree.node_count()
    file_bytes = os.path.getsize(path)
    store.close()

    result.notes.update(
        lookups=len(lookups), ranges=len(ranges), rounds=len(rounds),
        tree_pages=pages, pool_frames=POOL_FRAMES, height=height,
        store_bytes_per_fact=round(per(file_bytes, FACTS), 2),
    )
    ctx.metric("ops_s", rounds.rate(), rounds.rate(False))
    ctx.metric("op_p50_us", reads.quantile(0.5) * 1e6,
               reads.quantile(0.5, False) * 1e6)
    ctx.metric("read_p50_us", lookups.quantile(0.5) * 1e6,
               lookups.quantile(0.5, False) * 1e6)
    ctx.read_tail(lookups)
    ctx.metric("range_p50_us", ranges.quantile(0.5) * 1e6,
               ranges.quantile(0.5, False) * 1e6)
    ctx.metric("rss_mb", rss)
    ctx.metric("setup_s", statistics.median(setups),
               statistics.median(setups_raw))
    if not ctx.traced:
        return

    scale = ctx.layer_scale() * 1e6
    n_lookups = len(lookups)
    n_ranges = len(ranges)
    ctx.metric("core.tree_height", height)
    ctx.metric("core.node_reads_per_lookup",
               per(spans.get("lookup", "store.read").calls, n_lookups))
    ctx.metric("core.node_reads_per_range",
               per(spans.get("range", "store.read").calls, n_ranges))
    ctx.metric("core.lookup_self_us",
               per(spans.get("lookup", "tree.lookup").self_s, n_lookups) * scale)
    ctx.metric("storage.read_us_per_lookup",
               per(spans.get("lookup", "store.read").total_s, n_lookups) * scale)
    ctx.metric("storage.decode_us_per_lookup",
               per(spans.get("lookup", "codec.decode").total_s, n_lookups) * scale)
    ctx.metric("storage.page_reads_per_lookup",
               per(spans.get("lookup", "pager.read_page").calls, n_lookups))
    ctx.metric("storage.buffer_hit_rate", buffer_delta.hit_rate)
    ctx.metric("storage.bytes_per_fact", per(file_bytes, FACTS))
