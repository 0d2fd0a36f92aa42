"""ordered-ingest: a k-ordered stream into four journaled page-file shards.

Each batch is one ``ShardedTree.batch_insert`` followed by one
``commit()`` -- the service's group-commit shape without TCP.  Every
commit fsyncs each shard's page file (and removes its journal), so the
flush policy is one fsync per shard per batch.  Writes land near the
right edge of time, so the working set fits the buffer pools.  After
each batch a few point lookups and one range query read the span just
written.

The run is a sequence of episodes, each on fresh page files: set-up
(timed as ``setup_s``) preloads a history, the timed rounds stream the
rest of the input in batches, and the episode ends by closing and
reopening every page file and checking the reopened trees.  Every
episode replays the same seeded stream, so a slow stretch of the
machine changes how many episodes fit in a run, not what each batch
costs.
"""

from __future__ import annotations

import os
import statistics
import time

from common import SETUP_REPEATS, Context, per, remove_files
from harness import Rounds, Series, rss_mb, timed_setup
from oracle import SweepOracle, coalesce

SHARDS = 4
PRELOAD = 3_000
STREAM = 3_000
K = 16
GAP = 10
MAX_DURATION = 200
PRELOAD_BATCH = 500
BATCH = 100
READS_PER_BATCH = 40
CHECKED_INSTANTS = 300


def _paths(workdir):
    return [os.path.join(workdir, f"shard-{i}.sbt") for i in range(SHARDS)]


def _open(paths, boundaries, fresh):
    from repro.sharding import ShardedTree
    from repro.storage import PagedNodeStore

    if fresh:
        for path in paths:
            remove_files(path, path + "-journal")
    stores = [PagedNodeStore(path, "sum", journaled=True) for path in paths]
    return ShardedTree("sum", boundaries, stores=stores)


def _preload(paths, boundaries, facts, checkpoint):
    sharded = _open(paths, boundaries, fresh=True)
    for i in range(0, len(facts), PRELOAD_BATCH):
        sharded.batch_insert(facts[i:i + PRELOAD_BATCH])
        sharded.commit()
        checkpoint()
    return sharded


def run(ctx: Context) -> None:
    from repro.core.validate import TreeInvariantError
    from repro.sharding import even_boundaries
    from repro.workloads import ordered

    result, meter = ctx.result, ctx.meter
    stream = [(v, iv.start, iv.end) for v, iv in
              ordered(PRELOAD + STREAM, k=K, gap=GAP,
                      max_duration=MAX_DURATION, seed=ctx.seed)]
    facts = [(v, (s, e)) for v, s, e in stream]
    horizon = max(e for _, _, e in stream) + 1
    boundaries = even_boundaries(0, horizon, SHARDS)
    paths = _paths(ctx.workdir)
    queries = ctx.rng("queries")
    batches = [facts[i:i + BATCH] for i in range(PRELOAD, len(facts), BATCH)]
    batch_spans = [
        (min(s for _, (s, _) in b), max(e for _, (_, e) in b)) for b in batches
    ]

    setups, setups_raw = [], []
    writes, lookups, ranges = Series(meter), Series(meter), Series(meter)
    rounds = Rounds(meter)
    rss = 0.0
    facts_written = 0
    episodes = []  # per episode: [(batch index, reads, range answer)]
    reopen_checks = []  # per episode: [(t, value read after reopening)]
    traced = ctx.traced
    spans = ctx.spans()
    counters = {"pieces": 0, "allocations": 0, "writes": 0}
    hits = misses = 0
    file_bytes = height = 0
    clock = time.perf_counter
    deadline = ctx.deadline()
    while clock() < deadline or len(setups) < SETUP_REPEATS:
        sharded, raw, scaled = timed_setup(
            meter, lambda cp: _preload(paths, boundaries, facts[:PRELOAD], cp))
        setups.append(scaled)
        setups_raw.append(raw)
        if not rss:
            rss = rss_mb()
        stores = [shard.tree.store for shard in sharded.shards]
        pieces0 = sum(sharded.pieces_applied)
        alloc0 = sum(s.stats.allocations for s in stores)
        writes0 = sum(s.stats.writes for s in stores)
        buf0 = [s.buffer.stats.snapshot() for s in stores]
        answers = []
        for index, batch in enumerate(batches):
            meter.begin()
            spans.mark()
            started = clock()
            sharded.batch_insert(batch)
            sharded.commit()
            write_s = clock() - started
            spans.add_since_mark("write")
            lo, hi = batch_spans[index]
            reads, lat = [], []
            for _ in range(READS_PER_BATCH):
                t = queries.randrange(lo, hi)
                started = clock()
                value = sharded.lookup(t)
                lat.append(clock() - started)
                reads.append((t, value))
            spans.add_since_mark("lookup")
            started = clock()
            rows = sharded.range_query((lo, hi)).rows
            range_s = clock() - started
            spans.add_since_mark("range")
            round_id = meter.end()
            writes.add(write_s, round_id)
            rounds.add(len(batch), write_s, round_id)
            lookups.extend(lat, round_id)
            ranges.add(range_s, round_id)
            answers.append((index, reads, rows))
            facts_written += len(batch)
        meter.reset()
        counters["pieces"] += sum(sharded.pieces_applied) - pieces0
        counters["allocations"] += sum(s.stats.allocations for s in stores) - alloc0
        counters["writes"] += sum(s.stats.writes for s in stores) - writes0
        for store, before in zip(stores, buf0):
            delta = store.buffer.stats.snapshot() - before
            hits += delta.hits
            misses += delta.misses
        episodes.append(answers)

        # The episode ends by closing and reopening every page file.
        sharded.close()
        reopened = _open(paths, boundaries, fresh=False)
        try:
            reopened.check()
        except TreeInvariantError as exc:
            result.require(False, f"reopened shards fail check_tree: {exc}")
        samples = []
        for _ in range(CHECKED_INSTANTS):
            t = queries.randrange(horizon)
            samples.append((t, reopened.lookup(t)))
        reopen_checks.append(samples)
        height = max(shard.tree.height for shard in reopened.shards)
        reopened.close()
        file_bytes = sum(os.path.getsize(p) for p in paths)

    # Checks, outside the timed rounds: replay the stream into the oracle
    # in the order it was written, checking each batch's reads.
    for answers, samples in zip(episodes, reopen_checks):
        oracle = SweepOracle(c for _, s, e in stream for c in (s, e))
        for value, start, end in stream[:PRELOAD]:
            oracle.add(value, start, end)
        for index, reads, rows in answers:
            for value, start, end in stream[PRELOAD + index * BATCH:
                                            PRELOAD + (index + 1) * BATCH]:
                oracle.add(value, start, end)
            result.attempted += 2 + len(reads)  # batch + commit + reads
            for t, value in reads:
                if value != oracle.value_at(t):
                    result.fail(f"lookup({t}) = {value!r} after batch {index},"
                                f" oracle {oracle.value_at(t)!r}")
            result.attempted += 1
            lo, hi = batch_spans[index]
            if coalesce((v, iv.start, iv.end) for v, iv in rows) != oracle.steps(lo, hi):
                result.fail(f"range_query([{lo}, {hi})) after batch {index} differs")
        missing = [(t, v, oracle.value_at(t)) for t, v in samples
                   if v != oracle.value_at(t)]
        result.require(not missing, f"reopened shards lost committed facts: "
                                    f"{missing[:3]} (instant, read, oracle)")

    result.notes.update(
        episodes=len(episodes), batches=len(writes), facts=facts_written,
        lookups=len(lookups), height=height,
        store_bytes_per_fact=round(per(file_bytes, len(facts)), 2),
    )
    ctx.metric("ops_s", rounds.rate(), rounds.rate(False))
    ctx.metric("op_p50_us", writes.quantile(0.5) * 1e6,
               writes.quantile(0.5, False) * 1e6)
    ctx.metric("read_p50_us", lookups.quantile(0.5) * 1e6,
               lookups.quantile(0.5, False) * 1e6)
    ctx.read_tail(lookups)
    ctx.metric("range_p50_us", ranges.quantile(0.5) * 1e6,
               ranges.quantile(0.5, False) * 1e6)
    ctx.metric("rss_mb", rss)
    ctx.metric("setup_s", statistics.median(setups),
               statistics.median(setups_raw))
    if not traced:
        return

    scale = ctx.layer_scale() * 1e6
    n_lookups, n_ranges, n_batches = len(lookups), len(ranges), len(writes)
    ctx.metric("core.tree_height", height)
    ctx.metric("core.node_reads_per_lookup",
               per(spans.get("lookup", "store.read").calls, n_lookups))
    ctx.metric("core.node_reads_per_range",
               per(spans.get("range", "store.read").calls, n_ranges))
    ctx.metric("core.lookup_self_us",
               per(spans.get("lookup", "tree.lookup").self_s, n_lookups) * scale)
    ctx.metric("core.node_writes_per_fact", per(counters["writes"], facts_written))
    ctx.metric("core.insert_self_us",
               per(spans.get("write", "tree.insert").self_s, facts_written) * scale)
    ctx.metric("storage.read_us_per_lookup",
               per(spans.get("lookup", "store.read").total_s, n_lookups) * scale)
    ctx.metric("storage.decode_us_per_lookup",
               per(spans.get("lookup", "codec.decode").total_s, n_lookups) * scale)
    ctx.metric("storage.page_reads_per_lookup",
               per(spans.get("lookup", "pager.read_page").calls, n_lookups))
    ctx.metric("storage.buffer_hit_rate", per(hits, hits + misses))
    ctx.metric("storage.encode_us_per_fact",
               per(spans.get("write", "codec.encode").total_s, facts_written) * scale)
    ctx.metric("storage.page_writes_per_fact",
               per(spans.get("write", "pager.write_page").calls, facts_written))
    ctx.metric("storage.allocations_per_fact",
               per(counters["allocations"], facts_written))
    ctx.metric("storage.commit_ms",
               per(spans.get("write", "store.commit").total_s, n_batches)
               * scale / 1e3)
    ctx.metric("storage.bytes_per_fact", per(file_bytes, len(facts)))
    ctx.metric("sharding.pieces_per_fact", per(counters["pieces"], facts_written))
    ctx.metric("sharding.apply_ms_per_batch",
               per(spans.get("write", "shard.apply").total_s, n_batches)
               * scale / 1e3)
