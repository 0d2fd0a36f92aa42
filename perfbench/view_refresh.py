"""view-refresh: one base table feeding both view engines, in memory.

A ``TemporalWarehouse`` table feeds an eager SUM view and an eager
grouped SUM view (maintained on every insert), and the same table feeds
a ``DynamicCatalog`` DAG: base -> ``by_key`` (SUM grouped by key) ->
``total`` (SUM rollup of ``by_key``), both ``lag="downstream"``.  The
input is a keyed, near-ordered stream in which about 5% of the facts
span most of the horizon -- the paper's Section 1 case, where direct
view maintenance must rewrite every output row a long fact overlaps.
After each batch the DAG refreshes and its frontier is read.

Like ordered-ingest, the run is a sequence of episodes on fresh state:
set-up builds the warehouse, the views and the DAG and preloads a
history; the timed rounds stream the rest in batches.  Every episode
replays the same seeded stream, so per-batch costs do not depend on how
far a run got.
"""

from __future__ import annotations

import statistics
import time

from common import SETUP_REPEATS, Context, per
from harness import Rounds, Series, rss_mb, timed_setup
from oracle import SweepOracle, coalesce

PRELOAD = 600
STREAM = 1_000
BATCH = 25
KEYS = 16
HORIZON = 100_000
MAX_DURATION = 500
JITTER = 2_000
LONG_EVERY = 20  # 5% of the facts
READS_PER_BATCH = 60


def stream_of(rng, n):
    """``(value, start, end, key)`` facts drifting forward in time.

    Every ``LONG_EVERY``-th fact spans most of the horizon.  Fixing their
    positions, not drawing them, keeps the number of long facts per
    batch the same for every seed: it decides most of a refresh's cost.
    """
    facts = []
    for i in range(n):
        if i % LONG_EVERY == LONG_EVERY - 1:
            start = rng.randrange(HORIZON // 10)
            end = HORIZON - rng.randrange(HORIZON // 10)
        else:
            frontier = i * (HORIZON - MAX_DURATION - JITTER) // n
            start = frontier + rng.randrange(JITTER)
            end = start + rng.randint(1, MAX_DURATION)
        facts.append((rng.randint(1, 9), start, end, f"k{rng.randrange(KEYS)}"))
    return facts


def _frontier(stream, upto):
    """The instant range the last batch before *upto* wrote near."""
    frontier = (upto - 1) * (HORIZON - MAX_DURATION - JITTER) // len(stream)
    return max(0, frontier - JITTER), frontier + JITTER + MAX_DURATION


class _Episode:
    def __init__(self, warehouse, table, eager_total, eager_grouped, catalog):
        self.warehouse = warehouse
        self.table = table
        self.eager_total = eager_total
        self.eager_grouped = eager_grouped
        self.catalog = catalog


def _build(stream, checkpoint):
    from repro.warehouse import TemporalWarehouse

    warehouse = TemporalWarehouse()
    table = warehouse.create_table("facts")
    eager_total = warehouse.create_view("eager_total", table, "sum")
    eager_grouped = warehouse.create_grouped_view(
        "eager_by_key", table, "sum", key_of=lambda row: row.payload["key"])
    catalog = warehouse.dynamic
    catalog.create_table("facts")
    catalog.create_view("by_key", "facts", "sum", key="key", lag="downstream")
    catalog.create_view("total", "by_key", "sum", lag="downstream")
    for i, (value, start, end, key) in enumerate(stream[:PRELOAD]):
        table.insert(value, (start, end), key=key)
        if i % BATCH == BATCH - 1:
            catalog.refresh()
            checkpoint()
    catalog.refresh()
    return _Episode(warehouse, table, eager_total, eager_grouped, catalog)


def run(ctx: Context) -> None:
    result, meter = ctx.result, ctx.meter
    stream = stream_of(ctx.rng("facts"), PRELOAD + STREAM)
    batches = [stream[i:i + BATCH] for i in range(PRELOAD, len(stream), BATCH)]
    queries = ctx.rng("queries")

    setups, setups_raw = [], []
    ingest, refresh, reads, ranges = Series(meter), Series(meter), Series(meter), Series(meter)
    rounds = Rounds(meter)
    episodes = []
    rss = 0.0
    spans = ctx.spans()
    emitted = consumed = 0
    facts_written = 0
    clock = time.perf_counter
    deadline = ctx.deadline()
    while clock() < deadline or len(setups) < SETUP_REPEATS:
        ep, raw, scaled = timed_setup(meter, lambda cp: _build(stream, cp))
        setups.append(scaled)
        setups_raw.append(raw)
        meter.reset()
        if not rss:
            rss = rss_mb()
        views = [ep.catalog.view("by_key"), ep.catalog.view("total")]
        emitted0 = sum(v.rows_emitted + v.rows_retracted for v in views)
        consumed0 = sum(v.events_consumed for v in views)
        answers = []
        for index, batch in enumerate(batches):
            meter.begin()
            spans.mark()
            started = clock()
            for value, start, end, key in batch:
                ep.table.insert(value, (start, end), key=key)
            ingest_s = clock() - started
            spans.add_since_mark("ingest")
            started = clock()
            ep.catalog.refresh()
            refresh_s = clock() - started
            spans.add_since_mark("refresh")
            lo, hi = _frontier(stream, PRELOAD + (index + 1) * BATCH)
            got, lat = [], []
            for i in range(READS_PER_BATCH):
                t = queries.randrange(lo, hi)
                key = f"k{queries.randrange(KEYS)}" if i % 2 else None
                started = clock()
                if key is None:
                    value = ep.catalog.read("total", t).value
                else:
                    value = ep.catalog.read("by_key", t, key=key).value
                lat.append(clock() - started)
                got.append((t, key, value))
            spans.add_since_mark("read")
            started = clock()
            rows = ep.eager_total.index.range_query((lo, hi)).rows
            range_s = clock() - started
            spans.add_since_mark("range")
            round_id = meter.end()
            ingest.add(ingest_s, round_id)
            refresh.add(refresh_s, round_id)
            reads.extend(lat, round_id)
            ranges.add(range_s, round_id)
            rounds.add(len(batch), ingest_s + refresh_s, round_id)
            eager = [(t, ep.eager_grouped.value_at(key, t) if key
                      else ep.eager_total.value_at(t)) for t, key, _ in got]
            answers.append((index, got, eager, (lo, hi, rows)))
            facts_written += len(batch)
        meter.reset()
        emitted += sum(v.rows_emitted + v.rows_retracted for v in views) - emitted0
        consumed += sum(v.events_consumed for v in views) - consumed0
        episodes.append(answers)
        height = ep.eager_total.index.height

    # Checks, outside the timed rounds: both engines against the oracle.
    coords = [c for _, s, e, _ in stream for c in (s, e)]
    for answers in episodes:
        oracle = SweepOracle(coords)
        for value, start, end, key in stream[:PRELOAD]:
            oracle.add(value, start, end, key)
        for index, got, eager, (lo, hi, rows) in answers:
            for value, start, end, key in batches[index]:
                oracle.add(value, start, end, key)
            result.attempted += len(batches[index]) + 1  # inserts + refresh
            for (t, key, value), (_, eager_value) in zip(got, eager):
                want = oracle.value_at(t, key) if key else oracle.value_at(t)
                result.attempted += 1
                if (value or 0) != want:
                    result.fail(f"DAG read {key or 'total'}@{t} = {value!r}, "
                                f"oracle {want!r}")
                result.require((eager_value or 0) == want,
                               f"eager view {key or 'total'}@{t} = "
                               f"{eager_value!r}, oracle {want!r}")
            result.attempted += 1
            if coalesce((v, iv.start, iv.end) for v, iv in rows) != oracle.steps(lo, hi):
                result.fail(f"eager range [{lo}, {hi}) after batch {index} differs")

    result.notes.update(episodes=len(episodes), batches=len(refresh),
                        facts=facts_written, reads=len(reads))
    ctx.metric("ops_s", rounds.rate(), rounds.rate(False))
    ctx.metric("op_p50_us", refresh.quantile(0.5) * 1e6,
               refresh.quantile(0.5, False) * 1e6)
    ctx.metric("read_p50_us", reads.quantile(0.5) * 1e6,
               reads.quantile(0.5, False) * 1e6)
    ctx.read_tail(reads)
    ctx.metric("range_p50_us", ranges.quantile(0.5) * 1e6,
               ranges.quantile(0.5, False) * 1e6)
    ctx.metric("rss_mb", rss)
    ctx.metric("setup_s", statistics.median(setups),
               statistics.median(setups_raw))
    if not ctx.traced:
        return

    scale = ctx.layer_scale() * 1e6
    n_batches = len(refresh)
    ctx.metric("core.tree_height", height)
    ctx.metric("core.node_reads_per_lookup",
               per(spans.get("read", "store.read").calls,
                   spans.get("read", "tree.lookup").calls))
    ctx.metric("core.node_reads_per_range",
               per(spans.get("range", "store.read").calls, len(ranges)))
    ctx.metric("core.lookup_self_us",
               per(spans.get("read", "tree.lookup").self_s,
                   spans.get("read", "tree.lookup").calls) * scale)
    inserts = (spans.get("ingest", "tree.insert").self_s
               + spans.get("refresh", "tree.insert").self_s)
    ctx.metric("core.insert_self_us", per(inserts, facts_written) * scale)
    ctx.metric("core.node_writes_per_fact",
               per(spans.get("ingest", "store.write").calls
                   + spans.get("refresh", "store.write").calls, facts_written))
    ctx.metric("warehouse.refresh_ms_per_batch",
               per(spans.get("refresh", "view.refresh").total_s, n_batches)
               * scale / 1e3)
    ctx.metric("warehouse.rows_emitted_per_event", per(emitted, consumed))
    ctx.metric("warehouse.eager_insert_us", per(ingest.total(), facts_written) * 1e6)
