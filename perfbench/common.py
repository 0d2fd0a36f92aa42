"""What every workload shares: the run context, metric names, inputs."""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from harness import NOMINAL_PROBE_RATE, Meter, Result, Series
from spans import Recorder, SpanStats

#: End-to-end metrics, reported by every workload with ``--trace 0``
#: (name, unit).  README.md says what each one is on each workload.
END_TO_END = (
    ("ops_s", "ops/s"),
    ("op_p50_us", "us"),
    ("read_p50_us", "us"),
    ("range_p50_us", "us"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: Per-layer metrics, reported by every workload with ``--trace 1``.
#: A workload whose measured process does not cross a layer reports
#: that layer's metrics as 0.
PER_LAYER = (
    ("core.tree_height", "count"),
    ("core.node_reads_per_lookup", "count"),
    ("core.node_reads_per_range", "count"),
    ("core.lookup_self_us", "us"),
    ("core.node_writes_per_fact", "count"),
    ("core.insert_self_us", "us"),
    ("storage.read_us_per_lookup", "us"),
    ("storage.decode_us_per_lookup", "us"),
    ("storage.page_reads_per_lookup", "count"),
    ("storage.buffer_hit_rate", "ratio"),
    ("storage.encode_us_per_fact", "us"),
    ("storage.page_writes_per_fact", "count"),
    ("storage.allocations_per_fact", "count"),
    ("storage.commit_ms", "ms"),
    ("storage.bytes_per_fact", "B"),
    ("sharding.pieces_per_fact", "count"),
    ("sharding.apply_ms_per_batch", "ms"),
    ("warehouse.refresh_ms_per_batch", "ms"),
    ("warehouse.rows_emitted_per_event", "count"),
    ("warehouse.eager_insert_us", "us"),
    ("service.server_us.lookup", "us"),
    ("service.server_us.insert", "us"),
    ("service.server_us.query_view", "us"),
    ("service.wire_us.lookup", "us"),
    ("service.client_codec_us", "us"),
    ("service.request_bytes", "B"),
    ("service.reply_bytes", "B"),
    ("service.facts_per_flush", "count"),
    ("service.fast_path_share", "ratio"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)

#: How many times set-up runs in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Requests of each kind in one round of served traffic: the service's
#: own load mix, ``repro.service.loadgen.DEFAULT_MIX`` (insert 0.4,
#: lookup 0.35, rangeq 0.2, window 0.05), with ``window`` folded into
#: ``lookup`` as loadgen does for SUM, over 40 requests.  paged-reads
#: keeps its read part, two lookups per range query.
SERVED_MIX = {"insert": 16, "lookup": 16, "rangeq": 8}


@dataclass
class Context:
    """One run: its arguments, its probe, its result, its recorder."""

    workload: str
    seed: int
    seconds: float
    root: str
    workdir: str
    recorder: Optional[Recorder] = None
    meter: Meter = field(default_factory=Meter)
    result: Result = field(default_factory=Result)

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def rng(self, stream: str) -> random.Random:
        """A generator for one named input stream of this seed."""
        return random.Random(f"{self.workload}:{stream}:{self.seed}")

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds

    def metric(self, name: str, value: float, raw: Optional[float] = None) -> None:
        self.result.metric(name, value, UNITS[name], raw)

    def read_tail(self, reads: Series) -> None:
        """Print the reads' p99 in the notes line, unscaled and scaled.

        It is not an end-to-end metric: it could not be held steady
        between runs (README.md).
        """
        self.result.notes["read_p99_us"] = round(reads.p99(False) * 1e6, 1)
        self.result.notes["read_p99_us_scaled"] = round(reads.p99() * 1e6, 1)

    def layer_scale(self) -> float:
        """Factor putting a per-layer time at the nominal probe rate."""
        rate = self.meter.median_rate()
        return rate / NOMINAL_PROBE_RATE if rate else 1.0

    def spans(self) -> "Spans":
        return Spans(self.recorder)


class Spans:
    """Span totals snapshotted between phases of a traced run."""

    def __init__(self, recorder: Optional[Recorder]) -> None:
        self.recorder = recorder
        self.totals: Dict[str, SpanStats] = {}
        self._mark: Dict[str, Tuple[int, float, float, int]] = {}

    def _now(self) -> Dict[str, Tuple[int, float, float, int]]:
        if self.recorder is None:
            return {}
        return {
            name: (s.calls, s.total_s, s.self_s, s.size)
            for name, s in self.recorder.spans.items()
        }

    def mark(self) -> None:
        self._mark = self._now()

    def add_since_mark(self, phase: str) -> None:
        """Add span activity since the last :meth:`mark` to *phase*."""
        now = self._now()
        for name, (calls, total, own, size) in now.items():
            c0, t0, s0, z0 = self._mark.get(name, (0, 0.0, 0.0, 0))
            if calls == c0:
                continue
            stats = self.totals.setdefault(f"{phase}:{name}", SpanStats())
            stats.calls += calls - c0
            stats.total_s += total - t0
            stats.self_s += own - s0
            stats.size += size - z0
        self._mark = now

    def get(self, phase: str, name: str) -> SpanStats:
        return self.totals.get(f"{phase}:{name}") or SpanStats()


def per(amount: float, count: float) -> float:
    return amount / count if count else 0.0


def uniform_fact(
    rng: random.Random, horizon: int, max_duration: int
) -> Tuple[int, int, int]:
    """One ``(value, start, end)`` fact, uniform start and duration."""
    start = rng.randrange(horizon)
    return rng.randint(1, 100), start, start + rng.randint(1, max_duration)


def uniform_facts(
    rng: random.Random, n: int, horizon: int, max_duration: int
) -> List[Tuple[int, int, int]]:
    """*n* facts drawn by :func:`uniform_fact`."""
    return [uniform_fact(rng, horizon, max_duration) for _ in range(n)]


def remove_files(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
