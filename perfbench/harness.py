"""Timing machinery shared by every workload: the speed probe and rounds.

The machine this benchmark was built on changes speed by up to three
times over a few seconds, and the CPU itself slows (thread CPU time
equals wall time), so a wall-clock figure says as much about the
machine as about the program.  Every timed phase is therefore cut into
short rounds with a fixed pure-Python probe between them; each round's
times are scaled by the probe readings on either side of it:

    scaled time = raw time x measured probe rate / NOMINAL_PROBE_RATE

A round that ran while the machine was at half speed took twice as
long, and its probe read half the rate, so the product stays put.

This module imports nothing from ``repro``: the probe must not change
when the program does.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import struct
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Probe rate, in iterations per second, that scaled figures are expressed
#: at: a typical reading on the reference machine (README.md).  Changing
#: it rescales every timed figure, so it is a fixed constant, not a
#: measurement.
NOMINAL_PROBE_RATE = 6.0e5

_PROBE_ITERATIONS = 1_600
_PROBE_BYTES = bytes(range(256)) * 16


class _ProbeCell:
    __slots__ = ("key", "seq", "items")

    def __init__(self, key: int, seq: int, items: list) -> None:
        self.key = key
        self.seq = seq
        self.items = items


def probe_rate() -> float:
    """Run the fixed probe once; return its rate in iterations per second.

    Each iteration does what the program's hot paths do in kind:
    integer arithmetic, a store into a 64Ki-slot dict, a small object and
    a list allocated and later dropped, attribute and list reads, and one
    ``struct`` unpack from a byte buffer.  On the reference machine it
    tracked the program's slow episodes better than a bare arithmetic
    loop did.
    """
    table: Dict[int, tuple] = {}
    cells: List[_ProbeCell] = []
    unpack = struct.unpack_from
    data = _PROBE_BYTES
    acc = 0
    started = time.perf_counter()
    for i in range(_PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[(i * 7919) & 0xFFFF] = (acc, i)
        cells.append(_ProbeCell(acc, i, [acc, i]))
        if len(cells) > 256:
            cells.pop(0)
        acc ^= unpack("<Id", data, (i * 13) & 4000)[0] & 0xFF
        acc += cells[(i * 5) % len(cells)].items[0] & 7
    elapsed = time.perf_counter() - started
    return _PROBE_ITERATIONS / elapsed


class Meter:
    """Probe readings of one run, and the scale factor of each round.

    ``begin()`` reads the probe before a round (unless the reading after
    the previous round is still fresh), ``end()`` reads it after the
    round and returns the round's id.  A round's factor is the median of
    the readings around it -- its own two and ``SMOOTHING`` more on each
    side -- divided by the nominal rate.  One probe reading is off by 3%
    from the next at the median on the reference machine, while its
    slow episodes last seconds, so a window of a few readings tracks the
    machine and not the probe's own jitter.
    """

    SMOOTHING = 2

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.rounds: List[Tuple[int, int]] = []
        self._last: Optional[int] = None

    def begin(self) -> None:
        if self._last is None:
            self.readings.append(probe_rate())
            self._last = len(self.readings) - 1

    def end(self) -> int:
        self.begin()
        self.readings.append(probe_rate())
        after = len(self.readings) - 1
        self.rounds.append((self._last, after))
        self._last = after
        return len(self.rounds) - 1

    def factor(self, round_id: int) -> float:
        first, last = self.rounds[round_id]
        window = self.readings[max(0, first - self.SMOOTHING):
                               last + 1 + self.SMOOTHING]
        return statistics.median(window) / NOMINAL_PROBE_RATE

    def reset(self) -> None:
        """Forget the last reading (after untimed work between rounds)."""
        self._last = None

    def median_rate(self) -> float:
        return statistics.median(self.readings) if self.readings else 0.0


class Series:
    """Samples of one timed quantity, each tagged with its round."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.raw: List[float] = []
        self._rounds: List[int] = []

    def add(self, raw: float, round_id: int) -> None:
        self.raw.append(raw)
        self._rounds.append(round_id)

    def extend(self, raws: Iterable[float], round_id: int) -> None:
        for raw in raws:
            self.add(raw, round_id)

    def __len__(self) -> int:
        return len(self.raw)

    @property
    def scaled(self) -> List[float]:
        factors: Dict[int, float] = {}
        out = []
        for raw, round_id in zip(self.raw, self._rounds):
            factor = factors.get(round_id)
            if factor is None:
                factor = factors[round_id] = self.meter.factor(round_id)
            out.append(raw * factor)
        return out

    def values(self, scaled: bool = True) -> List[float]:
        return self.scaled if scaled else self.raw

    def total(self, scaled: bool = True) -> float:
        return math.fsum(self.values(scaled))

    def quantile(self, q: float, scaled: bool = True) -> float:
        return quantile(self.values(scaled), q)

    def p99(self, scaled: bool = True) -> float:
        return windowed_p99(self.values(scaled))


class Rounds:
    """Work done and time taken per round; the rate is their median."""

    def __init__(self, meter: Meter) -> None:
        self.work: List[float] = []
        self.time = Series(meter)

    def add(self, work: float, raw_s: float, round_id: int) -> None:
        self.work.append(work)
        self.time.add(raw_s, round_id)

    def __len__(self) -> int:
        return len(self.work)

    def rate(self, scaled: bool = True) -> float:
        """Median over rounds of work per second.

        A median of per-round rates, not total work over total time,
        so that a few rounds the probe did not scale well (the machine
        changed speed inside them) do not move the figure.
        """
        rates = [w / t for w, t in zip(self.work, self.time.values(scaled))
                 if t > 0]
        return statistics.median(rates) if rates else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Samples per window of :func:`windowed_p99`: the fewest that
#: leave ten samples above a 99th percentile.
TAIL_WINDOW = 1000


def windowed_p99(values: Sequence[float]) -> float:
    """Median over consecutive windows of TAIL_WINDOW samples of each
    window's 99th percentile (the p99 of all samples when there are
    fewer).

    A p99 over a whole run moves with the few seconds in which the
    machine stalled; the typical window's p99 is the program's tail.
    """
    count = len(values) // TAIL_WINDOW
    if count < 2:
        return quantile(values, 0.99)
    return statistics.median(
        quantile(values[i * TAIL_WINDOW:(i + 1) * TAIL_WINDOW], 0.99)
        for i in range(count)
    )


def timed_setup(meter: Meter, build: Callable[[Callable[[], None]], object]):
    """Run *build* once, returning ``(result, raw_s, scaled_s)``.

    *build* receives a ``checkpoint`` callable and should call it
    between chunks of its work (every 50-100 ms or so): each call
    closes one probe-scaled segment, so a slow episode during set-up is
    scaled like one during the timed rounds.
    """
    raw_total = 0.0
    scaled_total = 0.0
    meter.begin()
    started = time.perf_counter()

    def checkpoint() -> None:
        nonlocal started, raw_total, scaled_total
        elapsed = time.perf_counter() - started
        factor = meter.factor(meter.end())
        raw_total += elapsed
        scaled_total += elapsed * factor
        started = time.perf_counter()

    result = build(checkpoint)
    checkpoint()
    return result, raw_total, scaled_total


def rss_mb(pid: Optional[int] = None) -> float:
    """Resident set size of a process in MiB, from /proc."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS line in {path}")


class Result:
    """What one run reports: correctness, operation counts, metrics."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.raw: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def fail(self, message: str) -> None:
        """Count one failed operation (its answer disagreed or it raised)."""
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def require(self, holds: bool, message: str) -> None:
        """Record a property the method must have; a breach makes the
        run incorrect (it is not an operation, so it is not counted as
        a failed one)."""
        if not holds:
            self.correct = False
            self.failures.append(f"property: {message}")

    def metric(self, name: str, value: float, unit: str,
               raw: Optional[float] = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if raw is not None:
            self.raw[name] = float(raw)

    def emit(self, names: Sequence[str], out=sys.stdout) -> None:
        """Print diagnostics, then the one-line JSON result last."""
        for message in self.failures:
            print(f"FAILED {message}", file=out)
        if self.raw:
            print("raw (unscaled): " + json.dumps(self.raw, sort_keys=True),
                  file=out)
        if self.notes:
            print("notes: " + json.dumps(self.notes, sort_keys=True), file=out)
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        line = {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: self.metrics[name] for name in names},
        }
        out.write(json.dumps(line) + "\n")
        out.flush()


def work_dir(root: str, workload: str) -> str:
    """A fresh scratch directory for one run, inside the checkout."""
    path = os.path.join(root, ".perfbench-work", f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
