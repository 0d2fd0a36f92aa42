"""Tests of the benchmark's own checks.

Run from the root of the repository:

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import paged_reads  # noqa: E402
from common import Context  # noqa: E402
from oracle import SweepOracle, coalesce  # noqa: E402
from repro.core.sbtree import SBTree  # noqa: E402


def _naive(facts, t, key=None):
    return sum(v for v, s, e, k in facts if s <= t < e and key in (None, k))


def test_oracle_matches_a_direct_sum():
    rng = random.Random(3)
    facts = []
    for _ in range(300):
        start = rng.randrange(1000)
        facts.append((rng.randint(-5, 9), start, start + rng.randint(1, 80),
                      rng.choice("ab")))
    oracle = SweepOracle(c for _, s, e, _ in facts for c in (s, e))
    for value, start, end, key in facts:
        oracle.add(value, start, end, key)
    for t in range(-5, 1100, 7):
        assert oracle.value_at(t) == _naive(facts, t)
        assert oracle.value_at(t, "a") == _naive(facts, t, "a")
    for lo in range(0, 1000, 37):
        hi = lo + 55
        cuts = sorted({lo, hi} | {c for _, s, e, _ in facts
                                   for c in (s, e) if lo < c < hi})
        direct = coalesce((_naive(facts, a), a, b) for a, b in zip(cuts, cuts[1:]))
        assert oracle.steps(lo, hi) == direct


def _small_run(tmp_path):
    ctx = Context(workload="paged-reads", seed=5, seconds=0.5,
                  root=str(tmp_path), workdir=str(tmp_path))
    paged_reads.run(ctx)
    return ctx.result


def _shrink(monkeypatch):
    monkeypatch.setattr(paged_reads, "FACTS", 2_000)
    monkeypatch.setattr(paged_reads, "SETUP_REPEATS", 1)


def test_clean_run_reports_no_failed_operations(tmp_path, monkeypatch):
    _shrink(monkeypatch)
    result = _small_run(tmp_path)
    assert result.correct
    assert result.attempted > 0
    assert result.failed == 0


def test_a_tree_corrupting_one_answer_in_a_hundred_is_caught(tmp_path, monkeypatch):
    _shrink(monkeypatch)
    lookup = SBTree.lookup
    calls = [0]

    def corrupted(self, t):
        calls[0] += 1
        value = lookup(self, t)
        return value + 1 if calls[0] % 100 == 0 else value

    monkeypatch.setattr(SBTree, "lookup", corrupted)
    result = _small_run(tmp_path)
    lookups = result.notes["lookups"]
    assert lookups >= 100
    # Every corrupted answer in the timed rounds is a failed operation.
    assert result.failed >= lookups // 100
    assert result.failed <= lookups // 100 + 1


def test_served_mix_follows_the_service_load_mix():
    from common import SERVED_MIX
    from repro.service.loadgen import DEFAULT_MIX

    # loadgen folds ``window`` into ``lookup`` on SUM servers.
    mix = dict(DEFAULT_MIX)
    mix["lookup"] += mix.pop("window")
    total = sum(SERVED_MIX.values())
    assert set(SERVED_MIX) == set(mix)
    for op, share in mix.items():
        assert abs(SERVED_MIX[op] / total - share) < 1e-9
    assert paged_reads.RANGES_PER_ROUND * SERVED_MIX["lookup"] == (
        paged_reads.LOOKUPS_PER_ROUND * SERVED_MIX["rangeq"])
