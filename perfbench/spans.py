"""In-memory span recorder for the traced run (``--trace 1``).

The traced run times calls into each layer's public entry points from
the benchmark's own code: :meth:`Recorder.wrap` replaces a method or
module function with a wrapper that records one span per call.  Spans
nest per thread; a span's *self* time is its duration minus the time
of the spans opened inside it.  Only per-name aggregates are kept
(calls, total and self seconds, and an optional size counter), which is
all the per-layer metrics need.

The program's own observability (``repro.obs``, ``repro.obs.trace``)
stays off: turning it on sends the server's inline fast paths and
``ConcurrentTree`` down other code, so the traced run would no longer
measure the code the untraced run does.

Span names follow the layer vocabulary of ``repro/obs/trace.py``
(``tree.*``, ``shard.*``, ``client.*``) and add the storage and view
layers below and beside it.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.size = 0


class Recorder:
    """Aggregates spans by name; undo every wrap with :meth:`close`."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        size: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *size*, when given, maps ``(args, result)`` to a count added to
        the span's ``size`` (bytes encoded, for instance).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stats = self.spans.setdefault(name, SpanStats())
        stack_of = self._stack
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with lock:
                    stats.calls += 1
                    stats.total_s += duration
                    stats.self_s += duration - children
            if size is not None:
                amount = size(args, result)
                with lock:
                    stats.size += amount
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def get(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    def reset(self) -> None:
        """Zero every aggregate (after set-up, before the timed phase)."""
        with self._lock:
            for stats in self.spans.values():
                stats.calls = 0
                stats.total_s = stats.self_s = 0.0
                stats.size = 0

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def wrap_program(recorder: Recorder) -> None:
    """Wrap the in-process entry points every workload may cross."""
    from repro.core.sbtree import SBTree
    from repro.core.store import MemoryNodeStore
    from repro.sharding import ShardedTree
    from repro.storage.buffer import BufferPool
    from repro.storage.codec import NodeCodec
    from repro.storage.pager import Pager
    from repro.storage.store import PagedNodeStore
    from repro.warehouse.dynamic import DynamicCatalog

    for owner, attr, name in (
        (SBTree, "lookup", "tree.lookup"),
        (SBTree, "range_query", "tree.range_query"),
        (SBTree, "insert", "tree.insert"),
        (PagedNodeStore, "read", "store.read"),
        (PagedNodeStore, "write", "store.write"),
        (MemoryNodeStore, "read", "store.read"),
        (MemoryNodeStore, "write", "store.write"),
        (PagedNodeStore, "commit", "store.commit"),
        (NodeCodec, "decode", "codec.decode"),
        (NodeCodec, "encode", "codec.encode"),
        (BufferPool, "read", "buffer.read"),
        (Pager, "read_page", "pager.read_page"),
        (Pager, "write_page", "pager.write_page"),
        (ShardedTree, "batch_insert", "shard.apply"),
        (ShardedTree, "commit", "shard.commit"),
        (DynamicCatalog, "refresh", "view.refresh"),
        (DynamicCatalog, "read", "view.read"),
    ):
        recorder.wrap(owner, attr, name)
