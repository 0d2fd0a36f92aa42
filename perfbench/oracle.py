"""The benchmark's own correctness oracle for SUM temporal aggregates.

A fact ``(value, [start, end))`` contributes ``+value`` at ``start`` and
``-value`` at ``end``; the aggregate at instant ``t`` is the sum of all
endpoint deltas at or before ``t``.  The oracle keeps those deltas in a
Fenwick tree (prefix sums) over the sorted endpoint coordinates of the
whole input, one tree per group key plus one for all keys, so facts can
arrive in stream order and any prefix of the stream can be queried.

It shares no code with ``repro``: it is the computation made outside
the program that every answer is checked against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: Key under which the total over every group is kept.
ALL = object()

Step = Tuple[int, int, int]  # (value, start, end)


class _Fenwick:
    __slots__ = ("tree",)

    def __init__(self, size: int) -> None:
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        tree = self.tree
        index += 1
        while index < len(tree):
            tree[index] += delta
            index += index & -index

    def prefix(self, count: int) -> int:
        """Sum of the first *count* positions."""
        tree = self.tree
        total = 0
        while count > 0:
            total += tree[count]
            count -= count & -count
        return total


class SweepOracle:
    """Endpoint-delta sweep over a fixed set of coordinates.

    *coords* must hold every start and end of every fact that will be
    added (pass the whole generated input up front).
    """

    def __init__(self, coords: Iterable[int]) -> None:
        self.coords: List[int] = sorted(set(coords))
        self._index = {c: i for i, c in enumerate(self.coords)}
        self._trees: Dict[Hashable, _Fenwick] = {ALL: _Fenwick(len(self.coords))}
        self.facts = 0

    @classmethod
    def of_facts(cls, facts: Sequence[Tuple[int, int, int]]) -> "SweepOracle":
        """An oracle holding every ``(value, start, end)`` fact given."""
        oracle = cls(c for _, s, e in facts for c in (s, e))
        for value, start, end in facts:
            oracle.add(value, start, end)
        return oracle

    def _tree(self, key: Hashable) -> _Fenwick:
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = _Fenwick(len(self.coords))
        return tree

    def add(self, value: int, start: int, end: int, key: Hashable = None) -> None:
        """Record one fact valid over ``[start, end)``."""
        lo, hi = self._index[start], self._index[end]
        for tree in (self._trees[ALL], self._tree(key)) if key is not None else (
            self._trees[ALL],
        ):
            tree.add(lo, value)
            tree.add(hi, -value)
        self.facts += 1

    def value_at(self, t: float, key: Hashable = ALL) -> int:
        """The SUM over facts valid at *t* (of one key, or of all)."""
        tree = self._trees.get(key)
        if tree is None:
            return 0
        return tree.prefix(bisect_right(self.coords, t))

    def steps(self, lo: int, hi: int, key: Hashable = ALL) -> List[Step]:
        """The coalesced step function over ``[lo, hi)``."""
        tree = self._trees.get(key)
        first = bisect_right(self.coords, lo)
        last = bisect_left(self.coords, hi)
        value = tree.prefix(first) if tree is not None else 0
        out: List[List[int]] = [[value, lo, hi]]
        for i in range(first, last):
            value = tree.prefix(i + 1) if tree is not None else 0
            if value != out[-1][0]:
                out[-1][2] = self.coords[i]
                out.append([value, self.coords[i], hi])
        return [tuple(step) for step in out]


def coalesce(rows: Iterable[Tuple[Optional[int], float, float]]) -> List[Step]:
    """Merge adjacent equal-valued steps; a missing value reads as 0."""
    out: List[List] = []
    for value, start, end in rows:
        value = value or 0
        if out and out[-1][0] == value and out[-1][2] == start:
            out[-1][2] = end
        else:
            out.append([value, start, end])
    return [tuple(step) for step in out]
