"""LRU replacement for set-associative caches.

A policy instance manages one set of ``ways`` slots.  It sees only way
indices — the cache supplies which way was touched or filled — so it is
reusable across cache levels.

The paper's eviction-list construction (Section 3.1) assumes LRU
ordering in the L2 ("assuming the LRU policy"), so every level uses
:class:`LRUPolicy`.
"""

from __future__ import annotations


class LRUPolicy:
    """True least-recently-used ordering (a recency stack per set)."""

    def __init__(self, ways: int) -> None:
        # _stack[0] is most recent; contains each way exactly once.
        self._stack: list[int] = list(range(ways))

    def touch(self, way: int) -> None:
        """Record a hit on ``way``."""
        self._stack.remove(way)
        self._stack.insert(0, way)

    def fill(self, way: int) -> None:
        """Record that ``way`` was (re)filled with a new line."""
        self.touch(way)

    def victim(self, occupied: list[bool]) -> int:
        """Choose the way to evict.  Prefers an unoccupied way."""
        for way in reversed(self._stack):
            if not occupied[way]:
                return way
        return self._stack[-1]

    def recency_order(self) -> list[int]:
        """Ways from most to least recently used (for tests)."""
        return list(self._stack)
