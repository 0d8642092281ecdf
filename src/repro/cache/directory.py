"""Coherence directory (snoop filter) for one socket.

Skylake-SP couples each LLC slice with a directory slice (Figure 2).
Because the LLC is non-inclusive, a line can live in a core's private
cache without an LLC copy; the directory records which cores hold which
lines so an access that misses the LLC can still be served by a
cache-to-cache transfer instead of DRAM.

The directory has *bounded capacity*: it is set-associative over the
same index space as the LLC.  When a set overflows, the least-recently
recorded entry is evicted and the corresponding line is
**back-invalidated** out of every private cache — the mechanism behind
directory-conflict attacks on non-inclusive LLCs (Yan et al., cited as
[63]) and the reason congruent-address flooding can displace a line
from *another* core's private cache.

The data-reuse covert channels depend on the directory both ways: in
Flush+Reload the receiver's reload is fast when the *sender's* private
cache holds the line (directory snoop hit), and in Reload+Refresh the
receiver's congruent refresh set overflows the directory set, flushing
the sender's stale copy between bits.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

#: Private-cache copies tracked per directory set.  Sized to the L2
#: associativity: one core's worth of congruent lines just fits, two
#: parties' worth overflows (the attack precondition).
DEFAULT_DIRECTORY_WAYS = 16


class CoherenceDirectory:
    """Set-associative snoop filter with LRU back-invalidation."""

    def __init__(self, num_sets: int = 2048,
                 ways: int = DEFAULT_DIRECTORY_WAYS,
                 index_fn: Callable[[int], int] | None = None) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("directory geometry must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._index_fn = index_fn
        # Per set: line -> set of holder core ids, in LRU order
        # (first entry = least recently recorded).  A set is created on
        # its first fill; queries on an untouched set create nothing.
        self._sets: dict[int, OrderedDict[int, set[int]]] = {}
        self._back_invalidate: Callable[[int], None] | None = None
        self.snoop_hits = 0
        self.snoop_misses = 0
        self.back_invalidations = 0

    def set_back_invalidate(self,
                            callback: Callable[[int], None]) -> None:
        """Install the private-cache invalidation hook (the hierarchy)."""
        self._back_invalidate = callback

    def _index(self, line: int) -> int:
        if self._index_fn is not None:
            return self._index_fn(line)
        return line % self.num_sets

    def record_fill(self, line: int, core_id: int) -> None:
        """A core's private cache gained a copy of ``line``.

        May evict another entry from the directory set, back-invalidating
        its line from every private cache.
        """
        index = self._index(line)
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = OrderedDict()
        elif line in entries:
            entries[line].add(core_id)
            entries.move_to_end(line)
            return
        if len(entries) >= self.ways:
            victim_line, _holders = entries.popitem(last=False)
            self.back_invalidations += 1
            if self._back_invalidate is not None:
                self._back_invalidate(victim_line)
        entries[line] = {core_id}

    def record_eviction(self, line: int, core_id: int) -> None:
        """A core's private cache lost its copy of ``line``."""
        entries = self._sets.get(self._index(line))
        holders = None if entries is None else entries.get(line)
        if holders is None:
            return
        holders.discard(core_id)
        if not holders:
            del entries[line]

    def record_invalidation(self, line: int) -> None:
        """``line`` was flushed system-wide (clflush semantics)."""
        entries = self._sets.get(self._index(line))
        if entries is not None:
            entries.pop(line, None)

    def holders(self, line: int) -> frozenset[int]:
        """Core ids whose private caches hold ``line``."""
        entries = self._sets.get(self._index(line))
        if entries is None:
            return frozenset()
        return frozenset(entries.get(line, frozenset()))

    def remote_holder(self, line: int, requesting_core: int) -> int | None:
        """A core other than the requester holding ``line``, if any.

        Updates snoop statistics; used on the LLC-miss path to decide
        between a cache-to-cache transfer and a DRAM access.
        """
        for core_id in self.holders(line):
            if core_id != requesting_core:
                self.snoop_hits += 1
                return core_id
        self.snoop_misses += 1
        return None

    def tracked_lines(self) -> int:
        """Number of lines with at least one private-cache holder."""
        return sum(len(entries) for entries in self._sets.values())
