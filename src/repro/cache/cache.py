"""A generic set-associative cache operating on line addresses.

The cache stores 64-byte-aligned *line numbers* (physical address / 64);
data contents are irrelevant to timing channels.  Evictions are reported
both as return values (so a hierarchy can cascade victims, e.g. L2
victims into the non-inclusive LLC) and through listener callbacks (so a
transactional-memory monitor can observe read-set evictions, which is
what Prime+Abort keys on).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..config import CacheConfig
from .replacement import LRUPolicy
from .slice_hash import Indexer, StandardIndexer


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.fills = 0
        self.evictions = self.invalidations = 0


@dataclass
class _Set:
    """One cache set: per-way line numbers and their LRU order."""

    lines: list[int | None]
    policy: LRUPolicy
    way_of: dict[int, int] = field(default_factory=dict)


class SetAssociativeCache:
    """Set-associative cache over line numbers with pluggable indexing.

    ``indexer`` maps a line number to a set index; the default is the
    conventional modulo indexing, and :class:`RandomizedIndexer` swaps in
    a keyed permutation to model randomized-LLC defenses (Table 3's
    "Random. LLC" column).
    """

    def __init__(
        self,
        config: CacheConfig,
        *,
        indexer: Indexer | None = None,
        name: str | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self.name = name if name is not None else config.name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._indexer: Indexer = (
            indexer if indexer is not None else StandardIndexer(self.num_sets)
        )
        # Sets are created on first fill: a socket has ~50k of them and
        # an experiment touches a few hundred.  An untouched set behaves
        # exactly like a fresh one, so deferring its policy is exact.
        self._sets: dict[int, _Set] = {}
        self.stats = CacheStats()
        self._eviction_listeners: list[Callable[[int], None]] = []

    # -- listeners --------------------------------------------------------

    def add_eviction_listener(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked with each evicted line number."""
        self._eviction_listeners.append(callback)

    def remove_eviction_listener(self,
                                 callback: Callable[[int], None]) -> None:
        """Unregister a previously added eviction listener."""
        self._eviction_listeners.remove(callback)

    def _notify_eviction(self, line: int) -> None:
        for listener in self._eviction_listeners:
            listener(line)

    # -- core operations --------------------------------------------------

    def set_index(self, line: int) -> int:
        """The set this cache maps ``line`` to (indexer-dependent)."""
        return self._indexer.index(line)

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; updates replacement state on a hit."""
        cache_set = self._sets.get(self._indexer.index(line))
        way = None if cache_set is None else cache_set.way_of.get(line)
        if way is None:
            self.stats.misses += 1
            return False
        cache_set.policy.touch(way)
        self.stats.hits += 1
        return True

    def contains(self, line: int) -> bool:
        """Probe without side effects (no replacement-state update)."""
        cache_set = self._sets.get(self._indexer.index(line))
        return cache_set is not None and line in cache_set.way_of

    def insert(self, line: int) -> int | None:
        """Fill ``line``; returns the evicted line number, if any."""
        index = self._indexer.index(line)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = _Set(
                lines=[None] * self.ways,
                policy=LRUPolicy(self.ways),
            )
        elif line in cache_set.way_of:
            cache_set.policy.touch(cache_set.way_of[line])
            return None
        occupied = [slot is not None for slot in cache_set.lines]
        way = cache_set.policy.victim(occupied)
        victim = cache_set.lines[way]
        if victim is not None:
            del cache_set.way_of[victim]
            self.stats.evictions += 1
            self._notify_eviction(victim)
        cache_set.lines[way] = line
        cache_set.way_of[line] = way
        cache_set.policy.fill(way)
        self.stats.fills += 1
        return victim

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present (clflush path; not an eviction)."""
        cache_set = self._sets.get(self._indexer.index(line))
        way = None if cache_set is None else cache_set.way_of.pop(line, None)
        if way is None:
            return False
        cache_set.lines[way] = None
        self.stats.invalidations += 1
        return True

    # -- introspection ----------------------------------------------------

    def lines_in_set(self, index: int) -> list[int]:
        """Line numbers currently resident in set ``index``."""
        if not 0 <= index < self.num_sets:
            raise IndexError(f"set index {index} out of range")
        cache_set = self._sets.get(index)
        if cache_set is None:
            return []
        return [line for line in cache_set.lines if line is not None]

    def occupancy(self) -> int:
        """Total number of valid lines in the cache."""
        return sum(len(s.way_of) for s in self._sets.values())

    def flush_all(self) -> None:
        """Invalidate every line (used between experiment repetitions).

        Replacement state survives, as in hardware: each set's LRU order
        carries over into the next repetition.
        """
        for cache_set in self._sets.values():
            cache_set.lines = [None] * self.ways
            cache_set.way_of.clear()
