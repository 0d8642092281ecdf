"""The per-socket cache hierarchy: private L1/L2, sliced victim LLC.

Access semantics (Skylake-SP non-inclusive LLC, Table 1):

1. L1 lookup; hit serves from L1.
2. L2 lookup; hit refills L1 (L2 is inclusive of L1, so an L2 eviction
   back-invalidates L1).
3. LLC lookup in the slice selected by the slice hash; a hit *moves* the
   line to the requesting core's L2 (victim-cache semantics) and drops
   the LLC copy.
4. On an LLC miss the directory is snooped: a remote private-cache
   holder yields a cache-to-cache transfer; otherwise DRAM.
5. DRAM fills go to L1+L2 only; lines enter the LLC when evicted from an
   L2.  This is exactly why the paper's eviction lists need
   ``W_L2 <= m <= W_L2 + W_LLC`` addresses per list (Section 3.1): the
   L2-resident portion cycles through the LLC slice between reuses.

The hierarchy also implements ``clflush`` (system-wide invalidation, a
prerequisite of the flush-based channels) and a minimal transactional
read-set monitor (the abort signal Prime+Abort keys on).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import SocketConfig
from ..errors import ChannelError
from .cache import SetAssociativeCache
from .directory import CoherenceDirectory
from .slice_hash import Indexer, SliceHash


class Level(enum.Enum):
    """Where an access was served from."""

    L1 = "L1"
    L2 = "L2"
    LLC = "LLC"
    REMOTE_CACHE = "remote-cache"
    DRAM = "DRAM"


@dataclass(frozen=True)
class AccessOutcome:
    """The result of one load: service level and the LLC slice touched.

    ``slice_id`` is the slice the line hashes to — populated whenever the
    access travelled past the private caches (LLC, remote or DRAM), since
    the request is routed to the home slice either way.
    """

    level: Level
    slice_id: int | None
    line: int

    @property
    def reached_uncore(self) -> bool:
        """Whether the access left the core's private caches."""
        return self.level not in (Level.L1, Level.L2)


class CacheStats:
    """Lifetime access counters for one hierarchy (telemetry harvest).

    Plain ``__slots__`` ints bumped on the load path — cheap enough to
    stay always-on; the telemetry layer reads them at teardown.
    """

    __slots__ = ("loads", "l1_hits", "l2_hits", "llc_hits",
                 "remote_hits", "dram_fills", "clflushes")

    def __init__(self) -> None:
        self.loads = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.llc_hits = 0
        self.remote_hits = 0
        self.dram_fills = 0
        self.clflushes = 0


class _Transaction:
    """An active TSX-style transaction tracking a read set."""

    def __init__(self, core_id: int, read_set: frozenset[int]) -> None:
        self.core_id = core_id
        self.read_set = read_set
        self.aborted = False


class CacheHierarchy:
    """All caches of one socket plus directory and transaction monitor."""

    def __init__(
        self,
        config: SocketConfig,
        *,
        llc_indexer_factory=None,
        slice_hash: SliceHash | None = None,
    ) -> None:
        self.config = config
        self.num_cores = config.num_cores
        self._l1 = [
            SetAssociativeCache(config.l1_config, name=f"L1-{i}")
            for i in range(self.num_cores)
        ]
        self._l2 = [
            SetAssociativeCache(config.l2_config, name=f"L2-{i}")
            for i in range(self.num_cores)
        ]
        num_slices = self.num_cores  # one slice per enabled core tile
        self.slice_hash = (
            slice_hash if slice_hash is not None else SliceHash(num_slices)
        )

        self._llc_indexer_factory = llc_indexer_factory

        def _make_indexer(slice_id: int) -> Indexer | None:
            if llc_indexer_factory is None:
                return None
            return llc_indexer_factory(slice_id)

        self._llc = [
            SetAssociativeCache(
                config.llc_slice_config,
                indexer=_make_indexer(i),
                name=f"LLC-{i}",
            )
            for i in range(num_slices)
        ]
        self._directories = self._make_directories()
        self.stats = CacheStats()
        self._transactions: dict[int, _Transaction] = {}
        for slice_cache in self._llc:
            slice_cache.add_eviction_listener(self._on_llc_eviction)

    def _make_directories(self) -> list[CoherenceDirectory]:
        """One directory per LLC slice (co-located, Figure 2).

        Each directory shares its slice's index space; a randomized-LLC
        design randomizes its directories the same way (otherwise the
        directory would leak the very conflicts the LLC hides), so the
        indexer factory covers both.  Distribution per slice also means
        slice partitioning partitions the directories — a fine-grained
        defense that split the LLC but left a monolithic snoop filter
        would leak through directory conflicts.
        """
        directories = []
        for slice_id in range(len(self._llc)):
            index_fn = None
            if self._llc_indexer_factory is not None:
                indexer = self._llc_indexer_factory(0xD100 + slice_id)
                index_fn = indexer.index
            directory = CoherenceDirectory(
                num_sets=self.config.llc_slice_config.num_sets,
                index_fn=index_fn,
            )
            directory.set_back_invalidate(
                self._on_directory_back_invalidate
            )
            directories.append(directory)
        return directories

    def directory_of(self, line: int,
                     slice_hash: SliceHash | None = None,
                     ) -> CoherenceDirectory:
        """The directory slice responsible for ``line``."""
        hash_fn = slice_hash if slice_hash is not None else self.slice_hash
        return self._directories[hash_fn.slice_of(line)]

    @property
    def directory_back_invalidations(self) -> int:
        """Total back-invalidations across all directory slices."""
        return sum(d.back_invalidations for d in self._directories)

    def _on_directory_back_invalidate(self, line: int) -> None:
        """Directory set overflow: purge the line from private caches.

        On real silicon the victim is written back to the LLC or memory;
        we drop it to memory (the timing-relevant effect — the line
        leaving the private caches — is identical, and the congruent
        flood that caused the overflow would evict an LLC copy anyway).
        """
        for core_id in range(self.num_cores):
            self._l1[core_id].invalidate(line)
            self._l2[core_id].invalidate(line)
        self._check_transactions(line)

    # -- cache accessors ---------------------------------------------------

    def l1(self, core_id: int) -> SetAssociativeCache:
        return self._l1[core_id]

    def l2(self, core_id: int) -> SetAssociativeCache:
        return self._l2[core_id]

    def llc_slice(self, slice_id: int) -> SetAssociativeCache:
        return self._llc[slice_id]

    @property
    def num_slices(self) -> int:
        return len(self._llc)

    def slice_of(self, physical_address: int) -> int:
        """The LLC slice id serving a physical address."""
        return self.slice_hash.slice_of(physical_address >> 6)

    # -- the load path -------------------------------------------------------

    def load(self, core_id: int, physical_address: int,
             slice_hash: SliceHash | None = None) -> AccessOutcome:
        """Perform a load from ``core_id``; returns where it was served.

        ``slice_hash`` overrides the socket-wide hash — under the
        fine-grained partitioning defense each security domain routes
        through its own restricted slice set (Section 4.4).
        """
        hash_fn = slice_hash if slice_hash is not None else self.slice_hash
        line = physical_address >> 6
        slice_id = hash_fn.slice_of(line)
        stats = self.stats
        stats.loads += 1

        if self._l1[core_id].lookup(line):
            stats.l1_hits += 1
            return AccessOutcome(Level.L1, None, line)

        if self._l2[core_id].lookup(line):
            stats.l2_hits += 1
            self._fill_l1(core_id, line)
            return AccessOutcome(Level.L2, None, line)

        if self._llc[slice_id].lookup(line):
            # Victim-cache semantics: promote to the private caches and
            # drop the LLC copy.
            stats.llc_hits += 1
            self._llc[slice_id].invalidate(line)
            self._fill_private(core_id, line, hash_fn)
            return AccessOutcome(Level.LLC, slice_id, line)

        remote = self._directories[slice_id].remote_holder(line,
                                                           core_id)
        self._fill_private(core_id, line, hash_fn)
        if remote is not None:
            stats.remote_hits += 1
            return AccessOutcome(Level.REMOTE_CACHE, slice_id, line)
        stats.dram_fills += 1
        return AccessOutcome(Level.DRAM, slice_id, line)

    def _fill_l1(self, core_id: int, line: int) -> None:
        self._l1[core_id].insert(line)

    def _fill_private(self, core_id: int, line: int,
                      hash_fn: SliceHash) -> None:
        """Fill L1+L2; cascade the L2 victim into its LLC home slice.

        The victim's directory entry is retired *before* the new line's
        is recorded — the directory set should not transiently overflow
        on a plain replacement.
        """
        victim = self._l2[core_id].insert(line)
        self._l1[core_id].insert(line)
        if victim is not None:
            # Inclusion: the L1 may not keep a line the L2 dropped.
            self._l1[core_id].invalidate(victim)
            victim_slice = hash_fn.slice_of(victim)
            self._directories[victim_slice].record_eviction(victim,
                                                            core_id)
            self._check_transactions(victim)
            self._llc[victim_slice].insert(victim)
        self._directories[hash_fn.slice_of(line)].record_fill(line,
                                                              core_id)

    def _on_llc_eviction(self, line: int) -> None:
        self._check_transactions(line)

    # -- clflush ------------------------------------------------------------

    def clflush(self, physical_address: int,
                slice_hash: SliceHash | None = None) -> bool:
        """Invalidate a line system-wide (every L1/L2/LLC slice).

        Returns whether any copy existed — a cached line takes longer to
        flush (the write-back/invalidate round trip), which is the
        timing signal Flush+Flush decodes.
        """
        hash_fn = slice_hash if slice_hash is not None else self.slice_hash
        line = physical_address >> 6
        self.stats.clflushes += 1
        was_cached = False
        for core_id in range(self.num_cores):
            was_cached |= self._l1[core_id].invalidate(line)
            was_cached |= self._l2[core_id].invalidate(line)
        was_cached |= self._llc[hash_fn.slice_of(line)].invalidate(line)
        self._directories[hash_fn.slice_of(line)].record_invalidation(line)
        self._check_transactions(line)
        return was_cached

    # -- transactional memory (Prime+Abort support) -------------------------

    def begin_transaction(self, core_id: int,
                          read_lines: frozenset[int]) -> None:
        """Open a transaction whose read set is ``read_lines``."""
        if core_id in self._transactions:
            raise ChannelError(f"core {core_id} already in a transaction")
        self._transactions[core_id] = _Transaction(core_id, read_lines)

    def transaction_aborted(self, core_id: int) -> bool:
        """Whether the core's open transaction has aborted."""
        txn = self._transactions.get(core_id)
        if txn is None:
            raise ChannelError(f"core {core_id} has no open transaction")
        return txn.aborted

    def end_transaction(self, core_id: int) -> bool:
        """Close the transaction; returns True if it had aborted."""
        txn = self._transactions.pop(core_id, None)
        if txn is None:
            raise ChannelError(f"core {core_id} has no open transaction")
        return txn.aborted

    def _check_transactions(self, line: int) -> None:
        for txn in self._transactions.values():
            if not txn.aborted and line in txn.read_set:
                txn.aborted = True

    # -- maintenance ---------------------------------------------------------

    def flush_all(self) -> None:
        """Empty every cache (between experiment repetitions)."""
        for cache in (*self._l1, *self._l2, *self._llc):
            cache.flush_all()
        self._transactions.clear()
        self._directories = self._make_directories()
