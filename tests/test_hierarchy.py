"""Cache hierarchy semantics: victim LLC, directory, clflush, TSX."""

import tracemalloc

import pytest

from repro.cache import CacheHierarchy, Level
from repro.config import CacheConfig, SocketConfig, SOCKET0_ACTIVE_TILES
from repro.errors import ChannelError


@pytest.fixture
def hierarchy() -> CacheHierarchy:
    return CacheHierarchy(
        SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
    )


def small_hierarchy() -> CacheHierarchy:
    """Tiny caches for eviction-path tests."""
    config = SocketConfig(
        socket_id=0,
        core_tiles=SOCKET0_ACTIVE_TILES,
        l1_config=CacheConfig("L1", 2 * 2 * 64, 2),
        l2_config=CacheConfig("L2", 4 * 4 * 64, 4, inclusive=True),
        llc_slice_config=CacheConfig("LLC", 4 * 2 * 64, 2),
    )
    return CacheHierarchy(config)


class TestLoadPath:
    def test_first_access_is_dram(self, hierarchy):
        outcome = hierarchy.load(0, 0x10000)
        assert outcome.level is Level.DRAM
        assert outcome.slice_id is not None

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.load(0, 0x10000)
        assert hierarchy.load(0, 0x10000).level is Level.L1

    def test_l2_hit_after_l1_displacement(self, hierarchy):
        base = 0x10000
        hierarchy.load(0, base)
        # Displace from L1 (8 ways, 64 sets -> same-set stride 4096).
        for way in range(1, 9):
            hierarchy.load(0, base + way * 64 * 64)
        assert hierarchy.load(0, base).level is Level.L2

    def test_remote_cache_hit_via_directory(self, hierarchy):
        hierarchy.load(3, 0x20000)       # core 3 caches the line
        outcome = hierarchy.load(7, 0x20000)
        assert outcome.level is Level.REMOTE_CACHE

    def test_slice_selection_is_stable(self, hierarchy):
        a = hierarchy.load(0, 0x30000).slice_id
        hierarchy.flush_all()
        b = hierarchy.load(5, 0x30000).slice_id
        assert a == b

    def test_reached_uncore_flag(self, hierarchy):
        first = hierarchy.load(0, 0x40000)
        second = hierarchy.load(0, 0x40000)
        assert first.reached_uncore
        assert not second.reached_uncore


class TestVictimLLC:
    def test_l2_victim_enters_llc(self):
        hierarchy = small_hierarchy()
        # Fill one L2 set (4 sets, 4 ways): same-set stride 4*64.
        lines = [i * 4 * 64 for i in range(5)]
        for address in lines:
            hierarchy.load(0, address)
        # lines[0] was evicted from L2 into its LLC home slice.
        outcome = hierarchy.load(0, lines[0])
        assert outcome.level is Level.LLC

    def test_llc_hit_moves_line_back_to_private(self):
        hierarchy = small_hierarchy()
        lines = [i * 4 * 64 for i in range(5)]
        for address in lines:
            hierarchy.load(0, address)
        hierarchy.load(0, lines[0])           # LLC hit, promotes
        slice_id = hierarchy.slice_of(lines[0])
        assert not hierarchy.llc_slice(slice_id).contains(lines[0] >> 6)
        assert hierarchy.load(0, lines[0]).level is Level.L1

    def test_dram_fill_bypasses_llc(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0, 0x5000)
        slice_id = hierarchy.slice_of(0x5000)
        assert not hierarchy.llc_slice(slice_id).contains(0x5000 >> 6)

    def test_l1_back_invalidated_on_l2_eviction(self):
        hierarchy = small_hierarchy()
        lines = [i * 4 * 64 for i in range(5)]
        for address in lines:
            hierarchy.load(0, address)
        # Inclusion: the evicted line must not linger in L1.
        assert not hierarchy.l1(0).contains(lines[0] >> 6)


class TestClflush:
    def test_flush_forces_dram_reload(self, hierarchy):
        hierarchy.load(0, 0x60000)
        hierarchy.clflush(0x60000)
        assert hierarchy.load(0, 0x60000).level is Level.DRAM

    def test_flush_reaches_remote_private_caches(self, hierarchy):
        hierarchy.load(3, 0x70000)
        hierarchy.clflush(0x70000)
        assert hierarchy.load(7, 0x70000).level is Level.DRAM

    def test_flush_reports_cached_state(self, hierarchy):
        hierarchy.load(0, 0x80000)
        assert hierarchy.clflush(0x80000) is True
        assert hierarchy.clflush(0x80000) is False


class TestTransactions:
    def test_abort_on_remote_eviction_pressure(self):
        hierarchy = small_hierarchy()
        # Place a line in core 0's caches, track it in a transaction.
        hierarchy.load(0, 0x1000)
        hierarchy.begin_transaction(0, frozenset({0x1000 >> 6}))
        # clflush invalidates the tracked line -> abort.
        hierarchy.clflush(0x1000)
        assert hierarchy.end_transaction(0) is True

    def test_no_abort_without_conflict(self, hierarchy):
        hierarchy.load(0, 0x2000)
        hierarchy.begin_transaction(0, frozenset({0x2000 >> 6}))
        hierarchy.load(1, 0x90000)  # unrelated
        assert hierarchy.end_transaction(0) is False

    def test_nested_transaction_rejected(self, hierarchy):
        hierarchy.begin_transaction(0, frozenset())
        with pytest.raises(ChannelError):
            hierarchy.begin_transaction(0, frozenset())
        hierarchy.end_transaction(0)

    def test_end_without_begin_rejected(self, hierarchy):
        with pytest.raises(ChannelError):
            hierarchy.end_transaction(0)

    def test_query_without_begin_rejected(self, hierarchy):
        with pytest.raises(ChannelError):
            hierarchy.transaction_aborted(0)


class TestDomainHashOverride:
    def test_restricted_hash_confines_slices(self, hierarchy):
        restricted = hierarchy.slice_hash.restricted((0, 2, 4))
        for address in range(0, 64 * 4096, 4096):
            outcome = hierarchy.load(0, address, slice_hash=restricted)
            if outcome.slice_id is not None:
                assert outcome.slice_id in (0, 2, 4)


class TestFlushAll:
    def test_flush_all_resets_everything(self, hierarchy):
        hierarchy.load(0, 0x1000)
        hierarchy.load(1, 0x2000)
        hierarchy.flush_all()
        assert hierarchy.load(0, 0x1000).level is Level.DRAM
        assert hierarchy.directory_back_invalidations == 0


class TestLazyConstruction:
    def test_building_a_socket_allocates_almost_nothing(self):
        """Caches and directories allocate state on first fill: a full
        Table 1 socket used to cost ~33 MB before its first access."""
        config = SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
        tracemalloc.start()
        try:
            hierarchy = CacheHierarchy(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert hierarchy.load(0, 0x1000).level is Level.DRAM

    def test_clflush_of_uncached_line_leaves_caches_empty(self, hierarchy):
        assert not hierarchy.clflush(0x1000)
        caches = [hierarchy.llc_slice(s) for s in range(hierarchy.num_slices)]
        for core in range(hierarchy.num_cores):
            caches += [hierarchy.l1(core), hierarchy.l2(core)]
        assert all(cache.occupancy() == 0 for cache in caches)
        assert hierarchy.directory_of(0x1000 >> 6).tracked_lines() == 0
