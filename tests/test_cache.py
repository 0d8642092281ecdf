"""The set-associative cache: hits, evictions, listeners, stats."""

import pytest

from repro.cache import RandomizedIndexer, SetAssociativeCache
from repro.cache.replacement import LRUPolicy
from repro.config import CacheConfig


def tiny_cache(sets=4, ways=2, **kwargs) -> SetAssociativeCache:
    config = CacheConfig("tiny", sets * ways * 64, ways)
    return SetAssociativeCache(config, **kwargs)


class TestBasicOperation:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert not cache.lookup(100)
        cache.insert(100)
        assert cache.lookup(100)

    def test_contains_has_no_side_effects(self):
        cache = tiny_cache(ways=2)
        cache.insert(0)
        cache.insert(4)  # same set (4 sets)
        cache.contains(0)  # must NOT refresh line 0
        cache.insert(8)    # evicts LRU
        assert not cache.contains(0)
        assert cache.contains(4)

    def test_insert_returns_victim(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        victim = cache.insert(2)
        assert victim == 0

    def test_reinsert_refreshes_not_evicts(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        assert cache.insert(0) is None
        assert cache.insert(2) == 1  # 1 became LRU

    def test_lines_map_to_expected_sets(self):
        cache = tiny_cache(sets=4)
        assert cache.set_index(0) == 0
        assert cache.set_index(5) == 1
        assert cache.set_index(7) == 3

    def test_invalidate_removes(self):
        cache = tiny_cache()
        cache.insert(9)
        assert cache.invalidate(9)
        assert not cache.contains(9)

    def test_invalidate_absent_returns_false(self):
        assert not tiny_cache().invalidate(9)

    def test_invalidated_way_reused_first(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        cache.invalidate(0)
        cache.insert(2)  # should fill the hole, not evict 1
        assert cache.contains(1) and cache.contains(2)

    def test_flush_all_empties(self):
        cache = tiny_cache()
        for line in range(8):
            cache.insert(line)
        cache.flush_all()
        assert cache.occupancy() == 0


class TestStats:
    def test_hit_miss_counting(self):
        cache = tiny_cache()
        cache.lookup(1)
        cache.insert(1)
        cache.lookup(1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_eviction_and_invalidation_counts(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.insert(0)
        cache.insert(1)
        cache.insert(2)
        cache.invalidate(2)
        assert cache.stats.evictions == 1
        assert cache.stats.invalidations == 1

    def test_reset(self):
        cache = tiny_cache()
        cache.insert(1)
        cache.lookup(1)
        cache.stats.reset()
        assert cache.stats.accesses == 0
        assert cache.stats.fills == 0


class TestEvictionListeners:
    def test_listener_sees_victims(self):
        cache = tiny_cache(sets=1, ways=2)
        victims = []
        cache.add_eviction_listener(victims.append)
        cache.insert(0)
        cache.insert(1)
        cache.insert(2)
        assert victims == [0]

    def test_invalidation_is_not_an_eviction(self):
        cache = tiny_cache()
        victims = []
        cache.add_eviction_listener(victims.append)
        cache.insert(0)
        cache.invalidate(0)
        assert victims == []

    def test_listener_removal(self):
        cache = tiny_cache(sets=1, ways=1)
        victims = []
        cache.add_eviction_listener(victims.append)
        cache.insert(0)
        cache.remove_eviction_listener(victims.append)
        cache.insert(1)
        assert victims == []


class TestRandomizedIndexing:
    def test_randomized_mapping_differs_from_standard(self):
        standard = tiny_cache(sets=64, ways=4)
        randomized = tiny_cache(
            sets=64, ways=4, indexer=RandomizedIndexer(64, key=0xFEED)
        )
        lines = range(0, 64 * 8, 8)
        differing = sum(
            1 for line in lines
            if standard.set_index(line) != randomized.set_index(line)
        )
        assert differing > len(list(lines)) // 2

    def test_randomized_mapping_is_keyed(self):
        a = RandomizedIndexer(64, key=1)
        b = RandomizedIndexer(64, key=2)
        assert any(a.index(l) != b.index(l) for l in range(200))

    def test_standard_congruent_lines_scatter_under_randomization(self):
        # The defense mechanism: a standard-indexing eviction list no
        # longer collides in one set.
        indexer = RandomizedIndexer(2048, key=0xABCD)
        congruent = [2048 * i + 5 for i in range(24)]
        sets = {indexer.index(line) for line in congruent}
        assert len(sets) > 16

    def test_same_line_same_set(self):
        indexer = RandomizedIndexer(64, key=3)
        assert indexer.index(12345) == indexer.index(12345)


class TestLazySets:
    """Sets are built on first fill; nothing else may observe that."""

    def test_probes_of_untouched_sets_leave_cache_empty(self):
        cache = tiny_cache()
        assert not cache.lookup(7)
        assert not cache.contains(7)
        assert not cache.invalidate(7)
        assert cache.lines_in_set(3) == []
        assert cache.occupancy() == 0
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 0

    def test_lines_in_set_rejects_out_of_range_index(self):
        cache = tiny_cache(sets=4)
        with pytest.raises(IndexError):
            cache.lines_in_set(4)
        with pytest.raises(IndexError):
            cache.lines_in_set(-5)

    def test_flush_all_keeps_replacement_state(self):
        """Victims after a flush match one LRU order that lived through
        the whole history, flush included."""
        ways = 4
        cache = tiny_cache(sets=1, ways=ways)
        reference = LRUPolicy(ways)
        lines: list[int | None] = [None] * ways

        def ref_insert(line):
            if line in lines:
                reference.touch(lines.index(line))
                return None
            way = reference.victim([slot is not None for slot in lines])
            victim, lines[way] = lines[way], line
            reference.fill(way)
            return victim

        def ref_lookup(line):
            if line in lines:
                reference.touch(lines.index(line))

        history = [("insert", n) for n in range(9)]
        history += [("lookup", 6), ("lookup", 8), ("insert", 20)]
        history += [("flush", None)]
        history += [("insert", n) for n in range(100, 112)]
        history += [("lookup", 104), ("insert", 3), ("insert", 4)]
        for op, line in history:
            if op == "flush":
                cache.flush_all()
                lines[:] = [None] * ways
            elif op == "lookup":
                cache.lookup(line)
                ref_lookup(line)
            else:
                assert cache.insert(line) == ref_insert(line), (op, line)
        assert cache.lines_in_set(0) == [l for l in lines if l is not None]
