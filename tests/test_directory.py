"""The bounded coherence directory: tracking and back-invalidation."""

from repro.cache.directory import CoherenceDirectory


def make_directory(sets=8, ways=4):
    return CoherenceDirectory(num_sets=sets, ways=ways)


class TestTracking:
    def test_fill_then_holder_visible(self):
        directory = make_directory()
        directory.record_fill(100, core_id=3)
        assert 3 in directory.holders(100)

    def test_multiple_holders(self):
        directory = make_directory()
        directory.record_fill(100, 1)
        directory.record_fill(100, 2)
        assert directory.holders(100) == frozenset({1, 2})

    def test_eviction_removes_holder(self):
        directory = make_directory()
        directory.record_fill(100, 1)
        directory.record_fill(100, 2)
        directory.record_eviction(100, 1)
        assert directory.holders(100) == frozenset({2})

    def test_last_eviction_frees_entry(self):
        directory = make_directory()
        directory.record_fill(100, 1)
        directory.record_eviction(100, 1)
        assert directory.tracked_lines() == 0

    def test_invalidation_clears_all_holders(self):
        directory = make_directory()
        directory.record_fill(100, 1)
        directory.record_fill(100, 2)
        directory.record_invalidation(100)
        assert directory.holders(100) == frozenset()

    def test_eviction_of_untracked_line_is_noop(self):
        directory = make_directory()
        directory.record_eviction(12345, 0)  # should not raise


class TestSnoop:
    def test_remote_holder_found(self):
        directory = make_directory()
        directory.record_fill(100, 1)
        assert directory.remote_holder(100, requesting_core=2) == 1
        assert directory.snoop_hits == 1

    def test_own_copy_not_remote(self):
        directory = make_directory()
        directory.record_fill(100, 1)
        assert directory.remote_holder(100, requesting_core=1) is None
        assert directory.snoop_misses == 1

    def test_unknown_line_misses(self):
        directory = make_directory()
        assert directory.remote_holder(55, 0) is None


class TestCapacity:
    def test_overflow_back_invalidates_lru(self):
        directory = make_directory(sets=1, ways=2)
        kicked = []
        directory.set_back_invalidate(kicked.append)
        directory.record_fill(10, 0)
        directory.record_fill(20, 0)
        directory.record_fill(30, 0)  # overflows; 10 is LRU
        assert kicked == [10]
        assert directory.back_invalidations == 1
        assert directory.holders(10) == frozenset()

    def test_refill_refreshes_lru_position(self):
        directory = make_directory(sets=1, ways=2)
        kicked = []
        directory.set_back_invalidate(kicked.append)
        directory.record_fill(10, 0)
        directory.record_fill(20, 0)
        directory.record_fill(10, 1)  # refresh 10
        directory.record_fill(30, 0)  # now 20 is LRU
        assert kicked == [20]

    def test_different_sets_do_not_conflict(self):
        directory = make_directory(sets=8, ways=1)
        kicked = []
        directory.set_back_invalidate(kicked.append)
        for line in range(8):  # one per set
            directory.record_fill(line, 0)
        assert kicked == []

    def test_congruent_flood_displaces_another_cores_copy(self):
        # The Reload+Refresh / directory-attack mechanism.
        directory = make_directory(sets=4, ways=3)
        kicked = []
        directory.set_back_invalidate(kicked.append)
        directory.record_fill(0, core_id=7)  # the victim's line, set 0
        for i in range(1, 4):
            directory.record_fill(4 * i, core_id=1)  # attacker, set 0
        assert 0 in kicked

    def test_custom_index_fn(self):
        directory = CoherenceDirectory(
            num_sets=4, ways=1, index_fn=lambda line: 0
        )
        kicked = []
        directory.set_back_invalidate(kicked.append)
        directory.record_fill(1, 0)
        directory.record_fill(9, 0)  # everything maps to set 0
        assert kicked == [1]


class TestLazySets:
    def test_queries_on_untouched_sets_track_nothing(self):
        directory = make_directory()
        assert directory.holders(42) == frozenset()
        assert directory.remote_holder(42, requesting_core=0) is None
        directory.record_eviction(42, 0)
        directory.record_invalidation(42)
        assert directory.tracked_lines() == 0
        assert directory.back_invalidations == 0
        assert directory.snoop_misses == 1
