"""LRU replacement."""

from repro.cache import LRUPolicy


class TestLRU:
    def test_victim_is_least_recent(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.fill(way)
        policy.touch(0)
        assert policy.victim([True] * 4) == 1

    def test_prefers_empty_way(self):
        policy = LRUPolicy(4)
        policy.fill(0)
        assert policy.victim([True, False, False, False]) in (1, 2, 3)

    def test_cycling_pattern_always_misses(self):
        # The Section 3.1 property: accessing m > ways lines in fixed
        # order evicts each line before its reuse.
        ways = 4
        policy = LRUPolicy(ways)
        resident: list[int | None] = [None] * ways
        hits = 0
        for round_index in range(5):
            for line in range(ways + 1):  # 5 lines into 4 ways
                if line in resident:
                    hits += 1
                    policy.touch(resident.index(line))
                else:
                    way = policy.victim([x is not None for x in resident])
                    resident[way] = line
                    policy.fill(way)
        assert hits == 0

    def test_recency_order_tracks_touches(self):
        policy = LRUPolicy(3)
        for way in (0, 1, 2):
            policy.fill(way)
        policy.touch(0)
        assert policy.recency_order() == [0, 2, 1]

