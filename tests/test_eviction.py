"""Eviction-list construction (Section 3.1's EV lists)."""

import numpy as np
import pytest

from repro.cache import (
    CacheHierarchy,
    EvictionListBuilder,
    EvictionSet,
    Level,
)
from repro.config import SOCKET0_ACTIVE_TILES, CacheConfig, SocketConfig
from repro.errors import MemoryError_
from repro.mem import AddressSpace, PhysicalMemory

from .test_mem import PerFrameMemory, allocator_state


@pytest.fixture
def setup():
    config = SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
    hierarchy = CacheHierarchy(config)
    memory = PhysicalMemory(8 << 30, 4096)
    space = AddressSpace("attacker", memory)
    return hierarchy, EvictionListBuilder(space, hierarchy), space


class TestL2Lists:
    def test_list_has_requested_size(self, setup):
        _, builder, _ = setup
        ev = builder.build_l2_list(slice_id=3, l2_set=17, count=20)
        assert len(ev) == 20

    def test_all_lines_share_l2_set(self, setup):
        _, builder, _ = setup
        ev = builder.build_l2_list(slice_id=3, l2_set=17, count=20)
        assert all(line % 1024 == 17 for line in ev.lines)

    def test_all_lines_share_slice(self, setup):
        hierarchy, builder, _ = setup
        ev = builder.build_l2_list(slice_id=3, l2_set=17, count=20)
        assert all(
            hierarchy.slice_hash.slice_of(line) == 3 for line in ev.lines
        )

    def test_addresses_translate_to_lines(self, setup):
        _, builder, space = setup
        ev = builder.build_l2_list(slice_id=1, l2_set=5, count=18)
        for virtual, line in zip(ev.virtual_addresses, ev.lines):
            assert space.translate(virtual) >> 6 == line

    def test_lines_are_distinct(self, setup):
        _, builder, _ = setup
        ev = builder.build_l2_list(slice_id=0, l2_set=0, count=20)
        assert len(set(ev.lines)) == 20


class TestListing1Property:
    def test_cycling_list_misses_l2_hits_llc(self, setup):
        """The core Section 3.1 property: with W_L2 <= m <= W_L2+W_LLC,
        cycling the list in fixed order always misses the L2 and hits
        the LLC slice once warm."""
        hierarchy, builder, space = setup
        ev = builder.build_measurement_list(slice_id=2, count=20)
        # Warm: two passes.
        for _ in range(2):
            for virtual in ev.virtual_addresses:
                hierarchy.load(0, space.translate(virtual))
        # Steady state: every access an LLC hit.
        levels = [
            hierarchy.load(0, space.translate(virtual)).level
            for virtual in ev.virtual_addresses
        ]
        assert all(level is Level.LLC for level in levels)

    def test_oversized_list_misses_llc_too(self, setup):
        """An L2-congruent list spans two LLC sets (the set index has
        one more bit than the L2's), so overflow needs
        m > W_L2 + 2 * W_LLC = 38 lines: misses appear."""
        hierarchy, builder, space = setup
        ev = builder.build_l2_list(slice_id=2, l2_set=9, count=45)
        for _ in range(2):
            for virtual in ev.virtual_addresses:
                hierarchy.load(0, space.translate(virtual))
        levels = [
            hierarchy.load(0, space.translate(virtual)).level
            for virtual in ev.virtual_addresses
        ]
        assert any(level is Level.DRAM for level in levels)

    def test_undersized_list_hits_l2(self, setup):
        """m < W_L2 fits in the L2: all hits stay private."""
        hierarchy, builder, space = setup
        ev = builder.build_l2_list(slice_id=2, l2_set=11, count=10)
        for _ in range(2):
            for virtual in ev.virtual_addresses:
                hierarchy.load(0, space.translate(virtual))
        levels = [
            hierarchy.load(0, space.translate(virtual)).level
            for virtual in ev.virtual_addresses
        ]
        assert all(level in (Level.L1, Level.L2) for level in levels)


class TestLlcSetLists:
    def test_llc_congruence(self, setup):
        _, builder, _ = setup
        ev = builder.build_llc_set_list(slice_id=0, llc_set=40, count=24)
        assert all(line % 2048 == 40 for line in ev.lines)

    def test_llc_congruent_implies_l2_congruent(self, setup):
        _, builder, _ = setup
        ev = builder.build_llc_set_list(slice_id=0, llc_set=40, count=12)
        assert len({line % 1024 for line in ev.lines}) == 1


class TestGroupsAndWorkingSets:
    def test_l2_set_group_ignores_slice(self, setup):
        hierarchy, builder, _ = setup
        ev = builder.build_l2_set_group(l2_set=7, count=40)
        assert all(line % 1024 == 7 for line in ev.lines)
        slices = {hierarchy.slice_hash.slice_of(l) for l in ev.lines}
        assert len(slices) > 4
        assert ev.slice_id == -1

    def test_slice_working_set(self, setup):
        hierarchy, builder, _ = setup
        ev = builder.build_slice_working_set(slice_id=5, count=100)
        assert all(
            hierarchy.slice_hash.slice_of(l) == 5 for l in ev.lines
        )


class TestPartitionAndBudget:
    def test_partitioned_builder_rejects_foreign_slice(self, setup):
        hierarchy, _, space = setup
        restricted = hierarchy.slice_hash.restricted((1, 3, 5))
        builder = EvictionListBuilder(space, hierarchy,
                                      slice_hash=restricted)
        with pytest.raises(MemoryError_):
            builder.build_measurement_list(slice_id=0)

    def test_search_budget_enforced(self, setup):
        hierarchy, _, space = setup
        builder = EvictionListBuilder(space, hierarchy,
                                      max_search_bytes=1 << 24)
        # An impossible request (same L2 set AND slice needs far more
        # than 16 MB of candidates for 5000 matches).
        with pytest.raises(MemoryError_):
            builder.build_l2_list(slice_id=0, l2_set=0, count=5000)


class TestRequestValidation:
    """Requests no search can satisfy fail up front with ValueError
    instead of growing candidates until the memory budget runs out."""

    @pytest.fixture
    def builder(self, setup):
        hierarchy, _, space = setup
        return EvictionListBuilder(space, hierarchy,
                                   max_search_bytes=1 << 24)

    @pytest.mark.parametrize("l2_set", [-1, 1024])
    def test_l2_list_rejects_missing_set(self, builder, l2_set):
        with pytest.raises(ValueError, match="L2 set"):
            builder.build_l2_list(slice_id=3, l2_set=l2_set, count=20)
        assert builder.candidate_count == 0

    @pytest.mark.parametrize("llc_set", [-1, 2048])
    def test_llc_set_list_rejects_missing_set(self, builder, llc_set):
        with pytest.raises(ValueError, match="LLC set"):
            builder.build_llc_set_list(slice_id=3, llc_set=llc_set,
                                       count=20)

    @pytest.mark.parametrize("l2_set", [-1, 1024])
    def test_l2_set_group_rejects_missing_set(self, builder, l2_set):
        with pytest.raises(ValueError, match="L2 set"):
            builder.build_l2_set_group(l2_set=l2_set, count=20)

    @pytest.mark.parametrize("count", [0, -3])
    def test_every_builder_rejects_empty_request(self, builder, count):
        for build in (
            lambda: builder.build_l2_list(0, 0, count),
            lambda: builder.build_llc_set_list(0, 0, count),
            lambda: builder.build_slice_working_set(0, count),
            lambda: builder.build_l2_set_group(0, count),
        ):
            with pytest.raises(ValueError, match="count"):
                build()

    def test_last_set_is_reachable(self, builder, setup):
        hierarchy = setup[0]
        last = hierarchy.config.l2_config.num_sets - 1
        ev = builder.build_l2_list(slice_id=3, l2_set=last, count=4)
        assert len(ev) == 4


class TestCandidateGrowth:
    def test_grow_matches_per_page_walk(self, setup):
        """Each chunk, read back through its ``(virtual base, frames)``
        entry, equals the per-page reference walk: same values, same
        order, same dtypes, across two chunks."""
        _, builder, space = setup
        builder._grow()
        builder._grow()
        offsets = np.arange(space.page_bytes // 64, dtype=np.int64)
        virt, lines = [], []
        for allocation, (base, frames) in zip(space.allocations[-2:],
                                              builder._chunks):
            assert base == allocation.virtual_base
            assert frames.dtype == np.uint64
            chunk_virt, chunk_lines = [], []
            for page_base in range(allocation.virtual_base,
                                   allocation.virtual_end,
                                   space.page_bytes):
                chunk_virt.append(page_base + offsets * 64)
                chunk_lines.append(((space.translate(page_base) >> 6)
                                    + offsets).astype(np.uint64))
            chunk_lines = np.concatenate(chunk_lines)
            expanded = builder._chunk_lines(frames)
            assert expanded.dtype == np.uint64
            np.testing.assert_array_equal(expanded, chunk_lines)
            virt.append(np.concatenate(chunk_virt))
            lines.append(chunk_lines)
        expected_virtual = np.concatenate(virt)
        expected_lines = np.concatenate(lines)
        assert builder.candidate_count == len(expected_lines)
        every = builder._eviction_set(np.arange(builder.candidate_count),
                                      slice_id=-1)
        np.testing.assert_array_equal(
            np.array(every.virtual_addresses, dtype=np.int64),
            expected_virtual)
        np.testing.assert_array_equal(
            np.array(every.lines, dtype=np.uint64), expected_lines)


class FullHashReference(EvictionListBuilder):
    """The full-hash search the set-first search must reproduce.

    Every candidate line is translated page by page and slice-hashed as
    its chunk arrives; each round masks *all* candidates at once and
    takes the first ``count`` matches.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._virtual = np.empty(0, dtype=np.int64)
        self._lines = np.empty(0, dtype=np.uint64)
        self._slices = np.empty(0, dtype=np.int64)

    @property
    def candidate_count(self):
        return len(self._lines)

    def _eviction_set(self, chosen, **fields):
        return EvictionSet(
            virtual_addresses=tuple(self._virtual[chosen].tolist()),
            lines=tuple(self._lines[chosen].tolist()),
            **fields,
        )

    def _grow(self):
        page = self.space.page_bytes
        chunk_bytes = self._CHUNK_PAGES * page
        if self._searched_bytes + chunk_bytes > self.max_search_bytes:
            raise MemoryError_("eviction-list search exceeded its budget")
        allocation = self.space.allocate(chunk_bytes)
        self._searched_bytes += chunk_bytes
        bases = range(allocation.virtual_base, allocation.virtual_end, page)
        virtual_pages = np.array(bases, dtype=np.int64)
        physical_pages = np.fromiter(map(self.space.translate, bases),
                                     dtype=np.int64, count=len(bases))
        offsets = np.arange(page // 64, dtype=np.int64)
        new_virtual = (virtual_pages[:, None] + offsets * 64).ravel()
        new_lines = ((physical_pages >> 6)[:, None]
                     + offsets).astype(np.uint64).ravel()
        new_slices = self.slice_hash.slice_of_array(new_lines)
        self._virtual = np.concatenate([self._virtual, new_virtual])
        self._lines = np.concatenate([self._lines, new_lines])
        self._slices = np.concatenate([self._slices, new_slices])

    def _collect(self, count, *, num_sets=None, set_index=0, slice_id=None):
        while True:
            mask = np.ones(len(self._lines), dtype=bool)
            if num_sets is not None:
                sets = (self._lines % np.uint64(num_sets)).astype(np.int64)
                mask &= sets == set_index
            if slice_id is not None:
                mask &= self._slices == slice_id
            indices = np.flatnonzero(mask)
            if len(indices) >= count:
                return indices[:count]
            self._grow()


def _builder_pair(restrict=None, config=None):
    """(set-first builder, full-hash reference) over twin memories."""
    if config is None:
        config = SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
    hierarchy = CacheHierarchy(config)
    slice_hash = (hierarchy.slice_hash if restrict is None
                  else hierarchy.slice_hash.restricted(restrict))
    pair = []
    for memory_cls, builder_cls in ((PhysicalMemory, EvictionListBuilder),
                                    (PerFrameMemory, FullHashReference)):
        space = AddressSpace("attacker", memory_cls(8 << 30, 4096))
        pair.append(builder_cls(space, hierarchy, slice_hash=slice_hash))
    return pair


_REQUESTS = [
    ("build_l2_list", dict(slice_id=3, l2_set=17, count=20)),
    ("build_l2_list", dict(slice_id=5, l2_set=1023, count=20)),
    ("build_measurement_list", dict(slice_id=1)),
    ("build_llc_set_list", dict(slice_id=5, llc_set=40, count=24)),
    ("build_llc_set_list", dict(slice_id=3, llc_set=2047, count=12)),
    ("build_slice_working_set", dict(slice_id=5, count=100)),
    ("build_l2_set_group", dict(l2_set=7, count=40)),
    ("build_l2_set_group", dict(l2_set=1023, count=40)),
]


class TestSetFirstSearchMatchesFullHash:
    """The set-first search is exact: same lists, same candidate count,
    same allocator state as hashing every candidate line."""

    @staticmethod
    def _assert_same(pair, requests):
        for name, kwargs in requests:
            new, ref = (getattr(builder, name)(**kwargs) for builder in pair)
            assert new == ref, (name, kwargs)
            assert pair[0].candidate_count == pair[1].candidate_count
        memories = [builder.space.memory for builder in pair]
        assert allocator_state(memories[0]) == allocator_state(memories[1])
        assert memories[0].allocate_frames(64) == \
            memories[1].allocate_frames(64)

    @pytest.mark.parametrize("restrict", [None, (1, 3, 5)],
                             ids=["full", "restricted"])
    @pytest.mark.parametrize("name,kwargs", _REQUESTS,
                             ids=[f"{n}-{i}" for i, (n, _) in
                                  enumerate(_REQUESTS)])
    def test_each_builder(self, name, kwargs, restrict):
        self._assert_same(_builder_pair(restrict), [(name, kwargs)])

    @pytest.mark.parametrize("restrict", [None, (1, 3, 5)],
                             ids=["full", "restricted"])
    def test_requests_share_candidates(self, restrict):
        """Later requests search the chunks earlier ones allocated
        before growing."""
        self._assert_same(_builder_pair(restrict), _REQUESTS)


#: A 32-set L2: its set count is not a multiple of the 64 lines per
#: page, so its set-filtered searches expand chunks into lines.
_SMALL_L2 = SocketConfig(
    socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES,
    l2_config=CacheConfig("L2", 32 * 16 * 64, 16, inclusive=True),
)


def _random_requests(rng, config, restrict):
    """Five requests drawn over every builder, any set, an allowed
    slice and a small count."""
    l2_sets = config.l2_config.num_sets
    llc_sets = config.llc_slice_config.num_sets
    slices = restrict or tuple(range(config.num_cores))
    requests = []
    for _ in range(5):
        slice_id = int(rng.choice(slices))
        count = int(rng.integers(1, 25))
        kind = int(rng.integers(5))
        if kind == 0:
            requests.append(("build_l2_list", dict(
                slice_id=slice_id, l2_set=int(rng.integers(l2_sets)),
                count=count)))
        elif kind == 1:
            requests.append(("build_measurement_list", dict(
                slice_id=slice_id, l2_set=int(rng.integers(l2_sets)))))
        elif kind == 2:
            requests.append(("build_llc_set_list", dict(
                slice_id=slice_id, llc_set=int(rng.integers(llc_sets)),
                count=count)))
        elif kind == 3:
            requests.append(("build_l2_set_group", dict(
                l2_set=int(rng.integers(l2_sets)), count=count)))
        else:
            requests.append(("build_slice_working_set", dict(
                slice_id=slice_id, count=count)))
    return requests


class TestFrameFirstSearchProperty:
    """Random request sequences give the full-hash reference's lists,
    candidate counts and allocator state."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("restrict", [None, (1, 3, 5)],
                             ids=["full", "restricted"])
    def test_random_requests(self, seed, restrict):
        config = SocketConfig(socket_id=0, core_tiles=SOCKET0_ACTIVE_TILES)
        rng = np.random.default_rng(seed)
        TestSetFirstSearchMatchesFullHash._assert_same(
            _builder_pair(restrict), _random_requests(rng, config, restrict))

    @pytest.mark.parametrize("seed", range(3))
    def test_odd_set_count_takes_the_line_path(self, seed, monkeypatch):
        """With 32 L2 sets an L2 search lists each chunk's lines (and
        still matches); the 2,048 LLC sets keep the frame path."""
        pair = _builder_pair(config=_SMALL_L2)
        expanded = []
        chunk_lines = EvictionListBuilder._chunk_lines
        monkeypatch.setattr(
            pair[0], "_chunk_lines",
            lambda frames: expanded.append(len(frames))
            or chunk_lines(pair[0], frames))
        rng = np.random.default_rng(seed)
        l2_set = int(rng.integers(32))
        requests = [("build_l2_list", dict(slice_id=int(rng.integers(16)),
                                           l2_set=l2_set, count=20)),
                    ("build_l2_set_group", dict(l2_set=l2_set, count=30))]
        TestSetFirstSearchMatchesFullHash._assert_same(pair, requests)
        assert expanded
        expanded.clear()
        TestSetFirstSearchMatchesFullHash._assert_same(pair, [
            ("build_llc_set_list", dict(slice_id=2, llc_set=99, count=12))])
        assert not expanded
