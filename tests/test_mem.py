"""Memory substrate: addressing, allocation, sharing, NUMA policy."""

import random

import pytest

from repro.errors import MemoryError_
from repro.mem import AddressSpace, PhysicalMemory


class PerFrameMemory(PhysicalMemory):
    """Reference allocator: the frame-by-frame stride walk, skipping
    claimed stops, that the one-block walk in
    :meth:`PhysicalMemory.allocate_frames` must reproduce."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._claimed = [set() for _ in range(self.num_numa_nodes)]

    def allocate_frames(self, count, numa_node=0):
        if not 0 <= numa_node < self.num_numa_nodes:
            raise MemoryError_(f"no such NUMA node {numa_node}")
        claimed = self._claimed[numa_node]
        free = self._frames_per_node - len(claimed)
        if count > free:
            raise MemoryError_(
                f"NUMA node {numa_node} out of frames "
                f"({count} requested, {free} free)"
            )
        frames = []
        cursor = self._cursor[numa_node]
        while len(frames) < count:
            cursor = (cursor + self._stride) % self._frames_per_node
            if cursor not in claimed:
                claimed.add(cursor)
                frames.append(self._node_base(numa_node) + cursor)
        self._cursor[numa_node] = cursor
        self._allocated[numa_node] = len(claimed)
        return frames


def allocator_state(memory):
    """Everything a later allocation depends on, per node."""
    return list(memory._allocated), list(memory._cursor)


class TestPhysicalMemory:
    def test_allocates_distinct_frames(self):
        memory = PhysicalMemory(1 << 20, 4096)
        frames = memory.allocate_frames(100)
        assert len(set(frames)) == 100

    def test_placement_scatters_consecutive_frames(self):
        # Consecutive allocations must not be physically contiguous,
        # or cache sets would see unrealistically clustered traffic.
        memory = PhysicalMemory(1 << 24, 4096)
        frames = memory.allocate_frames(10)
        diffs = {b - a for a, b in zip(frames, frames[1:])}
        assert diffs != {1}

    def test_exhaustion_raises(self):
        memory = PhysicalMemory(4096 * 4, 4096)
        memory.allocate_frames(4)
        with pytest.raises(MemoryError_):
            memory.allocate_frames(1)

    def test_numa_nodes_are_disjoint(self):
        memory = PhysicalMemory(1 << 20, 4096, num_numa_nodes=2)
        node0 = memory.allocate_frames(10, numa_node=0)
        node1 = memory.allocate_frames(10, numa_node=1)
        boundary = memory.frames_per_node
        assert all(f < boundary for f in node0)
        assert all(f >= boundary for f in node1)

    def test_unknown_node_rejected(self):
        memory = PhysicalMemory(1 << 20, 4096, num_numa_nodes=2)
        with pytest.raises(MemoryError_):
            memory.allocate_frames(1, numa_node=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_walk_matches_per_frame_walk(self, seed):
        """The block walk hands out the same frames in the same order
        and leaves the same cursor as the frame-by-frame walk."""
        rng = random.Random(seed)
        pair = [cls(4096 * 997, 4096, num_numa_nodes=1)
                for cls in (PhysicalMemory, PerFrameMemory)]
        for _ in range(40):
            count = rng.randint(0, 120)
            results = []
            for memory in pair:
                try:
                    results.append(memory.allocate_frames(count))
                except MemoryError_:
                    results.append(None)
            assert results[0] == results[1]
            assert allocator_state(pair[0]) == allocator_state(pair[1])
        free = pair[0].frames_per_node - pair[0].frames_allocated()
        assert pair[0].allocate_frames(free) == pair[1].allocate_frames(free)
        with pytest.raises(MemoryError_):
            pair[0].allocate_frames(1)

    @staticmethod
    def _walk_to_exhaustion(rng, nodes, frames_per_node, max_chunk):
        """Random chunks on random nodes until every node is full: the
        same frames, cursors and exhaustion errors as the oracle, and
        every frame of every node handed out exactly once."""
        pair = [cls(4096 * frames_per_node * nodes, 4096,
                    num_numa_nodes=nodes)
                for cls in (PhysicalMemory, PerFrameMemory)]
        handed_out = []
        full = set()
        while len(full) < nodes:
            node = rng.randrange(nodes)
            count = rng.randint(1, max_chunk)
            outcomes = []
            for memory in pair:
                try:
                    outcomes.append(memory.allocate_frames(count, node))
                except MemoryError_ as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1], (node, count)
            assert allocator_state(pair[0]) == allocator_state(pair[1])
            if isinstance(outcomes[0], str):
                assert "out of frames" in outcomes[0]
                # Whatever still fits goes out in one last chunk.
                free = frames_per_node - pair[0].frames_allocated(node)
                assert free < count
                last = [memory.allocate_frames(free, node)
                        for memory in pair]
                assert last[0] == last[1]
                handed_out.extend(last[0])
                full.add(node)
            else:
                handed_out.extend(outcomes[0])
                if pair[0].frames_allocated(node) == frames_per_node:
                    full.add(node)
        assert sorted(handed_out) == list(range(frames_per_node * nodes))
        for memory in pair:
            for node in range(nodes):
                with pytest.raises(MemoryError_, match="0 free"):
                    memory.allocate_frames(1, node)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_walk_matches_per_frame_walk_to_exhaustion(self, seed):
        rng = random.Random(seed)
        nodes = rng.choice((1, 2, 3))
        frames_per_node = rng.choice((1, 7, 64, 997))
        max_chunk = rng.choice((1, 5, frames_per_node))
        self._walk_to_exhaustion(rng, nodes, frames_per_node, max_chunk)

    @pytest.mark.parametrize("max_chunk", ["one", "five", "node"])
    @pytest.mark.parametrize("frames_per_node", [7, 64, 997])
    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_exhaustion_walk_on_every_shape(self, nodes, frames_per_node,
                                            max_chunk):
        """Every node count, node size and chunk bound, from single
        frames up to whole-node requests."""
        chunk = {"one": 1, "five": 5, "node": frames_per_node}[max_chunk]
        rng = random.Random(nodes * 10_000 + frames_per_node)
        self._walk_to_exhaustion(rng, nodes, frames_per_node, chunk)

    def test_non_page_multiple_rejected(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(4097, 4096)


class TestAddressSpace:
    def _space(self, strict=False, node=0):
        memory = PhysicalMemory(1 << 24, 4096, num_numa_nodes=2)
        return AddressSpace("proc", memory, numa_node=node,
                            numa_strict=strict)

    def test_translate_round_trip_within_page(self):
        space = self._space()
        allocation = space.allocate(4096)
        base = space.translate(allocation.virtual_base)
        assert space.translate(allocation.virtual_base + 100) == base + 100

    def test_allocation_rounds_up_to_pages(self):
        space = self._space()
        allocation = space.allocate(5000)
        assert allocation.size_bytes == 8192

    def test_unmapped_access_faults(self):
        space = self._space()
        with pytest.raises(MemoryError_):
            space.translate(0x1000)

    def test_is_mapped(self):
        space = self._space()
        allocation = space.allocate(4096)
        assert space.is_mapped(allocation.virtual_base)
        assert not space.is_mapped(allocation.virtual_end + 4096)

    def test_allocations_do_not_overlap_virtually(self):
        space = self._space()
        a = space.allocate(8192)
        b = space.allocate(8192)
        assert a.virtual_end <= b.virtual_base

    def test_addresses_helper_strides(self):
        space = self._space()
        allocation = space.allocate(4096)
        lines = allocation.addresses(64)
        assert len(lines) == 64
        assert lines[1] - lines[0] == 64

    def test_numa_strict_blocks_remote_allocation(self):
        space = self._space(strict=True, node=1)
        space.allocate(4096)  # home node fine
        with pytest.raises(MemoryError_):
            space.allocate(4096, numa_node=0)

    def test_non_strict_allows_remote_allocation(self):
        space = self._space(strict=False, node=1)
        allocation = space.allocate(4096, numa_node=0)
        assert allocation.numa_node == 0


class TestSharedSegments:
    def test_two_spaces_share_physical_frames(self):
        memory = PhysicalMemory(1 << 24, 4096)
        alice = AddressSpace("alice", memory)
        bob = AddressSpace("bob", memory)
        segment = alice.create_shared(4096)
        a_map = alice.map_shared(segment)
        b_map = bob.map_shared(segment)
        assert alice.translate(a_map.virtual_base) == bob.translate(
            b_map.virtual_base
        )

    def test_mapping_records_names(self):
        memory = PhysicalMemory(1 << 24, 4096)
        alice = AddressSpace("alice", memory)
        segment = alice.create_shared(8192)
        alice.map_shared(segment)
        assert "alice" in segment.mappings

    def test_strict_space_rejects_remote_segment(self):
        memory = PhysicalMemory(1 << 24, 4096, num_numa_nodes=2)
        remote = AddressSpace("remote", memory, numa_node=1,
                              numa_strict=True)
        owner = AddressSpace("owner", memory, numa_node=0)
        segment = owner.create_shared(4096)
        with pytest.raises(MemoryError_):
            remote.map_shared(segment, owner_node=0)


class DictPageTableSpace(AddressSpace):
    """Reference address space: the page table as a dict from virtual
    page to frame, which the dense list in :class:`AddressSpace` must
    reproduce."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._table = {}

    def _map(self, base, frames):
        first = base // self.page_bytes
        self._table.update(zip(range(first, first + len(frames)), frames))

    def allocate(self, size_bytes, numa_node=None):
        allocation = super().allocate(size_bytes, numa_node)
        self._map(allocation.virtual_base, super().frames_of(allocation))
        return allocation

    def map_shared(self, segment, owner_node=0):
        allocation = super().map_shared(segment, owner_node)
        self._map(allocation.virtual_base, segment.frames)
        return allocation

    def frames_of(self, allocation):
        first = allocation.virtual_base // self.page_bytes
        count = allocation.size_bytes // self.page_bytes
        return [self._table[page] for page in range(first, first + count)]

    def translate(self, virtual):
        frame = self._table.get(virtual // self.page_bytes)
        if frame is None:
            raise MemoryError_(f"page fault at 0x{virtual:x}")
        return frame * self.page_bytes + virtual % self.page_bytes

    def is_mapped(self, virtual):
        return virtual // self.page_bytes in self._table


class TestDensePageTable:
    """The dense page table agrees with a dict page table."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("page", [4096, 65536])
    def test_agrees_with_a_dict_page_table(self, seed, page):
        rng = random.Random(seed)
        # Twin memories see the same calls, so they deal the same frames.
        memory, twin = (PhysicalMemory(1 << 26, page) for _ in range(2))
        space = AddressSpace("proc", memory)
        reference = DictPageTableSpace("ref", twin)
        owners = (AddressSpace("owner", memory), AddressSpace("owner", twin))
        allocations = []
        for _ in range(rng.randint(1, 12)):
            size = rng.randint(1, 6 * page)
            if rng.random() < 0.3:
                segments = [owner.create_shared(size) for owner in owners]
                pair = (space.map_shared(segments[0]),
                        reference.map_shared(segments[1]))
            else:
                pair = (space.allocate(size), reference.allocate(size))
            assert pair[0] == pair[1]
            allocations.append(pair[0])
        for allocation in allocations:
            assert space.frames_of(allocation) == reference.frames_of(
                allocation)
        base = AddressSpace._VIRTUAL_BASE
        end = allocations[-1].virtual_end
        probes = [0, 0x1000, base - 1, base - page, base, end - 1, end,
                  end + page, end + 64 * page]
        probes += [rng.randrange(base - 4 * page, end + 4 * page)
                   for _ in range(200)]
        for virtual in probes:
            assert space.is_mapped(virtual) == reference.is_mapped(virtual)
            if reference.is_mapped(virtual):
                assert space.translate(virtual) == reference.translate(
                    virtual)
            else:
                with pytest.raises(MemoryError_):
                    space.translate(virtual)

    def test_unmapped_pages_fault_on_both_sides(self):
        space = AddressSpace("proc", PhysicalMemory(1 << 24, 4096))
        assert not space.is_mapped(AddressSpace._VIRTUAL_BASE)
        with pytest.raises(MemoryError_):
            space.translate(AddressSpace._VIRTUAL_BASE)
        allocation = space.allocate(3 * 4096)
        for virtual in (allocation.virtual_base - 1, allocation.virtual_end,
                        0):
            assert not space.is_mapped(virtual)
            with pytest.raises(MemoryError_):
                space.translate(virtual)
