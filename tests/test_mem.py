"""Memory substrate: addressing, allocation, sharing, NUMA policy."""

import pytest

from repro.errors import MemoryError_
from repro.mem import AddressSpace, PhysicalMemory


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

    def test_free_returns_capacity(self):
        memory = PhysicalMemory(4096 * 4, 4096)
        frames = memory.allocate_frames(4)
        memory.free_frames(frames[:2])
        assert len(memory.allocate_frames(2)) == 2

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
