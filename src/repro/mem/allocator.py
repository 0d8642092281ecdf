"""Physical frame allocation and per-process address spaces.

The model is deliberately OS-like:

* :class:`PhysicalMemory` hands out page frames, optionally constrained
  to a NUMA node (socket).  The coarse-grained partitioning defense of
  Section 4.4 enforces a *NUMA-strict* policy — a domain pinned to
  socket 1 cannot obtain (or map) frames on socket 0.
* :class:`AddressSpace` is one process's view: virtual pages mapped to
  frames.  Translation is what the cache hierarchy consumes.
* :class:`SharedSegment` maps the *same* frames into two address spaces,
  which is the prerequisite the data-reuse channels (Flush+Reload and
  friends) need and that the paper's threat model excludes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MemoryError_


@dataclass(frozen=True)
class Allocation:
    """A contiguous virtual allocation inside one address space."""

    virtual_base: int
    size_bytes: int
    numa_node: int

    @property
    def virtual_end(self) -> int:
        return self.virtual_base + self.size_bytes

    def addresses(self, stride: int) -> list[int]:
        """Virtual addresses at ``stride``-byte intervals across the
        allocation (handy for building access patterns)."""
        return list(range(self.virtual_base, self.virtual_end, stride))


class PhysicalMemory:
    """Page-frame allocator over the platform's physical memory.

    Frames are dealt out with a deterministic but non-trivial placement
    (a linear-congruential walk over the frame space) so that physically
    indexed cache sets receive a realistic spread of allocations without
    needing a random source.  Frames are never freed, and every frame
    is claimed in walk order, so a node's claimed frames are exactly the
    first stops of its walk and a count stands in for the set of them.
    """

    def __init__(self, total_bytes: int, page_bytes: int,
                 num_numa_nodes: int = 1) -> None:
        if total_bytes % page_bytes != 0:
            raise MemoryError_("physical memory must be whole pages")
        if num_numa_nodes <= 0:
            raise MemoryError_("need at least one NUMA node")
        self.page_bytes = page_bytes
        self.num_numa_nodes = num_numa_nodes
        self._frames_per_node = total_bytes // page_bytes // num_numa_nodes
        self._allocated: list[int] = [0] * num_numa_nodes
        # Per-node placement cursor; coprime stride walks all frames.
        self._cursor: list[int] = [0] * num_numa_nodes
        self._stride = self._coprime_stride(self._frames_per_node)

    @staticmethod
    def _coprime_stride(n: int) -> int:
        """A stride coprime with ``n`` that scatters consecutive frames."""
        import math
        candidate = max(3, n // 7) | 1
        while math.gcd(candidate, n) != 1:
            candidate += 2
        return candidate

    @property
    def frames_per_node(self) -> int:
        return self._frames_per_node

    def frames_allocated(self, numa_node: int = 0) -> int:
        """Number of frames currently allocated on a node."""
        return self._allocated[numa_node]

    def _node_base(self, numa_node: int) -> int:
        return numa_node * self._frames_per_node

    def allocate_frames(self, count: int, numa_node: int = 0) -> list[int]:
        """Allocate ``count`` frames on a node; returns frame numbers.

        Raises :class:`MemoryError_` when the node is exhausted.
        """
        if not 0 <= numa_node < self.num_numa_nodes:
            raise MemoryError_(f"no such NUMA node {numa_node}")
        allocated = self._allocated[numa_node]
        if allocated + count > self._frames_per_node:
            raise MemoryError_(
                f"NUMA node {numa_node} out of frames "
                f"({count} requested, "
                f"{self._frames_per_node - allocated} free)"
            )
        # The walk from stop 0 visits every frame of the node once (the
        # stride is coprime with the node size), and the claimed frames
        # are its first ``allocated`` stops.  The next ``count`` stops
        # follow them in the same orbit, so none is claimed yet: one
        # block of stops is what a frame-by-frame walk would hand out.
        stops = ((self._cursor[numa_node]
                  + self._stride * np.arange(1, count + 1))
                 % self._frames_per_node).tolist()
        if stops:
            self._cursor[numa_node] = stops[-1]
        self._allocated[numa_node] += len(stops)
        base = self._node_base(numa_node)
        return [base + stop for stop in stops]


@dataclass
class SharedSegment:
    """Physical frames mapped into more than one address space.

    ``owner_domain`` records the security domain that created the
    segment: partitioned platforms refuse to map it into a different
    domain (sharing across partitions would defeat the partition).
    """

    frames: list[int]
    page_bytes: int
    owner_domain: int = 0
    mappings: dict[str, int] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return len(self.frames) * self.page_bytes


class AddressSpace:
    """One process's virtual memory: page table plus allocation arena."""

    _VIRTUAL_BASE = 0x5555_0000_0000

    def __init__(self, name: str, memory: PhysicalMemory,
                 numa_node: int = 0, *, numa_strict: bool = False) -> None:
        self.name = name
        self.memory = memory
        self.numa_node = numa_node
        self.numa_strict = numa_strict
        # The page table: virtual pages are handed out contiguously
        # from ``_VIRTUAL_BASE``, so it is a dense list of frames indexed
        # by virtual page minus ``_first_page``.
        self._first_page = self._VIRTUAL_BASE // memory.page_bytes
        self._frames: list[int] = []
        self._next_virtual = self._VIRTUAL_BASE
        self._allocations: list[Allocation] = []

    @property
    def page_bytes(self) -> int:
        return self.memory.page_bytes

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(self._allocations)

    def _check_node(self, numa_node: int) -> None:
        if self.numa_strict and numa_node != self.numa_node:
            raise MemoryError_(
                f"{self.name}: NUMA-strict policy forbids allocating on "
                f"node {numa_node} (home node is {self.numa_node})"
            )

    def allocate(self, size_bytes: int,
                 numa_node: int | None = None) -> Allocation:
        """Allocate and map ``size_bytes`` (rounded up to whole pages)."""
        node = self.numa_node if numa_node is None else numa_node
        self._check_node(node)
        page = self.page_bytes
        pages = -(-size_bytes // page)
        frames = self.memory.allocate_frames(pages, node)
        base = self._next_virtual
        self._frames.extend(frames)
        self._next_virtual = base + pages * page
        allocation = Allocation(base, pages * page, node)
        self._allocations.append(allocation)
        return allocation

    def map_shared(self, segment: SharedSegment,
                   owner_node: int = 0) -> Allocation:
        """Map an existing shared segment into this address space."""
        self._check_node(owner_node)
        page = self.page_bytes
        if segment.page_bytes != page:
            raise MemoryError_("shared segment page size mismatch")
        base = self._next_virtual
        self._frames.extend(segment.frames)
        self._next_virtual = base + len(segment.frames) * page
        segment.mappings[self.name] = base
        allocation = Allocation(base, segment.size_bytes, owner_node)
        self._allocations.append(allocation)
        return allocation

    def create_shared(self, size_bytes: int,
                      numa_node: int | None = None) -> SharedSegment:
        """Allocate frames for a segment that other spaces may map."""
        node = self.numa_node if numa_node is None else numa_node
        self._check_node(node)
        pages = -(-size_bytes // self.page_bytes)
        frames = self.memory.allocate_frames(pages, node)
        segment = SharedSegment(frames=frames, page_bytes=self.page_bytes)
        return segment

    def frames_of(self, allocation: Allocation) -> list[int]:
        """The frames backing ``allocation``'s base pages, in order."""
        page = self.page_bytes
        first = allocation.virtual_base // page - self._first_page
        return self._frames[first:first + allocation.size_bytes // page]

    def translate(self, virtual: int) -> int:
        """Virtual-to-physical translation; raises on an unmapped page."""
        page = self.page_bytes
        index = virtual // page - self._first_page
        if not 0 <= index < len(self._frames):
            raise MemoryError_(
                f"{self.name}: page fault at virtual 0x{virtual:x}"
            )
        return self._frames[index] * page + (virtual % page)

    def is_mapped(self, virtual: int) -> bool:
        """Whether the page containing ``virtual`` is mapped."""
        index = virtual // self.page_bytes - self._first_page
        return 0 <= index < len(self._frames)
