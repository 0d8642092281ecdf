"""Eviction-list construction (Section 3.1 / Listings 1-3).

An eviction list ``EV_s(i)`` is a group of addresses all mapping to L2
set ``i`` and LLC slice ``s``.  The paper's unprivileged attacker builds
them from ordinary allocations by classifying candidate addresses — here
we classify with the same physical information the simulated platform
exposes (the attacker's timing-based recovery of this mapping is a
solved problem the paper cites, so we do not re-derive it per run).

The builder also produces same-LLC-set lists for the Prime+Probe family
and occupancy-scale working sets for the SPP baseline.

Crucially, the builder assumes *standard* cache indexing.  When the
platform runs a randomized-LLC defense the produced "same set" lists
silently stop colliding in the real cache — which is exactly how that
defense breaks the set-conflict channels in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MemoryError_
from ..mem.allocator import AddressSpace
from .hierarchy import CacheHierarchy


@dataclass(frozen=True)
class EvictionSet:
    """A list of congruent addresses (virtual view plus line numbers)."""

    virtual_addresses: tuple[int, ...]
    lines: tuple[int, ...]
    slice_id: int
    l2_set: int | None = None
    llc_set: int | None = None

    def __len__(self) -> int:
        return len(self.virtual_addresses)


class EvictionListBuilder:
    """Searches an address space for congruent addresses.

    Allocates memory in chunks and classifies every line in each chunk
    (vectorised) until the requested number of congruent addresses is
    found.  All results are cached lines of *this* address space, so two
    actors (sender/receiver) each build their own lists, as in the paper.
    """

    _CHUNK_PAGES = 4096  # 16 MB of 4 KB pages per search round

    def __init__(self, space: AddressSpace, hierarchy: CacheHierarchy,
                 *, slice_hash=None, max_search_bytes: int = 1 << 31) -> None:
        self.space = space
        self.hierarchy = hierarchy
        # Under fine-grained partitioning an actor's accesses route with
        # its domain-restricted hash, so congruence must be classified
        # with the same function.
        self.slice_hash = (
            slice_hash if slice_hash is not None else hierarchy.slice_hash
        )
        self.max_search_bytes = max_search_bytes
        self._searched_bytes = 0
        self._virtual: np.ndarray = np.empty(0, dtype=np.int64)
        self._lines: np.ndarray = np.empty(0, dtype=np.uint64)
        self._slices: np.ndarray = np.empty(0, dtype=np.int64)

    @property
    def candidate_count(self) -> int:
        """Number of classified candidate lines so far."""
        return len(self._lines)

    def _grow(self) -> None:
        """Allocate and classify another chunk of candidate pages."""
        page = self.space.page_bytes
        chunk_bytes = self._CHUNK_PAGES * page
        if self._searched_bytes + chunk_bytes > self.max_search_bytes:
            raise MemoryError_(
                "eviction-list search exceeded its memory budget "
                f"({self.max_search_bytes} bytes)"
            )
        allocation = self.space.allocate(chunk_bytes)
        self._searched_bytes += chunk_bytes
        # One translation per page, then a (page x line offset) broadcast;
        # rows are pages in address order, so the flattened arrays list
        # lines in the same order a per-page walk would.
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

    def _check_slice(self, slice_id: int) -> None:
        if slice_id not in self.slice_hash.allowed_slices:
            raise MemoryError_(
                f"slice {slice_id} is outside this actor's partition; "
                "no allocation can ever map there"
            )

    @staticmethod
    def _check_count(count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")

    @staticmethod
    def _check_set(kind: str, index: int, num_sets: int) -> None:
        """Reject a set no line maps to up front: searching for it
        would grow candidates until the memory budget runs out."""
        if not 0 <= index < num_sets:
            raise ValueError(f"{kind} {index} is outside [0, {num_sets})")

    def _collect(self, mask_fn, count: int) -> np.ndarray:
        """Indices of candidates satisfying ``mask_fn``; grows on demand."""
        while True:
            mask = mask_fn()
            indices = np.flatnonzero(mask)
            if len(indices) >= count:
                return indices[:count]
            self._grow()

    def build_l2_list(self, slice_id: int, l2_set: int,
                      count: int) -> EvictionSet:
        """Addresses in LLC slice ``slice_id`` and L2 set ``l2_set``.

        This is the ``EV_s(i)`` of Section 3.1: with ``W_L2 <= count <=
        W_L2 + W_LLC`` addresses, cycling through the list in fixed order
        misses L2 every time while hitting the LLC slice.
        """
        l2_sets = self.hierarchy.config.l2_config.num_sets
        self._check_count(count)
        self._check_set("L2 set", l2_set, l2_sets)
        self._check_slice(slice_id)

        def mask() -> np.ndarray:
            sets = (self._lines % np.uint64(l2_sets)).astype(np.int64)
            return (sets == l2_set) & (self._slices == slice_id)

        chosen = self._collect(mask, count)
        return EvictionSet(
            virtual_addresses=tuple(int(v) for v in self._virtual[chosen]),
            lines=tuple(int(l) for l in self._lines[chosen]),
            slice_id=slice_id,
            l2_set=l2_set,
        )

    def build_llc_set_list(self, slice_id: int, llc_set: int,
                           count: int) -> EvictionSet:
        """Addresses in slice ``slice_id`` whose *standard* LLC set index
        is ``llc_set`` (the Prime+Probe priming list)."""
        llc_sets = self.hierarchy.config.llc_slice_config.num_sets
        self._check_count(count)
        self._check_set("LLC set", llc_set, llc_sets)
        self._check_slice(slice_id)

        def mask() -> np.ndarray:
            sets = (self._lines % np.uint64(llc_sets)).astype(np.int64)
            return (sets == llc_set) & (self._slices == slice_id)

        chosen = self._collect(mask, count)
        return EvictionSet(
            virtual_addresses=tuple(int(v) for v in self._virtual[chosen]),
            lines=tuple(int(l) for l in self._lines[chosen]),
            slice_id=slice_id,
            llc_set=llc_set,
        )

    def build_slice_working_set(self, slice_id: int,
                                count: int) -> EvictionSet:
        """``count`` addresses anywhere in one slice (occupancy channels)."""
        self._check_count(count)
        self._check_slice(slice_id)

        def mask() -> np.ndarray:
            return self._slices == slice_id

        chosen = self._collect(mask, count)
        return EvictionSet(
            virtual_addresses=tuple(int(v) for v in self._virtual[chosen]),
            lines=tuple(int(l) for l in self._lines[chosen]),
            slice_id=slice_id,
        )

    def build_l2_set_group(self, l2_set: int, count: int) -> EvictionSet:
        """Addresses sharing one L2 set, with *no* slice constraint.

        Used by occupancy channels (SPP): grouping by L2 set forces the
        lines to cycle between the private L2 and the LLC regardless of
        how the LLC indexes them, so the working set stays observable
        even under randomized LLC indexing.  ``slice_id`` is -1 (mixed).
        """
        l2_sets = self.hierarchy.config.l2_config.num_sets
        self._check_count(count)
        self._check_set("L2 set", l2_set, l2_sets)

        def mask() -> np.ndarray:
            sets = (self._lines % np.uint64(l2_sets)).astype(np.int64)
            return sets == l2_set

        chosen = self._collect(mask, count)
        return EvictionSet(
            virtual_addresses=tuple(int(v) for v in self._virtual[chosen]),
            lines=tuple(int(l) for l in self._lines[chosen]),
            slice_id=-1,
            l2_set=l2_set,
        )

    def build_measurement_list(self, slice_id: int, count: int = 20,
                               l2_set: int = 0) -> EvictionSet:
        """The receiver's Listing 3 measurement list.

        Defaults match the paper: 20 addresses (between ``W_L2 = 16`` and
        ``W_L2 + W_LLC = 27``) in one L2 set of one slice.
        """
        return self.build_l2_list(slice_id, l2_set, count)
