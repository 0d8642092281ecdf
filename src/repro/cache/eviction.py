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

    Allocates memory in chunks and filters each new chunk (vectorised:
    set index first, slice hash only on the lines that pass) until the
    requested number of congruent addresses is found.  All results are
    cached lines of *this* address space, so two actors
    (sender/receiver) each build their own lists, as in the paper.

    A chunk is kept as its virtual base and the frames backing its
    pages; a candidate is named by its index in allocation order (page
    by page, line offset within the page).  A set-filtered search reads
    the survivors straight from the frames when the set count is a
    multiple of the lines per page (see :meth:`_collect`); only a
    search with no set filter, or an odd set count, expands a chunk
    into its lines.
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
        self._lines_per_page = space.page_bytes // 64
        #: Per allocated chunk: ``(virtual base, frames)``, the frames
        #: as uint64 in page order.
        self._chunks: list[tuple[int, np.ndarray]] = []

    @property
    def candidate_count(self) -> int:
        """Number of candidate lines allocated so far."""
        return len(self._chunks) * self._CHUNK_PAGES * self._lines_per_page

    def _grow(self) -> None:
        """Allocate another chunk of candidate pages."""
        chunk_bytes = self._CHUNK_PAGES * self.space.page_bytes
        if self._searched_bytes + chunk_bytes > self.max_search_bytes:
            raise MemoryError_(
                "eviction-list search exceeded its memory budget "
                f"({self.max_search_bytes} bytes)"
            )
        allocation = self.space.allocate(chunk_bytes)
        self._searched_bytes += chunk_bytes
        self._chunks.append((
            allocation.virtual_base,
            np.array(self.space.frames_of(allocation), dtype=np.uint64),
        ))

    def _chunk_lines(self, frames: np.ndarray) -> np.ndarray:
        """Every line of a chunk, in allocation order: a (page x line
        offset) broadcast over its frames, flattened row by row, so the
        lines come in the order a per-page walk lists them."""
        offsets = np.arange(self._lines_per_page, dtype=np.uint64)
        return ((frames * np.uint64(self._lines_per_page))[:, None]
                + offsets).ravel()

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

    def _collect(self, count: int, *, num_sets: int | None = None,
                 set_index: int = 0,
                 slice_id: int | None = None) -> np.ndarray:
        """The first ``count`` candidates, in allocation order, whose
        line has set index ``set_index`` of ``num_sets`` and maps to
        slice ``slice_id`` (``None`` skips that test); grows on demand.

        The set test runs first and only its survivors are hashed.
        Each round scans one chunk, growing a new one only once every
        chunk already allocated has been scanned.  When ``num_sets`` is
        a multiple of the lines per page ``L``, a line ``frame * L +
        offset`` is in set ``set_index`` exactly when ``offset ==
        set_index % L`` and ``frame % (num_sets // L) == set_index //
        L``, so one modulo over the chunk's frames finds its survivors,
        page by page in allocation order, without listing its lines.
        """
        per_page = self._lines_per_page
        chunk_lines = self._CHUNK_PAGES * per_page
        frame_first = num_sets is not None and num_sets % per_page == 0
        if frame_first:
            residues = np.uint64(num_sets // per_page)
            residue = np.uint64(set_index // per_page)
            offset = set_index % per_page
        found: list[np.ndarray] = []
        matched = 0
        chunk = 0
        while True:
            if chunk == len(self._chunks):
                self._grow()
            frames = self._chunks[chunk][1]
            if frame_first:
                pages = np.flatnonzero(frames % residues == residue)
                hits = pages * per_page + offset
                lines = frames[pages] * np.uint64(per_page) + np.uint64(
                    offset)
            else:
                lines = self._chunk_lines(frames)
                if num_sets is None:
                    hits = np.arange(len(lines))
                else:
                    hits = np.flatnonzero(
                        lines % np.uint64(num_sets) == np.uint64(set_index)
                    )
                    lines = lines[hits]
            if slice_id is not None:
                hits = hits[self.slice_hash.slice_of_array(lines)
                            == slice_id]
            found.append(hits + chunk * chunk_lines)
            matched += len(hits)
            if matched >= count:
                return np.concatenate(found)[:count]
            chunk += 1

    def _eviction_set(self, chosen: np.ndarray, **fields) -> EvictionSet:
        """The candidates at indices ``chosen``: a candidate ``j`` lines
        into its chunk sits ``64 * j`` bytes past the chunk's base, on
        line ``j % L`` of page ``j // L``."""
        per_page = self._lines_per_page
        virtual, lines = [], []
        for index in chosen.tolist():
            chunk, within = divmod(index, self._CHUNK_PAGES * per_page)
            base, frames = self._chunks[chunk]
            page, offset = divmod(within, per_page)
            virtual.append(base + 64 * within)
            lines.append(int(frames[page]) * per_page + offset)
        return EvictionSet(
            virtual_addresses=tuple(virtual),
            lines=tuple(lines),
            **fields,
        )

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
        chosen = self._collect(count, num_sets=l2_sets, set_index=l2_set,
                               slice_id=slice_id)
        return self._eviction_set(chosen, slice_id=slice_id, l2_set=l2_set)

    def build_llc_set_list(self, slice_id: int, llc_set: int,
                           count: int) -> EvictionSet:
        """Addresses in slice ``slice_id`` whose *standard* LLC set index
        is ``llc_set`` (the Prime+Probe priming list)."""
        llc_sets = self.hierarchy.config.llc_slice_config.num_sets
        self._check_count(count)
        self._check_set("LLC set", llc_set, llc_sets)
        self._check_slice(slice_id)
        chosen = self._collect(count, num_sets=llc_sets,
                               set_index=llc_set, slice_id=slice_id)
        return self._eviction_set(chosen, slice_id=slice_id,
                                  llc_set=llc_set)

    def build_slice_working_set(self, slice_id: int,
                                count: int) -> EvictionSet:
        """``count`` addresses anywhere in one slice (occupancy channels).

        With no set filter, every candidate line is slice-hashed."""
        self._check_count(count)
        self._check_slice(slice_id)
        chosen = self._collect(count, slice_id=slice_id)
        return self._eviction_set(chosen, slice_id=slice_id)

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
        chosen = self._collect(count, num_sets=l2_sets, set_index=l2_set)
        return self._eviction_set(chosen, slice_id=-1, l2_set=l2_set)

    def build_measurement_list(self, slice_id: int, count: int = 20,
                               l2_set: int = 0) -> EvictionSet:
        """The receiver's Listing 3 measurement list.

        Defaults match the paper: 20 addresses (between ``W_L2 = 16`` and
        ``W_L2 + W_LLC = 27``) in one L2 set of one slice.
        """
        return self.build_l2_list(slice_id, l2_set, count)
