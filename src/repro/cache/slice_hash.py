"""LLC slice hashing and set indexing.

Intel distributes physical addresses across LLC slices with an
undocumented XOR-based hash (Section 2.1; reverse engineered in
McCalpin's work cited as [46]).  We implement the same family: each
output bit is the XOR-fold of a fixed subset of physical line-address
bits.  The exact bit masks differ per die, but the properties the
channels rely on — uniform distribution and determinism — are shared, so
any full-rank mask set reproduces the behaviour.

Set indexing inside a cache is factored behind :class:`Indexer` so the
randomized-LLC defense can swap a keyed permutation in place of the
conventional modulo indexing without the attacker code changing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

# XOR masks over the line number (physical address >> 6).  One mask per
# hash output bit; patterned after published Skylake slice functions.
_DEFAULT_MASKS = (
    0x1B5F575440,
    0x2EB5FAA880,
    0x3CCCC93100,
    0x1839290940,
)


def _parity(value: int) -> int:
    """Parity of the set bits in ``value``."""
    return value.bit_count() & 1


def _splitmix64(value: int) -> int:
    """A fast 64-bit mixing function (keyed permutation building block)."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return value ^ (value >> 31)


class SliceHash:
    """Maps a physical line number to an LLC slice id.

    ``num_slices`` need not be a power of two: the XOR hash produces a
    wide value that is folded by modulo, matching how dies with disabled
    tiles (our 16-of-28 layout) still spread addresses over the enabled
    slices.  ``allowed_slices`` restricts the output range — this is how
    the fine-grained partitioning defense assigns each security domain
    half of the slices (Section 4.4).
    """

    def __init__(self, num_slices: int,
                 allowed_slices: tuple[int, ...] | None = None,
                 masks: tuple[int, ...] = _DEFAULT_MASKS) -> None:
        if num_slices <= 0:
            raise ValueError("need at least one slice")
        self.num_slices = num_slices
        self.masks = masks
        if allowed_slices is None:
            self.allowed_slices: tuple[int, ...] = tuple(range(num_slices))
        else:
            bad = [s for s in allowed_slices if not 0 <= s < num_slices]
            if bad:
                raise ValueError(f"slice ids out of range: {bad}")
            self.allowed_slices = tuple(allowed_slices)

    def raw_hash(self, line: int) -> int:
        """The unfolded XOR hash value for a line number.

        The masks select *physical address* bits (as published hashes
        are specified), so the line number is shifted back up by the
        6 offset bits before masking.
        """
        address = line << 6
        result = 0
        for bit, mask in enumerate(self.masks):
            result |= _parity(address & mask) << bit
        return result

    def slice_of(self, line: int) -> int:
        """The slice id serving ``line``."""
        mixed = _splitmix64(self.raw_hash(line) ^ (line >> 4))
        return self.allowed_slices[mixed % len(self.allowed_slices)]

    def slice_of_array(self, lines: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`slice_of` over an array of line numbers.

        Used by the eviction-list builder, which classifies hundreds of
        thousands of candidate lines when searching for addresses that
        share an L2 set and an LLC slice (Section 3.1).
        """
        lines = lines.astype(np.uint64, copy=False)
        addresses = lines << np.uint64(6)
        raw = np.zeros_like(lines)
        for bit, mask in enumerate(self.masks):
            parity = np.bitwise_count(
                addresses & np.uint64(mask)
            ) & np.uint64(1)
            raw |= parity << np.uint64(bit)
        mixed = _splitmix64_array(raw ^ (lines >> np.uint64(4)))
        allowed = np.asarray(self.allowed_slices, dtype=np.int64)
        return allowed[(mixed % np.uint64(len(allowed))).astype(np.int64)]

    def restricted(self, allowed: tuple[int, ...]) -> "SliceHash":
        """A copy that only maps into ``allowed`` (partitioned domain)."""
        return SliceHash(self.num_slices, allowed, self.masks)


def _splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_splitmix64` on a uint64 array."""
    with np.errstate(over="ignore"):
        values = values + np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> np.uint64(30))) * np.uint64(
            0xBF58476D1CE4E5B9
        )
        values = (values ^ (values >> np.uint64(27))) * np.uint64(
            0x94D049BB133111EB
        )
    return values ^ (values >> np.uint64(31))


class Indexer(ABC):
    """Maps a line number to a set index inside one cache."""

    def __init__(self, num_sets: int) -> None:
        if num_sets <= 0:
            raise ValueError("need at least one set")
        self.num_sets = num_sets

    @abstractmethod
    def index(self, line: int) -> int:
        """The set index for ``line``."""


class StandardIndexer(Indexer):
    """Conventional physically-indexed set selection (low line bits)."""

    def index(self, line: int) -> int:
        return line % self.num_sets


class RandomizedIndexer(Indexer):
    """Keyed pseudorandom set mapping (CEASER/ScatterCache-style).

    The key is secret from the attacker's perspective: eviction lists
    built under the standard-indexing assumption scatter across sets, so
    set-conflict channels (Prime+Probe, Prime+Abort) lose their signal,
    while occupancy-statistics channels (SPP) survive — exactly the
    Table 3 "Random. LLC" column.
    """

    def __init__(self, num_sets: int, key: int) -> None:
        super().__init__(num_sets)
        self.key = key & 0xFFFFFFFFFFFFFFFF

    def index(self, line: int) -> int:
        return _splitmix64(line ^ self.key) % self.num_sets
