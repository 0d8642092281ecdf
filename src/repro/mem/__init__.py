"""Simulated physical memory and per-process address spaces.

Provides page-granular physical allocation, virtual-to-physical mapping
and shared segments (the prerequisite of the data-reuse covert
channels).  There are no huge pages: UF-variation's threat model drops
that assumption of prior channels (Section 4.1).
"""

from .allocator import (
    AddressSpace,
    Allocation,
    PhysicalMemory,
    SharedSegment,
)

__all__ = [
    "AddressSpace",
    "Allocation",
    "PhysicalMemory",
    "SharedSegment",
]
