"""Simulated physical memory and per-process address spaces.

Provides page-granular physical allocation, virtual-to-physical mapping,
shared segments (the prerequisite of the data-reuse covert channels) and
huge pages (which some prior channels require and our threat model does
not, Section 4.1).
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
