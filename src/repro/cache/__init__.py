"""Cache substrate: private L1/L2, sliced non-inclusive LLC, directory.

This package models the Skylake-SP cache hierarchy of Table 1 at line
granularity.  It is used by the *microscopic* simulation paths — the
receiver's measurement loop (Listing 3) and the baseline covert channels
of Table 3 — while the macroscopic UFS path works from aggregate access
rates and never touches individual lines.
"""

from .replacement import LRUPolicy
from .cache import CacheStats, SetAssociativeCache
from .slice_hash import (
    RandomizedIndexer,
    SliceHash,
    StandardIndexer,
)
from .directory import CoherenceDirectory
from .hierarchy import AccessOutcome, CacheHierarchy, Level
from .eviction import EvictionListBuilder, EvictionSet

__all__ = [
    "AccessOutcome",
    "CacheHierarchy",
    "CacheStats",
    "CoherenceDirectory",
    "EvictionListBuilder",
    "EvictionSet",
    "LRUPolicy",
    "Level",
    "RandomizedIndexer",
    "SetAssociativeCache",
    "SliceHash",
    "StandardIndexer",
]
