"""CPU cores, activity accounting and MSRs.

The *activity profile* abstraction is the macroscopic half of the
simulator: every running thread exposes its steady-state behaviour (LLC
access rate, mean hop distance, memory-stall ratio) and each core keeps
a timeline of profile changes.  The UFS power-management unit integrates
these timelines every evaluation period — exactly the inputs Intel's
patent describes (uncore utilisation and core stall time, Section 3).
"""

from .activity import (
    IDLE,
    ActivityProfile,
    ProfileTimeline,
    WindowStats,
)
from .core import Core
from .msr import (
    MSR_UNCORE_RATIO_LIMIT,
    MSR_UCLK_FIXED_CTR,
    MsrFile,
    decode_uncore_ratio_limit,
    encode_uncore_ratio_limit,
)

__all__ = [
    "ActivityProfile",
    "Core",
    "IDLE",
    "MSR_UCLK_FIXED_CTR",
    "MSR_UNCORE_RATIO_LIMIT",
    "MsrFile",
    "ProfileTimeline",
    "WindowStats",
    "decode_uncore_ratio_limit",
    "encode_uncore_ratio_limit",
]
