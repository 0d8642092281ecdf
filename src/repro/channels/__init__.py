"""The prior frequency/power/cache covert channels compared in Table 3.

Eleven channels (including UF-variation, which lives in
:mod:`repro.core`) are evaluated against prerequisites (shared memory,
clflush, TSX), defenses (randomized LLC, fine-grained partitioning,
coarse-grained partitioning) and background noise (``stress-ng --cache
4``).  Each baseline is implemented mechanically on the simulated
platform — the check/cross matrix *emerges* from the cache, mesh and
power models rather than being hard-coded.
"""

from .base import BaselineChannel, ChannelOutcome, Prerequisites
from .flush_reload import FlushReloadChannel
from .flush_flush import FlushFlushChannel
from .reload_refresh import ReloadRefreshChannel
from .prime_probe import PrimeProbeChannel
from .prime_abort import PrimeAbortChannel
from .spp import SppChannel
from .mesh_contention import MeshContentionChannel
from .ring_contention import RingContentionChannel
from .icc_cores import IccCoresChannel
from .uncore_idle import UncoreIdleChannel
from .scenarios import Scenario, SCENARIOS
from .comparison import (
    ALL_CHANNELS,
    ComparisonCell,
    evaluate_channel,
    comparison_matrix,
)

__all__ = [
    "ALL_CHANNELS",
    "BaselineChannel",
    "ChannelOutcome",
    "ComparisonCell",
    "FlushFlushChannel",
    "FlushReloadChannel",
    "IccCoresChannel",
    "MeshContentionChannel",
    "Prerequisites",
    "PrimeAbortChannel",
    "PrimeProbeChannel",
    "ReloadRefreshChannel",
    "RingContentionChannel",
    "SCENARIOS",
    "Scenario",
    "SppChannel",
    "UncoreIdleChannel",
    "comparison_matrix",
    "evaluate_channel",
]
