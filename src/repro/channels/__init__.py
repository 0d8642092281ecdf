"""The prior frequency/power/cache covert channels compared in Table 3.

Fourteen channels (including UF-variation, which lives in
:mod:`repro.core`) are evaluated against prerequisites (shared memory,
clflush, TSX), defenses (randomized LLC, fine-grained partitioning,
coarse-grained partitioning) and background noise (``stress-ng --cache
4``).  Each baseline is implemented mechanically on the simulated
platform — the check/cross matrix *emerges* from the cache, mesh and
power models rather than being hard-coded.

Beyond the paper's own Table 3 rows, three sibling frequency/power
channels from PAPERS.md ride the same harness: TurboCC (turbo bins,
arxiv 2007.07046), IChannels (current-management throttling, arxiv
2106.05050) and the clock-modulation duty-cycle channel (arxiv
2404.05823), all built on :mod:`repro.power.modulation`.
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
from .turbo_boost import TurboBoostChannel
from .current_throttle import CurrentThrottleChannel
from .duty_cycle import DutyCycleChannel
from .scenarios import Scenario, SCENARIOS
from .comparison import (
    ALL_CHANNELS,
    CHANNELS_BY_NAME,
    EXTENDED_TABLE3,
    ComparisonCell,
    evaluate_channel,
    comparison_matrix,
)
from .capture import (
    OBSERVING_CHANNELS,
    capture_channel_trace,
    simulate_channel_trace,
)

__all__ = [
    "ALL_CHANNELS",
    "BaselineChannel",
    "CHANNELS_BY_NAME",
    "ChannelOutcome",
    "ComparisonCell",
    "CurrentThrottleChannel",
    "DutyCycleChannel",
    "EXTENDED_TABLE3",
    "FlushFlushChannel",
    "FlushReloadChannel",
    "IccCoresChannel",
    "MeshContentionChannel",
    "OBSERVING_CHANNELS",
    "Prerequisites",
    "PrimeAbortChannel",
    "PrimeProbeChannel",
    "ReloadRefreshChannel",
    "RingContentionChannel",
    "SCENARIOS",
    "Scenario",
    "SppChannel",
    "TurboBoostChannel",
    "UncoreIdleChannel",
    "capture_channel_trace",
    "comparison_matrix",
    "evaluate_channel",
    "simulate_channel_trace",
]
