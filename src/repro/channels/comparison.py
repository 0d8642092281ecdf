"""The Table 3 comparison harness.

Runs every channel in every scenario and reports functionality.  A
channel is *not functional* when:

* construction fails on a missing prerequisite or an impossible
  allocation (e.g. a NUMA-strict platform refusing a cross-socket
  shared mapping) — the platform simply cannot host it; or
* the measured bit error rate is at chance level — the defense removed
  the signal mechanically.

UF-variation participates through an adapter so the whole Table 3 row
set is produced by one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.channel import UFVariationChannel
from ..core.evaluation import random_bits
from ..core.protocol import ChannelConfig
from ..engine.parallel import Trial, run_trials
from ..errors import ChannelError, MemoryError_, PrerequisiteError
from ..units import ms
from ..workloads.stressor import launch_stressor_threads
from .base import FUNCTIONAL_BER_THRESHOLD, BaselineChannel
from .current_throttle import CurrentThrottleChannel
from .duty_cycle import DutyCycleChannel
from .flush_flush import FlushFlushChannel
from .flush_reload import FlushReloadChannel
from .icc_cores import IccCoresChannel
from .mesh_contention import MeshContentionChannel
from .prime_abort import PrimeAbortChannel
from .prime_probe import PrimeProbeChannel
from .reload_refresh import ReloadRefreshChannel
from .ring_contention import RingContentionChannel
from ..platform.system import System
from .scenarios import SCENARIOS, Scenario
from .spp import SppChannel
from .turbo_boost import TurboBoostChannel
from .uncore_idle import UncoreIdleChannel


class UFVariationAdapter:
    """Presents UF-variation with the BaselineChannel interface."""

    name = "UF-variation"
    leakage_source = "UFS"

    def __init__(self, system, *, sender_socket=0, sender_core=0,
                 receiver_socket=0, receiver_core=8, sender_domain=0,
                 receiver_domain=0):
        # Stall several cores so background load cannot dilute the
        # stalled fraction below 1/3 (Section 4.3.3).
        free = [
            core.core_id
            for core in system.socket(sender_socket).cores
            if core.owner is None and core.core_id != receiver_core
        ]
        sender_cores = tuple(free[:6]) if len(free) >= 6 else (
            sender_core,
        )
        # The noise-tolerant operating point of Table 2: a 60 ms
        # interval rides out stressor phases that a faster setting
        # cannot.
        self._channel = UFVariationChannel(
            system,
            config=ChannelConfig(interval_ns=ms(60)),
            sender_socket=sender_socket,
            sender_cores=sender_cores,
            receiver_socket=receiver_socket,
            receiver_core=receiver_core,
            sender_domain=sender_domain,
            receiver_domain=receiver_domain,
        )

    def transmit(self, bits):
        return self._channel.transmit(bits)

    def shutdown(self):
        self._channel.shutdown()


#: The Table 3 rows, top to bottom: the paper's eleven, then the three
#: PAPERS.md sibling frequency/power channels built on the modulation
#: layer (TurboCC, IChannels, clock modulation).
ALL_CHANNELS: tuple[type, ...] = (
    FlushReloadChannel,
    FlushFlushChannel,
    ReloadRefreshChannel,
    PrimeProbeChannel,
    PrimeAbortChannel,
    SppChannel,
    MeshContentionChannel,
    RingContentionChannel,
    IccCoresChannel,
    UncoreIdleChannel,
    UFVariationAdapter,
    TurboBoostChannel,
    CurrentThrottleChannel,
    DutyCycleChannel,
)

#: Row label -> implementing class, for name-keyed callers (trace
#: capture, the defense evaluation).
CHANNELS_BY_NAME: dict[str, type] = {
    channel_cls.name: channel_cls for channel_cls in ALL_CHANNELS
}


@dataclass(frozen=True)
class ComparisonCell:
    """One (channel, scenario) evaluation."""

    channel: str
    scenario: str
    functional: bool
    error_rate: float | None
    note: str = ""

    @property
    def mark(self) -> str:
        return "yes" if self.functional else "no"


def evaluate_channel(channel_cls, scenario: Scenario, *, bits: int = 24,
                     seed: int = 0) -> ComparisonCell:
    """Run one channel in one scenario and grade it."""
    platform = scenario.platform()
    transform = getattr(channel_cls, "platform_transform", None)
    if transform is not None:
        platform = transform(platform)
    system = System(platform, security=scenario.security, seed=seed)
    placement = scenario.placement
    stress = []
    try:
        if scenario.stress_threads:
            stress = launch_stressor_threads(
                system,
                scenario.stress_threads,
                socket_id=0,
                avoid_cores=set(range(8)) | {placement.receiver_core},
            )
            system.run_ms(30)
        channel = channel_cls(
            system,
            sender_socket=placement.sender_socket,
            sender_core=placement.sender_core,
            receiver_socket=placement.receiver_socket,
            receiver_core=placement.receiver_core,
            sender_domain=placement.sender_domain,
            receiver_domain=placement.receiver_domain,
        )
    except (PrerequisiteError, MemoryError_, ChannelError) as exc:
        system.stop()
        return ComparisonCell(
            channel=channel_cls.name,
            scenario=scenario.key,
            functional=False,
            error_rate=None,
            note=f"cannot deploy: {exc}",
        )
    payload = random_bits(bits, seed,
                          f"{channel_cls.name}-{scenario.key}")
    try:
        outcome = channel.transmit(payload)
    except (PrerequisiteError, MemoryError_, ChannelError) as exc:
        channel.shutdown()
        system.stop()
        return ComparisonCell(
            channel=channel_cls.name,
            scenario=scenario.key,
            functional=False,
            error_rate=None,
            note=f"cannot operate: {exc}",
        )
    channel.shutdown()
    for thread in stress:
        system.terminate(thread)
    system.stop()
    error_rate = outcome.error_rate
    return ComparisonCell(
        channel=channel_cls.name,
        scenario=scenario.key,
        functional=error_rate < FUNCTIONAL_BER_THRESHOLD,
        error_rate=error_rate,
    )


def comparison_matrix(*, bits: int = 24, seed: int = 0,
                      channels: tuple[type, ...] = ALL_CHANNELS,
                      scenarios: tuple[Scenario, ...] = SCENARIOS,
                      workers: int | None = 1,
                      backend: str | None = None,
                      ) -> list[ComparisonCell]:
    """The full Table 3: every channel in every scenario.

    Every (channel, scenario) cell builds its own seeded system, so the
    matrix is an independent trial grid: ``workers > 1`` evaluates cells
    in parallel processes and still returns them in row-major
    (channel, scenario) order, bit-identical to the serial run.

    Scenarios define their own platforms (that is what Table 3
    compares), so there is no ``platform`` keyword.  The matrix mixes
    ten non-UFS channels with security scenarios the vectorized
    fastpath does not model, so only the DES backend can run it:
    ``backend="auto"`` resolves to ``"des"`` and an explicit
    ``"batch"``/``"analytical"`` request is rejected rather than
    silently answered by the wrong simulator.
    """
    from ..core.context import ExperimentContext
    from ..errors import ConfigError
    from ..fastpath.backend import resolve_backend

    ctx = ExperimentContext(seed=seed, workers=workers, backend=backend)
    resolved = resolve_backend(ctx.backend, experiment="comparison_matrix")
    supported = ("des", "auto")
    if resolved != "des":
        raise ConfigError(
            f"comparison_matrix cannot run on backend {resolved!r} "
            f"(requested {ctx.backend!r}): the vectorized backends "
            "model only the UF-variation experiments, not the full "
            f"channel matrix — supported backends: {list(supported)}"
        )
    trials = [
        Trial(evaluate_channel, dict(channel_cls=channel_cls,
                                     scenario=scenario,
                                     bits=bits, seed=ctx.seed))
        for channel_cls in channels
        for scenario in scenarios
    ]
    return run_trials(trials, workers=ctx.workers)


#: The paper's Table 3, for verification: channel -> scenario -> works.
PAPER_TABLE3: dict[str, dict[str, bool]] = {
    "Flush+Reload": {
        "no_shared_mem": False, "no_clflush": False, "no_tsx": True,
        "random_llc": True, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "Flush+Flush": {
        "no_shared_mem": False, "no_clflush": False, "no_tsx": True,
        "random_llc": True, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "Reload+Refresh": {
        "no_shared_mem": False, "no_clflush": False, "no_tsx": True,
        "random_llc": False, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "Prime+Probe": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": False, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "Prime+Abort": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": False,
        "random_llc": False, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "SPP": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "Mesh-contention": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "Ring-contention": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": False,
        "coarse_partition": False, "stress4": True,
    },
    "IccCoresCovert": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": True,
        "coarse_partition": False, "stress4": True,
    },
    "Uncore-idle": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": True,
        "coarse_partition": True, "stress4": False,
    },
    "UF-variation": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": True,
        "coarse_partition": True, "stress4": True,
    },
}

#: Expected behaviour of the three modulation-layer channels — rows the
#: repo *adds* to Table 3, kept separate from :data:`PAPER_TABLE3` so
#: the paper's own ground truth stays untouched.  All three live in the
#: per-package core clock domain: no cache/memory prerequisites, immune
#: to LLC randomization and uncore partitioning, broken only by coarse
#: (per-socket) partitioning.  TurboCC survives stress4 because the bin
#: table still has a boundary above four extra active cores; IChannels
#: and clock modulation survive because stress-ng's cache loops draw no
#: regulator-scale current and never touch the duty MSR.
EXTENDED_TABLE3: dict[str, dict[str, bool]] = {
    "TurboCC": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": True,
        "coarse_partition": False, "stress4": True,
    },
    "IChannels": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": True,
        "coarse_partition": False, "stress4": True,
    },
    "ClockModCovert": {
        "no_shared_mem": True, "no_clflush": True, "no_tsx": True,
        "random_llc": True, "fine_partition": True,
        "coarse_partition": False, "stress4": True,
    },
}
