"""Channel reliability under background noise (Table 2).

Runs UF-variation while ``stress-ng --cache N`` equivalents hammer the
same socket, reproducing Table 2: capacity decays with N and the
channel stops functioning around N = 9 on a 16-core socket.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PlatformConfig
from ..engine.parallel import Trial, resolve_workers, run_trials
from ..errors import ConfigError
from ..platform.system import System
from ..units import ms
from ..workloads.stressor import launch_stressor_threads
from .channel import UFVariationChannel
from .evaluation import random_bits
from .protocol import ChannelConfig
from .sender import SenderMode


@dataclass(frozen=True)
class StressCapacityResult:
    """Channel performance with N background stressor threads."""

    stress_threads: int
    interval_ms: float
    error_rate: float
    capacity_bps: float


def capacity_under_stress(
    stress_threads: int,
    *,
    bits: int = 120,
    interval_ms: float = 60.0,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    workers: int | None = 1,
    sender_mode: SenderMode = SenderMode.STALL,
    sender_cores: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
) -> StressCapacityResult:
    """Measure one Table 2 cell.

    The sender stalls several cores (Section 4.3.3: "on a 16-core
    processor, if the sender stalls 6 cores, then it is guaranteed that
    over 1/3 active cores are stalled") so the active-core dilution from
    the stressor threads cannot mask a "1".  The remaining errors come
    from stressor phases that pin the uncore at freq_max during "0"s.

    One cell is a single deployment, so ``workers`` is validated for
    signature uniformity but unused (see :func:`stress_table` for the
    fanned-out study).
    """
    resolve_workers(workers)
    system = System(platform, seed=seed)
    config = ChannelConfig(interval_ns=ms(interval_ms))
    channel = UFVariationChannel(
        system,
        config=config,
        sender_cores=sender_cores,
        receiver_core=8,
        sender_mode=sender_mode,
    )
    if stress_threads:
        launch_stressor_threads(
            system,
            stress_threads,
            socket_id=0,
            avoid_cores=set(sender_cores) | {8},
        )
        # Let the stressor phase schedules decorrelate from the start.
        system.run_ms(50)
    payload = random_bits(bits, seed, f"stress-{stress_threads}")
    result = channel.transmit(payload)
    channel.shutdown()
    system.stop()
    return StressCapacityResult(
        stress_threads=stress_threads,
        interval_ms=interval_ms,
        error_rate=result.error_rate,
        capacity_bps=result.capacity_bps,
    )


def stress_table(
    max_threads: int = 9,
    *,
    bits: int = 120,
    interval_ms: float = 60.0,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    workers: int | None = 1,
) -> list[StressCapacityResult]:
    """The full Table 2 row: N = 1 .. max_threads.

    Every cell deploys its own seeded system, so the cells are
    independent trials: ``workers > 1`` fans them out across processes
    and returns the same list a serial run produces, in N order.
    """
    if max_threads < 1:
        raise ConfigError(
            f"need at least one stress thread, got {max_threads}"
        )
    resolve_workers(workers)
    trials = [
        Trial(capacity_under_stress, dict(
            stress_threads=n,
            bits=bits,
            interval_ms=interval_ms,
            seed=seed,
            platform=platform,
        ))
        for n in range(1, max_threads + 1)
    ]
    return run_trials(trials, workers=workers)
