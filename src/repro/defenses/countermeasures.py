"""The Section 6.1 countermeasure mechanisms.

All of them drive the real control surfaces the paper names: the
``UNCORE_RATIO_LIMIT`` MSR (for fixing/restricting/randomizing the
frequency window) or an ordinary background workload (for the
busy-uncore approach).
"""

from __future__ import annotations

import numpy as np

from ..cpu.msr import MSR_UNCORE_RATIO_LIMIT, encode_uncore_ratio_limit
from ..engine import PeriodicTask
from ..errors import DefenseError
from ..platform.system import System
from ..units import ms
from ..workloads.loops import TrafficLoop


def apply_fixed_frequency(system: System, freq_mhz: int,
                          socket_id: int | None = None) -> None:
    """Disable UFS by fixing min == max (system software, ring 0)."""
    if freq_mhz % 100 != 0:
        raise DefenseError("uncore operating points are 100 MHz apart")
    targets = (
        range(system.num_sockets) if socket_id is None else [socket_id]
    )
    value = encode_uncore_ratio_limit(freq_mhz, freq_mhz)
    for sid in targets:
        system.write_msr(sid, MSR_UNCORE_RATIO_LIMIT, value,
                         privileged=True)


def apply_restricted_range(system: System, min_mhz: int, max_mhz: int,
                           socket_id: int | None = None) -> None:
    """Narrow the UFS window (keeps UFS enabled when min < max)."""
    if min_mhz > max_mhz:
        raise DefenseError("min frequency exceeds max frequency")
    targets = (
        range(system.num_sockets) if socket_id is None else [socket_id]
    )
    value = encode_uncore_ratio_limit(min_mhz, max_mhz)
    for sid in targets:
        system.write_msr(sid, MSR_UNCORE_RATIO_LIMIT, value,
                         privileged=True)


class RandomizedFrequencyDefense:
    """Periodically re-fix the uncore at a random operating point.

    "Every certain period of time, the system software randomly selects
    a frequency (from within the allowed frequency range) to set as
    the uncore frequency" (Section 6.1).  UFS stays disabled (min ==
    max at all times); only the fixed point jumps around, so no
    workload-driven signal survives while the average frequency — and
    hence energy — sits between the extremes.
    """

    def __init__(self, system: System, *, period_ms: float = 100.0,
                 rng: np.random.Generator | None = None) -> None:
        self.system = system
        self.rng = rng if rng is not None else system.namer.rng(
            "random-freq-defense"
        )
        self._points = system.config.ufs.frequency_points_mhz
        self._repick()
        self._task = PeriodicTask(
            system.engine,
            ms(period_ms),
            self._repick,
            name="random-freq-defense",
        )

    def _repick(self) -> None:
        freq = int(self._points[self.rng.integers(len(self._points))])
        apply_fixed_frequency(self.system, freq)

    def stop(self) -> None:
        """Disarm the defense (the last fixed point remains)."""
        self._task.stop()


class BusyUncoreDefense:
    """Pin the uncore at freq_max with a background stressing thread.

    "One can use a background thread that is always stressing the
    uncore to make it stay at freq_max" (Section 6.1).  One far-slice
    traffic loop suffices: its interconnect demand alone targets the
    maximum frequency (Figure 3, 3-hop row).
    """

    def __init__(self, system: System, *, socket_id: int = 0,
                 core_id: int | None = None) -> None:
        self.system = system
        socket = system.socket(socket_id)
        if core_id is None:
            free = [c.core_id for c in socket.cores if c.owner is None]
            if not free:
                raise DefenseError("no free core for the busy thread")
            core_id = free[-1]
        self.thread = TrafficLoop("busy-uncore-defense", hops=3)
        system.launch(self.thread, socket_id, core_id)

    def stop(self) -> None:
        """Terminate the background thread."""
        self.system.terminate(self.thread)
