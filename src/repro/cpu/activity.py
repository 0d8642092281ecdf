"""Activity profiles: the macroscopic description of a running thread.

A profile summarises what a loop does to the uncore per unit time:

* ``llc_rate_per_us`` — LLC accesses issued per microsecond,
* ``mean_hops`` — average core-to-slice mesh distance of those accesses,
* ``stall_ratio`` — fraction of core cycles stalled on memory
  (the paper's ``cycle_activity.stalls_mem_any / cycles``),
* ``l2_rate_per_us`` — private-cache traffic that never reaches the
  uncore (the "None" row of Figure 3).

A :class:`ProfileTimeline` records piecewise-constant profile changes so
any time window can be integrated *exactly* — no sampling error between
the 10 ms PMU evaluations.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import SimulationError


@dataclass(frozen=True)
class ActivityProfile:
    """Steady-state uncore-relevant behaviour of one thread."""

    active: bool = False
    llc_rate_per_us: float = 0.0
    mean_hops: float = 0.0
    stall_ratio: float = 0.0
    l2_rate_per_us: float = 0.0
    #: Relative draw on the socket's shared voltage regulator (0..1);
    #: power-virus loops set this to 1.  Feeds the current-management
    #: contention observable the IccCoresCovert baseline exploits.
    power_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.llc_rate_per_us < 0 or self.l2_rate_per_us < 0:
            raise SimulationError("access rates must be non-negative")
        if not 0.0 <= self.stall_ratio <= 1.0:
            raise SimulationError("stall ratio must be in [0, 1]")
        if self.mean_hops < 0:
            raise SimulationError("hop distance must be non-negative")

    @property
    def noc_score(self) -> float:
        """Hop-weighted traffic score ``rate * hops^2``.

        This is the quantity the calibrated demand model thresholds
        against (see :class:`repro.config.DemandModelConfig`).
        """
        return self.llc_rate_per_us * self.mean_hops**2


IDLE = ActivityProfile()


class WindowStats(NamedTuple):
    """Exact integrals of one timeline over a time window."""

    active_fraction: float
    llc_rate_per_us: float
    noc_score: float
    stall_ratio: float
    l2_rate_per_us: float

    @property
    def is_active(self) -> bool:
        """Active for the majority of the window."""
        return self.active_fraction > 0.5


class ProfileTimeline:
    """Piecewise-constant profile history with exact window integrals."""

    def __init__(self, initial: ActivityProfile = IDLE) -> None:
        self._times: list[int] = [0]
        self._profiles: list[ActivityProfile] = [initial]

    def set_profile(self, time_ns: int, profile: ActivityProfile) -> None:
        """Switch to ``profile`` at ``time_ns`` (monotone non-decreasing)."""
        if time_ns < self._times[-1]:
            raise SimulationError(
                f"profile change at {time_ns} ns precedes the last change "
                f"at {self._times[-1]} ns"
            )
        if time_ns == self._times[-1]:
            self._profiles[-1] = profile
            return
        self._times.append(time_ns)
        self._profiles.append(profile)

    def profile_at(self, time_ns: int) -> ActivityProfile:
        """The profile in force at ``time_ns``."""
        index = bisect.bisect_right(self._times, time_ns) - 1
        return self._profiles[max(index, 0)]

    def silent_since(self, t0: int) -> bool:
        """Whether the timeline contributes nothing to the PMU from ``t0``.

        True when the last profile change is at or before ``t0`` and
        that profile is inactive with no LLC traffic: any window
        starting at ``t0`` then integrates to zero active time, LLC
        rate, NoC score and stall ratio.
        """
        profile = self._profiles[-1]
        return (self._times[-1] <= t0 and not profile.active
                and profile.llc_rate_per_us == 0)

    def window_stats(self, t0: int, t1: int) -> WindowStats:
        """Exact time-weighted averages over ``[t0, t1)``."""
        if t1 <= t0:
            raise SimulationError(f"empty window [{t0}, {t1})")
        start = max(bisect.bisect_right(self._times, t0) - 1, 0)
        total = t1 - t0
        active_time = 0.0
        llc = 0.0
        noc = 0.0
        stall_weighted = 0.0
        l2 = 0.0
        index = start
        while index < len(self._times) and self._times[index] < t1:
            seg_start = max(self._times[index], t0)
            seg_end = (
                self._times[index + 1]
                if index + 1 < len(self._times)
                else t1
            )
            seg_end = min(seg_end, t1)
            if seg_end <= seg_start:
                index += 1
                continue
            weight = seg_end - seg_start
            profile = self._profiles[index]
            if profile.active:
                active_time += weight
                stall_weighted += profile.stall_ratio * weight
            llc += profile.llc_rate_per_us * weight
            noc += profile.noc_score * weight
            l2 += profile.l2_rate_per_us * weight
            index += 1
        stall_ratio = stall_weighted / active_time if active_time else 0.0
        return WindowStats(active_time / total, llc / total, noc / total,
                           stall_ratio, l2 / total)
