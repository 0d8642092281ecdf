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

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

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

    @cached_property
    def noc_score(self) -> float:
        """Hop-weighted traffic score ``rate * hops^2``.

        This is the quantity the calibrated demand model thresholds
        against (see :class:`repro.config.DemandModelConfig`).  The
        profile is frozen, so it is computed once per profile.
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
        #: per profile: does it fold to anything but zeros (not silent)?
        self._loud: list[bool] = [_loud(initial)]

    def set_profile(self, time_ns: int, profile: ActivityProfile) -> None:
        """Switch to ``profile`` at ``time_ns`` (monotone non-decreasing)."""
        self.extend(((time_ns, profile),))

    def extend(self, changes: Iterable[tuple[int, ActivityProfile]],
               ) -> None:
        """Apply each ``(time_ns, profile)`` switch in turn; histories
        written ahead of time (the batch backend's replica timelines)
        come in one call.

        A switch at the time of the last change overwrites it; one
        before it raises, leaving the switches before it applied.
        """
        times = self._times
        profiles = self._profiles
        loud = self._loud
        last = times[-1]
        for time_ns, profile in changes:
            if time_ns < last:
                raise SimulationError(
                    f"profile change at {time_ns} ns precedes the last "
                    f"change at {last} ns"
                )
            if time_ns == last:
                profiles[-1] = profile
                loud[-1] = _loud(profile)
                continue
            times.append(time_ns)
            profiles.append(profile)
            loud.append(_loud(profile))
            last = time_ns

    def profile_at(self, time_ns: int) -> ActivityProfile:
        """The profile in force at ``time_ns``."""
        index = bisect_right(self._times, time_ns) - 1
        return self._profiles[max(index, 0)]

    def silent_since(self, t0: int) -> bool:
        """Whether the timeline contributes nothing to the PMU from ``t0``.

        True when the last profile change is at or before ``t0`` and
        that profile is silent (inactive with no LLC traffic): any
        window starting at ``t0`` then integrates to zero active time,
        LLC rate, NoC score and stall ratio.
        """
        return self._times[-1] <= t0 and not self._loud[-1]

    def loud_spans(self) -> list[tuple[int, float]]:
        """The ``[start, end)`` spans over which a loud profile is in force.

        The span-wise twin of :meth:`silent_since`, for histories written
        ahead of time (the batch backend's replica timelines): a window
        ``[t0, t1)`` that overlaps no span (``start < t1 and end > t0``)
        integrates to exact zeros.  Adjacent loud profiles share one
        span; a timeline that ends loud ends on an open span (``end`` is
        infinite).
        """
        spans: list[tuple[int, float]] = []
        start = None
        for time_ns, loud in zip(self._times, self._loud):
            if loud and start is None:
                start = time_ns
            elif not loud and start is not None:
                spans.append((start, time_ns))
                start = None
        if start is not None:
            spans.append((start, math.inf))
        return spans

    def window_stats(self, t0: int, t1: int) -> WindowStats:
        """Exact time-weighted averages over ``[t0, t1)``."""
        return self.walk_windows(((t0, t1),))[0]

    def walk_windows(self, windows: Iterable[tuple[int, int]],
                     ) -> list[WindowStats]:
        """Exact time-weighted averages over each ``[t0, t1)`` of
        ``windows``, in order.

        Windows that come in order of their starts (the batch lattice's
        tick windows) are integrated in one forward walk: each seeks
        its first segment from the previous window's.
        """
        times = self._times
        profiles = self._profiles
        count = len(times)
        start = 0  # the segment in force at the previous window's start
        previous = None
        results: list[WindowStats] = []
        for t0, t1 in windows:
            if t1 <= t0:
                raise SimulationError(f"empty window [{t0}, {t1})")
            # ``lo=1`` clamps a window opening before the first change
            # to the first profile.
            lo = start + 1 if previous is not None and t0 >= previous else 1
            start = bisect_right(times, t0, lo) - 1
            previous = t0
            total = t1 - t0
            active_time = 0.0
            llc = 0.0
            noc = 0.0
            stall_weighted = 0.0
            l2 = 0.0
            # Segments from ``start`` on overlap the window while they
            # begin before ``t1``; times are strictly increasing, so
            # each has positive width once clipped.
            seg_start = times[start] if times[start] > t0 else t0
            index = start
            while index < count and times[index] < t1:
                following = index + 1
                if following < count and times[following] < t1:
                    seg_end = times[following]
                else:
                    seg_end = t1
                weight = seg_end - seg_start
                profile = profiles[index]
                if profile.active:
                    active_time += weight
                    stall_weighted += profile.stall_ratio * weight
                llc += profile.llc_rate_per_us * weight
                noc += profile.noc_score * weight
                l2 += profile.l2_rate_per_us * weight
                seg_start = seg_end
                index = following
            stall_ratio = (stall_weighted / active_time if active_time
                           else 0.0)
            results.append(WindowStats(active_time / total, llc / total,
                                       noc / total, stall_ratio,
                                       l2 / total))
        return results


def _loud(profile: ActivityProfile) -> bool:
    """Not silent: active, or issuing LLC traffic.  A silent profile
    (inactive, no LLC traffic) folds to zeros in every window."""
    return profile.active or profile.llc_rate_per_us != 0
