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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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

    def window_classes(self, starts: Sequence[int], ends: Sequence[int],
                       ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Class each window ``[starts[k], ends[k])`` by what
        :meth:`walk_windows` integrates in it.

        Returns one class id per window, numbered in order of first
        appearance, and each class's first window (its representative),
        in that order.  Two windows share a class only if they are
        equally long and meet the same sequence of profile objects over
        the same clipped segment widths: the walk then does the same
        float operations on the same operands for both, so the
        representative's :class:`WindowStats` is every member's, bit for
        bit.  A window whose every segment is silent gets ``-1`` and no
        class (it folds to zeros; compare :meth:`silent_since`).
        """
        t0 = np.asarray(starts, dtype=np.int64)
        t1 = np.asarray(ends, dtype=np.int64)
        empty = np.flatnonzero(t1 <= t0)
        if empty.size:
            k = empty[0]
            raise SimulationError(f"empty window [{t0[k]}, {t1[k]})")
        times = np.array(self._times, dtype=np.int64)
        # Segments ``first .. stop - 1`` meet each window; one opening
        # before the first change starts on the first profile, as in
        # the walk.
        first = np.maximum(np.searchsorted(times, t0, "right") - 1, 0)
        stop = np.searchsorted(times, t1, "left")
        louder = np.zeros(len(times) + 1, dtype=np.int64)
        np.cumsum(np.array(self._loud), out=louder[1:])
        heard = np.flatnonzero(louder[stop] > louder[first])
        classes = np.full(len(t0), -1, dtype=np.int64)
        if not heard.size:
            return classes, []
        t0 = t0[heard]
        t1 = t1[heard]
        first = first[heard]
        stop = stop[heard]
        segment = first[:, None] + np.arange(int((stop - first).max()))
        outside = segment >= stop[:, None]
        np.minimum(segment, len(times) - 1, out=segment)
        following = np.append(times[1:], np.iinfo(np.int64).max)
        widths = (np.minimum(following[segment], t1[:, None])
                  - np.maximum(times[segment], t0[:, None]))
        widths[outside] = 0  # padding: a segment met is never empty
        # Profiles by identity: the same object, the same operands.
        profiles = np.fromiter(map(id, self._profiles), np.uint64,
                               len(times)).view(np.int64)[segment]
        profiles[outside] = 0
        rows = np.concatenate(((t1 - t0)[:, None], profiles, widths),
                              axis=1)
        # One bytes key per row: equal bytes, equal integers.
        keys = rows.view(np.dtype((np.void, rows.itemsize
                                   * rows.shape[1]))).ravel().tolist()
        known: dict[bytes, int] = {}
        ids: list[int] = []
        representatives: list[tuple[int, int]] = []
        for key, window in zip(keys, zip(t0.tolist(), t1.tolist())):
            cls = known.get(key)
            if cls is None:
                cls = known[key] = len(representatives)
                representatives.append(window)
            ids.append(cls)
        classes[heard] = ids
        return classes, representatives


def _loud(profile: ActivityProfile) -> bool:
    """Not silent: active, or issuing LLC traffic.  A silent profile
    (inactive, no LLC traffic) folds to zeros in every window."""
    return profile.active or profile.llc_rate_per_us != 0
