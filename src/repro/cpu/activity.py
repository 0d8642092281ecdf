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
from itertools import chain
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

    @cached_property
    def loud(self) -> bool:
        """Not silent: active, or issuing LLC traffic.  A silent profile
        (inactive, no LLC traffic) integrates to zero active time, LLC
        rate, NoC score and stall ratio in every window, so the PMU fold
        may leave it out."""
        return self.active or self.llc_rate_per_us != 0


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
        last = times[-1]
        for time_ns, profile in changes:
            if time_ns > last:
                times.append(time_ns)
                profiles.append(profile)
                last = time_ns
            elif time_ns == last:
                profiles[-1] = profile
            else:
                raise SimulationError(
                    f"profile change at {time_ns} ns precedes the last "
                    f"change at {last} ns"
                )

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
        return self._times[-1] <= t0 and not self._profiles[-1].loud

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


def window_classes(timelines: Sequence[ProfileTimeline],
                   lanes: Sequence[int], starts: Sequence[int],
                   ends: Sequence[int],
                   ) -> tuple[np.ndarray, list[WindowStats]]:
    """Class each window ``[starts[k], ends[k])`` of
    ``timelines[lanes[k]]`` by what :meth:`ProfileTimeline.walk_windows`
    integrates in it, and integrate each class once.

    Returns one class id per window, numbered in order of first
    appearance, and each class's :class:`WindowStats`, in that order.
    Two windows share a class only if they are equally long and meet
    the same sequence of profile objects over the same clipped segment
    widths, on the same timeline or not: the walk then does the same
    float operations on the same operands for both, so the class's
    first window (its representative), walked on its own timeline,
    gives every member's stats bit for bit.  A window whose every
    segment is silent gets ``-1`` and no class (it folds to zeros;
    compare :meth:`ProfileTimeline.silent_since`).

    All timelines are classed in one pass over their concatenated
    histories; the representatives of each timeline are integrated in
    one :meth:`~ProfileTimeline.walk_windows`.
    """
    lane = np.asarray(lanes, dtype=np.int64)
    t0 = np.asarray(starts, dtype=np.int64)
    t1 = np.asarray(ends, dtype=np.int64)
    empty = np.flatnonzero(t1 <= t0)
    if empty.size:
        k = empty[0]
        raise SimulationError(f"empty window [{t0[k]}, {t1[k]})")
    classes = np.full(len(t0), -1, dtype=np.int64)
    if not len(t0):
        return classes, []
    sizes = [len(timeline._times) for timeline in timelines]
    offsets = np.zeros(len(timelines) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    count = int(offsets[-1])
    times = np.fromiter(chain.from_iterable(
        timeline._times for timeline in timelines), np.int64, count)
    profiles = list(chain.from_iterable(
        timeline._profiles for timeline in timelines))
    # One sorted key per (timeline, time): each timeline's keys sit in
    # their own span, so one search finds every window's segments.
    # Segments ``first .. stop - 1`` meet each window; one opening
    # before the first change starts on the first profile, as in the
    # walk.
    low = min(int(t0.min()), 0)
    span = max(int(times.max()), int(t1.max())) - low + 1
    if span * len(timelines) >= 2**62:
        raise SimulationError("window times overflow the lane keys")
    keys = np.repeat(np.arange(len(timelines), dtype=np.int64) * span,
                     sizes) + (times - low)
    base = lane * span - low
    first = np.maximum(np.searchsorted(keys, base + t0, "right") - 1,
                       offsets[lane])
    stop = np.searchsorted(keys, base + t1, "left")
    # Profiles by identity: the same object, the same operands.
    ids = np.fromiter(map(id, profiles), np.uint64, count).view(np.int64)
    _, seen, instance = np.unique(ids, return_index=True,
                                  return_inverse=True)
    louder = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.array([profiles[k].loud for k in seen.tolist()],
                       dtype=bool)[instance], out=louder[1:])
    heard = np.flatnonzero(louder[stop] > louder[first])
    if not heard.size:
        return classes, []
    t0 = t0[heard]
    t1 = t1[heard]
    first = first[heard]
    stop = stop[heard]
    segment = first[:, None] + np.arange(int((stop - first).max()))
    outside = segment >= stop[:, None]
    np.minimum(segment, count - 1, out=segment)
    following = np.empty(count, dtype=np.int64)
    following[:-1] = times[1:]
    following[offsets[1:] - 1] = np.iinfo(np.int64).max  # each last
    widths = (np.minimum(following[segment], t1[:, None])
              - np.maximum(times[segment], t0[:, None]))
    widths[outside] = 0  # padding: a segment met is never empty
    met = instance[segment]  # profiles by identity, numbered densely
    met[outside] = 0
    numbers, representatives = distinct_rows(
        np.concatenate(((t1 - t0)[:, None], met, widths), axis=1))
    classes[heard] = numbers
    # Each timeline walks its representatives in one forward pass.
    members: dict[int, list[int]] = {}
    for cls, owner in enumerate(lane[heard[representatives]].tolist()):
        members.setdefault(owner, []).append(cls)
    stats: list[WindowStats | None] = [None] * len(representatives)
    rep_t0 = t0[representatives].tolist()
    rep_t1 = t1[representatives].tolist()
    for owner, owned in members.items():
        walked = timelines[owner].walk_windows(
            [(rep_t0[cls], rep_t1[cls]) for cls in owned])
        for cls, result in zip(owned, walked):
            stats[cls] = result
    return classes, stats


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a 2-D integer array in order of first
    appearance: returns each row's number and each number's first row.

    Each column, less its minimum, is packed into as few 64-bit words as
    its range needs, so equal rows and only equal rows get equal words.
    One :func:`numpy.unique` then keys each row by its word, or by one
    void of its words when it needs more than one.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    packed: list[np.ndarray] = []
    used = 64
    for column in rows.T:
        # Offsets from the minimum, exact modulo 2**64.
        column = (column.astype(np.uint64)
                  - np.uint64(int(column.min()) % 2**64))
        bits = int(column.max()).bit_length()
        if not bits:
            continue  # a constant column tells no rows apart
        if used + bits > 64:
            packed.append(column)
            used = bits
        else:
            packed[-1] |= column << np.uint64(used)
            used += bits
    if len(packed) == 1:
        keys = packed[0]
    else:
        words = np.stack(packed or [np.zeros(len(rows), np.uint64)],
                         axis=1)
        keys = words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel()
    _, firsts, inverse = np.unique(keys, return_index=True,
                                   return_inverse=True)
    order = np.argsort(firsts)
    numbers = np.empty_like(order)
    numbers[order] = np.arange(len(order))
    return numbers[inverse.ravel()], firsts[order]
