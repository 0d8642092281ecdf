"""CPU layer: activity timelines, cores, MSRs."""

import bisect
import math
import random

import numpy as np
import pytest

from repro.cpu import (
    ActivityProfile,
    Core,
    IDLE,
    MSR_UCLK_FIXED_CTR,
    MSR_UNCORE_RATIO_LIMIT,
    MsrFile,
    ProfileTimeline,
    decode_uncore_ratio_limit,
    encode_uncore_ratio_limit,
)
from repro.cpu.activity import window_classes
from repro.errors import (
    PlacementError,
    PrivilegeError,
    SimulationError,
)
from repro.workloads.loops import stalling_profile, traffic_profile


class TestActivityProfile:
    def test_idle_constant(self):
        assert not IDLE.active
        assert IDLE.llc_rate_per_us == 0.0

    def test_noc_score_is_hops_squared_weighted(self):
        profile = ActivityProfile(active=True, llc_rate_per_us=100.0,
                                  mean_hops=3.0)
        assert profile.noc_score == pytest.approx(900.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(SimulationError):
            ActivityProfile(llc_rate_per_us=-1.0)

    def test_rejects_bad_stall_ratio(self):
        with pytest.raises(SimulationError):
            ActivityProfile(stall_ratio=1.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_loud_iff_active_or_llc_traffic(self, seed):
        # Silent means inactive with no LLC traffic, whatever else the
        # profile does (private-cache traffic, hops, stall, power).
        rng = random.Random(seed)
        silent = 0
        for _ in range(200):
            profile = ActivityProfile(
                active=rng.random() < 0.5,
                llc_rate_per_us=rng.choice((0.0, 0.0, 1e-9, 3.5)),
                mean_hops=rng.choice((0.0, 2.0)),
                stall_ratio=rng.choice((0.0, 0.77, 1.0)),
                l2_rate_per_us=rng.choice((0.0, 50.0)),
                power_weight=rng.choice((0.0, 1.0)),
            )
            reference = profile.active or profile.llc_rate_per_us != 0
            assert profile.loud is reference
            assert vars(profile)["loud"] is reference  # cached
            silent += not reference
        assert silent
        assert not IDLE.loud and not ActivityProfile().loud
        assert not ActivityProfile(l2_rate_per_us=9.0, mean_hops=3.0,
                                   stall_ratio=0.5, power_weight=1.0).loud
        assert ActivityProfile(llc_rate_per_us=5.0).loud
        assert stalling_profile().loud and traffic_profile(hops=2).loud


class TestProfileTimeline:
    def test_initial_profile_is_idle(self):
        timeline = ProfileTimeline()
        assert timeline.profile_at(0) == IDLE
        assert timeline.profile_at(10**9) == IDLE

    def test_profile_at_respects_changes(self):
        timeline = ProfileTimeline()
        busy = ActivityProfile(active=True)
        timeline.set_profile(100, busy)
        assert timeline.profile_at(99) == IDLE
        assert timeline.profile_at(100) == busy

    def test_non_monotone_change_rejected(self):
        timeline = ProfileTimeline()
        timeline.set_profile(100, IDLE)
        with pytest.raises(SimulationError):
            timeline.set_profile(50, IDLE)

    def test_same_time_overwrites(self):
        timeline = ProfileTimeline()
        a = ActivityProfile(active=True, llc_rate_per_us=10.0)
        b = ActivityProfile(active=True, llc_rate_per_us=20.0)
        timeline.set_profile(100, a)
        timeline.set_profile(100, b)
        assert timeline.profile_at(100) == b

    def test_window_average_exact_half(self):
        timeline = ProfileTimeline()
        timeline.set_profile(
            500, ActivityProfile(active=True, llc_rate_per_us=100.0)
        )
        stats = timeline.window_stats(0, 1000)
        assert stats.llc_rate_per_us == pytest.approx(50.0)
        assert stats.active_fraction == pytest.approx(0.5)

    def test_stall_ratio_weighted_over_active_time_only(self):
        timeline = ProfileTimeline()
        timeline.set_profile(
            0, ActivityProfile(active=True, stall_ratio=0.8)
        )
        timeline.set_profile(250, IDLE)
        stats = timeline.window_stats(0, 1000)
        # Active 25% of the window, but stalled 0.8 of *active* time.
        assert stats.stall_ratio == pytest.approx(0.8)
        assert stats.active_fraction == pytest.approx(0.25)

    def test_window_of_three_segments(self):
        timeline = ProfileTimeline()
        timeline.set_profile(
            100, ActivityProfile(active=True, llc_rate_per_us=10.0)
        )
        timeline.set_profile(
            200, ActivityProfile(active=True, llc_rate_per_us=30.0)
        )
        stats = timeline.window_stats(0, 300)
        assert stats.llc_rate_per_us == pytest.approx(
            (0 + 10 + 30) / 3.0
        )

    def test_empty_window_rejected(self):
        with pytest.raises(SimulationError):
            ProfileTimeline().window_stats(10, 10)

    def test_is_active_majority_rule(self):
        timeline = ProfileTimeline()
        timeline.set_profile(400, ActivityProfile(active=True))
        assert timeline.window_stats(0, 1000).is_active     # 60 %
        assert not timeline.window_stats(0, 790).is_active  # 49.4 %

    def test_stalling_loop_stall_ratio(self):
        # Section 3.2's stalls_mem_any / cycles for the stalling loop.
        timeline = ProfileTimeline()
        timeline.set_profile(0, stalling_profile())
        stats = timeline.window_stats(0, 10**7)
        assert stats.stall_ratio == pytest.approx(0.77)

    def test_traffic_loop_stall_ratio(self):
        timeline = ProfileTimeline()
        timeline.set_profile(0, traffic_profile(hops=0))
        stats = timeline.window_stats(0, 10**7)
        assert stats.stall_ratio == pytest.approx(0.30)

    def test_idle_window_is_all_zero(self):
        stats = ProfileTimeline().window_stats(0, 10**6)
        assert stats == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert not stats.is_active


class TestSilentSince:
    def test_fresh_timeline_is_silent(self):
        assert ProfileTimeline().silent_since(0)

    def test_idle_and_default_profile_are_silent(self):
        for idle in (IDLE, ActivityProfile()):
            timeline = ProfileTimeline()
            timeline.set_profile(100, ActivityProfile(active=True))
            timeline.set_profile(200, idle)
            assert timeline.silent_since(200)
            assert timeline.silent_since(10**9)

    def test_change_after_window_start_is_not_silent(self):
        timeline = ProfileTimeline()
        timeline.set_profile(100, ActivityProfile(active=True))
        timeline.set_profile(200, IDLE)
        assert not timeline.silent_since(199)

    def test_change_exactly_at_window_start_counts(self):
        timeline = ProfileTimeline()
        timeline.set_profile(200, IDLE)
        assert timeline.silent_since(200)
        assert not timeline.silent_since(199)

    def test_active_profile_is_not_silent(self):
        timeline = ProfileTimeline(ActivityProfile(active=True))
        assert not timeline.silent_since(10**9)

    def test_inactive_llc_traffic_is_not_silent(self):
        # Idle in C-state terms but still issuing LLC accesses.
        timeline = ProfileTimeline(ActivityProfile(llc_rate_per_us=5.0))
        assert not timeline.silent_since(10**9)
        assert timeline.window_stats(0, 1000).llc_rate_per_us == 5.0

    def test_l2_only_traffic_is_silent(self):
        # Private-cache traffic never reaches the uncore.
        timeline = ProfileTimeline(ActivityProfile(l2_rate_per_us=50.0))
        assert timeline.silent_since(0)


def _reference_window_stats(timeline, t0, t1):
    """The segment walk ``window_stats`` must reproduce bit for bit."""
    times, profiles = timeline._times, timeline._profiles
    index = max(bisect.bisect_right(times, t0) - 1, 0)
    total = t1 - t0
    active_time = llc = noc = stall_weighted = l2 = 0.0
    while index < len(times) and times[index] < t1:
        seg_start = max(times[index], t0)
        seg_end = min(times[index + 1] if index + 1 < len(times) else t1,
                      t1)
        if seg_end <= seg_start:
            index += 1
            continue
        weight = seg_end - seg_start
        profile = profiles[index]
        if profile.active:
            active_time += weight
            stall_weighted += profile.stall_ratio * weight
        llc += profile.llc_rate_per_us * weight
        noc += profile.llc_rate_per_us * profile.mean_hops**2 * weight
        l2 += profile.l2_rate_per_us * weight
        index += 1
    stall = stall_weighted / active_time if active_time else 0.0
    return (active_time / total, llc / total, noc / total, stall,
            l2 / total)


def _reference_window_key(timeline, t0, t1):
    """What the walk integrates over ``[t0, t1)``: the window length and,
    per segment in walk order, its profile object and clipped width;
    ``None`` when every segment is silent."""
    times, profiles = timeline._times, timeline._profiles
    index = max(bisect.bisect_right(times, t0) - 1, 0)
    segments = []
    while index < len(times) and times[index] < t1:
        following = times[index + 1] if index + 1 < len(times) else t1
        segments.append((profiles[index],
                         min(following, t1) - max(times[index], t0)))
        index += 1
    if all(not p.active and p.llc_rate_per_us == 0 for p, _ in segments):
        return None
    return (t1 - t0,) + tuple((id(p), width) for p, width in segments)


def _reference_loud_spans(timeline):
    """``[start, end)`` spans over which a loud profile is in force."""
    spans, start = [], None
    for time_ns, profile in zip(timeline._times, timeline._profiles):
        loud = profile.active or profile.llc_rate_per_us != 0
        if loud and start is None:
            start = time_ns
        elif not loud and start is not None:
            spans.append((start, time_ns))
            start = None
    if start is not None:
        spans.append((start, math.inf))
    return spans


def _bits(stats):
    """Every float of a :class:`WindowStats`, bit for bit."""
    return tuple(float(value).hex() for value in stats)


def _random_timeline(rng):
    profiles = [
        IDLE,
        ActivityProfile(l2_rate_per_us=7.0),
        ActivityProfile(active=True, stall_ratio=0.4),
        ActivityProfile(llc_rate_per_us=3.3, mean_hops=2.0),
        ActivityProfile(active=True, llc_rate_per_us=0.7, mean_hops=1.5,
                        stall_ratio=0.9, l2_rate_per_us=2.0),
    ]
    timeline = ProfileTimeline(rng.choice(profiles))
    now = 0
    for _ in range(rng.randint(0, 12)):
        now += rng.choice((0, 1, 3, 700, 2500))
        timeline.set_profile(now, rng.choice(profiles))
    return timeline, now


class TestWindowIntegrals:
    @pytest.mark.parametrize("seed", range(4))
    def test_window_stats_matches_segment_walk(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            timeline, end = _random_timeline(rng)
            t0 = rng.randint(-50, end + 50)
            t1 = t0 + rng.randint(1, 4000)
            assert timeline.window_stats(t0, t1) == \
                _reference_window_stats(timeline, t0, t1)

    @pytest.mark.parametrize("seed", range(4))
    def test_silent_iff_no_loud_span_overlaps(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            timeline, end = _random_timeline(rng)
            t0 = rng.randint(0, end + 50)
            t1 = t0 + rng.randint(1, 4000)
            in_force = {timeline.profile_at(t0)} | {
                profile for time, profile in
                zip(timeline._times, timeline._profiles) if t0 < time < t1
            }
            silent = all(not p.active and p.llc_rate_per_us == 0
                         for p in in_force)
            assert _heard(timeline, t0, t1) == (not silent)
            if silent:  # folds to exact zeros (L2 traffic is not read)
                stats = timeline.window_stats(t0, t1)
                assert stats[:4] == (0.0, 0.0, 0.0, 0.0)

    def test_window_classes_hear_only_loud_profiles(self):
        timeline = ProfileTimeline()
        timeline.set_profile(500, ActivityProfile(active=True))
        timeline.set_profile(550, ActivityProfile(llc_rate_per_us=2.0))
        timeline.set_profile(600, IDLE)
        timeline.set_profile(650, ActivityProfile(l2_rate_per_us=9.0))
        timeline.set_profile(900, ActivityProfile(active=True))
        assert not _heard(timeline, 0, 500)
        assert _heard(timeline, 0, 501)
        assert _heard(timeline, 599, 700)
        assert not _heard(timeline, 600, 900)  # L2 traffic is silent
        assert not _heard(timeline, 899, 900)
        assert _heard(timeline, 899, 901)
        assert _heard(timeline, 5000, 6000)  # the last profile holds

    def test_same_time_overwrite_updates_silence(self):
        timeline = ProfileTimeline()
        timeline.set_profile(100, ActivityProfile(active=True))
        timeline.set_profile(100, IDLE)
        assert not _heard(timeline, 0, 1000)
        assert timeline.silent_since(100)


class TestWalkWindows:
    @pytest.mark.parametrize("seed", range(4))
    def test_walk_equals_segment_walk(self, seed):
        # Ordered windows, as the lattice asks for them: some open
        # before the first change (or before 0), some start on a change
        # point, some meet two loud spans; they may also overlap.
        rng = random.Random(seed)
        seen = {"before first": 0, "on change": 0, "two spans": 0}
        for _ in range(200):
            timeline, _ = _random_timeline(rng)
            changes = timeline._times
            t0 = rng.randint(-50, 50)
            windows = []
            for _ in range(rng.randint(1, 12)):
                t1 = t0 + rng.choice((1, 2, 300, 900, 2600, 6000))
                windows.append((t0, t1))
                seen["before first"] += len(changes) > 1 and t0 < changes[1]
                seen["on change"] += t0 in changes[1:]
                seen["two spans"] += sum(
                    start < t1 and stop > t0
                    for start, stop in _reference_loud_spans(timeline)) >= 2
                change = rng.choice(changes)
                if change < t0 or rng.random() < 0.5:
                    t0 += rng.choice((0, 1, 300, 900, 2600))
                else:
                    t0 = change
            assert timeline.walk_windows(windows) == [
                _reference_window_stats(timeline, t0, t1)
                for t0, t1 in windows
            ]
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(2))
    def test_unordered_windows_reseek(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            timeline, end = _random_timeline(rng)
            windows = []
            for _ in range(rng.randint(1, 8)):
                t0 = rng.randint(-50, end + 50)
                windows.append((t0, t0 + rng.randint(1, 4000)))
            assert timeline.walk_windows(windows) == [
                _reference_window_stats(timeline, t0, t1)
                for t0, t1 in windows
            ]


def _windows_on(rng, timeline, end):
    """Windows on a coarse grid with few lengths, so classes repeat; some
    open before the first change (or before 0), some end before 0."""
    grid = (-700, -3, 0, 1, 700, 1400, 2500, end - 700, end, end + 700)
    starts = sorted(rng.choice(grid) for _ in range(rng.randint(0, 12)))
    # Ends on the grid too, so windows opening at different times before
    # 0 can meet the same segments.
    return [(t0, t0 + rng.choice((1, 3, 700, 2500))
             if rng.random() < 0.5 or t0 >= max(grid)
             else rng.choice([t for t in grid if t > t0]))
            for t0 in starts]


class TestWindowClasses:
    @pytest.mark.parametrize("seed", range(4))
    def test_class_members_integrate_like_their_class(self, seed,
                                                      monkeypatch):
        # Several timelines classed in one pass; some share profile
        # objects and histories (so classes span timelines), some do
        # not.  A class is exactly a set of windows the walk integrates
        # over the same operands, on whichever timeline, and its stats
        # are each member's, bit for bit; each class is walked once.
        walk = ProfileTimeline.walk_windows
        walked = []

        def counted_walk(timeline, windows):
            windows = list(windows)
            walked.extend(windows)
            return walk(timeline, windows)

        rng = random.Random(seed)
        seen = {"shared": 0, "across timelines": 0, "silent": 0,
                "before first": 0, "before zero": 0,
                "same segments, other length": 0}
        for _ in range(150):
            built = [_random_timeline(rng) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.4:  # a replica: same objects, same times
                timeline, end = built[0]
                replica = ProfileTimeline(timeline._profiles[0])
                replica.extend(zip(timeline._times[1:],
                                   timeline._profiles[1:]))
                built.append((replica, end))
            timelines = [timeline for timeline, _ in built]
            lanes, windows = [], []
            for lane, (timeline, end) in enumerate(built):
                for window in _windows_on(rng, timeline, end):
                    lanes.append(lane)
                    windows.append(window)
            walked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ProfileTimeline, "walk_windows", counted_walk)
                patch.setattr(ProfileTimeline, "window_stats", None)
                classes, stats = window_classes(
                    timelines, lanes, [t0 for t0, _ in windows],
                    [t1 for _, t1 in windows])
            assert classes.dtype.kind == "i" and len(classes) == len(lanes)
            keys = [_reference_window_key(timelines[lane], t0, t1)
                    for lane, (t0, t1) in zip(lanes, windows)]
            members = {}
            for cls, key, lane, window in zip(classes.tolist(), keys, lanes,
                                              windows):
                assert (cls == -1) == (key is None)
                if cls == -1:
                    seen["silent"] += 1
                    continue
                members.setdefault(cls, []).append((key, lane, window))
            # Numbered by first appearance, one per distinct key, each
            # walked once: its first window, on its own timeline.
            assert list(members) == list(range(len(stats)))
            assert len({key for key in keys if key is not None}) == \
                len(stats)
            assert sorted(walked) == sorted(
                windows[0][2] for windows in members.values())
            for cls, owned in members.items():
                for key, lane, (t0, t1) in owned:
                    assert key == owned[0][0]
                    assert _bits(timelines[lane].window_stats(t0, t1)) == \
                        _bits(stats[cls])
                seen["shared"] += len(owned) > 1
                seen["across timelines"] += len({m[1] for m in owned}) > 1
            seen["before first"] += any(
                len(timelines[lane]._times) > 1
                and t0 < timelines[lane]._times[1]
                for lane, (t0, _) in zip(lanes, windows))
            seen["before zero"] += any(t1 <= 0 for _, t1 in windows)
            seen["same segments, other length"] += any(
                a[1:] == b[1:] and a[0] != b[0]
                for a in keys if a for b in keys if b)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(2))
    def test_one_timeline_equals_its_lane_of_many(self, seed):
        # Classing a timeline alone or beside others hears the same
        # windows and gives the same stats.
        rng = random.Random(seed)
        for _ in range(100):
            built = [_random_timeline(rng) for _ in range(3)]
            per_lane = [_windows_on(rng, timeline, end)
                        for timeline, end in built]
            lanes = [lane for lane, windows in enumerate(per_lane)
                     for _ in windows]
            flat = [window for windows in per_lane for window in windows]
            together, stats = window_classes(
                [timeline for timeline, _ in built], lanes,
                [t0 for t0, _ in flat], [t1 for _, t1 in flat])
            offset = 0
            for (timeline, _), windows in zip(built, per_lane):
                alone, alone_stats = window_classes(
                    [timeline], [0] * len(windows),
                    [t0 for t0, _ in windows], [t1 for _, t1 in windows])
                mine = together[offset:offset + len(windows)].tolist()
                offset += len(windows)
                assert [cls >= 0 for cls in alone.tolist()] == \
                    [cls >= 0 for cls in mine]
                assert [_bits(alone_stats[a]) for a in alone.tolist()
                        if a >= 0] == \
                    [_bits(stats[m]) for m in mine if m >= 0]

    def test_empty_window_raises(self):
        timeline = ProfileTimeline(ActivityProfile(active=True))
        with pytest.raises(SimulationError):
            window_classes([timeline], [0, 0], [0, 5], [10, 5])

    def test_no_windows(self):
        classes, stats = window_classes([ProfileTimeline()], [], [], [])
        assert classes.tolist() == [] and stats == []

    def test_distinct_rows_by_first_appearance(self):
        from repro.cpu.activity import distinct_rows

        rows = np.array([[3, 1], [0, 0], [3, 1], [-2, 7], [0, 0], [3, 2]])
        numbers, firsts = distinct_rows(rows)
        assert numbers.tolist() == [0, 1, 0, 2, 1, 3]
        assert firsts.tolist() == [0, 1, 3, 5]
        # Full-range columns need a word each; constant ones none.
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        rows = np.array([[low, 5, high], [high, 5, low], [low, 5, high],
                         [low, 5, low]])
        numbers, firsts = distinct_rows(rows)
        assert numbers.tolist() == [0, 1, 0, 2]
        assert firsts.tolist() == [0, 1, 3]
        numbers, firsts = distinct_rows(np.zeros((3, 2), dtype=np.int64))
        assert numbers.tolist() == [0, 0, 0] and firsts.tolist() == [0]

    @pytest.mark.parametrize("seed", range(20))
    def test_distinct_rows_match_a_dict_of_tuples(self, seed):
        from repro.cpu.activity import distinct_rows

        rng = np.random.default_rng(seed)
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        # Narrow, wide and constant columns, so rows pack into one
        # word or several.
        columns = []
        for _ in range(int(rng.integers(1, 12))):
            kind = rng.integers(4)
            if kind == 0:
                column = np.full(40, int(rng.integers(-5, 5)))
            elif kind == 1:
                column = rng.integers(0, 3, 40)
            elif kind == 2:
                column = rng.integers(-1000, 1000, 40)
            else:
                column = rng.choice([low, high, 0], 40)
            columns.append(column)
        rows = np.stack(columns, axis=1).astype(np.int64)
        rows = rows[rng.integers(0, len(rows), 60)]  # repeat some rows
        seen = {}
        expected = [seen.setdefault(tuple(row), len(seen))
                    for row in rows.tolist()]
        numbers, firsts = distinct_rows(rows)
        assert numbers.tolist() == expected
        assert firsts.tolist() == [expected.index(number)
                                   for number in range(len(seen))]


def _state(timeline):
    return timeline._times, timeline._profiles


def _reference_history(initial, changes):
    """The history a run of profile writes must leave, and whether the
    run raised: a write at the last change's time replaces it, and one
    before it stops the run."""
    times, profiles = [0], [initial]
    raised = False
    for time_ns, profile in changes:
        if time_ns < times[-1]:
            raised = True
            break
        if time_ns == times[-1]:
            profiles[-1] = profile
        else:
            times.append(time_ns)
            profiles.append(profile)
    return (times, profiles), raised


class TestExtend:
    @pytest.mark.parametrize("seed", range(4))
    def test_extend_equals_set_profile_loop(self, seed):
        # Repeated times overwrite the last change; a change before the
        # last one raises after the changes before it are applied.
        profiles = [IDLE, ActivityProfile(active=True),
                    ActivityProfile(llc_rate_per_us=2.0),
                    ActivityProfile(l2_rate_per_us=4.0)]
        rng = random.Random(seed)
        overwrites = errors = 0
        for _ in range(200):
            initial = rng.choice(profiles)
            now = rng.choice((0, 0, 40))
            changes = []
            for _ in range(rng.randint(0, 10)):
                now += rng.choice((0, 0, 5, 60, -5 if rng.random() < 0.05
                                   else 9))
                changes.append((now, rng.choice(profiles)))
            expected, raised = _reference_history(initial, changes)
            looped = ProfileTimeline(initial)
            extended = ProfileTimeline(initial)
            if raised:
                errors += 1
                with pytest.raises(SimulationError):
                    for time_ns, profile in changes:
                        looped.set_profile(time_ns, profile)
                with pytest.raises(SimulationError):
                    extended.extend(changes)
            else:
                for time_ns, profile in changes:
                    looped.set_profile(time_ns, profile)
                extended.extend(iter(changes))
            assert _state(extended) == _state(looped) == expected
            overwrites += len(expected[0]) - 1 < len(changes)
        assert overwrites and errors


def _heard(timeline, t0, t1):
    """Whether ``[t0, t1)`` meets a loud profile (has a window class)."""
    classes, _ = window_classes([timeline], [0], [t0], [t1])
    return bool(classes[0] >= 0)


class TestCore:
    def _core(self) -> Core:
        return Core(core_id=0, socket_id=0, tile=(0, 1),
                    base_freq_mhz=2600)

    def test_claim_is_exclusive(self):
        core = self._core()
        core.claim("alice")
        with pytest.raises(PlacementError):
            core.claim("bob")

    def test_release_allows_reclaim(self):
        core = self._core()
        core.claim("alice")
        core.release(100)
        core.claim("bob")
        assert core.owner == "bob"

    def test_c_state_deepens_with_idle_time(self):
        core = self._core()
        latencies = (0, 2_000, 20_000, 100_000)
        core.set_profile(0, ActivityProfile(active=True))
        core.set_profile(1_000, IDLE)
        assert core.c_state(2_000, latencies) == 0 or True  # still shallow
        assert core.c_state(1_000 + 25_000, latencies) == 1
        assert core.c_state(1_000 + 300_000, latencies) == 2
        assert core.c_state(1_000 + 2_000_000, latencies) == 3

    def test_redundant_idle_write_keeps_idle_clock(self):
        # Idle since t=0: a second IDLE write at 50 ms must not restart
        # the C-state descent.
        core = self._core()
        core.set_profile(50_000_000, IDLE)
        assert core.c_state(50_001_000, (0, 2_000, 20_000, 100_000)) == 3

    def test_same_time_overwrite_to_idle_restarts_clock(self):
        core = self._core()
        latencies = (0, 2_000, 20_000, 100_000)
        core.set_profile(50_000_000, ActivityProfile(active=True))
        core.set_profile(50_000_000, IDLE)
        assert core.c_state(50_001_000, latencies) == 0

    def test_active_core_in_c0(self):
        core = self._core()
        core.set_profile(0, ActivityProfile(active=True))
        assert core.c_state(10**9, (0, 2_000)) == 0


class TestMsr:
    def test_ratio_limit_round_trip(self):
        value = encode_uncore_ratio_limit(1200, 2400)
        assert decode_uncore_ratio_limit(value) == (1200, 2400)

    def test_ratio_limit_layout_matches_figure1(self):
        # Bits 0-6 max ratio, bits 8-14 min ratio (Figure 1).
        value = encode_uncore_ratio_limit(1500, 1700)
        assert value & 0x7F == 17
        assert (value >> 8) & 0x7F == 15

    def test_non_multiple_of_100_rejected(self):
        with pytest.raises(SimulationError):
            encode_uncore_ratio_limit(1250, 2400)

    def test_unprivileged_read_denied(self):
        msr = MsrFile(0)
        msr.write(MSR_UNCORE_RATIO_LIMIT, 0, privileged=True)
        with pytest.raises(PrivilegeError):
            msr.read(MSR_UNCORE_RATIO_LIMIT, privileged=False)

    def test_unprivileged_write_denied(self):
        with pytest.raises(PrivilegeError):
            MsrFile(0).write(MSR_UNCORE_RATIO_LIMIT, 0,
                             privileged=False)

    def test_provider_backs_dynamic_register(self):
        msr = MsrFile(0)
        counter = {"value": 7}
        msr.register_provider(MSR_UCLK_FIXED_CTR,
                              lambda: counter["value"])
        assert msr.read(MSR_UCLK_FIXED_CTR, privileged=True) == 7
        counter["value"] = 9
        assert msr.read(MSR_UCLK_FIXED_CTR, privileged=True) == 9

    def test_write_listener_fires(self):
        msr = MsrFile(0)
        seen = []
        msr.add_write_listener(MSR_UNCORE_RATIO_LIMIT, seen.append)
        msr.write(MSR_UNCORE_RATIO_LIMIT, 0x0F18, privileged=True)
        assert seen == [0x0F18]

    def test_unimplemented_msr_raises(self):
        with pytest.raises(SimulationError):
            MsrFile(0).read(0x999, privileged=True)


class TestTurboPStates:
    def test_turbo_core_pins_uncore_at_max(self, solo_system):
        core = solo_system.socket(0).core(0)
        core.claim("turbo")
        core.set_p_state(3200)
        from repro.cpu.activity import ActivityProfile

        core.set_profile(solo_system.now, ActivityProfile(active=True))
        solo_system.run_ms(150)
        # Section 2.2.1: any core above base -> UFS disabled, uncore
        # at the window maximum.
        assert solo_system.uncore_frequency_mhz(0) == 2400

    def test_idle_turbo_core_does_not_pin(self, solo_system):
        core = solo_system.socket(0).core(0)
        core.claim("turbo")
        core.set_p_state(3200)  # turbo P-state but never active
        solo_system.run_ms(100)
        assert solo_system.uncore_frequency_mhz(0) <= 1500

    def test_p_state_validation(self, solo_system):
        core = solo_system.socket(0).core(0)
        with pytest.raises(PlacementError):
            core.set_p_state(2650)
        with pytest.raises(PlacementError):
            core.set_p_state(0)

    def test_above_base_flag(self, solo_system):
        core = solo_system.socket(0).core(0)
        assert not core.above_base
        core.set_p_state(2700)
        assert core.above_base
