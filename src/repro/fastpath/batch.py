"""The batch backend: whole sweeps without building a System.

The DES spends almost all of a capacity trial constructing and ticking
a full :class:`~repro.platform.system.System` even though, for the
Figure 9/10 and Table 3 workloads, every event time is known up front:
sender and receiver flip activity profiles on the fixed interval grid,
the PMU evaluates every 10 ms, and the frequency never feeds back into
*when* anything happens — only into what the receiver measures.  That
decouples a trial into two phases this module exploits:

**Phase A — the frequency lattice.**  The trials of a group share one
event stream: the per-socket PMU grids (10 ms period, 0.5 ms socket
stagger) and randomized-defense repicks (100 ms, ordered before
colocated ticks exactly as the event queue does).  The replica
:class:`~repro.cpu.activity.ProfileTimeline` histories are written
before the lattice runs, so every tick's observation is folded up front
with the *same* :func:`~repro.power.ufs.accumulate_observation` the PMU
uses, over the touched cores loud in that window only (untouched cores,
and touched cores silent over the whole window, contribute exact
zeros).  Windows repeat, within a trial and across the trials of a
group, so each socket takes one
:func:`~repro.cpu.activity.window_classes` pass over the touched-core
timelines of every trial at once.  It classes every window by the
profile objects and clipped segment widths the walk meets in it, and
integrates one window per class, shared by the group (each timeline's
representatives in one forward walk).  Each distinct row of loud
classes, of any trial, is then folded once, into a fold id shared by
the group.  Each trial then walks the stream on its own up to its
horizon, stepping its socket state through the scalar
:func:`~repro.power.ufs.ufs_control_step` — the same law, over the same
Python ints and floats, the DES PMU evaluates.  The law is pure, so a
step already taken in the group (same state, limits, fold id and
remote frequency) is looked up, not recomputed.  That shared law is
what makes the lattice bit-identical to the DES frequency timeline.

**Phase B — the receiver replay.**  Per trial, a fresh
:class:`~repro.platform.latency.LatencyModel` on the trial's seed
replays the receiver's measurement windows.  A window's statistics draw
from four streams of their own (segment jitter, tail count, tail mass,
window bias; :data:`~repro.platform.latency.WINDOW_STREAMS`), which
nothing else in the trial touches: the probe warm-up and every other
timed load draw from ``latency-noise``.  So the replay first builds the
trial's segment table from the Phase A lattice — each window split at
the receiver socket's PMU ticks, each segment's sample count, frequency
and flows — and then draws each quantity of the whole transmission as
one array (:meth:`~repro.platform.latency.LatencyModel.segment_llc_sums`,
:meth:`~repro.platform.latency.LatencyModel.window_biases`).  Each array
draw equals the scalar draws the DES receiver makes one segment at a
time, in time order, and leaves its stream where they leave it; each
window adds its segment sums in the DES order.  Decoding goes through
the real :func:`~repro.core.protocol.decode_bit` against the real
:func:`~repro.core.protocol.calibrate_endpoints`.

Supported shapes are exactly the ``measure_capacity`` /
``channel_under_defense`` surfaces (including cross-processor
deployments and every Table 3 defense); anything else belongs on the
DES.  Equivalence is enforced by the differential suite.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, cycle
from typing import Sequence

import numpy as np

from ..config import PlatformConfig, default_platform_config
from ..core.channel import TransmissionResult
from ..core.evaluation import CapacityPoint, random_bits
from ..core.protocol import ChannelConfig, calibrate_endpoints, decode_bit
from ..core.sender import SenderMode
from ..cpu.activity import (
    IDLE,
    ActivityProfile,
    ProfileTimeline,
    distinct_rows,
    window_classes,
)
from ..defenses.evaluation import DEFENSE_KEYS, DefenseReport
from ..errors import ChannelError
from ..noc.contention import ContentionTracker
from ..noc.topology import MeshTopology
from ..platform.actor import MEASUREMENT_PROFILE
from ..platform.latency import LatencyModel
from ..platform.system import _PMU_STAGGER_NS
from ..power.ufs import accumulate_observation, ufs_control_step
from ..rng import child_rng
from ..telemetry.context import active_registry
from ..units import ms
from ..workloads.loops import stalling_profile, traffic_profile
from .backend import CapacityRequest, DefenseRequest

__all__ = [
    "batch_capacity_points",
    "batch_defense_reports",
    "batch_frequency_lattices",
]

#: Fixed channel geometry of the supported experiment surfaces
#: (:func:`measure_capacity` / :func:`channel_under_defense` never vary
#: these).
_SENDER_SOCKET = 0
_SENDER_CORE = 0
_SENDER_HOPS = 3
_RECEIVER_CORE = 8
_BUSY_CORE = 15
_BUSY_HOPS = 3
_REPICK_PERIOD_NS = ms(100.0)
#: What :func:`accumulate_observation` folds an all-silent socket to.
_IDLE_FOLD = (0, 0, 0.0, 0.0, 0.0, False)


@dataclass
class _CoreSchedule:
    """One touched core's full profile history."""

    timeline: ProfileTimeline


@dataclass
class _TrialPlan:
    """Everything Phase A/B need to know about one transmission."""

    platform: PlatformConfig  # effective (defense-modified) config
    seed: int
    config: ChannelConfig
    payload: list[int]
    cross: bool
    receiver_socket: int
    receiver_core_mhz: int
    duration_ns: int
    #: per socket: core id -> schedule (touched cores only)
    cores: list[dict[int, _CoreSchedule]]
    init_limits: list[tuple[int, int]]
    init_freq: list[int]
    init_history: list[list[tuple[int, int]]]
    repick_rng: np.random.Generator | None
    mark_flows: float
    space_flows: float


@dataclass
class _CallMemo:
    """What the trials of one call share, derived once: the default
    platform, each deployment's :func:`_geometry` (whose platform has
    passed ``validate()``) and each receiver timeline, keyed by
    ``(receiver socket, interval, measure, duration)`` — all it depends
    on.  Nothing writes a planned timeline, so trials share the
    object."""

    default: PlatformConfig | None = None
    placements: dict = dataclasses.field(default_factory=dict)
    receivers: dict = dataclasses.field(default_factory=dict)


def _group_key(platform: PlatformConfig) -> PlatformConfig:
    """Trials sharing one lattice must agree on everything but the
    per-trial MSR limits (the restricted-range defense narrows min/max
    without leaving the group)."""
    ufs = dataclasses.replace(
        platform.ufs, min_freq_mhz=0, max_freq_mhz=0
    )
    return dataclasses.replace(platform, ufs=ufs)


def _route_flows(tracker: ContentionTracker, route, demand_rate: float,
                 ) -> float:
    competing = tracker.route_contention(route, observer_domain=0)
    return competing / demand_rate


def _geometry(effective: PlatformConfig, receiver_socket: int, hops: int,
              sender_mode: SenderMode, busy_uncore: bool,
              ) -> tuple[ActivityProfile | None, ActivityProfile, float,
                         float]:
    """Placement of one deployment: the busy-uncore thread's profile
    (``None`` without that defense), the sender's mark profile and the
    receiver-visible contention flows during mark and space intervals.

    A pure function of its arguments, so the trials of one call that
    share a deployment derive it once (see :class:`_CallMemo`).
    """
    mesh_s = MeshTopology(effective.sockets[_SENDER_SOCKET])
    mesh_r = (mesh_s if receiver_socket == _SENDER_SOCKET
              else MeshTopology(effective.sockets[receiver_socket]))

    # Sender target slice (what _SenderThread.on_attach picks).
    sender_slices = mesh_s.slices_at_distance(_SENDER_CORE, _SENDER_HOPS)
    if not sender_slices:
        from ..errors import PlacementError

        raise PlacementError(
            f"no slice at distance {_SENDER_HOPS} from core {_SENDER_CORE}"
        )
    sender_route = mesh_s.core_slice_route(_SENDER_CORE, sender_slices[0])

    # Receiver measurement slice (Actor.slice_at_distance, full hash).
    meas_slices = mesh_r.slices_at_distance(_RECEIVER_CORE, hops)
    if not meas_slices:
        raise ChannelError(
            f"no slice at distance {hops} from the receiver core"
        )
    meas_slice = meas_slices[0]
    receiver_route = mesh_r.core_slice_route(_RECEIVER_CORE, meas_slice)

    # Busy-uncore defense thread placement (SteadyWorkload.on_attach).
    busy_profile = None
    busy_route = None
    if busy_uncore:
        mesh0 = mesh_s  # socket 0 (``_SENDER_SOCKET``)
        busy_profile = traffic_profile(_BUSY_HOPS)
        candidates = mesh0.slices_at_distance(_BUSY_CORE, _BUSY_HOPS)
        if candidates:
            busy_slice = candidates[0]
        else:
            busy_slice = min(
                range(mesh0.num_cores),
                key=lambda s: (abs(mesh0.hops(_BUSY_CORE, s) - _BUSY_HOPS),
                               -mesh0.hops(_BUSY_CORE, s)),
            )
            busy_profile = dataclasses.replace(
                busy_profile,
                mean_hops=float(mesh0.hops(_BUSY_CORE, busy_slice)),
            )
        busy_route = mesh0.core_slice_route(_BUSY_CORE, busy_slice)

    # Receiver-visible contention during mark/space intervals.  The
    # receiver's own measurement loop registers no flow; the sender's
    # flow lives on its own socket's tracker, invisible cross-socket.
    mark_profile = (
        stalling_profile(_SENDER_HOPS)
        if sender_mode is SenderMode.STALL
        else traffic_profile(_SENDER_HOPS)
    )
    demand_rate = effective.demand.traffic_loop_rate_per_us

    def receiver_flows(sender_active: bool) -> float:
        tracker = ContentionTracker()
        if busy_route is not None and receiver_socket == 0:
            tracker.add_flow(busy_route, busy_profile.llc_rate_per_us,
                             domain=0)
        if sender_active and receiver_socket == _SENDER_SOCKET:
            tracker.add_flow(sender_route, mark_profile.llc_rate_per_us,
                             domain=0)
        return _route_flows(tracker, receiver_route, demand_rate)

    return (busy_profile, mark_profile, receiver_flows(True),
            receiver_flows(False))


def _plan_trial(*, platform: PlatformConfig | None, seed: int,
                interval_ms: float, payload: list[int],
                cross_processor: bool = False,
                sender_mode: SenderMode = SenderMode.STALL,
                defense: str | None = None,
                memo: _CallMemo) -> _TrialPlan:
    """Compile one channel deployment into a :class:`_TrialPlan`.

    Mirrors, in data, exactly what ``measure_capacity`` /
    ``channel_under_defense`` build in objects: same defaults, same
    slice selection, same profile-change times.  ``memo`` holds what
    the trials of one call share.
    """
    if platform is None:
        if memo.default is None:
            memo.default = default_platform_config()
        platform = memo.default
    effective = platform
    if defense == "restricted_1500_1700":
        effective = platform.with_ufs(min_freq_mhz=1500, max_freq_mhz=1700)
    config = ChannelConfig(interval_ns=ms(interval_ms))
    receiver_socket = 1 if cross_processor else 0
    key = (effective, receiver_socket, config.hops, sender_mode,
           defense == "busy_uncore")
    placement = memo.placements.get(key)
    if placement is None:
        # What System's constructor checks on the DES; a memoised
        # deployment's platform has passed.
        effective.validate()
    config.validate()
    ufs = effective.ufs
    num_sockets = effective.num_sockets
    if receiver_socket >= num_sockets:
        raise ChannelError(
            "cross-processor deployment needs a second socket"
        )
    if not cross_processor and _RECEIVER_CORE == _SENDER_CORE:
        raise ChannelError("sender and receiver share a core")
    if placement is None:
        placement = memo.placements[key] = _geometry(*key)
    busy_profile, mark_profile, mark_flows, space_flows = placement

    # Profile schedules of every touched core.
    cores: list[dict[int, _CoreSchedule]] = [
        {} for _ in range(num_sockets)
    ]

    def place(socket_id: int, core_id: int,
              timeline: ProfileTimeline) -> ProfileTimeline:
        cores[socket_id][core_id] = _CoreSchedule(timeline=timeline)
        return timeline

    interval = config.interval_ns
    measure = config.measure_ns
    bits = len(payload)
    duration = bits * interval

    # Same-time writes overwrite: the trailing space of one interval
    # gives way to the next interval's mark or measurement.
    starts = range(0, duration, interval)
    place(_SENDER_SOCKET, _SENDER_CORE, ProfileTimeline()).extend(chain(
        ((0, IDLE),),  # UFSender ctor space()
        zip(starts, [mark_profile if bit else IDLE for bit in payload]),
        ((duration, IDLE),),  # trailing drive(0)
    ))
    receiver_key = (receiver_socket, interval, measure, duration)
    receiver = memo.receivers.get(receiver_key)
    if receiver is None:
        # Per interval: measure, idle, measure, idle.
        receiver = memo.receivers[receiver_key] = ProfileTimeline()
        receiver.extend(zip(
            chain.from_iterable(zip(
                starts,
                range(measure, duration + measure, interval),
                range(interval - measure, duration + interval - measure,
                      interval),
                range(interval, duration + interval, interval),
            )),
            cycle((MEASUREMENT_PROFILE, IDLE)),
        ))
    place(receiver_socket, _RECEIVER_CORE, receiver)

    if busy_profile is not None:
        place(0, _BUSY_CORE, ProfileTimeline(busy_profile))

    # t=0 MSR state: base limits, idle clamp, then the defense's writes
    # in System-construction order.
    init_limits = [(ufs.min_freq_mhz, ufs.max_freq_mhz)] * num_sockets
    init_freq = [
        max(ufs.min_freq_mhz,
            min(ufs.max_freq_mhz, ufs.active_idle_high_mhz))
        for _ in range(num_sockets)
    ]
    init_history = [[(0, f)] for f in init_freq]
    repick_rng = None

    fixed = None
    if defense == "fixed_max":
        fixed = ufs.max_freq_mhz
    elif defense == "fixed_mid":
        fixed = 1800
    elif defense == "randomized":
        repick_rng = child_rng(seed, "random-freq-defense")
        points = ufs.frequency_points_mhz
        fixed = int(points[repick_rng.integers(len(points))])
    if fixed is not None:
        init_limits = [(fixed, fixed)] * num_sockets
        for socket_id in range(num_sockets):
            if init_freq[socket_id] != fixed:
                init_freq[socket_id] = fixed
                init_history[socket_id].append((0, fixed))

    return _TrialPlan(
        platform=effective,
        seed=seed,
        config=config,
        payload=list(payload),
        cross=cross_processor,
        receiver_socket=receiver_socket,
        receiver_core_mhz=effective.sockets[receiver_socket].base_freq_mhz,
        duration_ns=duration,
        cores=cores,
        init_limits=init_limits,
        init_freq=init_freq,
        init_history=init_history,
        repick_rng=repick_rng,
        mark_flows=mark_flows,
        space_flows=space_flows,
    )


# -- Phase A: the frequency lattice -------------------------------------------


def _observations(trials: list[tuple[list[ProfileTimeline], int]],
                  ticks: Sequence[int], starts: Sequence[int],
                  threshold: float, interned: dict[tuple, int],
                  ) -> tuple[list[list[int]], int]:
    """One socket's observations for every trial of a group: per trial,
    per tick index ``k < last``, the id in ``interned`` (fold -> id,
    shared by the group) of the fold of the window
    ``[starts[k], ticks[k])``; and how many windows were integrated.

    ``trials`` holds, per trial, its touched cores' timelines in core
    (fold) order and its tick count ``last``.
    Every core window of every trial is classed in one
    :func:`~repro.cpu.activity.window_classes` pass, which integrates
    one window per class, shared across trials; a timeline object that
    several trials share (see :class:`_CallMemo`) is classed once over
    the same ticks.  A core silent over a window (class ``-1``) leaves
    that window's fold (the batch twin of the PMU's ``silent_since``
    skip).  Ticks, of any trial, whose loud cores carry the same classes
    in the same order fold the same samples in the same order, so each
    distinct row is folded once; a row no core is loud in folds to
    :data:`_IDLE_FOLD`.  No core of a planned trial runs above base
    frequency, so every sample's turbo flag is false.
    """
    ticks = np.asarray(ticks, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    lanes: dict[tuple[int, int], int] = {}  # (timeline id, last) -> lane
    timelines = []  # per lane
    spans = []  # per lane: its tick count
    entries_at = []  # per core entry: its lane and trial's first row
    bounds = [0]  # per trial: its first row; then the row count
    for entries, last in trials:
        for timeline in entries:
            lane = lanes.setdefault((id(timeline), last), len(lanes))
            if lane == len(timelines):
                timelines.append(timeline)
                spans.append(last)
            entries_at.append((lane, last, bounds[-1]))
        bounds.append(bounds[-1] + last)
    # Per trial tick (a row): its loud cores' ``class + 1`` codes, in
    # core order, then zeros.
    codes = np.zeros((bounds[-1], max([1] + [len(entries)
                                            for entries, _ in trials])),
                     dtype=np.int64)
    stats = []
    if timelines:
        spans = np.array(spans, dtype=np.int64)
        lane_first = np.cumsum(spans) - spans  # per lane: first window
        lane = np.repeat(np.arange(len(timelines)), spans)
        tick = np.arange(len(lane)) - lane_first[lane]
        classes, stats = window_classes(timelines, lane, starts[tick],
                                        ticks[tick])
        # The same windows, per core entry of every trial.
        lanes_of, lasts, origins = (
            np.array(column, dtype=np.int64) for column in zip(*entries_at))
        entry = np.repeat(np.arange(len(entries_at)), lasts)
        tick = np.arange(len(entry)) - (np.cumsum(lasts) - lasts)[entry]
        met = classes[lane_first[lanes_of[entry]] + tick]
        heard = np.flatnonzero(met >= 0)
        # A trial's entries are in core order, so ordering its loud
        # windows by row keeps each row's in core order.
        row = origins[entry[heard]] + tick[heard]
        order = np.argsort(row, kind="stable")
        heard = heard[order]
        row = row[order]
        codes[row, np.arange(len(row)) - np.searchsorted(row, row)] = (
            met[heard] + 1)
    rows, representatives = distinct_rows(codes)
    fold_ids = []
    for row in codes[representatives].tolist():
        samples = [(stats[code - 1], False) for code in row if code]
        fold = (accumulate_observation(samples, threshold) if samples
                else _IDLE_FOLD)
        fold_ids.append(interned.setdefault(fold, len(interned)))
    per_row = np.array(fold_ids, dtype=np.int64)[rows].tolist()
    return ([per_row[begin:end] for begin, end in zip(bounds, bounds[1:])],
            len(stats))


def _run_lattice(plans: list[_TrialPlan],
                 ) -> list[list[list[tuple[int, int]]]]:
    """Advance every plan's UFS state to its horizon; return, per plan
    and per socket, the frequency history as ``(time_ns, mhz)`` points
    (initial point included, equal-frequency writes deduplicated — the
    exact :meth:`FrequencyTimeline.points` shape)."""
    rep = plans[0].platform
    ufs = rep.ufs
    demand = rep.demand
    num_sockets = rep.num_sockets
    coupled = rep.cross_socket_coupling and num_sockets > 1
    period = ufs.period_ns
    observation = ufs.observation_ns
    horizon = max(plan.duration_ns for plan in plans)

    # Per socket: tick times and the window each tick observes.  A
    # window starts at the socket's previous tick (0 before the first),
    # or ``observation`` before its own tick if that is later — the
    # PMU's own ``max(last_eval, t1 - observation_ns)``.  The histories
    # are written ahead, so every observation is known before the first
    # control step: per socket, per trial, tick index -> fold id.
    ticks = [
        list(range(period + s * _PMU_STAGGER_NS, horizon + 1, period))
        for s in range(num_sockets)
    ]
    interned: dict[tuple, int] = {}  # fold -> id
    integrated = 0
    observed = []
    for socket_id, times in enumerate(ticks):
        ends = np.array(times, dtype=np.int64)
        previous = np.zeros_like(ends)  # 0 before the first tick
        previous[1:] = ends[:-1]
        starts = np.maximum(previous, ends - observation)
        per_plan, walked = _observations(
            [([entry.timeline
               for _, entry in sorted(plan.cores[socket_id].items())],
              bisect_right(times, plan.duration_ns)) for plan in plans],
            ends, starts, ufs.stall_ratio_threshold, interned,
        )
        observed.append(per_plan)
        integrated += walked
    folds = list(interned)  # id -> fold
    registry = active_registry()
    if registry is not None:
        registry.inc("fastpath.batch.windows_integrated", integrated)

    # The event stream every trial walks.  Repicks share their instants
    # with socket-0 ticks; the defense task was (re)scheduled earlier
    # than the PMU's reschedule, so it fires first — order key 0 vs 1
    # encodes that.
    events: list[tuple[int, int, int, int]] = [
        (time_ns, 1, socket_id, tick)
        for socket_id, times in enumerate(ticks)
        for tick, time_ns in enumerate(times)
    ]
    if any(plan.repick_rng is not None for plan in plans):
        repick = _REPICK_PERIOD_NS
        while repick <= horizon:
            events.append((repick, 0, -1, -1))
            repick += _REPICK_PERIOD_NS
    events.sort()
    others = [[other for other in range(num_sockets) if other != socket_id]
              for socket_id in range(num_sockets)]

    # The control law is pure and ``ufs``, ``demand`` and the lag are
    # fixed for the group, so a step is a function of the socket state,
    # its MSR window, its fold (by id) and the remote frequency alone.
    # Trials of one group revisit the same few states, so each distinct
    # step is taken once: key -> (freq, dither phase, slow countdown).
    lag = rep.coupling_lag_mhz
    memo: dict[tuple, tuple[int, int, int]] = {}
    histories = []
    for index, plan in enumerate(plans):
        # Trials never read one another's state, so each walks the
        # stream on its own up to its horizon.
        duration = plan.duration_ns
        fold_ids = [observed[s][index] for s in range(num_sockets)]
        freq = list(plan.init_freq)
        dither = [0] * num_sockets
        countdown = [0] * num_sockets
        limits = list(plan.init_limits)
        history = [list(points) for points in plan.init_history]
        repick_rng = plan.repick_rng
        for time_ns, order, socket_id, tick in events:
            if time_ns > duration:
                break  # past this trial's horizon
            if order == 0:  # randomized-defense repick, all sockets
                if repick_rng is None:
                    continue
                points = plan.platform.ufs.frequency_points_mhz
                pick = int(points[repick_rng.integers(len(points))])
                for s in range(num_sockets):
                    limits[s] = (pick, pick)
                    if freq[s] != pick:
                        freq[s] = pick
                        history[s].append((time_ns, pick))
                continue

            fold_id = fold_ids[socket_id][tick]
            remote = None
            if coupled:  # the fastest other socket
                remote = 0
                for other in others[socket_id]:
                    if freq[other] > remote:
                        remote = freq[other]
            min_limit, max_limit = limits[socket_id]
            current = freq[socket_id]
            key = (current, dither[socket_id], countdown[socket_id],
                   min_limit, max_limit, fold_id, remote)
            step = memo.get(key)
            if step is None:
                (active, stalled, llc_rate, noc_score, max_stall,
                 turbo) = folds[fold_id]
                result = ufs_control_step(
                    freq_mhz=current,
                    dither_phase=dither[socket_id],
                    slow_countdown=countdown[socket_id],
                    min_limit_mhz=min_limit,
                    max_limit_mhz=max_limit,
                    active=active,
                    stalled=stalled,
                    llc_rate=llc_rate,
                    noc_score=noc_score,
                    max_stall=max_stall,
                    turbo=turbo,
                    remote_mhz=remote,
                    ufs=ufs,
                    demand=demand,
                    coupling_lag_mhz=lag,
                )
                step = memo[key] = (result.freq_mhz, result.dither_phase,
                                    result.slow_countdown)
            mhz, dither[socket_id], countdown[socket_id] = step
            if mhz != current:  # the history ends at ``current``
                freq[socket_id] = mhz
                history[socket_id].append((time_ns, mhz))
        histories.append(history)
    return histories


# -- Phase B: the receiver replay ---------------------------------------------


def _segment_table(plan: _TrialPlan, lattice: list[list[tuple[int, int]]],
                   model: LatencyModel,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every measurement segment of one trial, in DES order: its sample
    count, uncore frequency (MHz) and contention flows; and per window,
    its number of segments.

    Each bit takes two windows, T1 at its interval's start and T2 at its
    end.  A window splits at every receiver-socket PMU tick strictly
    inside it; each segment reads its frequency from the Phase A lattice
    at its start and sizes its sample count by the fenced iteration
    time, exactly as :meth:`~repro.platform.actor.Actor.measure_window`
    does.
    """
    times = np.array([point[0] for point in lattice[plan.receiver_socket]],
                     dtype=np.int64)
    freqs = [point[1] for point in lattice[plan.receiver_socket]]
    period = plan.platform.ufs.period_ns
    offset = plan.receiver_socket * _PMU_STAGGER_NS
    interval = plan.config.interval_ns
    measure = plan.config.measure_ns
    hops = plan.config.hops
    bits = len(plan.payload)
    starts = (np.arange(bits, dtype=np.int64)[:, None] * interval
              + np.array([0, interval - measure], dtype=np.int64)).ravel()
    deadlines = starts + measure
    # The socket's ticks, through the first at or after the horizon.
    ticks = offset + period * np.arange(
        1, (plan.duration_ns - offset) // period + 2, dtype=np.int64)
    after = np.searchsorted(ticks, starts, "right")  # first tick > start
    spans = np.searchsorted(ticks, deadlines, "left") - after + 1
    window = np.repeat(np.arange(len(starts)), spans)
    rank = np.arange(len(window)) - (np.cumsum(spans) - spans)[window]
    tick = after[window] + rank  # the tick ending each segment but a last
    seg_start = np.where(rank > 0, ticks[tick - 1], starts[window])
    seg_end = np.minimum(ticks[tick], deadlines[window])
    point = np.searchsorted(times, seg_start, "right") - 1
    iteration = {mhz: model.loop_iteration_ns(
        model.mean_llc_cycles(hops, mhz), plan.receiver_core_mhz)
        for mhz in set(freqs)}
    iter_ns = np.array([iteration[mhz] for mhz in freqs])[point]
    counts = ((seg_end - seg_start) / iter_ns).astype(np.int64)
    np.maximum(counts, 1, out=counts)
    flows = np.where(np.repeat(np.array(plan.payload, dtype=bool), 2),
                     plan.mark_flows, plan.space_flows)[window]
    return counts, np.array(freqs, dtype=np.int64)[point], flows, spans


def _window_means(model: LatencyModel, hops: int, counts: np.ndarray,
                  mhzs: np.ndarray, flows: np.ndarray, spans: np.ndarray,
                  ) -> list[float]:
    """Each window's ``total / count + bias``, as
    :meth:`~repro.platform.actor.Actor.measure_window` computes it, from
    one array draw per window quantity.

    A window adds its segment sums in segment order from ``0.0``, with
    the same float operations as the DES, so every mean is bit for bit.
    """
    sums = model.segment_llc_sums(counts, hops, mhzs, flows)
    first = np.cumsum(spans) - spans
    totals = np.zeros(len(spans))
    samples = np.zeros(len(spans), dtype=np.int64)
    for rank in range(int(spans.max(initial=0))):
        has = np.flatnonzero(spans > rank)
        segment = first[has] + rank
        totals[has] += sums[segment]
        samples[has] += counts[segment]
    totals /= samples
    totals += model.window_biases(len(spans))
    return totals.tolist()


def _replay_trial(plan: _TrialPlan,
                  lattice: list[list[tuple[int, int]]],
                  ) -> TransmissionResult:
    """Replay the receiver's windows against one trial's lattice.

    The window streams are the trial's own and nothing else draws from
    them (the probe warm-up draws from ``latency-noise``), so each
    quantity of the whole transmission is one array draw.
    """
    model = LatencyModel(plan.platform.latency, plan.seed)
    endpoints = calibrate_endpoints(
        plan.platform, model, hops=plan.config.hops,
        cross_processor=plan.cross,
    )
    means = _window_means(model, plan.config.hops,
                          *_segment_table(plan, lattice, model))
    received = [decode_bit(t1, t2, endpoints, plan.config)
                for t1, t2 in zip(means[0::2], means[1::2])]
    return TransmissionResult(
        sent=tuple(plan.payload),
        received=tuple(received),
        interval_ns=plan.config.interval_ns,
        duration_ns=plan.duration_ns,
    )


# -- driver -------------------------------------------------------------------


def _plans(requests: Sequence[CapacityRequest | DefenseRequest],
           ) -> list[_TrialPlan]:
    """Compile requests into plans, in submission order; the trials
    share one :class:`_CallMemo`."""
    memo = _CallMemo()
    return [
        _defense_plan(request, memo)
        if isinstance(request, DefenseRequest)
        else _capacity_plan(request, memo)
        for request in requests
    ]


def _lattices_for(plans: list[_TrialPlan],
                  ) -> list[list[list[tuple[int, int]]]]:
    """Group compatible plans onto shared lattices; submission order."""
    groups: dict[PlatformConfig, list[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(_group_key(plan.platform), []).append(index)
    lattices: list[list[list[tuple[int, int]]] | None] = (
        [None] * len(plans)
    )
    for members in groups.values():
        group_histories = _run_lattice([plans[i] for i in members])
        for slot, index in enumerate(members):
            lattices[index] = group_histories[slot]
    return lattices


def _run_transmissions(plans: list[_TrialPlan]) -> list[TransmissionResult]:
    lattices = _lattices_for(plans)
    registry = active_registry()
    if registry is not None:
        registry.inc("fastpath.batch.trials", len(plans))
    return [
        _replay_trial(plan, lattice)
        for plan, lattice in zip(plans, lattices)
    ]


def _capacity_plan(request: CapacityRequest,
                   memo: _CallMemo | None = None) -> _TrialPlan:
    payload = random_bits(
        request.bits, request.seed, f"payload-{request.interval_ms}"
    )
    return _plan_trial(
        platform=request.platform,
        seed=request.seed,
        interval_ms=request.interval_ms,
        payload=payload,
        cross_processor=request.cross_processor,
        sender_mode=request.sender_mode,
        memo=_CallMemo() if memo is None else memo,
    )


def _defense_plan(request: DefenseRequest,
                  memo: _CallMemo | None = None) -> _TrialPlan:
    if request.defense not in DEFENSE_KEYS:
        raise ValueError(f"unknown defense {request.defense!r}")
    payload = random_bits(
        request.bits, request.seed, f"defense-{request.defense}"
    )
    return _plan_trial(
        platform=request.platform,
        seed=request.seed,
        interval_ms=request.interval_ms,
        payload=payload,
        defense=request.defense,
        memo=_CallMemo() if memo is None else memo,
    )


def batch_capacity_points(
    requests: Sequence[CapacityRequest],
) -> list[CapacityPoint]:
    """Batched ``measure_capacity`` over many requests at once."""
    plans = _plans(requests)
    results = _run_transmissions(plans)
    return [
        CapacityPoint(
            interval_ms=request.interval_ms,
            raw_rate_bps=result.raw_rate_bps,
            error_rate=result.error_rate,
            capacity_bps=result.capacity_bps,
            bits=request.bits,
        )
        for request, result in zip(requests, results)
    ]


def batch_defense_reports(
    requests: Sequence[DefenseRequest],
) -> list[DefenseReport]:
    """Batched ``channel_under_defense`` over many requests."""
    plans = _plans(requests)
    results = _run_transmissions(plans)
    return [
        DefenseReport(
            defense=request.defense,
            error_rate=result.error_rate,
            capacity_bps=result.capacity_bps,
        )
        for request, result in zip(requests, results)
    ]


def batch_frequency_lattices(
    requests: Sequence[CapacityRequest | DefenseRequest],
) -> list[list[tuple[tuple[int, int], ...]]]:
    """Phase A only: per request, per socket, the ``(time_ns, mhz)``
    frequency points.  The validation oracles use this to assert every
    batch frequency stays on the trial's UFS operating-point grid."""
    lattices = _lattices_for(_plans(requests))
    return [
        [tuple(socket_points) for socket_points in lattice]
        for lattice in lattices
    ]
