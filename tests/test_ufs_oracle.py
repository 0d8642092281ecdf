"""The DES PMU against an oracle that does every tick's work in full.

:class:`~repro.power.ufs.UfsPmu` folds only its awake cores and
memoises the control law's answers.  The oracle below folds every core
and calls :func:`law_signal` and :func:`ufs_control_step` on every
tick; run side by side on one engine over seeded random scripts of
profile changes, turbo P-states and ``UNCORE_RATIO_LIMIT`` writes, the
two must agree tick by tick: snapshots, frequency timelines and all
four decision counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import default_platform_config, single_socket_config
from repro.cpu import IDLE, ActivityProfile
from repro.cpu.msr import MSR_UNCORE_RATIO_LIMIT, encode_uncore_ratio_limit
from repro.engine import PeriodicTask
from repro.platform import System
from repro.power.timeline import FrequencyTimeline
from repro.power.ufs import (
    SocketSnapshot,
    accumulate_observation,
    law_signal,
    ufs_control_step,
)
from repro.units import ms
from repro.workloads.loops import stalling_profile, traffic_profile


class OraclePmu:
    """One socket's PMU with no awake list and no memo.

    It mirrors the socket's own PMU (same configs, limits, initial
    frequency and tick times) but keeps its own state, so the two can
    run on one engine and be compared after every tick.
    """

    def __init__(self, socket, remote=None) -> None:
        pmu = socket.pmu
        self.engine = pmu.engine
        self.cores = socket.cores
        self.config = pmu.config
        self.demand_config = pmu.demand_config
        self.coupling_lag_mhz = pmu.coupling_lag_mhz
        self.remote = remote
        self.min_limit_mhz = pmu.min_limit_mhz
        self.max_limit_mhz = pmu.max_limit_mhz
        self.timeline = FrequencyTimeline(pmu.current_mhz, self.engine.now)
        self.dither_phase = 0
        self.slow_countdown = 0
        self.last_eval_ns = self.engine.now
        self.snapshots: list[SocketSnapshot] = []
        self.evaluations = self.turbo_pins = 0
        self.stall_pins = self.decrease_vetoes = 0
        #: Ticks whose step the remote socket changed (coverage only).
        self.coupled_ticks = 0
        self._task = PeriodicTask(
            self.engine, self.config.period_ns, self._evaluate,
            phase_ns=pmu.next_evaluation_ns() - self.engine.now,
        )

    @property
    def current_mhz(self) -> int:
        return self.timeline.current_mhz

    def set_limits(self, min_mhz: int, max_mhz: int) -> None:
        self.min_limit_mhz = min_mhz
        self.max_limit_mhz = max_mhz
        clamped = max(min_mhz, min(max_mhz, self.current_mhz))
        self.timeline.set_frequency(self.engine.now, clamped)

    def stop(self) -> None:
        self._task.stop()

    def _evaluate(self) -> None:
        now = self.engine.now
        t0, t1 = self.last_eval_ns, now
        self.last_eval_ns = now
        if t1 <= t0:
            return
        t0 = max(t0, t1 - self.config.observation_ns)
        fold = accumulate_observation(
            [(core.timeline.window_stats(t0, t1), core.above_base)
             for core in self.cores],
            self.config.stall_ratio_threshold,
        )
        state = dict(
            freq_mhz=self.current_mhz,
            dither_phase=self.dither_phase,
            slow_countdown=self.slow_countdown,
            min_limit_mhz=self.min_limit_mhz,
            max_limit_mhz=self.max_limit_mhz,
            signal=law_signal(fold, ufs=self.config,
                              demand=self.demand_config),
            ufs=self.config,
            coupling_lag_mhz=self.coupling_lag_mhz,
        )
        remote = None if self.remote is None else self.remote()
        result = ufs_control_step(remote_mhz=remote, **state)
        if remote is not None:
            self.coupled_ticks += (
                result != ufs_control_step(remote_mhz=None, **state))
        self.dither_phase = result.dither_phase
        self.slow_countdown = result.slow_countdown
        self.evaluations += 1
        self.turbo_pins += result.turbo_pin
        self.stall_pins += result.stall_rule
        self.decrease_vetoes += result.veto
        self.timeline.set_frequency(now, result.freq_mhz)
        active, stalled, llc, noc = fold[:4]
        self.snapshots.append(SocketSnapshot(
            time_ns=now, active_cores=active, stalled_cores=stalled,
            llc_rate_per_us=llc, noc_score=noc,
            stall_rule_triggered=result.stall_rule,
            target_mhz=result.target_mhz, heavy=result.heavy,
            freq_mhz=self.current_mhz,
        ))


def _profile_pool(rng) -> list[ActivityProfile]:
    """Silent, inactive-but-loud and loud profiles; the random rates
    make the fold's float sums depend on core order."""
    pool = [IDLE, ActivityProfile(), ActivityProfile(l2_rate_per_us=40.0),
            stalling_profile(), stalling_profile(hops=2),
            traffic_profile(hops=0), traffic_profile(hops=3, scale=0.3)]
    for _ in range(6):
        pool.append(ActivityProfile(
            active=bool(rng.integers(2)),
            llc_rate_per_us=float(rng.uniform(0.1, 200.0)),
            mean_hops=float(rng.uniform(0.0, 4.0)),
            stall_ratio=float(rng.uniform(0.0, 1.0)),
        ))
    return pool


def _limits(rng, config) -> tuple[int, int]:
    """A random ``UNCORE_RATIO_LIMIT`` window, sometimes collapsed and
    sometimes the full range back."""
    low, high = config.ufs.min_freq_mhz, config.ufs.max_freq_mhz
    kind = rng.integers(4)
    if kind == 0:
        return low, high
    points = np.arange(low, high + 100, 100)
    if kind == 1:
        point = int(rng.choice(points))
        return point, point
    a, b = sorted(int(p) for p in rng.choice(points, 2))
    return a, b


def _run_script(seed: int, *, sockets: int, acting: int | None = None,
                duration_ms: float = 1500.0, actions: int = 200):
    """Drive one system and its oracles through a random script.

    The script acts on every socket, or on socket ``acting`` alone: an
    idle follower then steps on its leader's frequency alone.
    """
    rng = np.random.default_rng(seed)
    config = (default_platform_config() if sockets == 2
              else single_socket_config())
    system = System(config, seed=seed)
    for socket in system.sockets:
        socket.pmu.keep_snapshots = True
    oracles: list[OraclePmu] = []
    for socket in system.sockets:
        remote = None
        if socket.pmu.remote_frequency is not None:
            other = 1 - socket.socket_id
            remote = (lambda other=other: oracles[other].current_mhz)
        oracles.append(OraclePmu(socket, remote))
    pool = _profile_pool(rng)
    engine = system.engine
    tally = dict(wakes=0, collapsed=0)

    def act(kind, socket_id, core_id, choice):
        socket = system.sockets[socket_id]
        core = socket.cores[core_id]
        if kind == "profile":
            tally["wakes"] += not core.awake and pool[choice].loud
            core.set_profile(engine.now, pool[choice])
        elif kind == "turbo":
            base = core.base_freq_mhz
            core.set_p_state(base + 100 if choice % 2 else base)
        else:
            low, high = choice
            tally["collapsed"] += low == high
            system.write_msr(socket_id, MSR_UNCORE_RATIO_LIMIT,
                             encode_uncore_ratio_limit(low, high),
                             privileged=True)
            oracles[socket_id].set_limits(low, high)

    end_ns = ms(duration_ms)
    # Odd times never meet a PMU tick, so both PMUs of a socket see
    # the same world at every tick.
    times = np.sort(rng.integers(0, end_ns // 2, actions)) * 2 + 1
    for time_ns in times.tolist():
        socket_id = (int(rng.integers(sockets)) if acting is None
                     else acting)
        core_id = int(rng.integers(len(system.sockets[socket_id].cores)))
        draw = rng.random()
        if draw < 0.8:
            args = ("profile", socket_id, core_id,
                    int(rng.integers(len(pool))))
        elif draw < 0.9:
            args = ("turbo", socket_id, core_id, int(rng.integers(2)))
        else:
            args = ("limits", socket_id, core_id, _limits(rng, config))
        engine.schedule_at(time_ns, lambda args=args: act(*args))
    engine.run_until(end_ns)
    return system, oracles, tally


def _assert_agree(system, oracles) -> None:
    for socket, oracle in zip(system.sockets, oracles):
        pmu = socket.pmu
        assert pmu.evaluations == oracle.evaluations > 0
        assert pmu.snapshots == oracle.snapshots
        assert pmu.timeline.points() == oracle.timeline.points()
        assert (pmu.turbo_pins, pmu.stall_pins, pmu.decrease_vetoes) == (
            oracle.turbo_pins, oracle.stall_pins, oracle.decrease_vetoes)


class TestPmuMatchesOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_two_coupled_sockets(self, seed):
        system, oracles, _ = _run_script(seed, sockets=2)
        _assert_agree(system, oracles)
        system.stop()

    @pytest.mark.parametrize("seed", range(6))
    def test_idle_follower(self, seed):
        system, oracles, _ = _run_script(200 + seed, sockets=2, acting=0)
        _assert_agree(system, oracles)
        system.stop()

    @pytest.mark.parametrize("seed", range(6))
    def test_single_socket(self, seed):
        system, oracles, _ = _run_script(100 + seed, sockets=1)
        _assert_agree(system, oracles)
        system.stop()

    def test_scripts_reach_every_shortcut(self):
        """The scripts exercise what the PMU's shortcuts depend on:
        sleeping cores woken by a loud profile, turbo and stall pins,
        collapsed limit windows and steps the remote socket changes."""
        seen = dict(wakes=0, collapsed=0, turbo=0, stall=0, coupled=0)
        for seed in range(12):
            system, oracles, tally = _run_script(seed, sockets=2)
            seen["wakes"] += tally["wakes"]
            seen["collapsed"] += tally["collapsed"]
            for oracle in oracles:
                seen["turbo"] += oracle.turbo_pins
                seen["stall"] += oracle.stall_pins
                seen["coupled"] += oracle.coupled_ticks
            system.stop()
        assert all(seen.values()), seen


class TestAwakeCores:
    def test_silent_core_sleeps_and_wakes_on_a_profile_change(self):
        system = System(single_socket_config(), seed=0)
        pmu = system.sockets[0].pmu
        cores = system.sockets[0].cores
        engine = system.engine
        cores[5].set_profile(0, traffic_profile(hops=2))
        engine.run_for(ms(25))
        assert pmu._awake == [cores[5]]
        cores[5].set_profile(engine.now, IDLE)
        engine.run_for(ms(25))
        assert pmu._awake == [] and not any(core.awake for core in cores)
        cores[9].set_profile(engine.now, traffic_profile(hops=1))
        cores[5].set_profile(engine.now, traffic_profile(hops=2))
        assert cores[5].awake and cores[9].awake
        engine.run_for(ms(10))
        assert pmu._awake == [cores[5], cores[9]]
        system.stop()
