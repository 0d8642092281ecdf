"""Power management: frequency timeline, UFS control law, PC-states,
energy accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CStateConfig,
    DemandModelConfig,
    EnergyModelConfig,
    UfsConfig,
)
from repro.cpu import ActivityProfile, Core, IDLE, ProfileTimeline
from repro.engine import Engine
from repro.errors import ConfigError, SimulationError
from repro.power import (
    EnergyMeter,
    FrequencyTimeline,
    PackageCStateManager,
    UfsPmu,
)
from repro.power.ufs import (
    UfsStepResult,
    accumulate_observation,
    demand_target,
    law_signal,
    ufs_control_step,
)
from repro.units import ms
from repro.workloads.loops import stalling_profile, traffic_profile


class TestFrequencyTimeline:
    def test_initial_frequency(self):
        timeline = FrequencyTimeline(1500)
        assert timeline.current_mhz == 1500
        assert timeline.frequency_at(10**9) == 1500

    def test_change_visible_after_time(self):
        timeline = FrequencyTimeline(1500)
        timeline.set_frequency(100, 1600)
        assert timeline.frequency_at(99) == 1500
        assert timeline.frequency_at(100) == 1600

    def test_same_frequency_is_not_a_change(self):
        timeline = FrequencyTimeline(1500)
        timeline.set_frequency(100, 1500)
        assert timeline.change_count == 0

    def test_backwards_change_rejected(self):
        timeline = FrequencyTimeline(1500)
        timeline.set_frequency(100, 1600)
        with pytest.raises(SimulationError):
            timeline.set_frequency(50, 1700)

    def test_uclk_ticks_integrate_frequency(self):
        timeline = FrequencyTimeline(1000)  # 1000 MHz = 1 tick/ns
        timeline.set_frequency(1_000, 2000)
        # 1000 ns at 1 GHz + 1000 ns at 2 GHz = 1000 + 2000 cycles.
        assert timeline.uclk_ticks(2_000) == 3_000

    def test_average_mhz(self):
        timeline = FrequencyTimeline(1000)
        timeline.set_frequency(500, 2000)
        assert timeline.average_mhz(0, 1000) == pytest.approx(1500.0)

    def test_average_of_flat_segment(self):
        timeline = FrequencyTimeline(2400)
        assert timeline.average_mhz(100, 300) == pytest.approx(2400.0)

    def test_samples_cadence(self):
        timeline = FrequencyTimeline(1500)
        timeline.set_frequency(50, 1600)
        samples = timeline.samples(0, 100, 25)
        assert samples == [(0, 1500), (25, 1500), (50, 1600), (75, 1600)]

    def test_segments_cover_window(self):
        timeline = FrequencyTimeline(1500)
        timeline.set_frequency(100, 1600)
        timeline.set_frequency(200, 1700)
        segments = timeline.segments(50, 250)
        assert segments == [
            (50, 100, 1500), (100, 200, 1600), (200, 250, 1700)
        ]

    def test_empty_window_average_rejected(self):
        with pytest.raises(SimulationError):
            FrequencyTimeline(1500).average_mhz(10, 10)


class TestDemandModel:
    @pytest.fixture
    def demand(self) -> DemandModelConfig:
        return DemandModelConfig()

    def test_no_demand_means_idle(self, demand):
        assert demand_target(demand, 0.0, 0.0) is None

    def test_one_traffic_thread_targets_2100(self, demand):
        assert demand_target(demand, 160.0, 0.0) == 2100

    def test_llc_saturates_at_2300(self, demand):
        # "Without any traffic on the interconnect, the frequency can
        # only go up to 2.3 GHz" (Section 3.1).
        assert demand_target(demand, 16 * 160.0, 0.0) == 2300

    def test_one_3hop_thread_reaches_max(self, demand):
        assert demand_target(demand, 160.0, 160.0 * 9) == 2400

    def test_one_1hop_thread_targets_2200(self, demand):
        assert demand_target(demand, 160.0, 160.0) == 2200

    def test_light_measurement_loop_no_demand(self, demand):
        # The receiver's fenced loop must not raise the frequency
        # (Section 4.2).
        assert demand_target(demand, 18.0, 18.0) is None

    def test_stalled_pointer_chasers_hit_1800_band(self, demand):
        assert demand_target(demand, 2 * 27.0, 0.0) == 1800


#: An :func:`accumulate_observation` fold's fields, in order.
_FOLD_FIELDS = ("active", "stalled", "llc_rate", "noc_score", "max_stall",
                "turbo")


def _law(**overrides) -> UfsStepResult:
    """One control step from a quiet 1.5 GHz socket, with overrides."""
    inputs = dict(
        freq_mhz=1500, dither_phase=0, slow_countdown=0,
        min_limit_mhz=1200, max_limit_mhz=2400,
        active=1, stalled=0, llc_rate=0.0, noc_score=0.0,
        max_stall=0.0, turbo=False, remote_mhz=None,
    )
    inputs.update(overrides)
    fold = tuple(inputs.pop(name) for name in _FOLD_FIELDS)
    return ufs_control_step(**inputs, signal=law_signal(
        fold, ufs=UfsConfig(), demand=DemandModelConfig()), ufs=UfsConfig())


#: ``(overrides, expected)`` per branch of the law, hand-derived from the
#: default UfsConfig / DemandModelConfig.  Expected tuples follow
#: UfsStepResult: freq, phase, countdown, target, stall_rule, heavy,
#: turbo_pin, veto.
LAW_CASES = {
    # 2 of 3 active stalled > 1/3: target the ceiling, step fast.
    "stall-rule-pins-max": (
        dict(active=3, stalled=2),
        (1600, 0, 0, 2400, True, True, False, False),
    ),
    # Exactly 1/3 stalled is no trigger: idle dither instead.
    "stall-rule-boundary": (
        dict(active=6, stalled=2),
        (1500, 1, 0, 1500, False, False, False, False),
    ),
    # Three traffic threads ask for 2.3 GHz; the 1.5-1.7 GHz window
    # clamps the target to its ceiling, which makes the step heavy.
    "demand-clamped-into-window": (
        dict(min_limit_mhz=1500, max_limit_mhz=1700, llc_rate=480.0),
        (1600, 0, 0, 1700, False, True, False, False),
    ),
    # Leader at 2.4 GHz: the follower targets 100 MHz below, fast.
    "coupling-binds": (
        dict(remote_mhz=2400),
        (1600, 0, 0, 2300, False, True, False, False),
    ),
    # A coupled target at 1.5 GHz does not bind: idle dither.
    "coupling-at-1500-does-not-bind": (
        dict(remote_mhz=1600),
        (1500, 1, 0, 1500, False, False, False, False),
    ),
    # Dither wants 1.4 GHz but a core still shows stall residue.
    "decrease-veto": (
        dict(dither_phase=3, max_stall=0.5),
        (1500, 0, 0, 1500, False, False, False, True),
    ),
    # Without residue the same dither step goes down.
    "dither-decrease": (
        dict(dither_phase=3),
        (1400, 0, 0, 1400, False, False, False, False),
    ),
    # A decrease steps one operating point and clears the countdown.
    "decrease-steps-once": (
        dict(freq_mhz=2000, slow_countdown=3),
        (1900, 1, 0, 1500, False, False, False, False),
    ),
    # One traffic thread (2.1 GHz) is light demand: the countdown holds
    # the increase back and ticks down.
    "slow-step-blocked": (
        dict(llc_rate=160.0, slow_countdown=3),
        (1500, 0, 2, 2100, False, False, False, False),
    ),
    # Countdown expired: step once and re-arm it.
    "slow-step-taken": (
        dict(llc_rate=160.0),
        (1600, 0, 5, 2100, False, False, False, False),
    ),
    # One 3-hop thread reaches the ceiling: heavy, steps despite the
    # countdown, which it leaves alone.
    "heavy-steps-every-period": (
        dict(noc_score=160.0 * 9, slow_countdown=3),
        (1600, 0, 3, 2400, False, True, False, False),
    ),
    # A core above base frequency pins the uncore at the ceiling.
    "turbo-pin": (
        dict(turbo=True, dither_phase=2, slow_countdown=3, active=3,
             stalled=2),
        (2400, 2, 0, 2400, False, True, True, False),
    ),
    # min == max: the frequency is fixed whatever the demand.
    "ufs-disabled": (
        dict(freq_mhz=1800, min_limit_mhz=1800, max_limit_mhz=1800,
             active=3, stalled=2, dither_phase=2, slow_countdown=3),
        (1800, 2, 3, 1800, False, False, False, False),
    ),
    # Turbo cannot pin a disabled uncore either.
    "ufs-disabled-ignores-turbo": (
        dict(freq_mhz=1800, min_limit_mhz=1800, max_limit_mhz=1800,
             turbo=True),
        (1800, 0, 0, 1800, False, False, False, False),
    ),
}


class TestUfsControlStep:
    @pytest.mark.parametrize("case", list(LAW_CASES))
    def test_branch(self, case):
        overrides, expected = LAW_CASES[case]
        assert _law(**overrides) == UfsStepResult(*expected)

    def test_idle_dither_sequence(self):
        # Four idle ticks: three at the dither's high point, the fourth
        # at its low point (Section 3.1's 1.4/1.5 GHz dither).
        freq, phase = 1500, 0
        trace = []
        for _ in range(4):
            result = _law(freq_mhz=freq, dither_phase=phase)
            freq, phase = result.freq_mhz, result.dither_phase
            trace.append((freq, phase))
        assert trace == [(1500, 1), (1500, 2), (1500, 3), (1400, 0)]

    def test_takes_and_returns_python_scalars(self):
        result = _law(active=3, stalled=2)
        assert [type(value) for value in result] == [
            int, int, int, int, bool, bool, bool, bool
        ]


def _fused_law(fold, *, freq_mhz, dither_phase, slow_countdown,
               min_limit_mhz, max_limit_mhz, remote_mhz, ufs, demand,
               coupling_lag_mhz=100):
    """The control law in one piece, reading the raw fold: the
    reference the :func:`law_signal` / :func:`ufs_control_step` split
    must reproduce."""
    active, stalled, llc_rate, noc_score, max_stall, turbo = fold
    freq = freq_mhz
    enabled = min_limit_mhz != max_limit_mhz
    if turbo or not enabled:
        turbo_pin = turbo and enabled
        pinned = max_limit_mhz if turbo_pin else freq
        return UfsStepResult(
            pinned, dither_phase, 0 if turbo_pin else slow_countdown,
            pinned, False, turbo_pin, turbo_pin, False,
        )
    stall_rule = (
        active > 0 and stalled > ufs.stalled_fraction_trigger * active
    )
    if stall_rule:
        target = max_limit_mhz
    else:
        target = demand_target(demand, llc_rate, noc_score)
        if target is not None:
            target = max(min_limit_mhz, min(max_limit_mhz, target))
    coupled_binding = False
    if remote_mhz is not None:
        coupled = max(min_limit_mhz,
                      min(max_limit_mhz, remote_mhz - coupling_lag_mhz))
        coupled_binding = (
            (target is None or coupled > target)
            and coupled > ufs.active_idle_high_mhz
        )
        if coupled_binding:
            target = coupled
    phase = dither_phase
    veto = heavy = False
    if target is None:
        phase = (phase + 1) % 4
        effective = (ufs.active_idle_low_mhz if phase == 0
                     else ufs.active_idle_high_mhz)
        effective = max(min_limit_mhz, min(max_limit_mhz, effective))
        veto = effective < freq and max_stall > ufs.decrease_veto_stall_ratio
        if veto:
            effective = freq
    else:
        effective = target
        heavy = stall_rule or target >= max_limit_mhz or coupled_binding
    countdown = slow_countdown
    if effective > freq:
        if heavy:
            freq += ufs.step_mhz
        elif countdown > 0:
            countdown -= 1
        else:
            countdown = ufs.slow_step_periods - 1
            freq += ufs.step_mhz
        freq = min(freq, effective)
    else:
        countdown = 0
        if effective < freq:
            freq = max(freq - ufs.step_mhz, effective)
    return UfsStepResult(freq, phase, countdown, effective, stall_rule,
                         heavy, False, veto)


def _random_folds(rng, count):
    """Folds around every threshold the law reads: the stall rule, the
    LLC and NoC demand bands (in traffic-loop units) and the veto."""
    units = (0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 9.0, 16.0)
    folds = []
    for _ in range(count):
        active = rng.randint(0, 4)
        folds.append((
            active, rng.randint(0, active),
            160.0 * rng.choice(units) * rng.choice((1.0, 1.01)),
            160.0 * rng.choice(units) * rng.choice((1.0, 1.01)),
            rng.choice((0.0, 0.1, 0.3, 0.31, 0.9)),
            rng.random() < 0.15,
        ))
    return folds


#: Socket states ``(freq, dither, countdown, min, max)`` and remote
#: frequencies every pair of folds is stepped from.
_STATES = [
    (freq, dither, countdown, low, high)
    for freq in (1200, 1400, 1500, 1600, 2100, 2400)
    for dither in range(4)
    for countdown in (0, 2)
    for low, high in ((1200, 2400), (1500, 1700), (1800, 1800))
]
_REMOTES = (None, 1300, 1700, 2400)


class TestLawSignal:
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_signals_step_every_state_alike(self, seed):
        """Folds with one signal take the same step from every state
        under the fused law, and the split law takes it too: that is
        what lets the batch memo key its steps on the signal."""
        import random

        ufs, demand = UfsConfig(), DemandModelConfig()
        by_signal = {}
        for fold in _random_folds(random.Random(seed), 150):
            by_signal.setdefault(
                law_signal(fold, ufs=ufs, demand=demand), []).append(fold)
        assert any(len(set(folds)) > 1 for folds in by_signal.values())
        for signal, folds in by_signal.items():
            for mhz, dither, countdown, low, high in _STATES:
                for remote in _REMOTES:
                    state = dict(freq_mhz=mhz, dither_phase=dither,
                                 slow_countdown=countdown,
                                 min_limit_mhz=low, max_limit_mhz=high,
                                 remote_mhz=remote, ufs=ufs)
                    step = ufs_control_step(**state, signal=signal)
                    for fold in set(folds):
                        assert _fused_law(fold, **state,
                                          demand=demand) == step, (
                            fold, state)

    def test_signal_masks_what_the_law_cannot_read(self):
        ufs, demand = UfsConfig(), DemandModelConfig()
        def signal(*fold):
            return tuple(law_signal(fold, ufs=ufs, demand=demand))
        # Turbo masks the stall rule and demand; the stall rule masks
        # demand and residue; a demand target masks the residue.
        assert signal(3, 2, 480.0, 0.0, 0.9, True) == (
            True, False, None, False)
        assert signal(3, 2, 480.0, 0.0, 0.9, False) == (
            False, True, None, False)
        assert signal(1, 0, 480.0, 0.0, 0.9, False) == (
            False, False, 2300, False)
        assert signal(1, 0, 0.0, 0.0, 0.9, False) == (
            False, False, None, True)


def _stepper(engine: Engine, cores: list[Core], **kwargs) -> UfsPmu:
    return UfsPmu(
        socket_id=0,
        engine=engine,
        cores=cores,
        ufs_config=UfsConfig(),
        demand_config=DemandModelConfig(),
        **kwargs,
    )


class TestUfsPmu:
    def _make(self, n_cores=4):
        engine = Engine()
        cores = [
            Core(i, 0, (0, i % 5), base_freq_mhz=2600)
            for i in range(n_cores)
        ]
        return engine, cores, _stepper(engine, cores)

    def test_starts_at_active_idle_high(self):
        _, _, pmu = self._make()
        assert pmu.current_mhz == 1500

    def test_idle_dither_between_1400_and_1500(self):
        engine, _, pmu = self._make()
        seen = set()
        for _ in range(12):
            engine.run_for(ms(10))
            seen.add(pmu.current_mhz)
        assert seen == {1400, 1500}

    def test_stall_ramps_100mhz_per_period(self):
        engine, cores, pmu = self._make()
        cores[0].set_profile(0, stalling_profile())
        trace = []
        for _ in range(12):
            engine.run_for(ms(10))
            trace.append(pmu.current_mhz)
        diffs = [b - a for a, b in zip(trace, trace[1:]) if b != a]
        assert all(d == 100 for d in diffs)
        assert trace[-1] == 2400

    def test_stall_release_ramps_down(self):
        engine, cores, pmu = self._make()
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(120))
        assert pmu.current_mhz == 2400
        cores[0].set_profile(engine.now, IDLE)
        engine.run_for(ms(40))
        assert pmu.current_mhz < 2400
        engine.run_for(ms(120))
        assert pmu.current_mhz in (1400, 1500)

    def test_light_demand_steps_slowly(self):
        # One 0-hop traffic thread: target 2.1 GHz, but > 50 ms per
        # step (Section 4.3.1).
        engine, cores, pmu = self._make()
        cores[0].set_profile(0, traffic_profile(hops=0))
        engine.run_for(ms(55))
        assert pmu.current_mhz <= 1700
        engine.run_for(ms(500))
        assert pmu.current_mhz == 2100

    def test_stalled_fraction_boundary(self):
        # Exactly 1/3 stalled does NOT trigger the max (Figure 4).
        engine, cores, pmu = self._make(n_cores=6)
        cores[0].set_profile(0, stalling_profile())
        cores[1].set_profile(0, stalling_profile())
        for i in (2, 3, 4, 5):
            cores[i].set_profile(0, ActivityProfile(active=True))
        engine.run_for(ms(300))
        assert pmu.current_mhz < 2400

    def test_over_one_third_stalled_pins_max(self):
        engine, cores, pmu = self._make(n_cores=5)
        cores[0].set_profile(0, stalling_profile())
        cores[1].set_profile(0, stalling_profile())
        for i in (2, 3, 4):
            cores[i].set_profile(0, ActivityProfile(active=True))
        engine.run_for(ms(200))
        assert pmu.current_mhz == 2400

    def test_limits_clamp_frequency(self):
        engine, cores, pmu = self._make()
        pmu.set_limits(1500, 1700)
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(200))
        assert pmu.current_mhz == 1700

    def test_min_equals_max_disables_ufs(self):
        engine, cores, pmu = self._make()
        pmu.set_limits(1800, 1800)
        assert not pmu.ufs_enabled
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(200))
        assert pmu.current_mhz == 1800

    def test_inverted_limits_rejected(self):
        _, _, pmu = self._make()
        with pytest.raises(ConfigError):
            pmu.set_limits(2400, 1200)

    def test_limit_change_snaps_current_frequency(self):
        engine, cores, pmu = self._make()
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(150))
        pmu.set_limits(1500, 1700)
        assert pmu.current_mhz == 1700

    def test_snapshots_recorded_when_enabled(self):
        engine, cores, pmu = self._make()
        pmu.keep_snapshots = True
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(30))
        assert len(pmu.snapshots) == 3
        assert pmu.snapshots[-1].stall_rule_triggered

    def test_stop_halts_evaluation(self):
        engine, cores, pmu = self._make()
        pmu.stop()
        cores[0].set_profile(0, stalling_profile())
        engine.run_for(ms(100))
        assert pmu.current_mhz == 1500
        assert pmu.next_evaluation_ns() is None


_profiles = st.one_of(
    st.just(IDLE),
    st.just(ActivityProfile()),
    # Inactive but still issuing LLC accesses: must not be skipped.
    st.builds(ActivityProfile,
              llc_rate_per_us=st.floats(0.5, 200.0),
              mean_hops=st.floats(0.0, 8.0)),
    st.builds(ActivityProfile,
              active=st.booleans(),
              llc_rate_per_us=st.floats(0.0, 200.0),
              mean_hops=st.floats(0.0, 8.0),
              stall_ratio=st.floats(0.0, 1.0),
              l2_rate_per_us=st.floats(0.0, 50.0)),
)

_core_histories = st.tuples(
    st.booleans(),  # turbo P-state: a silent turbo core must not count
    st.lists(st.tuples(st.integers(0, 40_000), _profiles), max_size=5),
)


class TestSilentCoreSkip:
    """The PMU skips silent cores; its fold must not notice."""

    @settings(max_examples=150, deadline=None)
    @given(histories=st.lists(_core_histories, min_size=1, max_size=16),
           start=st.integers(0, 40_000),
           start_at_change=st.booleans(),
           length=st.integers(1, 40_000))
    def test_skip_equals_fold_over_all_cores(self, histories, start,
                                             start_at_change, length):
        cores = []
        changes = []
        for core_id, (turbo, history) in enumerate(histories):
            core = Core(core_id, 0, (0, core_id % 5), base_freq_mhz=2600)
            if turbo:
                core.set_p_state(2700)
            for time_ns, profile in sorted(history, key=lambda c: c[0]):
                core.set_profile(time_ns, profile)
                changes.append(time_ns)
            cores.append(core)
        t0 = changes[start % len(changes)] if (
            start_at_change and changes) else start
        t1 = t0 + length
        pmu = _stepper(Engine(), cores)
        window_start = max(t0, t1 - pmu.config.observation_ns)
        expected = accumulate_observation(
            ((core.timeline.window_stats(window_start, t1), core.above_base)
             for core in cores),
            pmu.config.stall_ratio_threshold,
        )
        assert pmu._observe(t0, t1) == expected

    def test_idle_cores_are_not_integrated(self, monkeypatch):
        calls = []
        window_stats = ProfileTimeline.window_stats

        def counting(timeline, t0, t1):
            calls.append(timeline)
            return window_stats(timeline, t0, t1)

        monkeypatch.setattr(ProfileTimeline, "window_stats", counting)
        engine = Engine()
        cores = [Core(i, 0, (0, i % 5), base_freq_mhz=2600)
                 for i in range(16)]
        cores[3].set_profile(0, stalling_profile())
        cores[9].set_profile(0, traffic_profile(hops=2))
        pmu = _stepper(engine, cores)
        engine.run_for(ms(50))
        assert pmu.evaluations == 5
        assert len(calls) == 2 * pmu.evaluations
        assert set(calls) == {cores[3].timeline, cores[9].timeline}


class TestCrossSocketCoupling:
    def test_follower_trails_by_one_step(self):
        engine = Engine()
        cores0 = [Core(0, 0, (0, 1), 2600)]
        cores1 = [Core(0, 1, (0, 1), 2600)]
        pmu0 = _stepper(engine, cores0)
        pmu1 = UfsPmu(
            socket_id=1, engine=engine, cores=cores1,
            ufs_config=UfsConfig(), demand_config=DemandModelConfig(),
            phase_ns=ms(10) + 500_000,
            remote_frequency=lambda: pmu0.current_mhz,
        )
        cores0[0].set_profile(0, stalling_profile())
        engine.run_for(ms(200))
        # Figure 7: the follower stabilises 100 MHz below the leader.
        assert pmu0.current_mhz == 2400
        assert pmu1.current_mhz == 2300

    def test_follower_does_not_couple_to_idle(self):
        engine = Engine()
        cores0 = [Core(0, 0, (0, 1), 2600)]
        cores1 = [Core(0, 1, (0, 1), 2600)]
        pmu0 = _stepper(engine, cores0)
        pmu1 = UfsPmu(
            socket_id=1, engine=engine, cores=cores1,
            ufs_config=UfsConfig(), demand_config=DemandModelConfig(),
            phase_ns=ms(10) + 500_000,
            remote_frequency=lambda: pmu0.current_mhz,
        )
        engine.run_for(ms(100))
        assert pmu1.current_mhz in (1400, 1500)


class TestPackageCStates:
    def _manager(self):
        cores = [Core(i, 0, (0, 1), 2600) for i in range(2)]
        return cores, PackageCStateManager(cores, CStateConfig())

    def test_active_core_pins_pc0(self):
        cores, manager = self._manager()
        cores[0].set_profile(0, ActivityProfile(active=True))
        assert manager.pc_state(10**9) == 0
        assert manager.uncore_exit_latency_ns(10**9) == 0

    def test_all_idle_deepens_package_state(self):
        _, manager = self._manager()
        assert manager.pc_state(10**10) == 3

    def test_pc_state_bounded_by_shallowest_core(self):
        cores, manager = self._manager()
        cores[0].set_profile(0, ActivityProfile(active=True))
        cores[0].set_profile(10**6, IDLE)
        # Core 0 idle only briefly: shallow; package follows it.
        time_ns = 10**6 + 25_000
        assert manager.pc_state(time_ns) == min(
            manager.core_c_state(cores[0], time_ns),
            manager.core_c_state(cores[1], time_ns),
        )

    def test_wake_latency_sums_core_and_package(self):
        cores, manager = self._manager()
        config = CStateConfig()
        latency = manager.wake_latency_ns(10**10, cores[0])
        assert latency == (
            config.core_exit_latency_ns[3]
            + config.package_exit_latency_ns[3]
        )


class TestEnergyMeter:
    def test_energy_integrates_power_over_segments(self):
        meter = EnergyMeter(EnergyModelConfig())
        timeline = FrequencyTimeline(2400)
        joules = meter.energy_joules(timeline, 0, 10**9)
        expected = EnergyModelConfig().power_watts(2400) * 1.0
        assert joules == pytest.approx(expected)

    def test_lower_frequency_costs_less(self):
        meter = EnergyMeter(EnergyModelConfig())
        low = FrequencyTimeline(1500)
        high = FrequencyTimeline(2400)
        assert meter.energy_joules(low, 0, 10**9) < meter.energy_joules(
            high, 0, 10**9
        )

    def test_average_power(self):
        meter = EnergyMeter(EnergyModelConfig())
        timeline = FrequencyTimeline(1800)
        watts = meter.average_power_watts(timeline, 0, 5 * 10**8)
        assert watts == pytest.approx(
            EnergyModelConfig().power_watts(1800)
        )

    def test_energy_at_fixed(self):
        meter = EnergyMeter(EnergyModelConfig())
        timeline = FrequencyTimeline(2000)
        assert meter.energy_at_fixed(2000, 10**9) == pytest.approx(
            meter.energy_joules(timeline, 0, 10**9)
        )
