"""Unit tests for the turbo/current/duty modulation layer.

The three controllers in :mod:`repro.power.modulation` carry the
channel families added on top of the UFS loop, so their contracts are
pinned directly: bin tables map active-core counts the documented way,
the throttle ladder moves one dwell-respecting step at a time, duty
requests land only on window boundaries, and the whole layer stays
lazy — a system that never touches ``Socket.modulation`` schedules no
modulation ticks at all.
"""

import pytest

from repro.config import (
    ClockModulationConfig,
    CurrentLimitConfig,
    TurboConfig,
    single_socket_config,
)
from repro.cpu.activity import ActivityProfile
from repro.errors import ConfigError
from repro.platform import System
from repro.units import ms

ACTIVE = ActivityProfile(active=True, l2_rate_per_us=50.0)
VIRUS = ActivityProfile(active=True, l2_rate_per_us=50.0,
                        power_weight=1.0)


@pytest.fixture
def system():
    sys_ = System(single_socket_config(), seed=7)
    yield sys_
    sys_.stop()


def _claim_active(socket, core_ids, profile=ACTIVE):
    for core_id in core_ids:
        core = socket.core(core_id)
        core.claim(f"test-{core_id}")
        core.set_profile(0, profile)


class TestTurboConfig:
    def test_bin_mapping_walks_the_table(self):
        config = TurboConfig()
        assert config.bin_mhz(0) == 3700
        assert config.bin_mhz(2) == 3700
        assert config.bin_mhz(3) == 3500
        assert config.bin_mhz(5) == 3300
        assert config.bin_mhz(16) == 3100
        # Beyond the last threshold the last bin applies.
        assert config.bin_mhz(99) == 3100

    def test_rejects_nonascending_counts(self):
        with pytest.raises(ConfigError):
            TurboConfig(bins=((4, 3700), (2, 3500))).validate()

    def test_rejects_nondescending_frequencies(self):
        with pytest.raises(ConfigError):
            TurboConfig(bins=((2, 3100), (4, 3500))).validate()


class TestModulationConfigs:
    def test_current_limit_thresholds_must_order(self):
        with pytest.raises(ConfigError):
            CurrentLimitConfig(
                soft_threshold=3.0, hard_threshold=1.5
            ).validate()

    def test_clockmod_effective_frequency(self):
        config = ClockModulationConfig()
        assert config.effective_mhz(2600, 16) == 2600.0
        assert config.effective_mhz(2600, 8) == 1300.0

    def test_clockmod_min_duty_within_grid(self):
        with pytest.raises(ConfigError):
            ClockModulationConfig(min_duty_steps=0).validate()


class TestLaziness:
    def test_modulation_unit_is_lazy(self, system):
        socket = system.socket(0)
        assert not socket.modulation_active
        unit = socket.modulation
        assert socket.modulation_active
        assert socket.modulation is unit  # one unit per socket

    def test_untouched_system_creates_no_controllers(self, system):
        system.run_for(ms(5))
        assert not system.socket(0).modulation_active


class TestTurboController:
    def test_ceiling_follows_active_core_count(self, system):
        socket = system.socket(0)
        turbo = socket.modulation.turbo
        assert turbo.ceiling_mhz == 3700
        _claim_active(socket, range(1, 6))  # 5 active cores
        system.run_for(ms(2))
        assert turbo.ceiling_mhz == 3300
        assert turbo.snapshots[-1].active_cores == 5


class TestCurrentThrottleController:
    def test_ladder_walks_one_dwell_step_at_a_time(self, system):
        socket = system.socket(0)
        throttle = socket.modulation.current
        _claim_active(socket, range(1, 5), VIRUS)  # draw 4.0 >= hard
        system.run_for(ms(2))
        assert throttle.state == 2
        assert throttle.factor == 0.60
        # Seed entry plus exactly two transitions, each >= dwell apart.
        times = [t for t, _ in throttle.transitions]
        states = [s for _, s in throttle.transitions]
        assert states == [0, 1, 2]
        dwell = throttle.config.dwell_ns
        assert all(b - a >= dwell for a, b in zip(times, times[1:]))

    def test_ladder_unwinds_when_draw_drops(self, system):
        socket = system.socket(0)
        throttle = socket.modulation.current
        _claim_active(socket, range(1, 5), VIRUS)
        system.run_for(ms(2))
        now = system.now
        for core_id in range(1, 5):
            socket.core(core_id).set_profile(now, ActivityProfile())
        system.run_for(ms(2))
        assert throttle.state == 0
        assert [s for _, s in throttle.transitions] == [0, 1, 2, 1, 0]


class TestDutyCycleModulator:
    def test_requests_land_on_window_boundaries(self, system):
        clockmod = system.socket(0).modulation.clockmod
        window = clockmod.config.window_ns
        system.run_for(window // 2)
        clockmod.set_duty(8)
        # Mid-window: the request is pending, not in force.
        assert clockmod.duty_steps == 16
        system.run_for(window)
        assert clockmod.duty_steps == 8
        assert clockmod.effective_mhz == pytest.approx(1300.0)
        assert clockmod.records[-1].time_ns % window == 0

    def test_off_grid_level_is_rejected(self, system):
        clockmod = system.socket(0).modulation.clockmod
        with pytest.raises(ConfigError):
            clockmod.set_duty(17)
        with pytest.raises(ConfigError):
            clockmod.set_duty(0)
