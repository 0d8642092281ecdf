"""Section 6.1 countermeasures: mechanisms and channel impact."""

import pytest

from repro.cpu.msr import MSR_UNCORE_RATIO_LIMIT, decode_uncore_ratio_limit
from repro.defenses import (
    BusyUncoreDefense,
    RandomizedFrequencyDefense,
    analytics_energy_overhead,
    apply_fixed_frequency,
    apply_restricted_range,
    channel_under_defense,
)
from repro.errors import DefenseError
from repro.workloads import StallingLoop


class TestMechanisms:
    def test_fixed_frequency_writes_msr(self, system):
        apply_fixed_frequency(system, 1800)
        value = system.read_msr(0, MSR_UNCORE_RATIO_LIMIT,
                                privileged=True)
        assert decode_uncore_ratio_limit(value) == (1800, 1800)
        assert not system.socket(0).pmu.ufs_enabled

    def test_fixed_frequency_applies_to_all_sockets(self, system):
        apply_fixed_frequency(system, 2000)
        assert system.uncore_frequency_mhz(0) == 2000
        assert system.uncore_frequency_mhz(1) == 2000

    def test_fixed_frequency_ignores_stalling_load(self, system):
        apply_fixed_frequency(system, 1700)
        loop = StallingLoop("s")
        system.launch(loop, 0, 0)
        system.run_ms(150)
        assert system.uncore_frequency_mhz(0) == 1700

    def test_misaligned_frequency_rejected(self, system):
        with pytest.raises(DefenseError):
            apply_fixed_frequency(system, 1850)

    def test_restricted_range_keeps_ufs_enabled(self, system):
        apply_restricted_range(system, 1500, 1700)
        assert system.socket(0).pmu.ufs_enabled
        loop = StallingLoop("s")
        system.launch(loop, 0, 0)
        system.run_ms(150)
        assert system.uncore_frequency_mhz(0) == 1700

    def test_inverted_range_rejected(self, system):
        with pytest.raises(DefenseError):
            apply_restricted_range(system, 1800, 1500)

    def test_randomized_defense_hops_frequencies(self, system):
        defense = RandomizedFrequencyDefense(system, period_ms=50)
        seen = set()
        for _ in range(20):
            system.run_ms(50)
            seen.add(system.uncore_frequency_mhz(0))
        defense.stop()
        assert len(seen) >= 4
        assert not system.socket(0).pmu.ufs_enabled

    def test_busy_uncore_pins_max(self, system):
        defense = BusyUncoreDefense(system)
        system.run_ms(250)
        assert system.uncore_frequency_mhz(0) == 2400
        defense.stop()

    def test_busy_uncore_needs_a_free_core(self, system):
        for core_id in range(16):
            system.socket(0).core(core_id).claim(f"x{core_id}")
        with pytest.raises(DefenseError):
            BusyUncoreDefense(system, socket_id=0)


class TestChannelImpact:
    """The Section 6.1 conclusions, one defense at a time."""

    def test_no_defense_channel_works(self):
        report = channel_under_defense("none", bits=40, seed=21)
        assert not report.channel_stopped
        assert report.error_rate < 0.05

    def test_fixed_frequency_stops_channel(self):
        report = channel_under_defense("fixed_max", bits=40, seed=21)
        assert report.channel_stopped

    def test_randomized_frequency_stops_channel(self):
        report = channel_under_defense("randomized", bits=40, seed=21)
        assert report.channel_stopped

    def test_busy_uncore_stops_channel(self):
        report = channel_under_defense("busy_uncore", bits=40, seed=21)
        assert report.channel_stopped

    def test_restricted_range_does_not_stop_channel(self):
        """The paper's key negative result: a narrow window keeps the
        10 ms / 100 MHz dynamics, so capacity is unchanged."""
        restricted = channel_under_defense(
            "restricted_1500_1700", bits=40, seed=21
        )
        baseline = channel_under_defense("none", bits=40, seed=21)
        assert not restricted.channel_stopped
        assert restricted.capacity_bps == pytest.approx(
            baseline.capacity_bps, rel=0.25
        )

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError):
            channel_under_defense("tinfoil", bits=8)


class TestEnergyStudy:
    def test_fixed_max_costs_single_digit_percent(self):
        """The paper's CloudSuite figure: ~7 % extra energy."""
        result = analytics_energy_overhead(duration_s=6.0, seed=4)
        assert 2.0 < result.overhead_percent < 14.0

    def test_overhead_positive(self):
        result = analytics_energy_overhead(duration_s=4.0, seed=0)
        assert result.fixed_max_joules > result.ufs_joules
