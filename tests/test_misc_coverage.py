"""Coverage for smaller public surfaces: socket helpers, evaluation
utilities, channel outcome metrics, error hierarchy."""

import pytest

import repro
from repro.channels.base import (
    FUNCTIONAL_BER_THRESHOLD,
    ChannelOutcome,
)
from repro.core.evaluation import (
    random_bits,
    CapacityPoint,
    SweepResult,
)
from repro.errors import (
    ChannelError,
    ConfigError,
    PrerequisiteError,
    ReproError,
    SchedulingError,
    SimulationError,
)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for exc in (ConfigError, SimulationError, SchedulingError,
                    ChannelError, PrerequisiteError):
            assert issubclass(exc, ReproError)

    def test_prerequisite_is_a_channel_error(self):
        assert issubclass(PrerequisiteError, ChannelError)

    def test_scheduling_is_a_simulation_error(self):
        assert issubclass(SchedulingError, SimulationError)


class TestPackageSurface:
    def test_version_exposed(self):
        # Single-sourced from repro._version (pyproject reads the same
        # attribute) — assert the shape, not a literal that would pin
        # every release.
        from repro._version import __version__

        assert repro.__version__ == __version__
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestSocketHelpers:
    def test_slice_hash_accessor(self, solo_system):
        socket = solo_system.socket(0)
        assert socket.slice_hash() is socket.hierarchy.slice_hash

    def test_uncore_freq_matches_pmu(self, solo_system):
        socket = solo_system.socket(0)
        assert socket.uncore_freq_mhz == socket.pmu.current_mhz


class TestEvaluationHelpers:
    def _points(self):
        return [
            CapacityPoint(38.0, 26.3, 0.00, 26.3, 100),
            CapacityPoint(21.0, 47.6, 0.02, 40.9, 100),
            CapacityPoint(12.0, 83.3, 0.30, 10.0, 100),
        ]

    def test_random_bits_reproducible(self):
        assert random_bits(32, 5) == random_bits(32, 5)
        assert random_bits(32, 5) != random_bits(32, 6)

    def test_random_bits_are_binary(self):
        assert set(random_bits(200, 1)) == {0, 1}

    def test_peak_capacity(self):
        best = SweepResult(points=tuple(self._points())).peak()
        assert best.interval_ms == 21.0

    def test_peak_of_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepResult(points=()).peak()

    def test_summarize_sweep(self):
        summary = SweepResult(points=tuple(self._points())).summarize()
        assert summary["peak_capacity_bps"] == 40.9
        assert summary["peak_interval_ms"] == 21.0


class TestChannelOutcome:
    def _outcome(self, sent, received, bit_ns=1000):
        return ChannelOutcome(sent=tuple(sent), received=tuple(received),
                              bit_time_ns=bit_ns)

    def test_error_rate(self):
        outcome = self._outcome([1, 0, 1, 0], [1, 1, 1, 0])
        assert outcome.error_rate == 0.25

    def test_functional_threshold(self):
        clean = self._outcome([1, 0] * 10, [1, 0] * 10)
        broken = self._outcome([1] * 10, [0, 1] * 5)
        assert clean.functional
        assert not broken.functional
        assert FUNCTIONAL_BER_THRESHOLD == 0.25

    def test_rates(self):
        outcome = self._outcome([1], [1], bit_ns=1_000_000)
        assert outcome.raw_rate_bps == 1000.0
        assert outcome.capacity_bps == 1000.0

    def test_zero_bit_time(self):
        outcome = self._outcome([1], [1], bit_ns=0)
        assert outcome.raw_rate_bps == 0.0


class TestTransmissionResultMetrics:
    def test_folded_capacity_for_inverted_channel(self):
        from repro.core.channel import TransmissionResult

        result = TransmissionResult(
            sent=(1, 1, 1, 1),
            received=(0, 0, 0, 0),
            interval_ns=10_000_000,
            duration_ns=40_000_000,
        )
        assert result.error_rate == 1.0
        # BSC folding: a perfectly inverted channel carries full rate.
        assert result.capacity_bps == pytest.approx(100.0)


class TestUfsConfigPoints:
    def test_restricted_window_points(self):
        from repro.config import UfsConfig

        ufs = UfsConfig(min_freq_mhz=1500, max_freq_mhz=1700)
        assert ufs.frequency_points_mhz == (1500, 1600, 1700)
