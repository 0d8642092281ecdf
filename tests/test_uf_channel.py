"""UF-variation: protocol, probe, end-to-end channel behaviour."""

import pytest

from repro.config import default_platform_config
from repro.core import (
    ChannelConfig,
    SenderMode,
    UFVariationChannel,
    UncoreFrequencyProbe,
)
from repro.core.evaluation import random_bits
from repro.core.protocol import (
    ChannelEndpoints,
    calibrate_endpoints,
    decode_bit,
)
from repro.errors import ChannelError
from repro.platform import LatencyModel, System
from repro.units import ms


class TestChannelConfig:
    def test_default_validates(self):
        ChannelConfig().validate()

    def test_raw_rate(self):
        assert ChannelConfig(interval_ns=ms(20)).raw_rate_bps == 50.0

    def test_interval_too_short_rejected(self):
        with pytest.raises(ChannelError):
            ChannelConfig(interval_ns=ms(8)).validate()


class TestEndpoints:
    def test_calibration_matches_latency_model(self):
        platform = default_platform_config()
        model = LatencyModel(platform.latency, seed=0)
        endpoints = calibrate_endpoints(platform, model, hops=1)
        assert endpoints.t_freq_max_cycles == pytest.approx(
            model.mean_llc_cycles(1, 2400)
        )
        assert endpoints.t_freq_min_cycles == pytest.approx(
            model.mean_llc_cycles(1, 1500)
        )

    def test_cross_processor_uses_coupled_maximum(self):
        platform = default_platform_config()
        model = LatencyModel(platform.latency, seed=0)
        local = calibrate_endpoints(platform, model, hops=1)
        remote = calibrate_endpoints(platform, model, hops=1,
                                     cross_processor=True)
        # Follower socket peaks at 2.3 GHz -> higher minimum latency.
        assert remote.t_freq_max_cycles > local.t_freq_max_cycles

    def test_degenerate_window_survives(self):
        platform = default_platform_config().with_ufs(
            min_freq_mhz=1800, max_freq_mhz=1800
        )
        model = LatencyModel(platform.latency, seed=0)
        endpoints = calibrate_endpoints(platform, model, hops=1)
        assert endpoints.t_freq_max_cycles < endpoints.t_freq_min_cycles

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ChannelError):
            ChannelEndpoints(t_freq_max_cycles=80.0,
                             t_freq_min_cycles=60.0)


class TestDecodeBit:
    ENDPOINTS = ChannelEndpoints(t_freq_max_cycles=60.0,
                                 t_freq_min_cycles=79.0)
    CONFIG = ChannelConfig()

    def _decode(self, t1, t2):
        return decode_bit(t1, t2, self.ENDPOINTS, self.CONFIG)

    def test_falling_latency_is_one(self):
        assert self._decode(75.0, 68.0) == 1

    def test_rising_latency_is_zero(self):
        assert self._decode(68.0, 75.0) == 0

    def test_flat_at_max_is_one(self):
        assert self._decode(60.2, 59.9) == 1

    def test_flat_at_min_is_zero(self):
        assert self._decode(79.1, 78.8) == 0

    def test_dither_above_min_is_zero(self):
        # Idle dither at 1.4 GHz: latency above T_freq_min, and the
        # 1.4 -> 1.5 transition must not read as a rising frequency.
        assert self._decode(82.5, 79.1) == 0

    def test_real_rise_from_dither_is_one(self):
        # Two steps out of the floor push T2 below the floor band.
        assert self._decode(82.5, 75.5) == 1

    def test_ambiguous_falls_back_to_trend_sign(self):
        assert self._decode(70.0, 70.1) == 0
        assert self._decode(70.1, 70.0) == 1


class TestProbe:
    def test_probe_tracks_frequency(self, solo_system):
        actor = solo_system.create_actor("probe", 0, 8)
        probe = UncoreFrequencyProbe(actor, hops=1)
        estimate = probe.estimate_frequency_mhz(samples=64)
        assert estimate == pytest.approx(
            solo_system.uncore_frequency_mhz(0), rel=0.05
        )

    def test_trace_sampling_cadence(self, solo_system):
        actor = solo_system.create_actor("probe", 0, 8)
        probe = UncoreFrequencyProbe(actor, hops=1)
        points = probe.trace(ms(30), ms(3))
        assert len(points) == 10
        gaps = [b[0] - a[0] for a, b in zip(points, points[1:])]
        assert all(abs(gap - ms(3)) < ms(1) for gap in gaps)


class TestTransmission:
    def test_figure9_payload_is_error_free_at_38ms(self):
        system = System(seed=7)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(38))
        )
        bits = [1, 1, 0, 1, 0, 0, 1, 0, 1, 1]
        result = channel.transmit(bits)
        assert result.received == tuple(bits)
        assert result.capacity_bps == pytest.approx(26.3, abs=0.1)
        channel.shutdown()
        system.stop()

    def test_latency_trend_matches_figure9_narrative(self):
        """First '1': latency falls from ~79 toward ~71; second '1'
        continues down; the following '0' turns it around."""
        system = System(seed=7)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(38))
        )
        channel.transmit([1, 1, 0])
        obs = channel.receiver.observations
        assert obs[0].t1_cycles > obs[0].t2_cycles > obs[1].t2_cycles
        assert obs[2].t2_cycles > obs[2].t1_cycles
        channel.shutdown()
        system.stop()

    def test_traffic_mode_also_works(self):
        system = System(seed=8)
        channel = UFVariationChannel(
            system,
            config=ChannelConfig(interval_ns=ms(38)),
            sender_mode=SenderMode.TRAFFIC,
        )
        bits = random_bits(20, 8)
        result = channel.transmit(bits)
        assert result.error_rate < 0.1
        channel.shutdown()
        system.stop()

    def test_cross_processor_transmission(self):
        system = System(seed=9)
        channel = UFVariationChannel(
            system,
            config=ChannelConfig(interval_ns=ms(45)),
            receiver_socket=1,
        )
        bits = random_bits(16, 9)
        result = channel.transmit(bits)
        assert result.error_rate < 0.2
        channel.shutdown()
        system.stop()

    def test_multi_core_sender(self):
        system = System(seed=10)
        channel = UFVariationChannel(
            system,
            config=ChannelConfig(interval_ns=ms(38)),
            sender_cores=(0, 1, 2),
        )
        result = channel.transmit(random_bits(12, 10))
        assert result.error_rate < 0.1
        channel.shutdown()
        system.stop()

    def test_sender_receiver_core_collision_rejected(self):
        system = System(seed=0)
        with pytest.raises(ChannelError):
            UFVariationChannel(system, sender_cores=(8,),
                               receiver_core=8)

    def test_non_binary_payload_rejected(self):
        system = System(seed=0)
        channel = UFVariationChannel(system)
        with pytest.raises(ChannelError):
            channel.transmit([0, 1, 2])
        channel.shutdown()
        system.stop()

    def test_empty_payload_rejected(self):
        # No bit was measured, so there is no BER or capacity to report.
        system = System(seed=0)
        channel = UFVariationChannel(system)
        with pytest.raises(ChannelError, match="empty"):
            channel.transmit([])
        channel.shutdown()
        system.stop()

    def test_sync_aligns_to_interval_grid(self):
        system = System(seed=0)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(20))
        )
        system.run_for(ms(7))
        channel.sync()
        assert system.now % ms(20) == 0
        channel.shutdown()
        system.stop()

    def test_shutdown_releases_cores(self):
        system = System(seed=0)
        channel = UFVariationChannel(system)
        channel.shutdown()
        assert system.socket(0).core(0).owner is None
        assert system.socket(0).core(8).owner is None
        system.stop()


class TestResultMetrics:
    def test_capacity_formula(self):
        system = System(seed=7)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(40))
        )
        result = channel.transmit([1, 0] * 8)
        assert result.raw_rate_bps == pytest.approx(25.0)
        assert result.duration_ns == 16 * ms(40)
        channel.shutdown()
        system.stop()


class TestReceiverCalibrationGuard:
    def test_uncalibrated_receiver_rejected(self):
        from repro.core.receiver import UFReceiver

        system = System(seed=0)
        receiver = UFReceiver(system, core_id=8)
        with pytest.raises(ChannelError):
            receiver.receive_bit()
        receiver.shutdown()
        system.stop()
