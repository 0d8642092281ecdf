"""Platform configuration validation and Table 1 fidelity."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CStateConfig,
    DemandModelConfig,
    EnergyModelConfig,
    LatencyModelConfig,
    SOCKET0_ACTIVE_TILES,
    SOCKET1_ACTIVE_TILES,
    UfsConfig,
    default_platform_config,
    platform_summary,
    single_socket_config,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_l1_geometry(self):
        l1 = CacheConfig("L1D", 32 * 1024, 8)
        assert l1.num_sets == 64

    def test_l2_geometry(self):
        l2 = CacheConfig("L2", 1024 * 1024, 16)
        assert l2.num_sets == 1024

    def test_llc_slice_geometry(self):
        llc = CacheConfig("LLC", 1408 * 1024, 11)
        assert llc.num_sets == 2048

    def test_rejects_non_integral_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 1000, 3).validate()

    def test_rejects_non_power_of_two_sets(self):
        # 3 sets of 2 ways x 64 B
        with pytest.raises(ConfigError):
            CacheConfig("bad", 3 * 2 * 64, 2).validate()

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 0, 8).validate()


class TestUfsConfig:
    def test_defaults_match_table1(self):
        ufs = UfsConfig()
        assert ufs.min_freq_mhz == 1200
        assert ufs.max_freq_mhz == 2400
        assert ufs.period_ns == 10_000_000

    def test_frequency_points_are_100mhz_spaced(self):
        points = UfsConfig().frequency_points_mhz
        assert points[0] == 1200
        assert points[-1] == 2400
        assert all(b - a == 100 for a, b in zip(points, points[1:]))

    def test_rejects_inverted_range(self):
        with pytest.raises(ConfigError):
            UfsConfig(min_freq_mhz=2400, max_freq_mhz=1200).validate()

    def test_rejects_misaligned_range(self):
        with pytest.raises(ConfigError):
            UfsConfig(min_freq_mhz=1250, step_mhz=100).validate()

    def test_rejects_bad_trigger_fraction(self):
        with pytest.raises(ConfigError):
            UfsConfig(stalled_fraction_trigger=1.5).validate()

    @pytest.mark.parametrize("observation_ns", [0, -5_000_000])
    def test_rejects_empty_observation_window(self, observation_ns):
        # Either backend would otherwise die mid-run on an empty window.
        with pytest.raises(ConfigError, match="observation"):
            UfsConfig(observation_ns=observation_ns).validate()


class TestDemandModelConfig:
    def test_default_bands_are_monotone(self):
        DemandModelConfig().validate()

    def test_rejects_unsorted_bands(self):
        bad = DemandModelConfig(
            llc_bands=((1.0, 2200), (0.5, 2100))
        )
        with pytest.raises(ConfigError):
            bad.validate()

    def test_rejects_non_monotone_targets(self):
        bad = DemandModelConfig(
            llc_bands=((0.5, 2200), (1.0, 2100))
        )
        with pytest.raises(ConfigError):
            bad.validate()


class TestLatencyModelConfig:
    def test_default_validates(self):
        LatencyModelConfig().validate()

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ConfigError):
            LatencyModelConfig(core_cycles=-1.0).validate()

    def test_rejects_bad_tail_probability(self):
        with pytest.raises(ConfigError):
            LatencyModelConfig(noise_tail_prob=1.2).validate()


class TestCStateConfig:
    def test_default_validates(self):
        CStateConfig().validate()

    def test_exit_latencies_start_at_zero(self):
        config = CStateConfig()
        assert config.core_exit_latency_ns[0] == 0
        assert config.package_exit_latency_ns[0] == 0

    def test_rejects_non_monotone(self):
        with pytest.raises(ConfigError):
            CStateConfig(
                core_exit_latency_ns=(0, 100, 50)
            ).validate()

    def test_deepest_states(self):
        config = CStateConfig()
        assert config.deepest_core_state == 3
        assert config.deepest_package_state == 3


class TestEnergyModel:
    def test_power_increases_with_frequency(self):
        model = EnergyModelConfig()
        powers = [model.power_watts(f) for f in (1200, 1800, 2400)]
        assert powers == sorted(powers)
        assert powers[0] < powers[-1]

    def test_power_superlinear_in_frequency(self):
        # V scales with f, so dynamic power grows faster than linear.
        model = EnergyModelConfig()
        p12, p24 = model.power_watts(1200), model.power_watts(2400)
        dynamic12 = p12 - model.static_watts
        dynamic24 = p24 - model.static_watts
        assert dynamic24 > 2.0 * dynamic12


class TestPlatform:
    def test_default_platform_validates(self):
        default_platform_config().validate()

    def test_dual_socket_16_cores_each(self):
        config = default_platform_config()
        assert config.num_sockets == 2
        assert config.total_cores == 32

    def test_socket0_matches_figure2(self):
        # Figure 2: 16 enabled core tiles on the 5x6 XCC die.
        assert len(SOCKET0_ACTIVE_TILES) == 16
        assert (3, 3) in SOCKET0_ACTIVE_TILES  # the measuring core
        assert (2, 3) in SOCKET0_ACTIVE_TILES  # its 1-hop slice

    def test_socket1_is_a_distinct_fuse_pattern(self):
        assert set(SOCKET0_ACTIVE_TILES) != set(SOCKET1_ACTIVE_TILES)
        assert len(SOCKET1_ACTIVE_TILES) == 16

    def test_tiles_do_not_collide_with_imcs(self):
        config = default_platform_config()
        for socket in config.sockets:
            assert not set(socket.core_tiles) & set(socket.imc_tiles)

    def test_with_ufs_returns_modified_copy(self):
        config = default_platform_config()
        narrow = config.with_ufs(min_freq_mhz=1500, max_freq_mhz=1700)
        assert narrow.ufs.max_freq_mhz == 1700
        assert config.ufs.max_freq_mhz == 2400  # original untouched

    def test_single_socket_config(self):
        config = single_socket_config()
        assert config.num_sockets == 1
        config.validate()

    def test_rejects_out_of_order_socket_ids(self):
        config = default_platform_config()
        swapped = dataclasses.replace(
            config, sockets=tuple(reversed(config.sockets))
        )
        with pytest.raises(ConfigError):
            swapped.validate()

    def test_summary_reports_table1_rows(self):
        summary = platform_summary(default_platform_config())
        assert summary["Num of cores"] == "2x16"
        assert summary["Core base frequency"] == "2.6 GHz"
        assert summary["UFS"] == "1.2-2.4 GHz"
        assert "22528KB" in summary["LLC"]
        assert "non-inclusive" in summary["LLC"]

    def test_duplicate_tile_rejected(self):
        config = default_platform_config()
        socket = config.sockets[0]
        doubled = dataclasses.replace(
            socket,
            core_tiles=socket.core_tiles[:15] + (socket.core_tiles[0],),
        )
        with pytest.raises(ConfigError):
            doubled.validate()

    def test_out_of_grid_tile_rejected(self):
        config = default_platform_config()
        socket = config.sockets[0]
        bad = dataclasses.replace(
            socket, core_tiles=socket.core_tiles[:15] + ((9, 9),)
        )
        with pytest.raises(ConfigError):
            bad.validate()
