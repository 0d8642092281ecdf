"""Platform assembly: latency model, system wiring, actor facade."""

import math

import numpy as np
import pytest

from repro.cache.hierarchy import Level
from repro.config import LatencyModelConfig
from repro.cpu.msr import MSR_UCLK_FIXED_CTR, MSR_UNCORE_RATIO_LIMIT
from repro.errors import ConfigError, PrerequisiteError, PrivilegeError
from repro.platform import LatencyModel, SecurityConfig, System
from repro.platform.latency import WINDOW_STREAMS
from repro.platform.tracing import frequency_trace, step_times_ms
from repro.rng import SeedSequenceNamer, child_rng
from repro.units import ms, us
from repro.workloads import StallingLoop


@pytest.fixture
def model() -> LatencyModel:
    return LatencyModel(LatencyModelConfig(), seed=0)


class TestLatencyModel:
    def test_figure9_anchor_points(self, model):
        """1-hop latencies: 79 cycles at 1.5 GHz, 63 at 2.2 GHz."""
        assert model.mean_llc_cycles(1, 1500) == pytest.approx(79.0,
                                                               abs=0.5)
        assert model.mean_llc_cycles(1, 2200) == pytest.approx(63.0,
                                                               abs=0.5)

    def test_latency_monotone_decreasing_in_frequency(self, model):
        latencies = [
            model.mean_llc_cycles(1, f) for f in range(1500, 2401, 100)
        ]
        assert latencies == sorted(latencies, reverse=True)

    def test_latency_monotone_increasing_in_hops(self, model):
        latencies = [model.mean_llc_cycles(h, 2000) for h in range(4)]
        assert latencies == sorted(latencies)

    def test_figure8_range_50_to_100_cycles(self, model):
        """All (hop, frequency) combinations span the 50-100 cycle
        window of Figure 8."""
        for hops in range(4):
            for freq in range(1500, 2401, 100):
                latency = model.mean_llc_cycles(hops, freq)
                assert 50.0 < latency < 100.0

    def test_level_ordering(self, model):
        l1 = model.mean_cycles(Level.L1, 0, 2000)
        l2 = model.mean_cycles(Level.L2, 0, 2000)
        llc = model.mean_cycles(Level.LLC, 1, 2000)
        remote = model.mean_cycles(Level.REMOTE_CACHE, 1, 2000)
        dram = model.mean_cycles(Level.DRAM, 1, 2000)
        assert l1 < l2 < llc < remote < dram

    def test_contention_adds_latency(self, model):
        quiet = model.mean_cycles(Level.LLC, 2, 2000)
        contended = model.mean_cycles(Level.LLC, 2, 2000,
                                      contention_flows=1.0)
        assert contended > quiet + 3.0

    def test_frequency_inversion_round_trip(self, model):
        for freq in (1500, 1800, 2100, 2400):
            latency = model.mean_llc_cycles(1, freq)
            recovered = model.frequency_from_latency(latency, 1)
            assert recovered == pytest.approx(freq, rel=0.001)

    def test_sampling_is_noisy_but_unbiased(self, model):
        samples = model.sample_many(4000, Level.LLC, 1, 2000)
        mean = model.mean_llc_cycles(1, 2000)
        assert abs(float(samples.mean()) - mean) < 1.0
        assert float(samples.std()) > 0.5

    def test_noise_has_right_tail(self, model):
        samples = model.sample_many(20_000, Level.LLC, 1, 2000)
        mean = model.mean_llc_cycles(1, 2000)
        p99 = float(np.percentile(samples, 99))
        p1 = float(np.percentile(samples, 1))
        assert p99 - mean > mean - p1  # skewed right

    def test_loop_iteration_time_includes_fences(self, model):
        iteration = model.loop_iteration_ns(70.0, 2600)
        assert iteration > 70.0 * 1000 / 2600


def _sign(value):
    return math.copysign(1.0, value)


class TestNoiseDraws:
    """The scaled standard draw stands in for ``normal(0.0, sigma)``:
    same values, signs of zero and stream position, so each window
    quantity matches ``normal`` draws on its own stream."""

    @pytest.mark.parametrize("sigma", [0.0, 0.8, 48.5])
    def test_scaled_standard_draw_is_normal(self, sigma):
        scaled = np.random.default_rng(11)
        normal = np.random.default_rng(11)
        for _ in range(100_000):
            value = 0.0 + sigma * scaled.standard_normal()
            expected = float(normal.normal(0.0, sigma))
            assert value == expected and _sign(value) == _sign(expected)
        assert scaled.bit_generator.state == normal.bit_generator.state

    @pytest.mark.parametrize("noise", [0.0, 1.6])
    def test_each_window_quantity_matches_its_own_stream(self, noise):
        config = LatencyModelConfig(noise_sigma_cycles=noise,
                                    window_jitter_cycles=noise / 2)
        model = LatencyModel(config, seed=3)
        jitter, tail_count, tail_mass, bias_rng = (
            child_rng(3, name) for name in WINDOW_STREAMS)
        skipped = 0
        for count in (1, 2, 57, 917, 4000) * 40:
            f_ghz = 1.9
            mean = config.core_cycles + (
                config.slice_cycles + config.hop_cycles * 2) / f_ghz
            mean += config.contention_cycles_per_flow * 0.5 / f_ghz
            total = count * mean + float(jitter.normal(
                0.0, config.noise_sigma_cycles * math.sqrt(count)))
            tails = int(tail_count.binomial(count, config.noise_tail_prob))
            if tails:
                total += float(tail_mass.gamma(tails,
                                               config.noise_tail_cycles))
            else:
                skipped += 1
            assert model.segment_llc_sum(count, 2, 1900, 0.5) == total
            bias = model.window_bias()
            expected = float(bias_rng.normal(0.0,
                                             config.window_jitter_cycles))
            assert bias == expected and _sign(bias) == _sign(expected)
        assert skipped  # some segments drew no tail mass
        assert _window_states(model) == [
            oracle.bit_generator.state
            for oracle in (jitter, tail_count, tail_mass, bias_rng)]


def _window_states(model):
    return [stream.bit_generator.state for stream in (
        model.jitter_rng, model.tail_count_rng, model.tail_mass_rng,
        model.bias_rng)]


class TestNoiseStreams:
    """Timed loads draw from ``latency-noise`` alone and measurement
    windows from their four streams alone, so window draws never shift
    a probe's samples (the golden corpora pin those)."""

    def test_per_sample_stream_is_the_systems_latency_noise(self):
        model = LatencyModel(LatencyModelConfig(), seed=11)
        oracle = SeedSequenceNamer(11).rng("latency-noise")
        assert (model.rng.standard_normal(5)
                == oracle.standard_normal(5)).all()

    def test_timed_loads_leave_the_window_streams_untouched(self):
        model = LatencyModel(LatencyModelConfig(), seed=5)
        before = _window_states(model)
        model.sample_cycles(Level.LLC, 1, 2000)
        model.sample_many(300, Level.LLC, 2, 1800, contention_flows=0.5)
        assert _window_states(model) == before

    def test_window_draws_leave_latency_noise_untouched(self):
        plain = LatencyModel(LatencyModelConfig(), seed=5)
        mixed = LatencyModel(LatencyModelConfig(), seed=5)
        expected = [plain.sample_many(50, Level.LLC, 1, 2000)
                    for _ in range(3)]
        samples = []
        for _ in range(3):
            samples.append(mixed.sample_many(50, Level.LLC, 1, 2000))
            state = mixed.rng.bit_generator.state
            mixed.segment_llc_sum(40_000, 1, 2000, 0.25)
            mixed.window_bias()
            mixed.segment_llc_sums([1, 7, 40_000], mixed.segment_llc_means(
                1, [2000, 2000, 1500], [0.0, 0.0, 0.25]))
            mixed.window_biases(2)
            assert mixed.rng.bit_generator.state == state
        for got, want in zip(samples, expected):
            assert (got == want).all()

    def test_array_draws_equal_scalar_draws(self):
        # 1-sample segments, tail-free segments (no gamma drawn) and
        # large ones, mixed frequencies and flows.  The means draw
        # nothing, so one array serves the models of every seed.
        counts = [1, 1, 2, 3, 1, 96_000, 5, 104_211, 1, 64] * 30
        mhzs = [1500, 2400, 1800, 2200, 1500, 1600, 2000, 2300, 1900,
                2100] * 30
        flows = [0.0, 0.5, 1.25, 0.0, 2.0, 0.0, 0.75, 0.0, 0.0, 3.5] * 30
        means = LatencyModel(LatencyModelConfig(), seed=0).segment_llc_means(
            2, mhzs, flows)
        for seed in (8, 9):
            array = LatencyModel(LatencyModelConfig(), seed=seed)
            scalar = LatencyModel(LatencyModelConfig(), seed=seed)
            sums = array.segment_llc_sums(counts, means)
            assert sums.tolist() == [
                scalar.segment_llc_sum(n, 2, mhz, flow)
                for n, mhz, flow in zip(counts, mhzs, flows)]
            assert array.window_biases(37).tolist() == [
                scalar.window_bias() for _ in range(37)]
            assert _window_states(array) == _window_states(scalar)
            tails = child_rng(seed, WINDOW_STREAMS[1]).binomial(
                counts, LatencyModelConfig().noise_tail_prob)
            assert (tails == 0).any() and (tails > 0).any()


class TestSystem:
    def test_socket_accessors(self, system):
        assert system.num_sockets == 2
        assert system.socket(1).socket_id == 1
        with pytest.raises(ConfigError):
            system.socket(2)

    def test_time_advances(self, system):
        system.run_ms(5)
        assert system.now == ms(5)

    def test_msr_requires_privilege(self, system):
        with pytest.raises(PrivilegeError):
            system.read_msr(0, MSR_UNCORE_RATIO_LIMIT)

    def test_uclk_counter_tracks_frequency(self, system):
        first = system.read_msr(0, MSR_UCLK_FIXED_CTR, privileged=True)
        system.run_ms(1)
        second = system.read_msr(0, MSR_UCLK_FIXED_CTR, privileged=True)
        # ~1.4-1.5 GHz for 1 ms is ~1.45M ticks.
        assert 1_300_000 < second - first < 1_600_000

    def test_measure_frequency_via_msr(self, system):
        measured = system.measure_frequency_via_msr(0)
        assert measured == pytest.approx(1500, abs=110)

    def test_ratio_limit_write_reaches_pmu(self, system):
        from repro.cpu.msr import encode_uncore_ratio_limit

        system.write_msr(
            0, MSR_UNCORE_RATIO_LIMIT,
            encode_uncore_ratio_limit(1600, 1600), privileged=True,
        )
        assert not system.socket(0).pmu.ufs_enabled
        assert system.uncore_frequency_mhz(0) == 1600

    def test_seeded_systems_reproduce(self):
        def run(seed):
            system = System(seed=seed)
            loop = StallingLoop("s")
            system.launch(loop, 0, 0)
            system.run_ms(77)
            freq = system.uncore_frequency_mhz(0)
            system.stop()
            return freq

        assert run(42) == run(42)

    def test_stop_halts_pmus(self, system):
        system.stop()
        before = system.uncore_frequency_mhz(0)
        system.run_ms(50)
        assert system.uncore_frequency_mhz(0) == before


class TestSecurityWiring:
    def test_fine_partition_splits_slices(self):
        system = System(
            security=SecurityConfig(fine_partition=True, num_domains=2),
            seed=0,
        )
        hash0 = system.domain_slice_hash(0, 0)
        hash1 = system.domain_slice_hash(0, 1)
        assert not set(hash0.allowed_slices) & set(hash1.allowed_slices)
        assert (
            set(hash0.allowed_slices) | set(hash1.allowed_slices)
            == set(range(16))
        )

    def test_fine_partition_enables_tdm(self):
        system = System(
            security=SecurityConfig(fine_partition=True), seed=0
        )
        assert system.socket(0).contention.time_multiplexed

    def test_no_partition_full_hash(self, system):
        assert system.domain_slice_hash(0, 0).allowed_slices == tuple(
            range(16)
        )

    def test_unknown_domain_rejected(self):
        system = System(
            security=SecurityConfig(fine_partition=True, num_domains=2),
            seed=0,
        )
        with pytest.raises(ConfigError):
            system.domain_slice_hash(0, 5)

    def test_randomized_llc_uses_keyed_indexers(self):
        plain = System(seed=3)
        randomized = System(
            security=SecurityConfig(randomize_llc=True), seed=3
        )
        line = 0x123456
        plain_set = plain.socket(0).hierarchy.llc_slice(0).set_index(line)
        random_set = randomized.socket(0).hierarchy.llc_slice(
            0
        ).set_index(line)
        # With 2048 sets, agreeing by chance is unlikely; check several.
        agreements = sum(
            1
            for l in range(line, line + 64)
            if plain.socket(0).hierarchy.llc_slice(0).set_index(l)
            == randomized.socket(0).hierarchy.llc_slice(0).set_index(l)
        )
        assert agreements < 8

    def test_coarse_partition_numa_strict_spaces(self):
        system = System(
            security=SecurityConfig(coarse_partition=True), seed=0
        )
        space = system.create_address_space("p", numa_node=0)
        assert space.numa_strict


class TestActor:
    def test_actor_claims_core(self, system):
        actor = system.create_actor("proc", 0, 4)
        assert system.socket(0).core(4).owner == "proc"
        actor.retire()
        assert system.socket(0).core(4).owner is None

    def test_timed_load_advances_time(self, system):
        actor = system.create_actor("proc", 0, 4)
        allocation = actor.allocate(4096)
        before = system.now
        actor.timed_load(allocation.virtual_base)
        assert system.now > before

    def test_timed_load_levels_progress(self, system):
        actor = system.create_actor("proc", 0, 4)
        allocation = actor.allocate(4096)
        first = actor.timed_load(allocation.virtual_base)
        second = actor.timed_load(allocation.virtual_base)
        assert first.level is Level.DRAM
        assert second.level is Level.L1
        assert second.latency_cycles < first.latency_cycles

    def test_clflush_gated_by_platform(self, platform_config):
        import dataclasses

        config = dataclasses.replace(platform_config,
                                     clflush_available=False)
        system = System(config, seed=0)
        actor = system.create_actor("proc", 0, 4)
        allocation = actor.allocate(4096)
        with pytest.raises(PrerequisiteError):
            actor.clflush(allocation.virtual_base)

    def test_tsx_gated_by_platform(self, platform_config):
        import dataclasses

        config = dataclasses.replace(platform_config,
                                     tsx_available=False)
        system = System(config, seed=0)
        actor = system.create_actor("proc", 0, 4)
        with pytest.raises(PrerequisiteError):
            actor.begin_transaction([])

    def test_shared_memory_gated_by_platform(self, platform_config):
        import dataclasses

        config = dataclasses.replace(platform_config,
                                     shared_memory_available=False)
        system = System(config, seed=0)
        actor = system.create_actor("proc", 0, 4)
        with pytest.raises(PrerequisiteError):
            actor.share_segment(4096)

    def test_measurement_list_cycles_in_llc(self, system):
        actor = system.create_actor("proc", 0, 4)
        ev = actor.build_measurement_list(hops=1)
        actor.warm_list(ev)
        records = actor.load_series(list(ev.virtual_addresses))
        assert all(r.level is Level.LLC for r in records)

    def test_measure_window_reflects_frequency(self, system):
        actor = system.create_actor("probe", 0, 4)
        ev = actor.build_measurement_list(hops=1)
        actor.warm_list(ev)
        slow = actor.measure_window(ev, us(500))
        loop = StallingLoop("drive")
        system.launch(loop, 0, 0)
        system.run_ms(120)  # ramp to freq_max
        fast = actor.measure_window(ev, us(500))
        assert slow - fast > 10.0  # ~79 -> ~60 cycles

    def test_probe_frequency_estimate(self, system):
        actor = system.create_actor("probe", 0, 4)
        ev = actor.build_measurement_list(hops=1)
        actor.warm_list(ev)
        estimate = actor.probe_frequency_mhz(ev, samples=64)
        assert estimate == pytest.approx(
            system.uncore_frequency_mhz(0), rel=0.05
        )

    def test_local_slice_is_zero_hops(self, system):
        actor = system.create_actor("proc", 0, 4)
        assert system.socket(0).hops(4, actor.local_slice()) == 0


class TestTracing:
    def test_trace_axes(self, system):
        loop = StallingLoop("s")
        system.launch(loop, 0, 0)
        start = system.now
        system.run_ms(50)
        times, freqs = frequency_trace(
            system.socket(0).pmu.timeline, start, system.now, ms(5)
        )
        assert len(times) == len(freqs) == 10
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(45.0)

    def test_step_times_detect_changes(self, system):
        loop = StallingLoop("s")
        system.launch(loop, 0, 0)
        start = system.now
        system.run_ms(80)
        times, freqs = frequency_trace(
            system.socket(0).pmu.timeline, start, system.now, ms(1)
        )
        changes = step_times_ms(times, freqs)
        assert changes
        assert all(to - frm == 100 for _, frm, to in changes[1:])
