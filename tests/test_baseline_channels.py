"""Baseline covert channels: functionality and defense behaviour.

The full Table 3 matrix runs in the benchmark harness; the tests here
cover each channel's baseline operation plus one representative
defense/prerequisite interaction per channel (kept small for speed).
"""

import pytest

from repro.channels import (
    FlushFlushChannel,
    FlushReloadChannel,
    IccCoresChannel,
    MeshContentionChannel,
    PrimeAbortChannel,
    PrimeProbeChannel,
    ReloadRefreshChannel,
    RingContentionChannel,
    SppChannel,
    UncoreIdleChannel,
    evaluate_channel,
)
from repro.channels.base import Prerequisites
from repro.channels.scenarios import scenario_by_key
from repro.core.evaluation import random_bits
from repro.platform import System


def baseline_system(seed):
    scenario = scenario_by_key("baseline")
    return System(scenario.platform(), security=scenario.security,
                  seed=seed)


def run_baseline(channel_cls, bits=14, seed=2):
    return evaluate_channel(
        channel_cls, scenario_by_key("baseline"), bits=bits, seed=seed
    )


def run_scenario(channel_cls, key, bits=14, seed=2):
    return evaluate_channel(
        channel_cls, scenario_by_key(key), bits=bits, seed=seed
    )


class TestBaselineFunctionality:
    @pytest.mark.parametrize("channel_cls", [
        FlushReloadChannel,
        FlushFlushChannel,
        PrimeProbeChannel,
        PrimeAbortChannel,
        MeshContentionChannel,
        RingContentionChannel,
        IccCoresChannel,
        UncoreIdleChannel,
    ])
    def test_channel_works_on_stock_platform(self, channel_cls):
        cell = run_baseline(channel_cls)
        assert cell.functional, cell.note
        assert cell.error_rate == 0.0

    def test_reload_refresh_works(self):
        cell = run_baseline(ReloadRefreshChannel)
        assert cell.functional, cell.note

    def test_spp_works(self):
        cell = run_baseline(SppChannel)
        assert cell.functional, cell.note


class TestPrerequisites:
    def test_flush_reload_needs_shared_memory(self):
        cell = run_scenario(FlushReloadChannel, "no_shared_mem")
        assert not cell.functional
        assert "cannot" in cell.note

    def test_flush_flush_needs_clflush(self):
        cell = run_scenario(FlushFlushChannel, "no_clflush")
        assert not cell.functional

    def test_prime_abort_needs_tsx(self):
        cell = run_scenario(PrimeAbortChannel, "no_tsx")
        assert not cell.functional

    def test_prime_probe_needs_nothing_special(self):
        for key in ("no_shared_mem", "no_clflush", "no_tsx"):
            assert run_scenario(PrimeProbeChannel, key).functional

    def test_declared_prerequisites(self):
        assert FlushReloadChannel.prerequisites() == Prerequisites(
            shared_memory=True, clflush=True
        )
        assert PrimeAbortChannel.prerequisites() == Prerequisites(
            tsx=True
        )
        assert SppChannel.prerequisites() == Prerequisites()


class TestDefenses:
    def test_randomization_breaks_prime_probe(self):
        assert not run_scenario(PrimeProbeChannel, "random_llc").functional

    def test_randomization_spares_flush_reload(self):
        assert run_scenario(FlushReloadChannel, "random_llc").functional

    def test_randomization_spares_spp(self):
        assert run_scenario(SppChannel, "random_llc").functional

    def test_fine_partition_breaks_mesh_contention(self):
        cell = run_scenario(MeshContentionChannel, "fine_partition")
        assert not cell.functional

    def test_fine_partition_spares_icc(self):
        assert run_scenario(IccCoresChannel, "fine_partition").functional

    def test_coarse_partition_breaks_icc(self):
        assert not run_scenario(IccCoresChannel,
                                "coarse_partition").functional

    def test_coarse_partition_spares_uncore_idle(self):
        cell = run_scenario(UncoreIdleChannel, "coarse_partition")
        assert cell.functional

    def test_stress_kills_uncore_idle(self):
        cell = run_scenario(UncoreIdleChannel, "stress4")
        assert not cell.functional


class TestChannelMechanics:
    def test_flush_reload_decodes_alternating(self):
        system = baseline_system(seed=3)
        channel = FlushReloadChannel(system)
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        outcome = channel.transmit(bits)
        assert list(outcome.received) == bits
        channel.shutdown()
        system.stop()

    def test_prime_probe_misses_reflect_sender(self):
        system = baseline_system(seed=3)
        channel = PrimeProbeChannel(system)
        assert channel.send_and_receive(1) == 1
        assert channel.send_and_receive(0) == 0
        channel.shutdown()
        system.stop()

    def test_uncore_idle_latency_separation(self):
        system = baseline_system(seed=3)
        channel = UncoreIdleChannel(system)
        low = channel._observe_state(1)
        high = channel._observe_state(0)
        assert high > low * 1.5
        channel.shutdown()
        system.stop()

    def test_outcome_metrics(self):
        system = baseline_system(seed=3)
        channel = FlushFlushChannel(system)
        outcome = channel.transmit(random_bits(10, 3))
        assert outcome.raw_rate_bps > 1000  # microsecond-scale bits
        assert outcome.capacity_bps <= outcome.raw_rate_bps
        channel.shutdown()
        system.stop()
