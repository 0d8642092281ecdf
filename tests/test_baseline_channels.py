"""Baseline covert channels: functionality and defense behaviour.

The full Table 3 matrix runs in the benchmark harness; the tests here
cover each channel's baseline operation plus one representative
defense/prerequisite interaction per channel (kept small for speed).
"""

from dataclasses import replace

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
from repro.channels.base import BaselineChannel, Prerequisites
from repro.channels.comparison import (
    ALL_CHANNELS,
    PAPER_TABLE3,
    UFVariationAdapter,
)
from repro.channels.scenarios import (
    SCENARIOS,
    Placement,
    scenario_by_key,
)
from repro.config import default_platform_config
from repro.core.evaluation import random_bits
from repro.errors import ChannelError
from repro.platform import System
from repro.platform.system import SecurityConfig

#: The ten prior channels.  UF-variation joins Table 3 through an
#: adapter and declares no prerequisites.
PRIOR_CHANNELS = [c for c in ALL_CHANNELS if issubclass(c, BaselineChannel)]

#: The Table 3 column that withholds each :class:`Prerequisites` field.
PREREQUISITE_COLUMNS = {
    "shared_memory": "no_shared_mem",
    "clflush": "no_clflush",
    "tsx": "no_tsx",
}

#: Every (row, column) pair whose column withholds a feature the row
#: declares it needs.
WITHHELD = [
    (channel_cls, key)
    for channel_cls in PRIOR_CHANNELS
    for feature, key in PREREQUISITE_COLUMNS.items()
    if getattr(channel_cls.prerequisites(), feature)
]


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


def test_table3_rows_are_the_papers_eleven():
    """Every row is a paper row, and each grades the seven
    non-baseline scenarios: ``repro compare`` grades 77 cells."""
    assert [c.name for c in ALL_CHANNELS] == list(PAPER_TABLE3)
    assert len(ALL_CHANNELS) == 11
    graded = [s.key for s in SCENARIOS if s.key != "baseline"]
    assert len(graded) == 7
    for name, row in PAPER_TABLE3.items():
        assert list(row) == graded, name


@pytest.mark.parametrize("channel_cls", PRIOR_CHANNELS,
                         ids=lambda c: c.name)
def test_declared_prerequisites_are_the_papers_columns(channel_cls):
    """A row needs a feature exactly where the paper marks the column
    that withholds it "no"."""
    needs = channel_cls.prerequisites()
    row = PAPER_TABLE3[channel_cls.name]
    for feature, key in PREREQUISITE_COLUMNS.items():
        assert row[key] is not getattr(needs, feature), key


@pytest.mark.parametrize("channel_cls, key", WITHHELD,
                         ids=[f"{c.name}-{k}" for c, k in WITHHELD])
def test_withheld_prerequisite_stops_the_row(channel_cls, key):
    cell = run_scenario(channel_cls, key)
    assert not cell.functional
    # Refused by the platform, not decoded at chance.
    assert cell.error_rate is None
    assert cell.note.startswith("cannot "), cell.note


class TestScenarios:
    def test_baseline_is_the_stock_platform(self):
        baseline = scenario_by_key("baseline")
        assert baseline.platform() == default_platform_config()
        assert baseline.security == SecurityConfig()
        assert baseline.placement == Placement()
        assert baseline.stress_threads == 0

    @pytest.mark.parametrize("scenario", SCENARIOS[1:],
                             ids=lambda s: s.key)
    def test_each_column_varies_one_thing(self, scenario):
        withheld = [feature for feature in PREREQUISITE_COLUMNS
                    if not getattr(scenario, feature)]
        changed = {
            "prerequisite": bool(withheld),
            "defense": scenario.security != SecurityConfig(),
            "noise": scenario.stress_threads != 0,
        }
        assert sum(changed.values()) == 1, changed
        assert len(withheld) <= 1
        # The parties move only to sit on either side of a partition.
        if scenario.placement != Placement():
            assert changed["defense"]
        # The platform differs from stock by the withheld feature only.
        restored = replace(scenario.platform(),
                           shared_memory_available=True,
                           clflush_available=True, tsx_available=True)
        assert restored == default_platform_config()

    def test_unknown_key_is_a_key_error(self):
        with pytest.raises(KeyError, match="no scenario"):
            scenario_by_key("no_such_column")


class TestUFVariationRow:
    """The paper's own row, the only one marked "yes" in every column."""

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.key)
    def test_works_in_every_scenario(self, scenario):
        # comparison_matrix's default shape: 24 bits at seed 0.
        cell = evaluate_channel(UFVariationAdapter, scenario)
        assert cell.functional, (cell.error_rate, cell.note)

    def test_stalls_six_free_cores(self):
        system = baseline_system(seed=0)
        adapter = UFVariationAdapter(system)
        owners = {core.core_id: core.owner
                  for core in system.socket(0).cores if core.owner}
        assert sorted(owners) == [0, 1, 2, 3, 4, 5, 8]
        assert owners[8].startswith("uf-receiver")
        adapter.shutdown()
        assert not any(core.owner for core in system.socket(0).cores)
        system.stop()

    def test_stalls_only_the_placed_core_when_crowded(self):
        system = baseline_system(seed=0)
        for core in system.socket(0).cores:
            if core.core_id not in (0, 1, 8):
                system.create_actor(f"busy-{core.core_id}", 0,
                                    core.core_id)
        adapter = UFVariationAdapter(system)
        senders = [core.core_id for core in system.socket(0).cores
                   if core.owner and core.owner.startswith("uf-sender")]
        assert senders == [0]
        assert list(adapter.transmit([1, 0, 1, 1]).received) == [1, 0, 1, 1]
        adapter.shutdown()
        system.stop()


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

    def test_transmit_rejects_non_binary_bits(self):
        system = baseline_system(seed=3)
        channel = FlushReloadChannel(system)
        with pytest.raises(ChannelError, match="0/1"):
            channel.transmit([1, 2, 0])
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
