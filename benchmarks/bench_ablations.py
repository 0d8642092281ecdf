"""Ablations over the channel's design choices.

Not a paper table — these quantify the design decisions Section 4
discusses in prose:

* sender drive mechanism: stalling loop vs heavy traffic loop
  (Section 4.3.1 footnote 5: either works);
* receiver probing distance: the latency-vs-frequency slope grows with
  hop count, but every distance decodes (Figure 8 shows all four);
* interval vs the 10 ms PMU period: intervals well under one PMU
  period cannot carry the modulation.
"""

from repro.analysis import format_table
from repro.core import ChannelConfig, SenderMode, UFVariationChannel
from repro.core.evaluation import measure_capacity, random_bits
from repro.platform import System
from repro.units import ms

from _harness import report, run_once


def test_ablation_sender_mode(benchmark):
    def experiment():
        return {
            mode: measure_capacity(
                interval_ms=24.0, bits=150, seed=6, sender_mode=mode
            )
            for mode in (SenderMode.STALL, SenderMode.TRAFFIC)
        }

    results = run_once(benchmark, experiment)
    rows = [
        [mode.value, f"{100 * p.error_rate:.1f}",
         f"{p.capacity_bps:.1f}"]
        for mode, p in results.items()
    ]
    report(
        "ablation_sender_mode",
        format_table(
            ["sender drive", "BER (%)", "capacity (bit/s)"], rows,
            title="Ablation: stalling loop vs heavy traffic loop",
        ),
    )
    for point in results.values():
        assert point.error_rate < 0.15  # both mechanisms work


def test_ablation_probe_hops(benchmark):
    def experiment():
        results = {}
        for hops in (0, 1, 2, 3):
            system = System(seed=6)
            channel = UFVariationChannel(
                system,
                config=ChannelConfig(interval_ns=ms(24), hops=hops),
            )
            outcome = channel.transmit(random_bits(120, 6, f"h{hops}"))
            channel.shutdown()
            system.stop()
            results[hops] = outcome
        return results

    results = run_once(benchmark, experiment)
    rows = [
        [hops, f"{100 * o.error_rate:.1f}", f"{o.capacity_bps:.1f}"]
        for hops, o in results.items()
    ]
    report(
        "ablation_probe_hops",
        format_table(
            ["probe hops", "BER (%)", "capacity (bit/s)"], rows,
            title="Ablation: receiver probing distance",
        ),
    )
    for outcome in results.values():
        assert outcome.error_rate < 0.2


def test_ablation_interval_below_pmu_period(benchmark):
    """An interval shorter than the PMU evaluation period cannot carry
    the frequency modulation."""

    def experiment():
        return measure_capacity(interval_ms=10.0, bits=150, seed=6)

    point = run_once(benchmark, experiment)
    report(
        "ablation_sub_period_interval",
        f"10 ms interval (= one PMU period): BER "
        f"{100 * point.error_rate:.1f} %, capacity "
        f"{point.capacity_bps:.1f} bit/s (channel unusable)",
    )
    assert point.error_rate > 0.3

