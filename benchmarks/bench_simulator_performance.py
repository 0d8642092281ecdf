"""Simulator performance micro-benchmarks.

Not a paper artefact: these track the cost of the substrate itself
(event throughput, cache-model loads, PMU evaluation, probe windows) so
regressions in simulation speed are caught the same way result
regressions are.  Unlike the experiment benches these use real
multi-round timing.
"""

import time

import numpy as np
import pytest
from _harness import report

from repro.engine import Engine, PeriodicTask
from repro.platform import System
from repro.sidechannel.rnn import RnnClassifier, RnnConfig
from repro.units import ms, us


#: Events per throughput spin.
SPIN_EVENTS = 10_000


def event_spin() -> int:
    """One event-throughput spin: a fresh engine fires ``SPIN_EVENTS``
    self-rescheduling events."""
    engine = Engine()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < SPIN_EVENTS:
            engine.schedule(10, tick)

    engine.schedule(10, tick)
    engine.run()
    return count


def event_spin_telemetry() -> int:
    """:func:`event_spin` with a telemetry registry active, harvested
    and snapshotted at teardown."""
    from repro.telemetry import MetricsRegistry, harvest_engine, using

    registry = MetricsRegistry()
    with using(registry):
        engine = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < SPIN_EVENTS:
                engine.schedule(10, tick)

        engine.schedule(10, tick)
        engine.run()
        harvest_engine(engine, registry)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["engine.events_fired"] == SPIN_EVENTS
    return count


def test_perf_engine_event_throughput(benchmark):
    assert benchmark(event_spin) == SPIN_EVENTS


def test_perf_engine_event_throughput_telemetry(benchmark):
    """The event-throughput spin with telemetry active.

    Instrumentation is always-on plain-int counters harvested at
    teardown, so this must cost within 5 % of the plain spin.  The CI
    perf gate (``benchmarks/check_regression.py``) enforces that on
    interleaved plain/telemetry pairs of :func:`event_spin` and
    :func:`event_spin_telemetry` run in one process.
    """
    assert benchmark(event_spin_telemetry) == SPIN_EVENTS


def test_perf_engine_cancel_churn(benchmark):
    """Throughput with heavy cancellation: schedule two timers per tick
    and cancel one, so tombstones accumulate and the heap's
    auto-compaction path is exercised."""

    def churn():
        engine = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 5_000:
                engine.schedule(10, tick)
                engine.schedule(20, lambda: None).cancel()

        engine.schedule(10, tick)
        engine.run()
        # Counter bookkeeping must survive the churn.
        assert engine.pending == 0
        return count

    assert benchmark(churn) == 5_000


def test_perf_periodic_fast_path(benchmark):
    """Cost of a steady periodic tick (the PMU pattern): after the
    first firing, rescheduling reuses the same Event handle."""

    def tick_10k():
        engine = Engine()
        task = PeriodicTask(engine, 10, lambda: None)
        engine.run_until(100_000)
        task.stop()
        return task.fire_count

    assert benchmark(tick_10k) == 10_000


def test_perf_parallel_capacity_scaling(benchmark):
    """Serial vs multi-process wall time for a Figure 10 sweep slice.

    Results must be bit-identical at every worker count; the timing
    table records how the runner scales on this machine (on a
    single-CPU box the parallel rows just pay fork overhead).
    """
    from repro.core.evaluation import capacity_sweep

    kwargs = dict(intervals_ms=(60.0, 45.0, 38.0, 33.0), bits=12, seed=0)

    def sweep_serial():
        return capacity_sweep(**kwargs, workers=1)

    serial = benchmark.pedantic(sweep_serial, rounds=1, iterations=1,
                                warmup_rounds=0)
    lines = []
    for workers in (1, 2, 4):
        start = time.perf_counter()
        points = capacity_sweep(**kwargs, workers=workers)
        elapsed = time.perf_counter() - start
        assert points == serial, f"workers={workers} diverged from serial"
        lines.append(f"workers={workers}: {elapsed:6.2f} s  (bit-identical)")
    report("perf_parallel_capacity_scaling", "\n".join(lines))


def test_perf_simulated_second_idle(benchmark):
    """Wall cost of one simulated second of an idle dual-socket box."""

    def run():
        system = System(seed=0)
        system.run_ms(1_000)
        system.stop()
        return system.engine.events_fired

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert events > 100  # PMU ticks on both sockets


def test_perf_cache_load_path(benchmark):
    system = System(seed=0)
    actor = system.create_actor("perf", 0, 4)
    ev = actor.build_measurement_list(hops=1)
    actor.warm_list(ev)
    addresses = list(ev.virtual_addresses)

    def walk():
        for virtual in addresses:
            actor.timed_load(virtual, advance_time=False)
        return len(addresses)

    assert benchmark(walk) == 20


def test_perf_measure_window(benchmark):
    system = System(seed=0)
    actor = system.create_actor("perf", 0, 4)
    ev = actor.build_measurement_list(hops=1)
    actor.warm_list(ev)

    def window():
        return actor.measure_window(ev, us(500))

    latency = benchmark(window)
    assert 50.0 < latency < 100.0


def test_perf_eviction_list_search(benchmark):
    def build():
        system = System(seed=0)
        actor = system.create_actor("perf", 0, 4)
        ev = actor.build_measurement_list(hops=1)
        return len(ev)

    assert benchmark.pedantic(build, rounds=3, iterations=1) == 20


def test_perf_eviction_measurement_list(benchmark):
    """The receiver's Listing 3 list alone: each round builds a fresh
    System and actor untimed, then times the set-first search (frame
    allocation, set filter, slice hash on the survivors)."""

    def fresh_actor():
        system = System(seed=0)
        return (system.create_actor("perf", 0, 4),), {}

    def search(actor):
        return len(actor.build_measurement_list(hops=1))

    assert benchmark.pedantic(search, setup=fresh_actor, rounds=10,
                              iterations=1) == 20


def test_perf_trace_collection(benchmark):
    """One 400 ms frequency trace at the paper's 3 ms cadence, the
    fig12-fingerprint op's trace length.  Each round builds a System
    and settles a UfsAttacker untimed, then times the collection: the
    probe bursts, the latency draws and the PMU ticks between them."""
    from repro.sidechannel.methodology import UfsAttacker
    from repro.sidechannel.tracer import FrequencyTraceCollector

    def settled_collector():
        attacker = UfsAttacker(System(seed=0))
        attacker.settle()
        return (FrequencyTraceCollector(attacker),), {}

    def collect(collector):
        return len(collector.collect(400.0).freqs_mhz)

    assert benchmark.pedantic(collect, setup=settled_collector, rounds=10,
                              iterations=1) == 134


def test_perf_rnn_fit(benchmark):
    """RNN training at the fig12-fingerprint op shape: 8 traces of 96
    steps, 64 hidden units, 4 classes (20 epochs instead of 100)."""
    rng = np.random.default_rng(0)
    features = rng.random((8, 96))
    labels = np.arange(8) % 4

    def fit():
        model = RnnClassifier(RnnConfig(num_classes=4, hidden_dim=64,
                                        epochs=20, seed=0))
        return len(model.fit(features, labels).loss)

    assert benchmark.pedantic(fit, rounds=10, iterations=1) == 20
