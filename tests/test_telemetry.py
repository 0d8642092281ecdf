"""The telemetry layer: registry semantics, harvesting, determinism."""

import json

import pytest

from repro.core.context import ExperimentContext
from repro.core.evaluation import (
    CapacityPoint,
    SweepResult,
    capacity_sweep,
    measure_capacity,
)
from repro.engine import Engine
from repro.errors import ConfigError
from repro.telemetry import (
    MetricsRegistry,
    activate,
    active_registry,
    build_manifest,
    config_digest,
    deactivate,
    harvest_engine,
    using,
)


class TestCounter:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        assert registry.counter("hits").value == 5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.counter("hits").inc(-1)


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", (10.0, 20.0))
        hist.observe(5.0)    # (-inf, 10]
        hist.observe(10.0)   # (-inf, 10] (closed upper edge)
        hist.observe(15.0)   # (10, 20]
        hist.observe(99.0)   # (20, +inf)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4

    def test_mean(self):
        hist = MetricsRegistry().histogram("lat", (10.0,))
        hist.observe(4.0, count=3)
        assert hist.mean == pytest.approx(4.0)

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("lat", (20.0, 10.0))

    def test_reregistration_with_same_edges_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.histogram("lat", (10.0,)) is registry.histogram(
            "lat", (10.0,)
        )

    def test_reregistration_with_different_edges_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (10.0,))
        with pytest.raises(ConfigError):
            registry.histogram("lat", (10.0, 20.0))


class TestRegistry:
    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.histogram("x", (1.0,))
        registry.histogram("y", (1.0,))
        with pytest.raises(ConfigError):
            registry.counter("y")

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.histogram("h", (10.0,)).observe(3.0)
        json.dumps(registry.snapshot())  # must not raise

    def test_merge_adds_counters_and_buckets(self):
        left = MetricsRegistry()
        left.inc("c", 2)
        left.histogram("h", (10.0,)).observe(5.0)
        right = MetricsRegistry()
        right.inc("c", 3)
        right.histogram("h", (10.0,)).observe(50.0)
        left.merge_snapshot(right.snapshot())
        snap = left.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["histograms"]["h"]["counts"] == [1, 1]

    def test_merge_rejects_mismatched_histogram_edges(self):
        left = MetricsRegistry()
        left.histogram("h", (10.0,))
        right = MetricsRegistry()
        right.histogram("h", (10.0, 20.0)).observe(15.0)
        with pytest.raises(ConfigError):
            left.merge_snapshot(right.snapshot())

    def test_clear(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.clear()
        assert registry.snapshot()["counters"] == {}


class TestAmbientContext:
    def test_no_registry_by_default(self):
        assert active_registry() is None

    def test_using_activates_and_restores(self):
        registry = MetricsRegistry()
        with using(registry):
            assert active_registry() is registry
        assert active_registry() is None

    def test_using_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with using(outer):
            with using(inner):
                assert active_registry() is inner
            assert active_registry() is outer

    def test_activate_returns_previous(self):
        registry = MetricsRegistry()
        assert activate(registry) is None
        try:
            assert active_registry() is registry
        finally:
            deactivate()
        assert active_registry() is None

    def test_activation_is_per_thread(self):
        # Threads that each activate a fresh registry must neither see
        # each other's registry nor clobber the restore of an
        # overlapping using() block.
        import threading

        start = threading.Barrier(2)
        results = {}

        def job(name: str) -> None:
            registry = MetricsRegistry()
            with using(registry):
                start.wait(timeout=5)
                registry.inc(f"job.{name}")
                results[name] = active_registry() is registry
            results[f"{name}.restored"] = active_registry() is None

        threads = [threading.Thread(target=job, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == {"a": True, "a.restored": True,
                           "b": True, "b.restored": True}
        assert active_registry() is None

    def test_new_thread_starts_with_no_registry(self):
        import threading

        seen = []
        with using(MetricsRegistry()):
            thread = threading.Thread(
                target=lambda: seen.append(active_registry()))
            thread.start()
            thread.join(timeout=10)
        assert seen == [None]


class TestEngineCounters:
    def test_scheduling_and_cancellation_counted(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None).cancel()
        engine.run()
        assert engine.events_scheduled == 2
        assert engine.events_fired == 1
        assert engine.events_cancelled == 1

    def test_harvest_engine_mirrors_properties(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        registry = MetricsRegistry()
        harvest_engine(engine, registry)
        counters = registry.snapshot()["counters"]
        assert counters["engine.events_fired"] == engine.events_fired
        assert counters["engine.simulated_ns"] == engine.now


class TestExperimentHarvest:
    def test_capacity_run_populates_every_layer(self):
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=28.0, bits=8)
        counters = registry.snapshot()["counters"]
        for name in ("engine.events_fired", "ufs.evaluations",
                     "ufs.freq_steps", "cache.loads",
                     "noc.hop_queries", "channel.bits_sent"):
            assert counters[name] > 0, name
        histograms = registry.snapshot()["histograms"]
        assert histograms["ufs.freq_mhz"]["count"] > 0
        assert histograms["channel.latency_cycles"]["count"] > 0

    def test_results_bit_identical_with_telemetry_on_and_off(self):
        kwargs = dict(intervals_ms=(28.0, 24.0), bits=8, seed=3)
        plain = capacity_sweep(**kwargs)
        with using(MetricsRegistry()):
            instrumented = capacity_sweep(**kwargs)
        assert instrumented == plain

    def test_serial_and_parallel_snapshots_identical(self):
        kwargs = dict(intervals_ms=(28.0, 24.0, 21.0), bits=8, seed=3)
        serial = MetricsRegistry()
        with using(serial):
            serial_sweep = capacity_sweep(**kwargs, workers=1)
        parallel = MetricsRegistry()
        with using(parallel):
            parallel_sweep = capacity_sweep(**kwargs, workers=2)
        assert parallel_sweep == serial_sweep
        assert parallel.snapshot() == serial.snapshot()


class TestSweepResult:
    def _sweep(self) -> SweepResult:
        return SweepResult(points=(
            CapacityPoint(38.0, 26.3, 0.00, 26.3, 100),
            CapacityPoint(21.0, 47.6, 0.02, 40.9, 100),
            CapacityPoint(12.0, 83.3, 0.30, 10.0, 100),
        ))

    def test_list_likeness(self):
        sweep = self._sweep()
        assert len(sweep) == 3
        assert sweep[1].interval_ms == 21.0
        assert [p.interval_ms for p in sweep] == [38.0, 21.0, 12.0]

    def test_peak(self):
        assert self._sweep().peak().capacity_bps == 40.9

    def test_peak_of_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepResult(points=()).peak()

    def test_summarize(self):
        summary = self._sweep().summarize()
        assert summary["peak_capacity_bps"] == 40.9
        assert summary["peak_interval_ms"] == 21.0

    def test_to_json_round_trips(self):
        data = json.loads(self._sweep().to_json())
        assert len(data["points"]) == 3
        assert data["summary"]["peak_capacity_bps"] == 40.9

    def test_built_from_a_plain_point_list(self):
        points = list(self._sweep().points)
        sweep = SweepResult(points=tuple(points))
        assert sweep.peak().capacity_bps == 40.9
        assert sweep.summarize()["peak_interval_ms"] == 21.0


class TestExperimentContext:
    def test_trio_builds_context(self):
        ctx = ExperimentContext(seed=5, workers=2)
        assert (ctx.platform, ctx.seed, ctx.workers) == (None, 5, 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentContext(workers=-1)


class TestManifest:
    def test_config_digest_stable_and_none_for_none(self):
        from repro.config import default_platform_config

        assert config_digest(None) is None
        first = config_digest(default_platform_config())
        assert first == config_digest(default_platform_config())
        assert len(first) == 16

    def test_build_manifest_reads_simulated_time(self):
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=28.0, bits=8)
        manifest = build_manifest(
            "unit", registry=registry, seed=0, workers=1,
            wall_time_s=1.25, results={"ok": True},
        )
        assert manifest.experiment == "unit"
        assert manifest.simulated_ns > 0
        assert manifest.metrics["counters"]["channel.bits_sent"] == 8
        assert manifest.results == {"ok": True}
