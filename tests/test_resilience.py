"""The resilience layer: retry policies, checkpoints, breaker.

Unit coverage for :mod:`repro.resilience` plus the runner integration:
the contract throughout is that fault handling never changes *results*
— a retried, resumed or degraded run returns exactly what a clean run
would, or fails loudly.
"""

import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine.parallel import Trial, TrialFailure, run_trials
from repro.errors import ConfigError, TraceError
from repro.resilience import (
    Checkpoint,
    CircuitBreaker,
    PERMANENT_ERRORS,
    RetryPolicy,
    TRANSIENT_ERRORS,
    checkpoint_key,
)
from repro.rng import child_rng
from repro.telemetry import MetricsRegistry
from repro.telemetry.context import using
from repro.validate.faults import worker_killing_trial


def _counters(registry: MetricsRegistry) -> dict:
    return registry.snapshot().get("counters", {})


def _draw(seed: int) -> float:
    return float(child_rng(seed, "draw").random())


def _draw_flaky(sentinel, seed: int) -> float:
    """Crash once (transient), then return the seeded draw."""
    sentinel = Path(sentinel)
    if not sentinel.exists():
        sentinel.write_text("tripped", encoding="utf-8")
        raise OSError("injected transient crash")
    return _draw(seed)


def _always_value_error(seed: int) -> None:
    raise ValueError("deterministic bug")


def _echo(value=None):
    return value


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(OSError("io"))
        assert policy.is_transient(MemoryError())
        assert not policy.is_transient(ValueError("bug"))
        assert not policy.is_transient(TraceError("bug"))
        # Permanent wins even for exotic subclasses; unknown types are
        # treated as transient (environmental until proven otherwise).
        assert policy.is_transient(RuntimeError("who knows"))

    def test_default_tuples_exported(self):
        assert OSError in TRANSIENT_ERRORS
        assert ValueError in PERMANENT_ERRORS

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy(base_backoff_s=0.1, backoff_factor=2.0,
                             max_backoff_s=10.0)
        a = policy.backoff_s(1, seed=7, label="t1")
        assert a == policy.backoff_s(1, seed=7, label="t1")
        assert a != policy.backoff_s(1, seed=8, label="t1")
        assert a != policy.backoff_s(1, seed=7, label="t2")
        # Jitter stays within the 0.5x–1.5x window around the base.
        assert 0.05 <= a <= 0.15
        # Geometric growth, capped.
        b = policy.backoff_s(2, seed=7, label="t1")
        assert 0.1 <= b <= 0.3
        assert policy.backoff_s(50, seed=7, label="t1") <= 15.0

    def test_zero_base_means_no_sleep(self):
        policy = RetryPolicy(base_backoff_s=0.0)
        assert policy.backoff_s(1, seed=0, label="x") == 0.0
        assert policy.sleep(3, seed=0, label="x") == 0.0

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff_s=-1.0).validate()
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5).validate()
        with pytest.raises(ConfigError):
            RetryPolicy().backoff_s(0)


class TestRetryMode:
    def test_transient_crash_retried_bit_identically(self, tmp_path):
        clean = run_trials([Trial(_draw, dict(seed=11), label="d")])
        registry = MetricsRegistry()
        with using(registry):
            retried = run_trials(
                [Trial(_draw_flaky,
                       dict(sentinel=str(tmp_path / "s"), seed=11),
                       label="d")],
                on_error="retry",
                retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            )
        assert retried == clean
        assert _counters(registry)["runner.retries"] == 1

    def test_permanent_error_fails_fast(self):
        registry = MetricsRegistry()
        with using(registry):
            results = run_trials(
                [Trial(_always_value_error, dict(seed=3), label="bug")],
                on_error="retry",
                retry=RetryPolicy(max_attempts=5, base_backoff_s=0.0),
            )
        failure = results[0]
        assert isinstance(failure, TrialFailure)
        assert failure.error_type == "ValueError"
        assert failure.attempts == 1  # never retried
        assert failure.label == "bug"
        assert failure.seed == 3
        assert not failure  # falsy, filterable
        counters = _counters(registry)
        assert counters["runner.permanent_failures"] == 1
        assert "runner.retries" not in counters

    def test_exhausted_attempts_yield_failure(self):
        results = run_trials(
            [Trial(_always_os_error, dict(seed=0), label="down")],
            on_error="retry",
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        assert isinstance(results[0], TrialFailure)
        assert results[0].attempts == 2

    def test_retry_kwarg_needs_retry_mode(self):
        with pytest.raises(ConfigError):
            run_trials([Trial(_echo)], on_error="raise",
                       retry=RetryPolicy())

    def test_worker_death_rebuilds_the_pool(self, tmp_path):
        trials = [
            Trial(_echo, dict(value=0), label="t0"),
            Trial(worker_killing_trial,
                  dict(sentinel=str(tmp_path / "s")), label="t1"),
            Trial(_echo, dict(value=2), label="t2"),
        ]
        registry = MetricsRegistry()
        with using(registry):
            results = run_trials(
                trials, workers=2, on_error="retry",
                retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            )
        assert results == [0, "survived", 2]
        assert _counters(registry)["runner.pool_rebuilds"] >= 1


def _always_os_error(seed):
    raise OSError("always down")


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_success()  # resets the streak
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_cooldown_counted_in_denied_calls(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        # The cooldown-th refusal becomes the half-open probe.
        assert breaker.allow()
        assert breaker.state == "half_open"
        # Only one probe outstanding.
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.allow()  # immediate probe (cooldown=1)
        breaker.record_failure()
        assert breaker.state == "open"

    def test_writes_blocked_only_while_fully_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        assert breaker.allow_write()
        breaker.record_failure()
        assert not breaker.allow_write()
        breaker.allow()  # half-opens
        assert breaker.allow_write()

    def test_transitions_emit_counters(self):
        registry = MetricsRegistry()
        with using(registry):
            breaker = CircuitBreaker(failure_threshold=1, cooldown=1,
                                     name="unit")
            breaker.record_failure()
            breaker.allow()
            breaker.record_success()
        counters = _counters(registry)
        assert counters["unit.breaker_open"] == 1
        assert counters["unit.breaker_half_open"] == 1
        assert counters["unit.breaker_closed"] == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown=0)


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        first = Checkpoint(path, key="k1")
        values = {"a": 0.1 + 0.2, "b": [1.5, float(np.float64(1) / 3)]}
        for label, value in values.items():
            first.record(label, value)
        resumed = Checkpoint(path, key="k1").load()
        assert resumed == values
        # Exact float64 equality, not approximate.
        assert resumed["a"].hex() == values["a"].hex()

    def test_wrong_key_is_ignored(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        Checkpoint(path, key="k1").record("a", 1)
        registry = MetricsRegistry()
        with using(registry):
            assert Checkpoint(path, key="other").load() == {}
        assert _counters(registry)["runner.checkpoint.invalid"] == 1

    def test_torn_file_is_a_fresh_start(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        Checkpoint(path, key="k").record("a", 1)
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        registry = MetricsRegistry()
        with using(registry):
            assert Checkpoint(path, key="k").load() == {}
        assert _counters(registry)["runner.checkpoint.invalid"] == 1

    def test_damaged_record_salvages_the_rest(self, tmp_path):
        import json

        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("good", 41)
        ckpt.record("bad", 42)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["completed"]["bad"]["data"] = "00" * 8  # sha mismatch
        path.write_text(json.dumps(payload), encoding="utf-8")
        registry = MetricsRegistry()
        with using(registry):
            resumed = Checkpoint(path, key="k").load()
        assert resumed == {"good": 41}
        assert _counters(registry)[
            "runner.checkpoint.corrupt_records"] == 1

    def test_flush_cadence_and_atomicity(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k", every=2)
        ckpt.record("a", 1)
        assert not path.exists()  # below cadence, nothing published
        ckpt.record("b", 2)
        assert path.exists()
        assert not path.with_suffix(".json.tmp").exists()
        assert len(Checkpoint(path, key="k").load()) == 2

    def test_same_path_flushes_do_not_collide(self, tmp_path, monkeypatch):
        # Two writers of one checkpoint can flush to the same path
        # from two threads of one process.  Force the bad
        # interleaving: a whole second flush lands between the first
        # flush's temp write and its rename.
        from repro.resilience import checkpoint as checkpoint_mod

        path = tmp_path / "c.ckpt.json"
        first = Checkpoint(path, key="k")
        second = Checkpoint(path, key="k")
        real_replace = os.replace
        renamed = []

        def interleaved(src, dst):
            renamed.append(Path(src))
            if len(renamed) == 1:
                second.record("b", 2)
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint_mod.os, "replace", interleaved)
        first.record("a", 1)
        monkeypatch.undo()
        assert len(renamed) == 2 and renamed[0] != renamed[1]
        # last rename wins; either writer's state is a valid checkpoint
        assert Checkpoint(path, key="k").load() == {"a": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_threaded_same_path_flushes_stress(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        errors = []

        def writer(tag):
            ckpt = Checkpoint(path, key="k")
            try:
                for index in range(40):
                    ckpt.record(f"{tag}{index}", index)
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(tag,))
                   for tag in "abcd"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(Checkpoint(path, key="k").load()) == 40
        assert not list(tmp_path.glob("*.tmp"))

    def test_discard_forgets_everything(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("a", 1)
        ckpt.discard()
        assert not path.exists()
        assert len(ckpt) == 0

    def test_for_experiment_paths_are_keyed(self, tmp_path):
        a = Checkpoint.for_experiment(tmp_path, "sweep",
                                      params={"bits": 8}, seed=0)
        same = Checkpoint.for_experiment(tmp_path, "sweep",
                                        params={"bits": 8}, seed=0)
        other = Checkpoint.for_experiment(tmp_path, "sweep",
                                         params={"bits": 9}, seed=0)
        assert a.path == same.path
        assert a.path != other.path
        assert a.key == checkpoint_key("sweep", params={"bits": 8},
                                       seed=0)
        assert a.path.name == f"sweep-{a.key}.ckpt.json"

    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ConfigError):
            Checkpoint(tmp_path / "c", every=0)


class TestRunnerCheckpointing:
    def test_requires_unique_labels(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.ckpt.json", key="k")
        with pytest.raises(ConfigError):
            run_trials([Trial(_echo, dict(value=1))], checkpoint=ckpt)
        with pytest.raises(ConfigError):
            run_trials([Trial(_echo, dict(value=1), label="x"),
                        Trial(_echo, dict(value=2), label="x")],
                       checkpoint=ckpt)

    def test_completed_labels_are_skipped(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        trials = [Trial(_draw, dict(seed=s), label=f"d{s}")
                  for s in range(3)]
        clean = run_trials(trials)
        warm = Checkpoint(path, key="k")  # first two already done
        warm.record("d0", clean[0])
        warm.record("d1", clean[1])
        registry = MetricsRegistry()
        with using(registry):
            resumed = run_trials(trials,
                                 checkpoint=Checkpoint(path, key="k"))
        assert resumed == clean
        assert _counters(registry)["runner.checkpoint.skipped"] == 2

    def test_version_1_checkpoint_is_a_fresh_start(self, tmp_path):
        # The pre-seal format kept a hex sha256 beside the hex pickle.
        import hashlib
        import json
        import pickle

        path = tmp_path / "c.ckpt.json"
        trials = [Trial(_draw, dict(seed=s), label=f"d{s}")
                  for s in range(3)]
        clean = run_trials(trials)
        completed = {}
        for label, value in (("d0", clean[0]), ("d1", clean[1])):
            blob = pickle.dumps(value, protocol=4)
            completed[label] = {"sha256": hashlib.sha256(blob).hexdigest(),
                                "data": blob.hex()}
        path.write_text(json.dumps({"version": 1, "key": "k",
                                    "completed": completed}),
                        encoding="utf-8")
        registry = MetricsRegistry()
        with using(registry):
            resumed = run_trials(trials,
                                 checkpoint=Checkpoint(path, key="k"))
        assert resumed == clean
        counters = _counters(registry)
        assert counters["runner.checkpoint.invalid"] == 1
        assert "runner.checkpoint.skipped" not in counters


def _trace_records(seed: int, count: int = 3):
    from repro.sidechannel.tracer import TraceRecord

    rng = child_rng(seed, "resilience-corpus")
    return [
        TraceRecord(
            label=label,
            times_ms=np.cumsum(rng.uniform(0.1, 2.0, size=4)),
            freqs_mhz=rng.choice([1200.0, 1500.0, 2400.0], size=4),
        )
        for label in range(count)
    ]


class TestStoreBreaker:
    def test_sustained_corruption_degrades_to_pass_through(self, tmp_path):
        from repro.trace import TraceStore
        from repro.validate.faults import flip_crc_bit

        store = TraceStore(tmp_path / "store", breaker_threshold=2,
                           breaker_cooldown=2)
        key = TraceStore.key("breaker-unit", seed=0)
        registry = MetricsRegistry()
        with using(registry):
            for _ in range(2):
                store.put(key, _trace_records(0),
                          experiment="breaker-unit")
                flip_crc_bit(store, key)
                assert store.fetch(key) is None
            assert store.breaker.state == "open"
            # Open: writes are dropped, reads short-circuit.
            store.put(key, _trace_records(0), experiment="breaker-unit")
            assert not store.contains(key)
            assert store.fetch(key) is None  # denied (cooldown 1/2)
            assert store.fetch(key) is None  # the probe: clean miss
            assert store.breaker.state == "closed"
            # Recovered: the store caches again.
            store.put(key, _trace_records(0), experiment="breaker-unit")
            assert store.fetch(key) is not None
        counters = _counters(registry)
        assert counters["trace.store.breaker_open"] >= 1
        assert counters["trace.store.breaker_short_circuits"] >= 1
        assert counters["trace.store.breaker_closed"] >= 1
        assert counters["trace.store.breaker_dropped_writes"] >= 1
