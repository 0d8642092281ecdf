"""The resilience layer: retry policies and checkpoints.

Unit coverage for :mod:`repro.resilience` plus the runner integration:
the contract throughout is that fault handling never changes *results*
— a retried or resumed run returns exactly what a clean run
would, or fails loudly.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine.parallel import Trial, TrialFailure, run_trials
from repro.errors import ConfigError, TraceError
from repro.resilience import (
    Checkpoint,
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


def _sleep_then_echo(value):
    time.sleep(0.5)
    return value


def _echo(value=None):
    return value


def _always_kill_worker():
    """Kill the hosting worker on every attempt (pool runs only)."""
    os._exit(17)


#: Seconds one pool with dying workers may take before its test fails;
#: a healthy one takes well under a second.
POOL_LIMIT_S = 60.0


def _bounded(body, *args, **kwargs):
    """``body(*args, **kwargs)``, run in a forked child, within
    :data:`POOL_LIMIT_S`.

    A pool whose workers die can hang on shutdown if the runner
    regresses.  In a child, in a session of its own, a hang fails the
    calling test instead of stalling the suite: the whole session, pool
    workers included, is killed.  The child is forked, as the pools it
    runs fork their workers.  What ``body`` returns or raises comes back
    pickled.
    """
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def child():
        os.setsid()
        try:
            outcome = (True, body(*args, **kwargs))
        except BaseException as error:  # re-raised in the parent
            outcome = (False, error)
        writer.send(outcome)
        os._exit(0)

    process = context.Process(target=child)
    process.start()
    writer.close()
    answered = reader.poll(POOL_LIMIT_S)
    try:
        outcome = reader.recv() if answered else None
    except EOFError:  # the child died without an answer
        outcome = None
    reader.close()
    process.join(POOL_LIMIT_S if answered else 0)
    if process.is_alive():
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.join(POOL_LIMIT_S)
    assert not process.is_alive()
    if not answered:
        pytest.fail(f"a pool with a dying worker hung for "
                    f"{POOL_LIMIT_S:g} s")
    if outcome is None:
        pytest.fail("the bounded child died without an answer")
    returned, value = outcome
    if not returned:
        raise value
    return value


def _pooled(trials, **options):
    """``run_trials`` under a fresh registry: the results and the
    counters it left."""
    registry = MetricsRegistry()
    with using(registry):
        results = run_trials(trials, **options)
    return results, _counters(registry)


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
        policy = RetryPolicy(base_backoff_s=0.1)
        a = policy.backoff_s(1, seed=7, label="t1")
        assert a == policy.backoff_s(1, seed=7, label="t1")
        assert a != policy.backoff_s(1, seed=8, label="t1")
        assert a != policy.backoff_s(1, seed=7, label="t2")
        # Jitter stays within the 0.5x–1.5x window around the base.
        assert 0.05 <= a <= 0.15
        # Geometric growth (factor 2), capped at 1 s before jitter.
        b = policy.backoff_s(2, seed=7, label="t1")
        assert 0.1 <= b <= 0.3
        assert 0.5 <= policy.backoff_s(50, seed=7, label="t1") <= 1.5

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
                retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            )
        assert retried == clean
        assert _counters(registry)["runner.retries"] == 1

    def test_permanent_error_fails_fast(self):
        registry = MetricsRegistry()
        with using(registry):
            results = run_trials(
                [Trial(_always_value_error, dict(seed=3), label="bug")],
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
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        assert isinstance(results[0], TrialFailure)
        assert results[0].attempts == 2

    def test_worker_death_rebuilds_the_pool(self, tmp_path):
        trials = [
            Trial(_echo, dict(value=0), label="t0"),
            Trial(worker_killing_trial,
                  dict(sentinel=str(tmp_path / "s")), label="t1"),
            Trial(_echo, dict(value=2), label="t2"),
        ]
        results, counters = _bounded(
            _pooled, trials, workers=2,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        )
        assert results == [0, "survived", 2]
        assert counters["runner.pool_rebuilds"] >= 1

    def test_one_attempt_convicts_the_trial_whose_worker_died(
            self, tmp_path):
        # One attempt: the first pool death convicts the trial that was
        # running in the dead worker; the rebuilt pool runs the rest.
        trials = [
            Trial(worker_killing_trial,
                  dict(sentinel=str(tmp_path / "s")), label="t0"),
            Trial(_echo, dict(value=1), label="t1"),
        ]
        results, counters = _bounded(_pooled, trials, workers=2,
                                     retry=RetryPolicy(max_attempts=1))
        assert isinstance(results[0], TrialFailure)
        assert results[0].error_type == "BrokenProcessPool"
        assert results[0].label == "t0"
        assert results[1] == 1
        assert counters["runner.pool_rebuilds"] == 1
        assert counters["runner.permanent_failures"] == 1

    def test_worker_death_convicts_the_killer_not_a_busy_sibling(
            self, tmp_path):
        # healthy-a is still sleeping in the other worker when killer's
        # worker dies: the break interrupts it, but it is not convicted.
        trials = [
            Trial(_sleep_then_echo, dict(value="a"), label="healthy-a"),
            Trial(worker_killing_trial,
                  dict(sentinel=str(tmp_path / "s")), label="killer"),
            Trial(_sleep_then_echo, dict(value="c"), label="healthy-c"),
        ]
        results, counters = _bounded(_pooled, trials, workers=2,
                                     retry=RetryPolicy(max_attempts=1))
        assert results[0] == "a"
        assert results[2] == "c"
        killer = results[1]
        assert isinstance(killer, TrialFailure)
        assert killer.label == "killer"
        assert killer.error_type == "BrokenProcessPool"
        assert counters["runner.pool_rebuilds"] == 1
        assert counters["runner.permanent_failures"] == 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_death_leaves_results_identical_to_inline(
            self, tmp_path, workers):
        def trials(sentinel):
            return [
                Trial(_draw, dict(seed=0), label="t0"),
                Trial(worker_killing_trial, dict(sentinel=sentinel),
                      label="t1"),
                Trial(_draw, dict(seed=2), label="t2"),
                Trial(_draw, dict(seed=3), label="t3"),
            ]

        # Inline, with the sentinel already tripped so nothing dies.
        tripped = tmp_path / "tripped"
        tripped.write_text("tripped", encoding="utf-8")
        inline = run_trials(trials(str(tripped)))
        pooled = _bounded(
            run_trials, trials(str(tmp_path / "s")), workers=workers,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        assert pooled == inline
        assert pooled[1] == "survived"

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("killer", range(4))
    def test_worker_death_anywhere_leaves_results_identical_to_inline(
            self, tmp_path, killer, workers):
        # A killer at the head can break the pool before the trials
        # behind it are even queued.
        trials = [Trial(_draw, dict(seed=i), label=f"t{i}")
                  for i in range(4)]
        inline = run_trials(trials)
        trials[killer] = Trial(worker_killing_trial,
                               dict(sentinel=str(tmp_path / "s"),
                                    value=inline[killer]), label="k")
        pooled, counters = _bounded(
            _pooled, trials, workers=workers,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        assert pooled == inline
        assert counters["runner.pool_rebuilds"] == 1

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("killer", range(4))
    def test_a_killer_anywhere_is_convicted_and_siblings_survive(
            self, killer, workers):
        trials = [Trial(_echo, dict(value=i), label=f"t{i}")
                  for i in range(4)]
        trials[killer] = Trial(_always_kill_worker, {}, label="killer")
        results = _bounded(
            run_trials, trials, workers=workers,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        assert [r for i, r in enumerate(results) if i != killer] == [
            i for i in range(4) if i != killer]
        assert isinstance(results[killer], TrialFailure)
        assert results[killer].label == "killer"
        assert results[killer].attempts == 2

    def test_a_trial_that_always_kills_is_convicted_after_max_attempts(
            self):
        trials = [
            Trial(_echo, dict(value=0), label="t0"),
            Trial(_always_kill_worker, {}, label="serial-killer"),
            Trial(_echo, dict(value=2), label="t2"),
        ]
        results, counters = _bounded(
            _pooled, trials, workers=2,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        assert results[0::2] == [0, 2]
        killer = results[1]
        assert isinstance(killer, TrialFailure)
        assert killer.label == "serial-killer"
        assert killer.attempts == 2
        assert "2 worker process(es) died" in killer.message
        assert counters["runner.pool_rebuilds"] == 2
        assert counters["runner.permanent_failures"] == 1

    def test_two_killers_are_each_convicted_and_siblings_survive(self):
        trials = [
            Trial(_always_kill_worker, {}, label="killer-a"),
            Trial(_echo, dict(value=1), label="t1"),
            Trial(_always_kill_worker, {}, label="killer-b"),
            Trial(_echo, dict(value=3), label="t3"),
        ]
        results = _bounded(run_trials, trials, workers=2,
                           retry=RetryPolicy(max_attempts=1))
        assert results[1::2] == [1, 3]
        for index, label in ((0, "killer-a"), (2, "killer-b")):
            assert isinstance(results[index], TrialFailure)
            assert results[index].label == label
            assert results[index].error_type == "BrokenProcessPool"

    def test_worker_death_propagates_without_a_policy(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        trials = [
            Trial(worker_killing_trial,
                  dict(sentinel=str(tmp_path / "s")), label="t0"),
            Trial(_echo, dict(value=1), label="t1"),
        ]
        with pytest.raises(BrokenProcessPool):
            _bounded(run_trials, trials, workers=2)

    def test_repeated_worker_deaths_never_hang_the_pool(self, tmp_path):
        # A broken pool SIGTERMs its surviving workers and joins them.
        # A worker that catches the signal in a Python-level handler
        # can take it just before it blocks on the call queue and then
        # wait forever, and the join with it; with the old handler one
        # run in a few dozen hung.
        def deaths():
            for i in range(40):
                trials = [Trial(worker_killing_trial,
                                dict(sentinel=str(tmp_path / f"s{i}")),
                                label="k")]
                trials += [Trial(int, {}, label=f"t{j}") for j in range(3)]
                out = run_trials(trials, workers=3, retry=RetryPolicy(
                    max_attempts=2, base_backoff_s=0.0))
                assert out == ["survived", 0, 0, 0], out

        _bounded(deaths)


def _always_os_error(seed):
    raise OSError("always down")


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
        header = path.read_bytes().split(b"\n")[0]
        path.write_bytes(header[: len(header) // 2])
        registry = MetricsRegistry()
        with using(registry):
            assert Checkpoint(path, key="k").load() == {}
        assert _counters(registry)["runner.checkpoint.invalid"] == 1

    def test_damaged_record_salvages_the_rest(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("good", 41)
        ckpt.record("bad", 42)
        ckpt.record("after", 43)
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == 5  # header, three records, final newline
        lines[2] = b"00" * 40  # the "bad" record: sha mismatch
        path.write_bytes(b"\n".join(lines))
        registry = MetricsRegistry()
        with using(registry):
            resumed = Checkpoint(path, key="k").load()
        assert resumed == {"good": 41, "after": 43}
        assert _counters(registry)[
            "runner.checkpoint.corrupt_records"] == 1

    def test_records_append_to_an_intact_journal(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("a", 1)  # a fresh journal is published whole
        inode = path.stat().st_ino
        ckpt.record("b", 2)
        assert path.stat().st_ino == inode  # appended, not republished
        resumed = Checkpoint(path, key="k")
        assert resumed.load() == {"a": 1, "b": 2}
        resumed.record("c", 3)
        assert path.stat().st_ino == inode
        assert Checkpoint(path, key="k").load() == {"a": 1, "b": 2,
                                                    "c": 3}

    def test_record_after_a_torn_tail_rewrites_the_journal(self,
                                                           tmp_path):
        # An append interrupted mid-line leaves a torn last line; the
        # next writer must not append onto it, or the torn bytes would
        # swallow its first record too.
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("a", 1)
        ckpt.record("b", 2)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        registry = MetricsRegistry()
        with using(registry):
            resumed = Checkpoint(path, key="k")
            assert resumed.load() == {"a": 1}
        assert _counters(registry)[
            "runner.checkpoint.corrupt_records"] == 1
        resumed.record("b", 2)
        registry = MetricsRegistry()
        with using(registry):
            assert Checkpoint(path, key="k").load() == {"a": 1, "b": 2}
        assert "runner.checkpoint.corrupt_records" not in \
            _counters(registry)

    def test_temp_writer_reads_back_unique_temp(self, tmp_path):
        from repro.resilience.checkpoint import temp_writer, unique_temp

        target = tmp_path / "abc.uftc"
        assert temp_writer(unique_temp(target)) == ("abc.uftc",
                                                    os.getpid())
        assert temp_writer(target) is None
        assert temp_writer(tmp_path / "abc.uftc.tmp") is None

    def test_later_record_of_a_label_wins(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("a", 1)
        ckpt.record("a", 2)
        assert Checkpoint(path, key="k").load() == {"a": 2}

    def test_version_2_checkpoint_is_a_fresh_start(self, tmp_path):
        # Version 2 kept every record in one JSON object.
        import json

        from repro.resilience.checkpoint import seal

        path = tmp_path / "c.ckpt.json"
        path.write_text(json.dumps(
            {"version": 2, "key": "k",
             "completed": {"a": {"data": seal(1).hex()}}}
        ), encoding="utf-8")
        registry = MetricsRegistry()
        with using(registry):
            assert Checkpoint(path, key="k").load() == {}
        assert _counters(registry)["runner.checkpoint.invalid"] == 1

    def test_flush_cadence_and_atomicity(self, tmp_path):
        path = tmp_path / "c.ckpt.json"
        ckpt = Checkpoint(path, key="k")
        ckpt.record("a", 1)
        assert Checkpoint(path, key="k").load() == {"a": 1}  # published
        ckpt.record("b", 2)
        assert Checkpoint(path, key="k").load() == {"a": 1, "b": 2}
        assert not list(tmp_path.glob("*.tmp"))

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
        # Each writer republishes its own state once, then appends, so
        # the journal holds some writers' records; every one must be
        # whole and hold the value its writer recorded.
        registry = MetricsRegistry()
        with using(registry):
            resumed = Checkpoint(path, key="k").load()
        assert resumed
        assert all(value == int(label[1:])
                   for label, value in resumed.items())
        counters = _counters(registry)
        assert "runner.checkpoint.corrupt_records" not in counters
        assert "runner.checkpoint.invalid" not in counters
        assert not list(tmp_path.glob("*.tmp"))

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
