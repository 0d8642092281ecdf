"""Corruption paths: a damaged TraceStore quarantines, never crashes.

Drives the byte-level fault injectors from ``repro.validate.faults``
against real stores: blobs with truncated headers, bit-flipped CRC
trailers and half-written temp files from an interrupted ``put``.  The contract in
every case is the same — no unhandled exception, no wrong data served,
damage moved aside as evidence, and ``repro trace verify`` reporting
(not dying on) each fault class.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import TraceError
from repro.rng import child_rng
from repro.sidechannel.tracer import TraceRecord
from repro.trace.store import TraceStore
from repro.validate.faults import (
    crashing_trial,
    flip_crc_bit,
    leave_half_written_temp,
    truncate_file,
)


def _records(seed, count=3):
    rng = child_rng(seed, "corruption-corpus")
    out = []
    for label in range(count):
        n = int(rng.integers(2, 6))
        out.append(TraceRecord(
            label=label,
            times_ms=np.cumsum(rng.uniform(0.1, 2.0, size=n)),
            freqs_mhz=rng.choice([1200.0, 1500.0, 2400.0], size=n),
        ))
    return out


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


def _put(store, name, seed=0):
    key = TraceStore.key(name, seed=seed)
    store.put(key, _records(seed), experiment=name)
    return key


def _truncate_header(store, key):
    """Cut a blob inside its header, so even its meta is unreadable."""
    truncate_file(store.blob_path(key), 4)


class TestTruncatedHeader:
    def test_entries_lists_it_without_failing(self, store):
        good = _put(store, "good")
        torn = _put(store, "torn", seed=1)
        _truncate_header(store, torn)
        entries = {entry.key: entry for entry in store.entries()}
        assert entries[good].records == 3
        assert entries[good].experiment == "good"
        assert entries[torn].records is None
        assert entries[torn].experiment == ""
        assert entries[torn].size_bytes == 4

    def test_ls_lists_it_with_dashes(self, store, capsys):
        torn = _put(store, "torn")
        _truncate_header(store, torn)
        assert main(["trace", "ls", "--cache-dir", str(store.root)]) == 0
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith(torn)]
        assert row.split()[1:3] == ["-", "-"]

    def test_verify_reports_it_as_corrupt(self, store):
        torn = _put(store, "torn")
        _truncate_header(store, torn)
        report = store.verify()
        assert report.corrupt == (torn,)
        assert not report.clean

    def test_fetch_quarantines_it_as_a_miss(self, store):
        torn = _put(store, "torn")
        _truncate_header(store, torn)
        assert store.fetch(torn) is None
        assert (store.root / "quarantine" / f"{torn}.uftc").exists()

    def test_put_and_gc_still_work_around_it(self, store):
        torn = _put(store, "torn")
        _truncate_header(store, torn)
        fresh = _put(store, "fresh", seed=2)
        assert store.fetch(fresh) is not None
        assert store.gc(10**9) == []
        # gc only stats blobs: the damaged one is evicted by age.
        assert store.gc(0) == [torn, fresh]
        assert store.total_bytes() == 0


class TestFlippedCrcTrailer:
    def test_load_quarantines_and_raises_typed_error(self, store):
        key = _put(store, "bitrot")
        flip_crc_bit(store, key)
        with pytest.raises(TraceError):
            store.load(key)
        assert not store.blob_path(key).exists()
        assert (store.root / "quarantine" / f"{key}.uftc").exists()

    def test_fetch_reports_a_miss_then_rewarms(self, store):
        key = _put(store, "bitrot")
        flip_crc_bit(store, key)
        assert store.fetch(key) is None
        # The cache-aware caller re-simulates and overwrites...
        store.put(key, _records(0), experiment="bitrot")
        meta, records = store.fetch(key)
        assert len(records) == 3
        # ...while the corrupt original stays quarantined as evidence.
        assert (store.root / "quarantine" / f"{key}.uftc").exists()

    def test_verify_lists_it_as_corrupt(self, store):
        key = _put(store, "bitrot")
        flip_crc_bit(store, key)
        report = store.verify()
        assert key in report.corrupt
        assert not report.clean

    def test_consecutive_corrupt_fetches_never_stop_the_cache(self, store):
        from repro.telemetry import MetricsRegistry, using

        registry = MetricsRegistry()
        with using(registry):
            keys = [_put(store, "bitrot", seed=seed) for seed in range(3)]
            for key in keys:
                flip_crc_bit(store, key)
                assert store.fetch(key) is None
                assert (store.root / "quarantine" / f"{key}.uftc").exists()
            # However many corrupt blobs came before, the next corpus
            # is written to disk and served from it.
            fresh = _put(store, "fresh", seed=3)
            meta, records = store.fetch(fresh)
        assert meta["experiment"] == "fresh" and len(records) == 3
        counters = registry.snapshot()["counters"]
        assert counters["trace.store.quarantined"] == 3
        assert counters["trace.store.misses"] == 3
        assert counters["trace.store.writes"] == 4
        assert counters["trace.store.hits"] == 1


class TestHalfWrittenTemp:
    def test_temp_is_invisible_to_every_read_path(self, store):
        key = _put(store, "interrupted")
        temp = leave_half_written_temp(store, key)
        assert temp.exists()
        assert store.fetch(key) is not None
        assert store.verify().clean
        assert store.keys() == [key]
        assert [entry.key for entry in store.entries()] == [key]

    def test_plants_the_name_a_killed_put_leaves(self, store):
        import os
        import re

        key = _put(store, "interrupted")
        temp = leave_half_written_temp(store, key)
        assert temp.parent == store.blob_path(key).parent
        assert re.fullmatch(rf"{key}\.uftc\.{os.getpid()}-\d+\.tmp",
                            temp.name)

    def test_crash_mid_put_leaves_no_temp_behind(self, store):
        key = TraceStore.key("crash", seed=9)

        def exploding_records():
            yield _records(9)[0]
            raise RuntimeError("simulated crash mid-stream")

        with pytest.raises(RuntimeError):
            store.put(key, exploding_records(), experiment="crash")
        assert not list(store.root.glob("**/*.tmp"))
        assert not store.contains(key)


class TestConcurrentQuarantine:
    """Two readers of one damaged corpus quarantine it at the same time.

    The second reader is run *inside* one step of the first: its
    quarantine move (the first finds its source already gone) or its
    LRU stamp (the first finds no blob left to read).  Both must report
    a miss: a blob another reader moved first is already quarantined.
    """

    @pytest.mark.parametrize("step", ["replace", "utime"])
    def test_racing_readers_both_report_a_miss(self, store, monkeypatch,
                                               step):
        import os

        key = _put(store, "contested")
        flip_crc_bit(store, key)
        real_step = getattr(os, step)
        raced = []

        def racing_step(path, *args, **kwargs):
            if not raced and os.path.basename(
                    os.path.dirname(path)) == "blobs":
                raced.append(path)
                assert TraceStore(store.root).fetch(key) is None
            return real_step(path, *args, **kwargs)

        monkeypatch.setattr(os, step, racing_step)
        assert store.fetch(key) is None
        monkeypatch.undo()
        assert raced, "the racing reader never ran"
        assert not store.blob_path(key).exists()
        assert (store.root / "quarantine" / f"{key}.uftc").exists()
        assert store.verify().clean


class TestVanishingBlob:
    """A blob moved away by another process (a racing quarantine or
    ``gc``) after ``fetch`` found it, or after ``load`` stamped it and
    before it is read, is a plain miss: nothing quarantined."""

    @pytest.mark.parametrize("step", ["contains", "read"])
    def test_is_a_plain_miss(self, store, monkeypatch, step):
        import repro.trace.store as store_module
        from repro.telemetry import MetricsRegistry, using

        key = _put(store, "vanishing")

        def evict():
            store.blob_path(key).unlink()  # another process evicts it

        if step == "contains":
            real_contains = TraceStore.contains

            def racing_contains(self, *args):
                result = real_contains(self, *args)
                evict()
                return result

            monkeypatch.setattr(TraceStore, "contains", racing_contains)
        else:
            real_read = store_module.read_corpus

            def racing_read(path):
                evict()
                return real_read(path)

            monkeypatch.setattr(store_module, "read_corpus", racing_read)
        registry = MetricsRegistry()
        with using(registry):
            assert store.fetch(key) is None
        monkeypatch.undo()
        counters = registry.snapshot()["counters"]
        assert counters["trace.store.misses"] == 1
        assert "trace.store.quarantined" not in counters
        assert not (store.root / "quarantine").exists()
        # The store keeps serving: a fresh put is a hit.
        _put(store, "vanishing")
        assert store.fetch(key) is not None


class TestVerifyCli:
    def _damaged_store(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        _put(store, "healthy")
        rotten = _put(store, "rotten", seed=1)
        torn = _put(store, "torn", seed=2)
        flip_crc_bit(store, rotten)
        _truncate_header(store, torn)
        return store, rotten, torn

    def test_verify_reports_both_fault_classes(self, tmp_path, capsys):
        store, rotten, torn = self._damaged_store(tmp_path)
        code = main(["trace", "verify", "--cache-dir", str(store.root)])
        captured = capsys.readouterr()
        assert code == 2
        assert "1 ok, 2 corrupt" in captured.out
        assert rotten in captured.err
        assert torn in captured.err

    def test_verify_quarantine_heals_the_store(self, tmp_path, capsys):
        store, rotten, torn = self._damaged_store(tmp_path)
        assert main(["trace", "verify", "--cache-dir", str(store.root),
                     "--quarantine"]) == 2
        capsys.readouterr()
        # Second pass: only the healthy corpus remains, and it is clean.
        assert main(["trace", "verify",
                     "--cache-dir", str(store.root)]) == 0
        assert "1 ok, 0 corrupt" in capsys.readouterr().out

    def test_verify_of_clean_store_exits_zero(self, tmp_path, capsys):
        store = TraceStore(tmp_path / "store")
        _put(store, "healthy")
        assert main(["trace", "verify",
                     "--cache-dir", str(store.root)]) == 0


class TestCrashContainment:
    def test_collect_gives_failures_their_slot(self):
        from repro.engine.parallel import TrialFailure, run_trials
        from repro.resilience import RetryPolicy

        trials = [lambda: "a", lambda: crashing_trial("dead"),
                  lambda: "c"]
        results = run_trials(trials, workers=1,
                             retry=RetryPolicy(max_attempts=1))
        assert results[0] == "a"
        assert isinstance(results[1], TrialFailure)
        assert results[1].message == "dead"
        assert results[2] == "c"
        assert [r for r in results if r] == ["a", "c"]

    def test_raise_policy_propagates(self):
        from repro.engine.parallel import run_trials

        with pytest.raises(RuntimeError, match="injected crash"):
            run_trials([crashing_trial], workers=1)

    def test_collect_does_not_corrupt_telemetry(self):
        from repro.engine.parallel import run_trials
        from repro.resilience import RetryPolicy
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.context import using

        def counting_trial():
            from repro.telemetry.context import active_registry

            active_registry().inc("trial.ok")
            return True

        registry = MetricsRegistry()
        with using(registry):
            run_trials(
                [counting_trial, crashing_trial, counting_trial],
                workers=1, retry=RetryPolicy(max_attempts=1),
            )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["trial.ok"] == 2


# -- concurrent writers ---------------------------------------------------
#
# Two processes publishing into one store must never tear a blob, never
# double-count telemetry and never quarantine a healthy corpus.  The
# workers synchronise on a barrier so their put storms genuinely overlap,
# and each reports its own telemetry counters back for exact assertions.

def _writer_process(root, name, seed, rounds, barrier, counters):
    """Hammer ``put`` from a child process, reporting local telemetry."""
    from repro.telemetry import MetricsRegistry
    from repro.telemetry.context import using

    store = TraceStore(root)
    key = TraceStore.key(name, seed=seed)
    registry = MetricsRegistry()
    with using(registry):
        barrier.wait(timeout=30)
        for _ in range(rounds):
            store.put(key, _records(seed), experiment=name)
    counters.put(registry.snapshot()["counters"])


def _run_writers(root, specs, rounds=10):
    """Run one writer process per (name, seed) spec; their counters."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(len(specs))
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_writer_process,
                    args=(root, name, seed, rounds, barrier, queue))
        for name, seed in specs
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    return [queue.get(timeout=10) for _ in specs]


class TestConcurrentWriters:
    def test_same_key_writers_never_tear_the_blob(self, tmp_path):
        root = tmp_path / "store"
        counters = _run_writers(root, [("race", 7), ("race", 7)])
        store = TraceStore(root)
        key = TraceStore.key("race", seed=7)
        # Whoever won the last rename, the published corpus is whole:
        _, records = store.load(key)
        assert len(records) == 3
        expected = _records(7)
        for got, want in zip(records, expected):
            np.testing.assert_array_equal(got.times_ms, want.times_ms)
            np.testing.assert_array_equal(got.freqs_mhz, want.freqs_mhz)
        assert store.verify().clean
        assert len(store.entries()) == 1
        # Each process counted exactly its own writes — no double
        # counting through shared temp files or lost renames.
        for snapshot in counters:
            assert snapshot["trace.store.writes"] == 10
        assert not list(root.glob("**/*.tmp"))

    def test_distinct_key_writers_do_not_interfere(self, tmp_path):
        root = tmp_path / "store"
        _run_writers(root, [("left", 1), ("right", 2)])
        store = TraceStore(root)
        left = TraceStore.key("left", seed=1)
        right = TraceStore.key("right", seed=2)
        assert len(store.load(left)[1]) == 3
        assert len(store.load(right)[1]) == 3
        report = store.verify()
        assert report.clean
        assert set(report.ok) == {left, right}
        assert len(store.entries()) == 2

    def test_concurrency_never_quarantines_a_healthy_blob(self, tmp_path):
        root = tmp_path / "store"
        _run_writers(root, [("busy", 3), ("busy", 3), ("busy", 3)],
                     rounds=6)
        store = TraceStore(root)
        key = TraceStore.key("busy", seed=3)
        assert store.fetch(key) is not None
        quarantine = root / "quarantine"
        assert (not quarantine.exists()
                or not list(quarantine.iterdir()))
