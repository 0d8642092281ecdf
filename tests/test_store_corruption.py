"""Corruption paths: a damaged TraceStore quarantines, never crashes.

Drives the byte-level fault injectors from ``repro.validate.faults``
against real stores: torn index entries, bit-flipped CRC trailers and
half-written temp files from an interrupted ``put``.  The contract in
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
    truncate_index_entry,
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


class TestTruncatedIndexEntry:
    def test_entries_skips_the_torn_file(self, store):
        good = _put(store, "good")
        torn = _put(store, "torn", seed=1)
        truncate_index_entry(store, torn)
        keys = {entry.key for entry in store.entries()}
        assert good in keys
        assert torn not in keys

    def test_verify_reports_it_as_bad_entry(self, store):
        torn = _put(store, "torn")
        truncate_index_entry(store, torn)
        report = store.verify()
        assert torn in report.bad_entries
        assert not report.clean

    def test_open_heals_the_entry_and_serves_the_blob(self, store):
        torn = _put(store, "torn")
        truncate_index_entry(store, torn)
        # The blob carries its own CRC: still perfectly readable.
        records = store.open(torn).read_all()
        assert len(records) == 3
        # The entry was rebuilt in place from the surviving blob...
        healed = store._read_entry(torn)
        assert healed is not None
        assert healed.records == 3
        assert healed.size_bytes == store.blob_path(torn).stat().st_size
        # ...so nothing needed quarantining.
        assert not (store.root / "quarantine" / f"{torn}.json").exists()

    def test_rebuild_index_repairs_store_wide(self, store):
        torn = _put(store, "torn")
        also_torn = _put(store, "also-torn", seed=1)
        healthy = _put(store, "healthy", seed=2)
        truncate_index_entry(store, torn)
        truncate_index_entry(store, also_torn)
        assert sorted(store.rebuild_index()) == sorted([torn, also_torn])
        keys = {entry.key for entry in store.entries()}
        assert keys == {torn, also_torn, healthy}
        assert store.verify().clean

    def test_put_gc_still_work_around_the_tear(self, store):
        torn = _put(store, "torn")
        truncate_index_entry(store, torn)
        fresh = _put(store, "fresh", seed=2)
        assert store.fetch(fresh) is not None
        assert store.gc(10**9) == []


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


class TestHalfWrittenTemp:
    def test_temp_is_invisible_to_every_read_path(self, store):
        key = _put(store, "interrupted")
        leave_half_written_temp(store, key)
        assert store.fetch(key) is not None
        assert store.verify().clean
        assert len(store.entries()) == 1

    def test_next_put_replaces_the_stranded_temp(self, store):
        key = _put(store, "interrupted")
        temp = leave_half_written_temp(store, key)
        store.put(key, _records(0), experiment="interrupted")
        assert not temp.exists()
        assert store.fetch(key) is not None

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

    The second reader is run *inside* the first one's quarantine move,
    so the first finds its source already gone.  Both must report a
    miss: a file another reader moved first is already quarantined.
    """

    @pytest.mark.parametrize("moved", ["blobs", "index"])
    def test_racing_readers_both_report_a_miss(self, store, monkeypatch,
                                               moved):
        import os

        key = _put(store, "contested")
        flip_crc_bit(store, key)
        if moved == "index":
            # A torn entry over a corrupt blob: the heal path moves the
            # entry aside before the blob is quarantined.
            truncate_index_entry(store, key)
        real_replace = os.replace
        raced = []

        def racing_replace(src, dst):
            if not raced and os.path.basename(
                    os.path.dirname(src)) == moved:
                raced.append(src)
                assert TraceStore(store.root).fetch(key) is None
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        assert store.fetch(key) is None
        monkeypatch.undo()
        assert raced, "the racing reader never ran"
        assert not store.blob_path(key).exists()
        assert (store.root / "quarantine" / f"{key}.uftc").exists()
        assert store.verify().clean


class TestVerifyCli:
    def _damaged_store(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        _put(store, "healthy")
        rotten = _put(store, "rotten", seed=1)
        torn = _put(store, "torn", seed=2)
        flip_crc_bit(store, rotten)
        truncate_index_entry(store, torn)
        return store, rotten, torn

    def test_verify_reports_both_fault_classes(self, tmp_path, capsys):
        store, rotten, torn = self._damaged_store(tmp_path)
        code = main(["trace", "verify", "--cache-dir", str(store.root)])
        captured = capsys.readouterr()
        assert code == 2
        assert "1 corrupt" in captured.out
        assert "1 bad index entries" in captured.out
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
        assert "1 ok, 0 missing, 0 corrupt" in capsys.readouterr().out

    def test_verify_of_clean_store_exits_zero(self, tmp_path, capsys):
        store = TraceStore(tmp_path / "store")
        _put(store, "healthy")
        assert main(["trace", "verify",
                     "--cache-dir", str(store.root)]) == 0


class TestCrashContainment:
    def test_collect_gives_failures_their_slot(self):
        from repro.engine.parallel import TrialFailure, run_trials

        trials = [lambda: "a", lambda: crashing_trial("dead"),
                  lambda: "c"]
        results = run_trials(trials, workers=1, on_error="collect")
        assert results[0] == "a"
        assert isinstance(results[1], TrialFailure)
        assert results[1].message == "dead"
        assert results[2] == "c"
        assert [r for r in results if r] == ["a", "c"]

    def test_raise_policy_propagates(self):
        from repro.engine.parallel import run_trials

        with pytest.raises(RuntimeError, match="injected crash"):
            run_trials([crashing_trial], workers=1, on_error="raise")

    def test_collect_does_not_corrupt_telemetry(self):
        from repro.engine.parallel import run_trials
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
                workers=1, on_error="collect",
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
        records = store.open(key).read_all()
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
        assert len(store.open(left).read_all()) == 3
        assert len(store.open(right).read_all()) == 3
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
