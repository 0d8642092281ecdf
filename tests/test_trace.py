"""The trace subsystem: format, corpus I/O, store, replay."""

import numpy as np
import pytest

from repro.errors import (
    TraceCorruptionError,
    TraceError,
    TraceFormatError,
    TraceStoreError,
)
from repro.sidechannel.tracer import TraceRecord
from repro.trace import (
    TraceStore,
    decode_record,
    encode_record,
    read_corpus,
    write_corpus,
)

from .golden import golden_compare


def collector_style_trace(label=3, n=40, seed=0):
    """A trace shaped exactly like FrequencyTraceCollector output:
    times are integer nanosecond stamps divided by 1e6, freqs are
    integral floats."""
    rng = np.random.default_rng(seed)
    stamps = np.cumsum(rng.integers(1_000_000, 4_000_000, size=n))
    times = np.array([(t - stamps[0]) / 1e6 for t in stamps])
    freqs = rng.integers(1400, 2401, size=n).astype(np.float64)
    return TraceRecord(label=label, times_ms=times, freqs_mhz=freqs)


def assert_identical(a: TraceRecord, b: TraceRecord):
    assert a.label == b.label
    assert np.array_equal(a.times_ms, b.times_ms)
    assert a.times_ms.dtype == b.times_ms.dtype
    assert np.array_equal(a.freqs_mhz, b.freqs_mhz)
    assert a.freqs_mhz.dtype == b.freqs_mhz.dtype


class TestRecordFormat:
    def test_collector_trace_roundtrips_bit_exactly(self):
        record = collector_style_trace()
        assert_identical(decode_record(encode_record(record)), record)

    def test_varint_beats_raw_float_for_collector_traces(self):
        record = collector_style_trace(n=200)
        raw_size = record.times_ms.nbytes + record.freqs_mhz.nbytes
        assert len(encode_record(record)) < raw_size

    def test_integer_dtype_streams_roundtrip(self):
        record = TraceRecord(
            label=-1,
            times_ms=np.array([0, 3, 6, 9], dtype=np.int64),
            freqs_mhz=np.array([2400, 1700, 1700, 2400],
                               dtype=np.int64),
        )
        assert_identical(decode_record(encode_record(record)), record)

    def test_non_integral_floats_take_the_raw_path(self):
        record = TraceRecord(
            label=7,
            times_ms=np.array([0.0, np.pi, 2 * np.pi]),
            freqs_mhz=np.array([2400.25, 1650.5, 2399.75]),
        )
        assert_identical(decode_record(encode_record(record)), record)

    def test_nan_and_inf_freqs_roundtrip_via_raw_path(self):
        record = TraceRecord(
            label=0,
            times_ms=np.array([0.0, 3.0]),
            freqs_mhz=np.array([np.nan, np.inf]),
        )
        decoded = decode_record(encode_record(record))
        assert np.isnan(decoded.freqs_mhz[0])
        assert np.isinf(decoded.freqs_mhz[1])

    def test_empty_trace_roundtrips(self):
        record = TraceRecord(label=0, times_ms=np.array([]),
                             freqs_mhz=np.array([]))
        decoded = decode_record(encode_record(record))
        assert len(decoded.times_ms) == 0

    def test_mismatched_streams_rejected(self):
        record = TraceRecord(label=0, times_ms=np.array([0.0, 1.0]),
                             freqs_mhz=np.array([2400.0]))
        with pytest.raises(TraceFormatError):
            encode_record(record)

    def test_bad_magic_is_a_format_error(self):
        blob = bytearray(encode_record(collector_style_trace()))
        blob[:4] = b"NOPE"
        with pytest.raises(TraceFormatError,
                           match="bad magic"):
            decode_record(bytes(blob))

    def test_future_version_is_a_format_error(self):
        blob = bytearray(encode_record(collector_style_trace()))
        blob[4] = 99
        with pytest.raises(TraceFormatError, match="version"):
            decode_record(bytes(blob))

    def test_truncated_blob_is_a_corruption_error(self):
        blob = encode_record(collector_style_trace())
        with pytest.raises(TraceCorruptionError):
            decode_record(blob[: len(blob) // 2])

    def test_flipped_byte_fails_the_crc(self):
        blob = bytearray(encode_record(collector_style_trace()))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(TraceCorruptionError, match="CRC"):
            decode_record(bytes(blob))

    def test_typed_errors_derive_from_trace_error(self):
        assert issubclass(TraceCorruptionError, TraceFormatError)
        assert issubclass(TraceFormatError, TraceError)
        assert issubclass(TraceStoreError, TraceError)


class TestDurationFix:
    def test_duration_is_last_minus_first(self):
        record = TraceRecord(
            label=0,
            times_ms=np.array([100.0, 103.0, 106.0]),
            freqs_mhz=np.array([2400.0, 2400.0, 2400.0]),
        )
        assert record.duration_ms == pytest.approx(6.0)

    def test_duration_of_zero_based_trace_unchanged(self):
        record = TraceRecord(
            label=0,
            times_ms=np.array([0.0, 3.0, 6.0]),
            freqs_mhz=np.array([2400.0, 2400.0, 2400.0]),
        )
        assert record.duration_ms == pytest.approx(6.0)

    def test_duration_of_empty_trace_is_zero(self):
        record = TraceRecord(label=0, times_ms=np.array([]),
                             freqs_mhz=np.array([]))
        assert record.duration_ms == 0.0


class TestCorpusIO:
    def test_writer_reader_roundtrip(self, tmp_path):
        records = [collector_style_trace(label=i, seed=i)
                   for i in range(5)]
        path = tmp_path / "corpus.uftc"
        count = write_corpus(path, records, meta={"note": "five"})
        assert count == 5
        meta, loaded = read_corpus(path)
        assert meta == {"note": "five"}
        for original, decoded in zip(records, loaded):
            assert_identical(original, decoded)

    def test_empty_corpus_roundtrips(self, tmp_path):
        path = tmp_path / "corpus.uftc"
        assert write_corpus(path, []) == 0
        assert read_corpus(path) == ({}, [])

    def test_foreign_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "not-a-corpus"
        path.write_bytes(b"definitely not a corpus header")
        with pytest.raises(TraceFormatError, match="magic"):
            read_corpus(path)

    def test_future_version_is_a_format_error(self, tmp_path):
        path = tmp_path / "corpus.uftc"
        write_corpus(path, [collector_style_trace()])
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            read_corpus(path)

    def test_meta_that_is_not_json_is_a_corruption_error(self, tmp_path):
        path = tmp_path / "corpus.uftc"
        write_corpus(path, [], meta={"note": "x"})
        data = path.read_bytes().replace(b'"note"', b'"n\xffte"')
        path.write_bytes(data)
        with pytest.raises(TraceCorruptionError, match="JSON"):
            read_corpus(path)

    def test_truncated_header_is_a_corruption_error(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"UF")
        with pytest.raises(TraceCorruptionError, match="header"):
            read_corpus(path)

    def test_truncated_meta_is_a_corruption_error(self, tmp_path):
        path = tmp_path / "corpus.uftc"
        write_corpus(path, [], meta={"note": "cut short"})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TraceCorruptionError, match="meta"):
            read_corpus(path)

    @pytest.mark.parametrize("damage", ["length", "body"])
    def test_truncated_frame_is_a_corruption_error(self, tmp_path, damage):
        path = tmp_path / "corpus.uftc"
        write_corpus(path, [collector_style_trace(label=i)
                            for i in range(2)])
        data = path.read_bytes()
        # A trailing frame whose u32 length prefix is cut short, or a
        # last record whose body is.
        data = data + b"\x00\x01" if damage == "length" else data[:-7]
        path.write_bytes(data)
        with pytest.raises(TraceCorruptionError, match="truncated"):
            read_corpus(path)


class StoreFixture:
    @pytest.fixture
    def store(self, tmp_path):
        return TraceStore(tmp_path / "store")


class TestStore(StoreFixture):
    def records(self, n=3, seed=0):
        return [collector_style_trace(label=i, seed=seed + i)
                for i in range(n)]

    def test_put_fetch_roundtrip(self, store):
        key = store.key("exp", params={"a": 1}, seed=0)
        store.put(key, self.records(), experiment="exp",
                  meta={"train_count": 2})
        assert store.contains(key)
        meta, records = store.fetch(key)
        assert meta["train_count"] == 2
        assert [r.label for r in records] == [0, 1, 2]

    def test_fetch_miss_returns_none(self, store):
        assert store.fetch("0" * 32) is None

    def test_key_separates_experiments_params_and_seeds(self):
        base = TraceStore.key("exp", params={"a": 1}, seed=0)
        assert TraceStore.key("exp2", params={"a": 1}, seed=0) != base
        assert TraceStore.key("exp", params={"a": 2}, seed=0) != base
        assert TraceStore.key("exp", params={"a": 1}, seed=1) != base
        assert TraceStore.key("exp", params={"a": 1}, seed=0) == base

    def test_key_separates_platforms(self):
        from repro.config import (
            default_platform_config,
            single_socket_config,
        )

        dual = TraceStore.key("exp", platform=default_platform_config())
        single = TraceStore.key("exp", platform=single_socket_config())
        assert dual != single

    def test_key_resolves_no_platform_to_the_default(self):
        from repro.config import default_platform_config

        for backend in (None, "batch"):
            assert TraceStore.key(
                "exp", seed=0, backend=backend,
            ) == TraceStore.key(
                "exp", platform=default_platform_config(), seed=0,
                backend=backend,
            )

    def test_no_temp_files_left_behind(self, store):
        key = store.key("exp", seed=0)
        store.put(key, self.records())
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []

    def test_missing_blob_is_a_plain_miss(self, store):
        key = store.key("exp", seed=0)
        store.put(key, self.records())
        store.blob_path(key).unlink()
        with pytest.raises(TraceStoreError, match="no corpus stored"):
            store.load(key)
        assert store.fetch(key) is None
        assert store.entries() == []
        store.put(key, self.records())
        assert store.fetch(key) is not None

    def test_put_leaves_exactly_one_file_per_key(self, store):
        keys = [store.key("exp", seed=i) for i in range(2)]
        for key in keys:
            store.put(key, self.records(), experiment="exp",
                      meta={"train_count": 2})
            assert store.fetch(key) is not None
        on_disk = sorted(path.relative_to(store.root).as_posix()
                         for path in store.root.rglob("*"))
        assert on_disk == ["blobs", *sorted(
            f"blobs/{key}.uftc" for key in keys)]
        # The blob alone says what it holds.
        meta, _ = store.fetch(keys[0])
        assert meta == {"train_count": 2, "experiment": "exp"}
        entry = store.entries()[0]
        assert (entry.experiment, entry.records) == ("exp", 3)

    def test_store_with_a_legacy_index_still_serves_its_blobs(self, store):
        import json

        # A store written before blobs carried their experiment: a bare
        # blob plus an index/<key>.json entry beside it.
        key = store.key("legacy", seed=0)
        store.blob_path(key).parent.mkdir(parents=True)
        write_corpus(store.blob_path(key), self.records(),
                     meta={"train_count": 2})
        index = store.root / "index"
        index.mkdir()
        (index / f"{key}.json").write_text(json.dumps(
            {"key": key, "experiment": "legacy", "tick": 7}))
        meta, records = store.fetch(key)
        assert meta == {"train_count": 2}
        assert len(records) == 3
        (entry,) = store.entries()
        assert (entry.key, entry.experiment, entry.records) == (key, "", 3)
        assert store.verify().ok == (key,)
        assert store.total_bytes() == store.blob_path(key).stat().st_size
        assert store.gc(max_bytes=0) == [key]
        assert (index / f"{key}.json").exists()  # ignored, not touched

    def test_corrupt_blob_is_quarantined_and_reported_as_miss(
            self, store):
        key = store.key("exp", seed=0)
        store.put(key, self.records())
        blob = store.blob_path(key)
        data = bytearray(blob.read_bytes())
        data[-3] ^= 0xFF
        blob.write_bytes(bytes(data))
        assert store.fetch(key) is None
        assert not blob.exists()
        assert (store.root / "quarantine" / blob.name).exists()
        # A fresh put repopulates the key.
        store.put(key, self.records())
        assert store.fetch(key) is not None

    def test_gc_evicts_least_recently_used_first(self, store):
        keys = [store.key("exp", seed=i) for i in range(3)]
        for key in keys:
            store.put(key, self.records())
        store.load(keys[0])  # touch: key 0 becomes most recent

        def stamp(key):
            return store.blob_path(key).stat().st_mtime_ns

        # Last use is the blob's mtime, re-stamped by load.
        assert stamp(keys[1]) < stamp(keys[2]) < stamp(keys[0])
        size = store.blob_path(keys[0]).stat().st_size
        assert store.gc(max_bytes=2 * size) == [keys[1]]
        assert store.contains(keys[0])
        store.fetch(keys[2])  # key 0 is now the least recently used
        assert store.gc(max_bytes=size) == [keys[0]]
        assert store.contains(keys[2])

    def test_verify_reports_ok_and_corrupt(self, store):
        ok_key = store.key("exp", seed=0)
        gone_key = store.key("exp", seed=1)
        corrupt_key = store.key("exp", seed=2)
        for key in (ok_key, gone_key, corrupt_key):
            store.put(key, self.records())
        store.blob_path(gone_key).unlink()  # a deleted blob is a miss
        blob = store.blob_path(corrupt_key)
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF
        blob.write_bytes(bytes(data))
        report = store.verify()
        assert report.ok == (ok_key,)
        assert report.corrupt == (corrupt_key,)
        assert not report.clean

    def test_verify_of_an_empty_store_is_clean(self, store):
        report = store.verify()
        assert (report.ok, report.corrupt) == ((), ())
        assert report.clean

    def test_verify_neither_moves_nor_stamps_a_blob(self, store):
        import os

        good = store.key("exp", seed=0)
        bad = store.key("exp", seed=1)
        for key in (good, bad):
            store.put(key, self.records())
            os.utime(store.blob_path(key), ns=(1_000, 1_000))
        blob = store.blob_path(bad)
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF
        blob.write_bytes(bytes(data))
        os.utime(blob, ns=(1_000, 1_000))
        assert store.verify().corrupt == (bad,)
        # Read-only: the corrupt blob stays put and no LRU stamp moves.
        assert blob.exists()
        assert not (store.root / "quarantine").exists()
        for key in (good, bad):
            assert store.blob_path(key).stat().st_mtime_ns == 1_000

    def test_put_folds_experiment_without_touching_the_callers_meta(
            self, store):
        key = store.key("exp", seed=0)
        meta = {"train_count": 2}
        store.put(key, self.records(), experiment="exp", meta=meta)
        assert meta == {"train_count": 2}
        assert store.load(key)[0] == {"train_count": 2,
                                      "experiment": "exp"}

    def test_put_without_experiment_writes_the_meta_as_given(self, store):
        key = store.key("exp", seed=0)
        store.put(key, self.records(), meta={"train_count": 2})
        assert store.load(key)[0] == {"train_count": 2}
        (entry,) = store.entries()
        assert (entry.experiment, entry.records) == ("", 3)

    def test_entries_take_size_and_last_use_from_the_blob(self, store):
        key = store.key("exp", seed=0)
        store.put(key, self.records(), experiment="exp")
        stat = store.blob_path(key).stat()
        (entry,) = store.entries()
        assert entry.key == key
        assert entry.size_bytes == stat.st_size
        assert entry.last_used_ns == stat.st_mtime_ns
        assert entry.meta == {"experiment": "exp"}

    # A whole second, so any filesystem keeps the stamp exactly.
    NOW_NS = 1_700_000_000 * 10**9

    def test_put_stamps_the_blob_with_the_current_time(self, store,
                                                       monkeypatch):
        import time

        key = store.key("exp", seed=0)
        monkeypatch.setattr(time, "time_ns", lambda: self.NOW_NS)
        store.put(key, self.records())
        assert store.blob_path(key).stat().st_mtime_ns == self.NOW_NS

    def test_load_stamps_the_blob_as_just_used(self, store, monkeypatch):
        import os
        import time

        key = store.key("exp", seed=0)
        store.put(key, self.records())
        os.utime(store.blob_path(key), ns=(1_000, 1_000))
        monkeypatch.setattr(time, "time_ns", lambda: self.NOW_NS)
        store.load(key)
        assert store.blob_path(key).stat().st_mtime_ns == self.NOW_NS

    def test_load_of_a_missing_blob_moves_nothing(self, store):
        key = store.key("exp", seed=0)
        with pytest.raises(TraceStoreError, match="no corpus stored"):
            store.load(key)
        assert not (store.root / "quarantine").exists()
        assert store.keys() == []

    def test_gc_breaks_last_use_ties_by_key(self, store):
        import os

        keys = [store.key("exp", seed=i) for i in range(3)]
        for key in keys:
            store.put(key, self.records())
            os.utime(store.blob_path(key), ns=(1_000, 1_000))
        size = store.blob_path(keys[0]).stat().st_size
        assert store.gc(max_bytes=size) == sorted(keys)[:2]
        assert store.keys() == sorted(keys)[2:]

    def test_gc_and_total_bytes_never_parse_a_blob(self, store,
                                                   monkeypatch):
        import repro.trace.store as store_module

        keys = [store.key("exp", seed=i) for i in range(2)]
        for key in keys:
            store.put(key, self.records())
        size = store.blob_path(keys[0]).stat().st_size

        def no_parsing(path):
            raise AssertionError(f"parsed {path}")

        monkeypatch.setattr(store_module, "read_corpus", no_parsing)
        assert store.total_bytes() == 2 * size
        assert store.gc(max_bytes=size) == [keys[0]]
        assert store.total_bytes() == size

    def test_total_bytes_counts_blobs_and_writer_temps(self, store):
        from repro.resilience.checkpoint import unique_temp

        key = store.key("exp", seed=0)
        store.put(key, self.records())
        size = store.blob_path(key).stat().st_size
        (store.root / "index").mkdir()
        (store.root / "index" / f"{key}.json").write_text("{}")
        unique_temp(store.blob_path(key)).write_bytes(b"x" * 64)
        (store.root / "quarantine").mkdir()
        (store.root / "quarantine" / "old.uftc").write_bytes(b"x" * 64)
        assert store.total_bytes() == size + 64
        assert store.keys() == [key]

    def test_a_blob_vanishing_mid_listing_is_skipped(self, store,
                                                    monkeypatch):
        key = store.key("exp", seed=0)
        store.put(key, self.records())
        phantom = "f" * 32  # listed, then evicted by another process
        listed = sorted([key, phantom])
        monkeypatch.setattr(store, "keys", lambda: listed)
        assert [entry.key for entry in store.entries()] == [key]
        assert store.total_bytes() == store.blob_path(key).stat().st_size
        assert store.verify().ok == (key,)
        assert store.gc(max_bytes=0) == [key]

    def test_telemetry_counts_hits_and_misses(self, store):
        from repro.telemetry import MetricsRegistry, using

        key = store.key("exp", seed=0)
        registry = MetricsRegistry()
        with using(registry):
            store.fetch(key)
            store.put(key, self.records())
            store.fetch(key)
        counters = registry.snapshot()["counters"]
        assert counters["trace.store.misses"] == 1
        assert counters["trace.store.hits"] == 1
        assert counters["trace.store.writes"] == 1


class TestGoldenCompare:
    def test_identical_traces_compare_clean(self):
        record = collector_style_trace()
        diff = golden_compare(record, record)
        assert diff.ok and bool(diff)

    def test_label_mismatch_reported(self):
        a = collector_style_trace(label=1)
        b = TraceRecord(label=2, times_ms=a.times_ms,
                        freqs_mhz=a.freqs_mhz)
        diff = golden_compare(a, b)
        assert not diff.ok and "label" in diff.reason

    def test_sample_count_mismatch_reported(self):
        a = collector_style_trace(n=10)
        b = collector_style_trace(n=12)
        assert not golden_compare(a, b).ok

    def test_freq_divergence_reported_with_magnitude(self):
        a = collector_style_trace()
        freqs = a.freqs_mhz.copy()
        freqs[3] += 100.0
        b = TraceRecord(label=a.label, times_ms=a.times_ms,
                        freqs_mhz=freqs)
        diff = golden_compare(a, b)
        assert not diff.ok
        assert diff.max_freq_error_mhz == pytest.approx(100.0)


class TestReplay(StoreFixture):
    SHAPE = dict(num_sites=2, train_visits=2, test_visits=1,
                 trace_ms=200.0, seed=9)

    def test_fingerprint_replay_matches_live_dataset(self, store):
        from repro.sidechannel import collect_dataset
        from repro.trace import fingerprint_dataset_from_store

        live = collect_dataset(**self.SHAPE, cache_dir=store.root)
        replayed = fingerprint_dataset_from_store(store, **self.SHAPE)
        assert live.num_sites == replayed.num_sites
        for a, b in zip(live.train + live.test,
                        replayed.train + replayed.test):
            assert_identical(a, b)

    @pytest.mark.parametrize("classifier", ["knn", "rnn"])
    def test_replay_classifier_scores_from_store_alone(self, store,
                                                       classifier):
        from repro.sidechannel import collect_dataset
        from repro.trace import replay_fingerprint

        collect_dataset(**self.SHAPE, cache_dir=store.root)
        result = replay_fingerprint(store, **self.SHAPE,
                                    classifier=classifier, epochs=40)
        assert result.test_traces == 2
        assert 0.0 <= result.top1 <= 1.0

    def test_unknown_classifier_is_named_before_the_store_is_read(
            self, store):
        from repro.errors import ConfigError
        from repro.trace import replay_fingerprint

        # The store is empty: the bad name, not the missing corpus, is
        # what the caller hears about.
        with pytest.raises(ConfigError, match="svm"):
            replay_fingerprint(store, **self.SHAPE, classifier="svm")

    def test_replay_unknown_key_is_a_store_error(self, store):
        from repro.trace import fingerprint_dataset_from_store

        with pytest.raises(TraceStoreError):
            fingerprint_dataset_from_store(store, **self.SHAPE)

    def test_filesize_replay_matches_live_study(self, store):
        from repro.sidechannel import run_filesize_study
        from repro.trace import filesize_study_from_store

        shape = dict(sizes_kb=(300.0, 600.0), calibration_runs=2,
                     trials=1, seed=2)
        live = run_filesize_study(**shape, cache_dir=store.root)
        replayed = filesize_study_from_store(
            store, granularity_kb=300.0, **shape
        )
        assert replayed == live

    def test_filesize_corpus_shape_mismatch_rejected(self, store):
        from repro.errors import ConfigError
        from repro.sidechannel.filesize import study_from_traces

        with pytest.raises(ConfigError, match="study shape"):
            study_from_traces(
                [collector_style_trace()], sizes_kb=(300.0, 600.0),
                calibration_runs=2, trials=1, granularity_kb=300.0,
            )


class TestCacheDeterminism(StoreFixture):
    SHAPE = dict(num_sites=2, train_visits=1, test_visits=1,
                 trace_ms=200.0, seed=4)

    def test_cold_warm_and_plain_datasets_identical(self, store):
        from repro.sidechannel import collect_dataset

        plain = collect_dataset(**self.SHAPE)
        cold = collect_dataset(**self.SHAPE, cache_dir=store.root)
        warm = collect_dataset(**self.SHAPE, cache_dir=store.root)
        for a, b, c in zip(plain.train + plain.test,
                           cold.train + cold.test,
                           warm.train + warm.test):
            assert_identical(a, b)
            assert_identical(b, c)

    def test_fingerprint_warm_run_skips_the_simulator(self, store):
        from repro.sidechannel import collect_dataset
        from repro.telemetry import MetricsRegistry, using

        cold = collect_dataset(**self.SHAPE, cache_dir=store.root)
        registry = MetricsRegistry()
        with using(registry):
            warm = collect_dataset(**self.SHAPE, cache_dir=store.root,
                                   workers=2)
        counters = registry.snapshot()["counters"]
        assert counters.get("trace.store.hits", 0) == 1
        assert counters.get("engine.events_fired", 0) == 0
        assert len(store.keys()) == 1
        for a, b in zip(cold.train + cold.test,
                        warm.train + warm.test):
            assert_identical(a, b)

    def test_filesize_warm_run_skips_the_simulator(self, store):
        from repro.sidechannel import run_filesize_study
        from repro.telemetry import MetricsRegistry, using

        shape = dict(sizes_kb=(300.0,), calibration_runs=1, trials=1,
                     seed=1)
        cold = run_filesize_study(**shape, cache_dir=store.root)
        registry = MetricsRegistry()
        with using(registry):
            warm = run_filesize_study(**shape, cache_dir=store.root)
        assert warm == cold
        counters = registry.snapshot()["counters"]
        assert counters.get("engine.events_fired", 0) == 0
        assert counters.get("trace.store.hits", 0) == 1
