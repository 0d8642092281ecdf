"""The ``repro trace`` subcommand group and the cache flags."""

import json

import pytest

from repro.cli import build_parser, main

FILESIZE_FLAGS = ["--steps", "2", "--trials", "1"]
FINGERPRINT_FLAGS = ["--sites", "2", "--trace-ms", "250"]


class TestParser:
    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_every_trace_command_registered(self):
        parser = build_parser()
        for command, extra in (
            ("record", ["filesize"]),
            ("replay", ["filesize"]),
            ("ls", []),
            ("gc", ["--max-bytes", "1"]),
            ("verify", []),
        ):
            args = parser.parse_args(
                ["trace", command, *extra, "--cache-dir", "x"]
            )
            assert callable(args.handler)

    def test_cache_flags_on_studies(self):
        parser = build_parser()
        for command in ("fingerprint", "filesize"):
            args = parser.parse_args([command, "--cache-dir", "d",
                                      "--no-cache"])
            assert args.cache_dir == "d"
            assert args.no_cache

    def test_cache_dir_env_fallback(self, monkeypatch):
        from repro.cli import _resolve_cache_dir

        monkeypatch.setenv("REPRO_TRACE_CACHE", "/env/store")
        args = build_parser().parse_args(["filesize"])
        assert _resolve_cache_dir(args) == "/env/store"
        args = build_parser().parse_args(["filesize", "--no-cache"])
        assert _resolve_cache_dir(args) is None
        args = build_parser().parse_args(
            ["filesize", "--cache-dir", "/cli/store"]
        )
        assert _resolve_cache_dir(args) == "/cli/store"


class TestRoundTrip:
    def test_record_ls_replay_verify_filesize(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["--seed", "3", "trace", "record", "filesize",
                     "--cache-dir", store, *FILESIZE_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "recorded: filesize" in out

        assert main(["trace", "ls", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "filesize" in out and "1 corpora" in out

        assert main(["--seed", "3", "trace", "replay", "filesize",
                     "--cache-dir", store, *FILESIZE_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "no simulation" in out and "%" in out

        assert main(["trace", "verify", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "1 ok, 0 corrupt" in out

    def test_second_record_is_a_cache_hit(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["--seed", "3", "trace", "record", "filesize",
                "--cache-dir", store, *FILESIZE_FLAGS]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "already cached" in capsys.readouterr().out

    def test_study_command_warm_runs_from_the_store(self, tmp_path,
                                                    capsys):
        store = str(tmp_path / "store")
        argv = ["--seed", "3", "filesize", *FILESIZE_FLAGS,
                "--cache-dir", store, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["results"]["accuracy"] == (
            cold["results"]["accuracy"]
        )
        assert warm["results"]["study"] == cold["results"]["study"]
        # The warm run fired no simulator events.
        assert warm["metrics"]["counters"].get(
            "engine.events_fired", 0
        ) == 0

    def test_fingerprint_replay_with_knn(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["--seed", "5", "trace", "record", "fingerprint",
                     "--cache-dir", store, *FINGERPRINT_FLAGS]) == 0
        capsys.readouterr()
        assert main(["--seed", "5", "trace", "replay", "fingerprint",
                     "--cache-dir", store, "--classifier", "knn",
                     *FINGERPRINT_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "knn top-1" in out

    def test_gc_evicts_and_reports(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["--seed", "3", "trace", "record", "filesize",
                     "--cache-dir", store, *FILESIZE_FLAGS]) == 0
        capsys.readouterr()
        assert main(["trace", "gc", "--cache-dir", store,
                     "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 corpora evicted" in out

    def test_verify_fails_on_a_damaged_store(self, tmp_path, capsys):
        from repro.trace import TraceStore

        store_dir = tmp_path / "store"
        store = str(store_dir)
        assert main(["--seed", "3", "trace", "record", "filesize",
                     "--cache-dir", store, *FILESIZE_FLAGS]) == 0
        capsys.readouterr()
        trace_store = TraceStore(store_dir)
        entry = trace_store.entries()[0]
        blob = trace_store.blob_path(entry.key)
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF
        blob.write_bytes(bytes(data))

        assert main(["trace", "verify", "--cache-dir", store]) == 2
        captured = capsys.readouterr()
        assert "corrupt blob" in captured.err

        # --quarantine moves the blob aside; the store verifies clean
        # (zero corpora) afterwards.
        assert main(["trace", "verify", "--cache-dir", store,
                     "--quarantine"]) == 2
        capsys.readouterr()
        assert main(["trace", "verify", "--cache-dir", store]) == 0

    def test_replay_of_an_empty_store_is_a_clean_error(self, tmp_path,
                                                       capsys):
        store = str(tmp_path / "store")
        code = main(["--seed", "3", "trace", "replay", "filesize",
                     "--cache-dir", store, *FILESIZE_FLAGS])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestStoreCommands:
    """``ls``, ``gc`` and ``verify`` read the blobs and nothing else."""

    @staticmethod
    def _records():
        import numpy as np

        from repro.sidechannel.tracer import TraceRecord

        return [TraceRecord(label=label,
                            times_ms=np.array([0.0, 1.0, 2.0]),
                            freqs_mhz=np.array([1200.0, 1500.0, 2400.0]))
                for label in range(2)]

    def _store(self, tmp_path, count):
        import os

        from repro.trace import TraceStore

        store = TraceStore(tmp_path / "store")
        keys = [TraceStore.key(f"exp{i}", seed=i) for i in range(count)]
        # Distinct explicit stamps: put order is last-use order.
        for i, key in enumerate(keys):
            store.put(key, self._records(), experiment=f"exp{i}")
            stamp = (i + 1) * 1_000
            os.utime(store.blob_path(key), ns=(stamp, stamp))
        return store, keys

    @staticmethod
    def _rows(out, keys):
        return {line.split()[0]: line.split()[1:]
                for line in out.splitlines()
                if line.split() and line.split()[0] in keys}

    def test_ls_ranks_the_least_recently_used_first(self, tmp_path,
                                                    capsys):
        store, keys = self._store(tmp_path, 3)
        store.open(keys[0])  # now the most recently used
        assert main(["trace", "ls", "--cache-dir", str(store.root)]) == 0
        rows = self._rows(capsys.readouterr().out, keys)
        assert {key: row[-1] for key, row in rows.items()} == {
            keys[1]: "1", keys[2]: "2", keys[0]: "3"}
        assert rows[keys[2]][:2] == ["exp2", "2"]

    def test_ls_shows_a_dash_for_a_blob_without_experiment(
            self, tmp_path, capsys):
        from repro.trace import TraceStore, write_corpus

        store = TraceStore(tmp_path / "store")
        key = TraceStore.key("legacy", seed=0)
        write_corpus(store.blob_path(key), self._records())
        assert main(["trace", "ls", "--cache-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert self._rows(out, [key])[key][:2] == ["-", "2"]
        assert "1 corpora" in out

    def test_ls_json_lists_every_entry(self, tmp_path, capsys):
        store, keys = self._store(tmp_path, 2)
        assert main(["trace", "ls", "--cache-dir", str(store.root),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload["results"]["entries"]
        assert [entry["key"] for entry in entries] == sorted(keys)
        assert payload["results"]["total_bytes"] == store.total_bytes()

    def test_gc_evicts_by_last_use(self, tmp_path, capsys):
        store, keys = self._store(tmp_path, 2)
        store.open(keys[0])
        size = store.blob_path(keys[1]).stat().st_size
        assert main(["trace", "gc", "--cache-dir", str(store.root),
                     "--max-bytes", str(size)]) == 0
        assert f"evicted {keys[1]}" in capsys.readouterr().out
        assert store.keys() == [keys[0]]

    def test_verify_ignores_a_stale_legacy_index(self, tmp_path, capsys):
        store, keys = self._store(tmp_path, 1)
        # Entries left by an older store, one of them for a blob that is
        # long gone: neither is a fault any more.
        index = store.root / "index"
        index.mkdir()
        (index / f"{keys[0]}.json").write_text("{\"tick\": 1}")
        (index / f"{'0' * 32}.json").write_text("{\"tick\"")
        assert main(["trace", "verify",
                     "--cache-dir", str(store.root)]) == 0
        captured = capsys.readouterr()
        assert "1 ok, 0 corrupt" in captured.out
        assert captured.err == ""
