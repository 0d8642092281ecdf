"""Trace subsystem I/O micro-benchmarks.

Tracks the three costs the trace store trades between: encoding a
corpus (the cache-miss write tax), decoding one (the hit-path floor)
and the end-to-end warm-versus-cold study gap the cache exists to win.
``benchmarks/check_regression.py`` gates the last one in CI by default
(``--skip-trace-cache`` turns the gate off): a warm fingerprint smoke
run must be at least 10x faster than the cold simulate-and-store run,
or the cache has stopped paying for itself.
"""

import numpy as np

from repro.sidechannel.tracer import TraceRecord
from repro.trace import (
    TraceStore,
    decode_record,
    encode_record,
    read_corpus,
    write_corpus,
)

# The fingerprint smoke shape used by the cold/warm gate: small enough
# to simulate in a couple of seconds, big enough that the cache win is
# unambiguous.
SMOKE_SHAPE = dict(num_sites=2, train_visits=2, test_visits=1,
                   trace_ms=300.0, seed=7)


def synthetic_corpus(traces: int = 64, samples: int = 1_667):
    """Collector-shaped records (~5 s at the paper's 3 ms cadence)."""
    rng = np.random.default_rng(42)
    records = []
    for label in range(traces):
        stamps = np.cumsum(
            rng.integers(2_900_000, 3_100_000, size=samples)
        )
        times = np.array([(t - stamps[0]) / 1e6 for t in stamps])
        freqs = rng.integers(1400, 2401, size=samples).astype(
            np.float64
        )
        records.append(TraceRecord(label=label, times_ms=times,
                                   freqs_mhz=freqs))
    return records


def test_perf_trace_encode_throughput(benchmark):
    records = synthetic_corpus()

    def encode_all():
        return sum(len(encode_record(r)) for r in records)

    assert benchmark(encode_all) > 0


def test_perf_trace_decode_throughput(benchmark):
    blobs = [encode_record(r) for r in synthetic_corpus()]

    def decode_all():
        return sum(len(decode_record(b).freqs_mhz) for b in blobs)

    assert benchmark(decode_all) == 64 * 1_667


def test_perf_corpus_roundtrip(benchmark, tmp_path):
    records = synthetic_corpus(traces=32)
    path = tmp_path / "corpus.uftc"

    def roundtrip():
        write_corpus(path, records)
        _, loaded = read_corpus(path)
        return len(loaded)

    assert benchmark(roundtrip) == 32


def test_perf_store_hit_path(benchmark, tmp_path):
    """Key computation + index touch + full corpus decode: everything
    a warm study run pays instead of simulating."""
    store = TraceStore(tmp_path / "store")
    key = store.key("bench", params={"shape": "smoke"}, seed=0)
    store.put(key, synthetic_corpus(traces=16))

    def hit():
        meta, records = store.fetch(key)
        return len(records)

    assert benchmark(hit) == 16


def test_perf_fingerprint_cold_vs_warm(benchmark, tmp_path):
    """The headline number: warm collect_dataset over the same store.

    The cold run (simulate + store) happens once in setup; the
    benchmark times warm runs only.  check_regression.py re-measures
    both sides with plain timers and enforces the >=10x budget — this
    bench keeps the warm path visible in the normal benchmark output.
    """
    from repro.sidechannel import collect_dataset

    store_dir = tmp_path / "store"
    cold = collect_dataset(**SMOKE_SHAPE, cache_dir=store_dir)

    def warm():
        dataset = collect_dataset(**SMOKE_SHAPE, cache_dir=store_dir)
        return len(dataset.train) + len(dataset.test)

    expected = len(cold.train) + len(cold.test)
    assert benchmark(warm) == expected
