"""Deterministic replay: stored corpora through the classifier stack.

Replay is the read half of the trace subsystem's contract: a corpus
recorded under a key is a pure function of ``(platform, experiment
params, seed)``, so feeding it back through
:mod:`repro.sidechannel.features` and the kNN/RNN/GRU classifiers must
produce results bit-identical to a live simulation — without ever
touching the simulator.  The two study-shaped entry points
(:func:`fingerprint_dataset_from_store`,
:func:`filesize_study_from_store`) recompute the same cache keys the
cache-aware runners use, load the corpora, and hand them to the exact
scoring code the live path uses.

:func:`golden_compare` is the tolerance checker behind the golden-trace
regression tests: it diffs a freshly simulated trace against a recorded
one and reports the first way in which they disagree.  With the default
zero tolerances it demands bit-identity, which is the determinism
guarantee the rest of the subsystem is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import TraceStoreError
from ..sidechannel.tracer import TraceRecord
from .store import TraceStore

__all__ = [
    "GoldenDiff",
    "golden_compare",
    "fingerprint_dataset_from_store",
    "filesize_study_from_store",
    "replay_fingerprint",
    "replay_filesize",
]


@dataclass(frozen=True)
class GoldenDiff:
    """Outcome of comparing one trace against its golden recording."""

    ok: bool
    reason: str | None = None
    max_time_error_ms: float = 0.0
    max_freq_error_mhz: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def golden_compare(actual: TraceRecord, expected: TraceRecord, *,
                   rtol: float = 0.0, atol: float = 0.0) -> GoldenDiff:
    """Diff a trace against a golden recording within tolerances.

    The default ``rtol=atol=0.0`` demands bit-identical streams — the
    simulator is deterministic, so golden tests should not need slack.
    Non-zero tolerances exist for cross-platform golden sets where
    libm differences could perturb the last ulp.
    """
    if actual.label != expected.label:
        return GoldenDiff(False, f"label {actual.label} != "
                                 f"{expected.label}")
    a_times = np.asarray(actual.times_ms, dtype=np.float64)
    e_times = np.asarray(expected.times_ms, dtype=np.float64)
    a_freqs = np.asarray(actual.freqs_mhz, dtype=np.float64)
    e_freqs = np.asarray(expected.freqs_mhz, dtype=np.float64)
    if a_times.shape != e_times.shape:
        return GoldenDiff(False, f"{len(a_times)} samples, golden has "
                                 f"{len(e_times)}")
    time_err = (float(np.max(np.abs(a_times - e_times)))
                if len(a_times) else 0.0)
    freq_err = (float(np.max(np.abs(a_freqs - e_freqs)))
                if len(a_freqs) else 0.0)
    if not np.allclose(a_times, e_times, rtol=rtol, atol=atol):
        return GoldenDiff(False, f"times diverge (max abs error "
                                 f"{time_err:g} ms)",
                          time_err, freq_err)
    if not np.allclose(a_freqs, e_freqs, rtol=rtol, atol=atol):
        return GoldenDiff(False, f"freqs diverge (max abs error "
                                 f"{freq_err:g} MHz)",
                          time_err, freq_err)
    return GoldenDiff(True, None, time_err, freq_err)


def fingerprint_dataset_from_store(
    store: TraceStore,
    *,
    num_sites: int,
    train_visits: int = 3,
    test_visits: int = 1,
    trace_ms: float = 5_000.0,
    seed: int = 0,
    victim_core: int = 5,
    platform=None,
    sharded: bool = False,
):
    """Reassemble a fingerprint dataset from stored corpora only.

    Recomputes the same key(s) the cache-aware
    :func:`~repro.sidechannel.fingerprint.collect_dataset` uses — one
    dataset key in long-lived mode, one key per site shard in sharded
    mode — and raises
    :class:`~repro.errors.TraceStoreError` if any corpus is missing,
    so a replay never silently falls back to simulation.
    """
    from ..sidechannel.fingerprint import (
        FingerprintDataset,
        _shard_store_key,
        fingerprint_cache_params,
    )

    train: list[TraceRecord] = []
    test: list[TraceRecord] = []
    if sharded:
        for site in range(num_sites):
            key = _shard_store_key(
                store, site=site, seed=seed, platform=platform,
                num_sites=num_sites, train_visits=train_visits,
                test_visits=test_visits, trace_ms=trace_ms,
                victim_core=victim_core,
            )
            meta, records = store.load(key)
            split = int(meta["train_count"])
            train.extend(records[:split])
            test.extend(records[split:])
    else:
        key = store.key(
            "fingerprint",
            platform=platform,
            params=fingerprint_cache_params(
                num_sites=num_sites, train_visits=train_visits,
                test_visits=test_visits, trace_ms=trace_ms,
                victim_core=victim_core, sharded=False,
            ),
            seed=seed,
        )
        meta, records = store.load(key)
        split = int(meta["train_count"])
        train.extend(records[:split])
        test.extend(records[split:])
    return FingerprintDataset(
        train=tuple(train),
        test=tuple(test),
        num_sites=num_sites,
        trace_ms=trace_ms,
    )


def filesize_study_from_store(
    store: TraceStore,
    *,
    sizes_kb,
    calibration_runs: int = 3,
    trials: int = 2,
    granularity_kb: float = 300.0,
    seed: int = 0,
    platform=None,
):
    """Score a file-size study from its stored corpus only.

    Loads the corpus recorded by the cache-aware
    :func:`~repro.sidechannel.filesize.run_filesize_study` and scores
    it through the same pure-function pipeline; raises
    :class:`~repro.errors.TraceStoreError` when the key was never
    recorded.
    """
    from ..sidechannel.filesize import (
        filesize_cache_params,
        study_from_traces,
    )

    shape = dict(
        sizes_kb=tuple(sizes_kb),
        calibration_runs=calibration_runs,
        trials=trials,
        granularity_kb=granularity_kb,
    )
    key = store.key(
        "filesize",
        platform=platform,
        params=filesize_cache_params(**shape),
        seed=seed,
    )
    _, records = store.load(key)
    return study_from_traces(records, **shape)


def replay_fingerprint(
    store: TraceStore,
    *,
    num_sites: int,
    train_visits: int = 3,
    test_visits: int = 1,
    trace_ms: float = 5_000.0,
    seed: int = 0,
    victim_core: int = 5,
    platform=None,
    sharded: bool = False,
    classifier: str = "rnn",
    num_bins: int = 96,
    epochs: int = 400,
):
    """Replay a stored fingerprint corpus through a classifier.

    ``classifier`` picks the model: ``"rnn"`` (the paper's; also
    scores the kNN baseline via the standard study),
    ``"knn"`` or ``"gru"`` (the same RNN with ``cell="gru"``).  Returns a
    :class:`~repro.sidechannel.fingerprint.FingerprintResult`.
    """
    from ..analysis.stats import top_k_accuracy
    from ..sidechannel.features import normalize_traces
    from ..sidechannel.fingerprint import (
        FingerprintResult,
        run_fingerprinting_study,
    )
    from ..sidechannel.rnn import RnnClassifier, RnnConfig

    dataset = fingerprint_dataset_from_store(
        store, num_sites=num_sites, train_visits=train_visits,
        test_visits=test_visits, trace_ms=trace_ms, seed=seed,
        victim_core=victim_core, platform=platform, sharded=sharded,
    )
    config = RnnConfig(num_classes=num_sites, epochs=epochs, seed=seed)
    if classifier == "rnn":
        return run_fingerprinting_study(
            dataset, num_bins=num_bins, rnn_config=config, seed=seed
        )
    train_x, train_y = normalize_traces(list(dataset.train), num_bins)
    test_x, test_y = normalize_traces(list(dataset.test), num_bins)
    if classifier == "knn":
        from ..sidechannel.knn import KnnClassifier

        model = KnnClassifier(k=3, num_classes=num_sites)
    elif classifier == "gru":
        model = RnnClassifier(replace(config, cell="gru"))
    else:
        raise TraceStoreError(
            f"unknown replay classifier {classifier!r} "
            "(expected rnn, knn or gru)"
        )
    model.fit(train_x, train_y)
    scores = model.predict_scores(test_x)
    top5_k = min(5, num_sites)
    top1 = top_k_accuracy(scores, test_y, 1)
    return FingerprintResult(
        top1=top1,
        top5=top_k_accuracy(scores, test_y, top5_k),
        knn_top1=top1 if classifier == "knn" else float("nan"),
        num_sites=num_sites,
        test_traces=len(dataset.test),
    )


def replay_filesize(store: TraceStore, **kwargs):
    """Replay a stored file-size corpus into a scored study."""
    return filesize_study_from_store(store, **kwargs)
