"""Deterministic replay: stored corpora through the classifier stack.

Replay is the read half of the trace subsystem's contract: a corpus
recorded under a key is a pure function of ``(platform, experiment
params, seed)``, so feeding it back through
:mod:`repro.sidechannel.features` and the kNN/RNN classifiers must
produce results bit-identical to a live simulation — without ever
touching the simulator.  The two study-shaped entry points
(:func:`fingerprint_dataset_from_store`,
:func:`filesize_study_from_store`) key their loads from the same
corpus identity the runners record under
(:func:`~repro.sidechannel.fingerprint.fingerprint_corpus`,
:func:`~repro.sidechannel.filesize.filesize_corpus`), load the
corpora, and hand them to the exact scoring code the live path uses.
"""

from __future__ import annotations

from ..errors import ConfigError
from .store import TraceStore

__all__ = [
    "REPLAY_CLASSIFIERS",
    "fingerprint_dataset_from_store",
    "filesize_study_from_store",
    "replay_fingerprint",
]

#: The models :func:`replay_fingerprint` can score a corpus with.
REPLAY_CLASSIFIERS = ("rnn", "knn")


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
):
    """Reassemble a fingerprint dataset from its stored corpus only.

    Loads the key :func:`~repro.sidechannel.fingerprint.collect_dataset`
    records under and raises :class:`~repro.errors.TraceStoreError` if
    it is missing, so a replay never silently falls back to simulation.
    """
    from ..sidechannel.fingerprint import (
        dataset_from_traces,
        fingerprint_corpus,
    )

    _, records = store.load(store.key(**fingerprint_corpus(
        num_sites=num_sites, train_visits=train_visits,
        test_visits=test_visits, trace_ms=trace_ms,
        victim_core=victim_core, seed=seed, platform=platform,
    )))
    return dataset_from_traces(records, num_sites=num_sites,
                               train_visits=train_visits,
                               trace_ms=trace_ms)


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
    from ..sidechannel.filesize import filesize_corpus, study_from_traces

    shape = dict(
        sizes_kb=tuple(sizes_kb),
        calibration_runs=calibration_runs,
        trials=trials,
        granularity_kb=granularity_kb,
    )
    _, records = store.load(store.key(
        **filesize_corpus(**shape, seed=seed, platform=platform)
    ))
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
    classifier: str = "rnn",
    num_bins: int = 96,
    epochs: int = 400,
):
    """Replay a stored fingerprint corpus through a classifier.

    ``classifier`` picks the model: ``"rnn"`` (the paper's; also
    scores the kNN baseline via the standard study) or ``"knn"``
    alone.  Returns a
    :class:`~repro.sidechannel.fingerprint.FingerprintResult`.  An
    unknown ``classifier`` raises :class:`~repro.errors.ConfigError`
    before the store is read.
    """
    if classifier not in REPLAY_CLASSIFIERS:
        raise ConfigError(
            f"unknown replay classifier {classifier!r} "
            f"(expected one of {', '.join(REPLAY_CLASSIFIERS)})"
        )
    from ..analysis.stats import top_k_accuracy
    from ..sidechannel.features import normalize_traces
    from ..sidechannel.fingerprint import (
        FingerprintResult,
        run_fingerprinting_study,
    )
    from ..sidechannel.knn import KnnClassifier
    from ..sidechannel.rnn import RnnConfig

    dataset = fingerprint_dataset_from_store(
        store, num_sites=num_sites, train_visits=train_visits,
        test_visits=test_visits, trace_ms=trace_ms, seed=seed,
        victim_core=victim_core, platform=platform,
    )
    config = RnnConfig(num_classes=num_sites, epochs=epochs, seed=seed)
    if classifier == "rnn":
        return run_fingerprinting_study(
            dataset, num_bins=num_bins, rnn_config=config, seed=seed
        )
    train_x, train_y = normalize_traces(list(dataset.train), num_bins)
    test_x, test_y = normalize_traces(list(dataset.test), num_bins)
    model = KnnClassifier(k=3, num_classes=num_sites)
    model.fit(train_x, train_y)
    scores = model.predict_scores(test_x)
    top5_k = min(5, num_sites)
    top1 = top_k_accuracy(scores, test_y, 1)
    return FingerprintResult(
        top1=top1,
        top5=top_k_accuracy(scores, test_y, top5_k),
        knn_top1=top1,
        num_sites=num_sites,
        test_traces=len(dataset.test),
    )

