"""Website fingerprinting through UFS (Section 5, Figure 12).

Training phase: the attacker visits each site several times, collecting
a 3 ms-sampled uncore-frequency trace per visit, and trains an RNN
classifier (plus a kNN baseline).  Attack phase: fresh victim visits
are classified; the paper reports 82.18 % top-1 and 91.48 % top-5 over
100 websites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.stats import top_k_accuracy
from ..engine.parallel import resolve_workers
from ..errors import ConfigError
from ..platform.system import System
from ..rng import derive_seed
from ..workloads.browser import BrowserVictim, WebsiteLibrary
from .features import normalize_traces
from .knn import KnnClassifier
from .methodology import UfsAttacker
from .rnn import RnnClassifier, RnnConfig
from .tracer import FrequencyTraceCollector, TraceRecord


@dataclass(frozen=True)
class FingerprintDataset:
    """Collected traces split into training and test sets."""

    train: tuple[TraceRecord, ...]
    test: tuple[TraceRecord, ...]
    num_sites: int
    trace_ms: float


@dataclass(frozen=True)
class FingerprintResult:
    """Classifier accuracies on the attack-phase traces."""

    top1: float
    top5: float
    knn_top1: float
    num_sites: int
    test_traces: int


def fingerprint_corpus(
    *,
    num_sites: int,
    train_visits: int,
    test_visits: int,
    trace_ms: float,
    victim_core: int,
    seed: int,
    platform=None,
) -> dict:
    """The identity of a fingerprint corpus in the trace store.

    The keywords of :func:`~repro.trace.store.cached_corpus` and
    :meth:`~repro.trace.store.TraceStore.key`, shared by
    :func:`collect_dataset` and the replay side so both address the
    same blob.  Worker count is not part of it: it never changes the
    dataset.
    """
    return {
        "experiment": "fingerprint",
        "params": {
            "num_sites": num_sites,
            "train_visits": train_visits,
            "test_visits": test_visits,
            "trace_ms": trace_ms,
            "victim_core": victim_core,
        },
        "seed": seed,
        "platform": platform,
    }


def dataset_from_traces(traces, *, num_sites: int, train_visits: int,
                        trace_ms: float) -> FingerprintDataset:
    """Split a corpus in collection order (every training visit, then
    every attack visit, each in site order) into its dataset."""
    split = num_sites * train_visits
    return FingerprintDataset(
        train=tuple(traces[:split]),
        test=tuple(traces[split:]),
        num_sites=num_sites,
        trace_ms=trace_ms,
    )


def _collect_visits(
    *,
    num_sites: int,
    train_visits: int,
    test_visits: int,
    trace_ms: float,
    seed: int,
    victim_core: int,
    platform,
) -> list[TraceRecord]:
    """Simulate every visit; return the training traces, then the test
    traces, each in site order."""
    system = System(platform, seed=seed)
    attacker = UfsAttacker(system)
    attacker.settle()
    collector = FrequencyTraceCollector(attacker)
    library = WebsiteLibrary(num_sites, seed=derive_seed(seed, "sites"),
                             trace_ms=trace_ms)
    train: list[TraceRecord] = []
    test: list[TraceRecord] = []
    for site in range(num_sites):
        signature = library.signature(site)
        for visit in range(train_visits + test_visits):
            victim = BrowserVictim(
                f"browse-{site}-{visit}",
                signature,
                system.namer.rng(f"visit-{site}-{visit}"),
            )
            system.launch(victim, 0, victim_core)
            trace = collector.collect(trace_ms, label=site)
            system.terminate(victim)
            system.run_ms(60.0)  # frequency recovers between visits
            (train if visit < train_visits else test).append(trace)
    attacker.shutdown()
    system.stop()
    return train + test


def collect_dataset(
    *,
    num_sites: int = 100,
    train_visits: int = 3,
    test_visits: int = 1,
    trace_ms: float = 5_000.0,
    seed: int = 0,
    victim_core: int = 5,
    platform=None,
    workers: int | None = 1,
    cache_dir=None,
) -> FingerprintDataset:
    """Run the attacker against victim visits to every site.

    One long-lived system hosts all visits: the attacker's helpers and
    probe stay resident, as in a real campaign, and victims come and go
    on their own core.  The visits share that system, so there is
    nothing to fan out: ``workers`` is validated for signature
    uniformity but unused.  ``platform`` overrides the platform
    configuration; the Section 6.1 study passes a UFS-range-restricted
    one here.

    ``cache_dir`` names a :class:`~repro.trace.store.TraceStore` root;
    the dataset is one cache line (see
    :func:`~repro.trace.store.cached_corpus`), bit-identical whether
    simulated or read back.
    """
    if not trace_ms > 0:
        raise ConfigError(
            f"trace length must be positive, got {trace_ms} ms"
        )
    if train_visits < 1 or test_visits < 1:
        # An empty split has nothing to train on or nothing to score.
        raise ConfigError(
            f"need at least one training and one attack visit per "
            f"site, got train_visits={train_visits}, "
            f"test_visits={test_visits}"
        )
    resolve_workers(workers)
    from ..trace.store import TraceStore, cached_corpus

    shape = dict(num_sites=num_sites, train_visits=train_visits,
                 test_visits=test_visits, trace_ms=trace_ms,
                 victim_core=victim_core)
    _, records = cached_corpus(
        None if cache_dir is None else TraceStore(cache_dir),
        **fingerprint_corpus(**shape, seed=seed, platform=platform),
        meta={"train_count": num_sites * train_visits},
        simulate=lambda: _collect_visits(**shape, seed=seed,
                                         platform=platform),
    )
    return dataset_from_traces(records, num_sites=num_sites,
                               train_visits=train_visits,
                               trace_ms=trace_ms)


def run_fingerprinting_study(
    dataset: FingerprintDataset,
    *,
    num_bins: int = 96,
    rnn_config: RnnConfig | None = None,
    seed: int = 0,
) -> FingerprintResult:
    """Train the classifiers and score the attack phase."""
    train_x, train_y = normalize_traces(list(dataset.train), num_bins)
    test_x, test_y = normalize_traces(list(dataset.test), num_bins)
    config = rnn_config if rnn_config is not None else RnnConfig(
        num_classes=dataset.num_sites, seed=seed
    )
    rnn = RnnClassifier(config)
    rnn.fit(train_x, train_y)
    scores = rnn.predict_scores(test_x)
    knn = KnnClassifier(k=3, num_classes=dataset.num_sites)
    knn.fit(train_x, train_y)
    knn_scores = knn.predict_scores(test_x)
    top5_k = min(5, dataset.num_sites)
    return FingerprintResult(
        top1=top_k_accuracy(scores, test_y, 1),
        top5=top_k_accuracy(scores, test_y, top5_k),
        knn_top1=top_k_accuracy(knn_scores, test_y, 1),
        num_sites=dataset.num_sites,
        test_traces=len(dataset.test),
    )


def summarize(result: FingerprintResult) -> dict[str, float]:
    """Headline numbers in percent, as the paper reports them."""
    return {
        "top1_percent": 100.0 * result.top1,
        "top5_percent": 100.0 * result.top5,
        "knn_top1_percent": 100.0 * result.knn_top1,
    }


def activity_separability(dataset: FingerprintDataset,
                          num_bins: int = 96) -> float:
    """Mean inter-site L2 distance over mean intra-site distance.

    A quick diagnostic: values well above 1 mean the traces carry
    site-identifying signal before any classifier is involved.
    """
    features, labels = normalize_traces(
        list(dataset.train) + list(dataset.test), num_bins
    )
    intra: list[float] = []
    inter: list[float] = []
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            distance = float(np.linalg.norm(features[i] - features[j]))
            (intra if labels[i] == labels[j] else inter).append(distance)
    if not intra or not inter:
        return float("nan")
    return float(np.mean(inter) / np.mean(intra))
