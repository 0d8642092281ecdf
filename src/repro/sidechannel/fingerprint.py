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
from ..core.context import ExperimentContext
from ..engine.parallel import (
    Trial,
    require_complete,
    resolve_workers,
    run_trials,
)
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


def fingerprint_cache_params(
    *,
    num_sites: int,
    train_visits: int,
    test_visits: int,
    trace_ms: float,
    victim_core: int,
    sharded: bool,
) -> dict:
    """The canonical cache-key params for a fingerprint dataset.

    Shared by the runner and the ``repro trace`` CLI.  ``sharded`` is
    part of the key because the sharded and long-lived-campaign
    collection modes are *different* (equally valid) datasets; worker
    count is not, because fan-out never changes a sharded dataset.
    """
    return {
        "num_sites": num_sites,
        "train_visits": train_visits,
        "test_visits": test_visits,
        "trace_ms": trace_ms,
        "victim_core": victim_core,
        "sharded": sharded,
    }


def _shard_store_key(store, *, site: int, seed: int, platform,
                     **params) -> str:
    """Cache key for one site shard's corpus."""
    return store.key(
        "fingerprint-shard",
        platform=platform,
        params={**fingerprint_cache_params(sharded=True, **params),
                "site": site},
        seed=seed,
    )


def _collect_site_traces(
    *,
    site: int,
    num_sites: int,
    train_visits: int,
    test_visits: int,
    trace_ms: float,
    seed: int,
    victim_core: int,
    platform=None,
    cache_dir=None,
) -> tuple[list[TraceRecord], list[TraceRecord]]:
    """Collect all visits to one site in a dedicated seeded system.

    The shard's system seed is derived from ``(seed, site)`` only, so a
    shard's traces are a pure function of the experiment seed — not of
    how many workers collect them or in what order.  The victim RNG
    streams reuse the same ``visit-<site>-<visit>`` names the long-lived
    campaign uses, keyed off the shard seed.

    With ``cache_dir`` set, each shard owns its own cache line: the
    worker process that runs the shard reads and writes the shard's
    corpus itself, so a parallel warm run touches the simulator for
    missing shards only, and concurrent writers never share a blob.
    """
    key = None
    store = None
    if cache_dir is not None:
        from ..trace.store import TraceStore

        store = TraceStore(cache_dir)
        key = _shard_store_key(
            store, site=site, seed=seed, platform=platform,
            num_sites=num_sites, train_visits=train_visits,
            test_visits=test_visits, trace_ms=trace_ms,
            victim_core=victim_core,
        )
        cached = store.fetch(key)
        if cached is not None:
            meta, records = cached
            split = int(meta["train_count"])
            return list(records[:split]), list(records[split:])
    system = System(platform, seed=derive_seed(seed, f"fp-site-{site}"))
    attacker = UfsAttacker(system)
    attacker.settle()
    collector = FrequencyTraceCollector(attacker)
    library = WebsiteLibrary(num_sites, seed=derive_seed(seed, "sites"),
                             trace_ms=trace_ms)
    signature = library.signature(site)
    train: list[TraceRecord] = []
    test: list[TraceRecord] = []
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
    if store is not None:
        store.put(key, train + test, experiment="fingerprint-shard",
                  meta={"train_count": len(train), "site": site})
    return train, test


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
    per_site_systems: bool | None = None,
    cache_dir=None,
    checkpoint_dir=None,
    retry=None,
) -> FingerprintDataset:
    """Run the attacker against victim visits to every site.

    By default one long-lived system hosts all visits: the attacker's
    helpers and probe stay resident (as they would in a real campaign)
    and victims come and go on their own core.  ``platform`` overrides
    the platform configuration — the Section 6.1 study passes a
    UFS-range-restricted one here.

    ``per_site_systems=True`` (implied by ``workers > 1``) switches to
    sharded collection: every site's visits run in their own system
    seeded from ``(seed, site)``, which makes the sites independent
    trials that :func:`~repro.engine.parallel.run_trials` can fan out
    across processes.  A sharded dataset is a pure function of the
    experiment seed — identical for every worker count — but it is a
    *different* (equally valid) dataset than the long-lived-campaign
    one, since the attacker state no longer carries across sites.

    ``cache_dir`` names a :class:`~repro.trace.store.TraceStore` root
    and makes collection cache-aware: traces are a pure function of
    ``(platform, collection params, seed)``, so a key hit skips the
    simulation entirely and a miss stores the freshly simulated corpus
    on the way out — bit-identical datasets either way.  In long-lived
    mode the whole dataset is one cache line; in sharded mode every
    site shard is its own line, written by whichever worker process ran
    the shard (so ``workers > 1`` warms and reuses the same entries a
    serial run does).

    ``checkpoint_dir`` makes collection resumable (and implies sharded
    mode — only independent site shards can be skipped individually):
    every completed site's traces are recorded to an atomic checkpoint
    keyed by (platform, params, seed), so an interrupted campaign
    resumes where it stopped and yields a bit-identical dataset.
    ``retry`` re-runs transient per-site crashes; a site still failed
    after its attempts raises
    :class:`~repro.errors.ResilienceError`.
    """
    if not trace_ms > 0:
        raise ConfigError(
            f"trace length must be positive, got {trace_ms} ms"
        )
    ctx = ExperimentContext(platform=platform, seed=seed, workers=workers)
    platform, seed, workers = ctx.platform, ctx.seed, ctx.workers
    if per_site_systems is None:
        per_site_systems = (resolve_workers(workers) > 1
                            or checkpoint_dir is not None)
    if checkpoint_dir is not None and not per_site_systems:
        raise ConfigError(
            "checkpointed collection requires per_site_systems=True: "
            "only independent site shards can be resumed individually"
        )
    if per_site_systems:
        trials = [
            Trial(_collect_site_traces, dict(
                site=site,
                num_sites=num_sites,
                train_visits=train_visits,
                test_visits=test_visits,
                trace_ms=trace_ms,
                seed=seed,
                victim_core=victim_core,
                platform=platform,
                cache_dir=(None if cache_dir is None else str(cache_dir)),
            ), label=f"site-{site}")
            for site in range(num_sites)
        ]
        checkpoint = None
        if checkpoint_dir is not None:
            from ..resilience.checkpoint import Checkpoint

            checkpoint = Checkpoint.for_experiment(
                checkpoint_dir, "collect_dataset",
                platform=platform,
                params=fingerprint_cache_params(
                    num_sites=num_sites, train_visits=train_visits,
                    test_visits=test_visits, trace_ms=trace_ms,
                    victim_core=victim_core, sharded=True,
                ),
                seed=seed,
            )
        shards = run_trials(trials, workers=workers, retry=retry,
                            checkpoint=checkpoint)
        require_complete(shards, "collection")
        train: list[TraceRecord] = []
        test: list[TraceRecord] = []
        for site_train, site_test in shards:
            train.extend(site_train)
            test.extend(site_test)
        return FingerprintDataset(
            train=tuple(train),
            test=tuple(test),
            num_sites=num_sites,
            trace_ms=trace_ms,
        )

    store = None
    dataset_key = None
    if cache_dir is not None:
        from ..trace.store import TraceStore

        store = TraceStore(cache_dir)
        dataset_key = store.key(
            "fingerprint",
            platform=platform,
            params=fingerprint_cache_params(
                num_sites=num_sites, train_visits=train_visits,
                test_visits=test_visits, trace_ms=trace_ms,
                victim_core=victim_core, sharded=False,
            ),
            seed=seed,
        )
        cached = store.fetch(dataset_key)
        if cached is not None:
            meta, records = cached
            split = int(meta["train_count"])
            return FingerprintDataset(
                train=tuple(records[:split]),
                test=tuple(records[split:]),
                num_sites=num_sites,
                trace_ms=trace_ms,
            )
    system = System(platform, seed=seed)
    attacker = UfsAttacker(system)
    attacker.settle()
    collector = FrequencyTraceCollector(attacker)
    library = WebsiteLibrary(num_sites, seed=derive_seed(seed, "sites"),
                             trace_ms=trace_ms)
    train = []
    test = []
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
    if store is not None:
        store.put(
            dataset_key, train + test, experiment="fingerprint",
            meta={
                "train_count": len(train),
                **fingerprint_cache_params(
                    num_sites=num_sites, train_visits=train_visits,
                    test_visits=test_visits, trace_ms=trace_ms,
                    victim_core=victim_core, sharded=False,
                ),
            },
        )
    return FingerprintDataset(
        train=tuple(train),
        test=tuple(test),
        num_sites=num_sites,
        trace_ms=trace_ms,
    )


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
