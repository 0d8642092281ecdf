"""Content-addressed on-disk store for trace corpora.

Layout under the store root::

    <root>/blobs/<key>.uftc        corpus blobs, one file per key
    <root>/quarantine/<key>.uftc   corrupt blobs, moved aside

A **key** is a digest of everything a corpus is a pure function of:
the effective platform configuration (via
:func:`repro.telemetry.config_digest`), the experiment name, the
canonicalised experiment parameters and the seed.  Two runs share a key
exactly when they would simulate identical traces, so a key hit means
the simulation can be skipped outright.

The blob is the only record of a cached corpus.  It describes itself:
the header meta names the experiment, and per-frame CRCs guard the
records.  Every write is one atomic
:func:`~repro.resilience.checkpoint.publish`, so processes sharing
one store never see a half-written blob and never share a
read-modify-write window.  LRU order is the blob's mtime: ``put`` and
``load`` stamp it explicitly with the current time in nanoseconds, and
:meth:`TraceStore.gc` evicts the oldest stamp first down to a given
cap.  ``gc`` and :meth:`TraceStore.total_bytes` only ``stat`` files,
so a damaged blob cannot wedge them.  Eviction order only decides what
gets re-simulated; it never changes a result.  A ``put`` killed before
its rename strands its writer-unique temp
(``<key>.uftc.<pid>-<n>.tmp``); ``total_bytes`` counts every temp, and
``gc`` deletes those whose writer process is gone *and* which are older
than :data:`STRANDED_TEMP_AGE_S`.  The pid alone only speaks for
writers in ``gc``'s own pid namespace; on a store shared between hosts
or containers another writer's pid may look dead, and the age keeps
``gc`` off its temp until no ``put`` could still be writing it.

Failure handling is conservative: a blob that fails to parse is moved
to ``quarantine/`` (never deleted) before the typed error propagates,
so one damaged file cannot wedge the store; :meth:`TraceStore.fetch`
reports it as a miss, and the caller re-simulates and re-puts.  A
missing blob is a plain miss.

When a :mod:`repro.telemetry` registry is active the store counts
``trace.store.hits`` / ``misses`` / ``writes`` / ``bytes_written`` /
``evictions`` / ``quarantined`` / ``temps_reclaimed`` — observational
only, like all telemetry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..config import default_platform_config
from ..errors import TraceError, TraceStoreError
from ..resilience.checkpoint import publish, quarantine_file, temp_writer
from ..sidechannel.tracer import TraceRecord
from ..telemetry.context import active_registry
from ..telemetry.manifest import config_digest
from .format import read_corpus, write_corpus

__all__ = ["STRANDED_TEMP_AGE_S", "StoreEntry", "TraceStore",
           "VerifyReport", "cached_corpus"]

#: How old a dead writer's temp must be before ``gc`` deletes it: far
#: longer than any ``put`` takes, so a writer whose pid ``gc`` cannot
#: see (another host or container sharing the store) has long finished
#: or died.
STRANDED_TEMP_AGE_S = 600.0


def _count(name: str, amount: int | float = 1) -> None:
    registry = active_registry()
    if registry is not None:
        registry.inc(f"trace.store.{name}", amount)


def _writer_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 checks without
    sending)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # it exists, under another user
    return True


@functools.cache
def _default_platform_digest(backend: str | None) -> str | None:
    """:func:`config_digest` of the default platform, derived once per
    backend: the default configuration is a constant, and its ``repr``
    is the larger part of deriving a key."""
    return config_digest(default_platform_config(), backend=backend)


def _stamp(blob: Path) -> None:
    """Mark ``blob`` as just used: LRU order is the blob's mtime."""
    now = time.time_ns()
    os.utime(blob, ns=(now, now))


@dataclass(frozen=True)
class StoreEntry:
    """One cached corpus, as its blob describes it.

    ``experiment`` and ``meta`` come from the blob header and
    ``records`` from walking its frames; a blob that does not parse
    reads as ``experiment=""``, ``records=None``.  ``last_used_ns`` is
    the blob's mtime, the LRU order :meth:`TraceStore.gc` evicts by.
    """

    key: str
    experiment: str
    records: int | None
    size_bytes: int
    last_used_ns: int
    meta: dict


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    ok: tuple[str, ...]
    corrupt: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.corrupt


class TraceStore:
    """A content-addressed cache of trace corpora."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._blobs = self.root / "blobs"
        self._quarantine = self.root / "quarantine"

    # -- keys ---------------------------------------------------------

    @staticmethod
    def key(experiment: str, *, platform=None, params: dict | None = None,
            seed: int | None = None, backend: str | None = None) -> str:
        """Digest ``(platform, experiment, params, seed)`` into a key.

        ``platform=None`` means the default platform
        (:func:`~repro.config.default_platform_config`), so an explicit
        default and an implied one share the cache line.  Params are
        canonicalised through sorted-key JSON; anything unserialisable
        falls back to ``repr``, which is stable for the frozen configs
        used throughout this codebase.

        ``backend`` salts the platform digest (see
        :func:`~repro.telemetry.manifest.config_digest`) so corpora and
        checkpoints written by different simulators never collide;
        ``None``/``"des"`` keep the legacy key byte-identical.
        """
        material = json.dumps(
            {
                "experiment": experiment,
                "platform": (
                    config_digest(platform, backend=backend)
                    if platform is not None
                    else _default_platform_digest(backend)
                ),
                "params": params or {},
                "seed": seed,
            },
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]

    # -- paths --------------------------------------------------------

    def blob_path(self, key: str) -> Path:
        return self._blobs / f"{key}.uftc"

    def keys(self) -> list[str]:
        """Every stored key, sorted."""
        return sorted(blob.stem for blob in self._blobs.glob("*.uftc"))

    def _stats(self) -> list[tuple[str, os.stat_result]]:
        """``(key, stat)`` for every blob still on disk."""
        stats = []
        for key in self.keys():
            try:
                stats.append((key, self.blob_path(key).stat()))
            except FileNotFoundError:
                continue  # evicted or quarantined since the listing
        return stats

    def entries(self) -> list[StoreEntry]:
        """Every stored corpus, sorted by key, described by its blob.

        Reads each blob in full, so this is for ``ls``, not hot paths.
        A blob that does not parse is still listed (experiment ``""``,
        ``records=None``): listing never fails on damage.
        """
        result = []
        for key, stat in self._stats():
            try:
                meta, corpus = read_corpus(self.blob_path(key))
                records = len(corpus)
            except (TraceError, OSError):
                meta, records = {}, None
            result.append(StoreEntry(
                key=key,
                experiment=str(meta.get("experiment", "")),
                records=records,
                size_bytes=stat.st_size,
                last_used_ns=stat.st_mtime_ns,
                meta=meta,
            ))
        return result

    def _temps(self) -> list[tuple[Path, int, os.stat_result]]:
        """``(path, writer pid, stat)`` of every blob writer's temp."""
        temps = []
        for path in self._blobs.glob("*.tmp"):
            writer = temp_writer(path)
            if writer is None or not writer[0].endswith(".uftc"):
                continue
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue  # renamed or removed since the listing
            temps.append((path, writer[1], stat))
        return temps

    def total_bytes(self) -> int:
        """Bytes on disk in the blob directory: blobs and writer temps."""
        return (sum(stat.st_size for _, stat in self._stats())
                + sum(stat.st_size for _, _, stat in self._temps()))

    # -- write path ---------------------------------------------------

    def put(self, key: str, records, *, experiment: str = "",
            meta: dict | None = None) -> Path:
        """Atomically write a corpus under ``key``.

        ``experiment`` is folded into the header meta, so the blob alone
        says what it holds.

        The corpus is written to a *writer-unique* temp file in the
        blob directory (same filesystem) and published with an atomic
        rename, so readers never observe a half-written blob
        and concurrent writers never share a temp file — same-key
        writers are writing identical content by construction, each
        publishes its own complete copy, and the last rename wins
        harmlessly.
        """
        blob = self.blob_path(key)
        if experiment:
            meta = {**(meta or {}), "experiment": experiment}
        with publish(blob) as temp:
            write_corpus(temp, records, meta=meta)
        _stamp(blob)
        _count("writes")
        _count("bytes_written", blob.stat().st_size)
        return blob

    # -- read path ----------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.blob_path(key).exists()

    def load(self, key: str) -> tuple[dict, list[TraceRecord]]:
        """Load ``key`` and touch its LRU stamp; quarantine it if corrupt.

        A damaged header counts as corrupt too; a missing blob, or one
        moved away while it is read, raises
        :class:`~repro.errors.TraceStoreError` and moves nothing.
        """
        blob = self.blob_path(key)
        try:
            _stamp(blob)
            loaded = read_corpus(blob)
        except FileNotFoundError:
            raise TraceStoreError(
                f"no corpus stored under key {key}"
            ) from None
        except TraceError:
            self.quarantine(key)
            raise
        _count("hits")
        return loaded

    def fetch(self, key: str) -> tuple[dict, list[TraceRecord]] | None:
        """Cache-style lookup: ``None`` on miss *or* quarantined blob.

        This is what the cache-aware runners call: a damaged corpus is
        moved aside (with its typed error swallowed) and reported as a
        miss, so the caller transparently falls back to simulation and
        overwrites the blob with a fresh corpus.  A blob that vanishes
        between the lookup and the read (a racing quarantine or ``gc``)
        is a plain miss.
        """
        if not self.contains(key):
            _count("misses")
            return None
        try:
            return self.load(key)
        except TraceError:
            _count("misses")
            return None

    # -- maintenance --------------------------------------------------

    def quarantine(self, key: str) -> Path:
        """Move a blob out of the blob dir (evidence, never deletion).

        A blob another reader already moved counts as quarantined, so
        racing readers of one corrupt corpus all see a typed error or a
        miss, never a crash.
        """
        target = quarantine_file(self.blob_path(key), self._quarantine)
        _count("quarantined")
        return target

    def gc(self, max_bytes: int) -> list[str]:
        """Delete stranded temps, then evict least-recently-used corpora
        until they total at most ``max_bytes``.

        A temp whose writer process is gone can never be published, so
        it is deleted first, once it is older than
        :data:`STRANDED_TEMP_AGE_S`.  Temps still standing are not
        weighed against the cap: ``gc`` cannot delete them, so evicting
        corpora for their bytes would only force re-simulation.
        Returns the evicted keys, oldest mtime first (ties by key).
        """
        cutoff_ns = time.time_ns() - int(STRANDED_TEMP_AGE_S * 1e9)
        for path, pid, stat in self._temps():
            if stat.st_mtime_ns < cutoff_ns and not _writer_alive(pid):
                path.unlink(missing_ok=True)
                _count("temps_reclaimed")
        stats = sorted(self._stats(),
                       key=lambda item: (item[1].st_mtime_ns, item[0]))
        total = sum(stat.st_size for _, stat in stats)
        evicted: list[str] = []
        for key, stat in stats:
            if total <= max_bytes:
                break
            self.blob_path(key).unlink(missing_ok=True)
            total -= stat.st_size
            evicted.append(key)
            _count("evictions")
        return evicted

    def verify(self) -> VerifyReport:
        """Integrity-check every stored blob without mutating it."""
        ok: list[str] = []
        corrupt: list[str] = []
        for key in self.keys():
            try:
                read_corpus(self.blob_path(key))
            except FileNotFoundError:
                continue  # evicted or quarantined since the listing
            except TraceError:
                corrupt.append(key)
            else:
                ok.append(key)
        return VerifyReport(ok=tuple(ok), corrupt=tuple(corrupt))


def cached_corpus(
    store: TraceStore | None,
    experiment: str,
    params: dict,
    *,
    seed: int,
    platform=None,
    meta: dict | None = None,
    simulate: Callable[[], list[TraceRecord]],
) -> tuple[dict, list[TraceRecord]]:
    """A study's ``(meta, records)``, simulated only on a cache miss.

    The one cache step of every trace-backed study (Fig. 11, Fig. 12):
    key the corpus with :meth:`TraceStore.key`, return the stored
    corpus on a hit, and on a miss run ``simulate`` and store its
    records on the way out.
    ``store=None`` always simulates.  The blob's header carries
    ``params`` and ``meta``; the returned meta is that header on a hit
    and the same dict on a miss.  The codec round-trips every float
    exactly, so the records are bit-identical whichever way they came.
    """
    header = {**params, **(meta or {}), "experiment": experiment}
    if store is None:
        return header, simulate()
    key = store.key(experiment, platform=platform, params=params,
                    seed=seed)
    cached = store.fetch(key)
    if cached is not None:
        return cached
    records = simulate()
    store.put(key, records, meta=header)
    return header, records
