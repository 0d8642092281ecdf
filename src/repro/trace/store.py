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
:func:`~repro.resilience.checkpoint.publish`, so parallel shards
(``workers > 1``) write their own corpora with no cross-process
read-modify-write window.  LRU order is the blob's mtime: ``put`` and
``open`` stamp it explicitly with the current time in nanoseconds, and
the size-capped :meth:`TraceStore.gc` evicts the oldest stamp first.
``gc`` and :meth:`TraceStore.total_bytes` only ``stat`` blobs, so a
damaged blob cannot wedge them.  Eviction order only decides what gets
re-simulated; it never changes a result.

Failure handling is conservative: a blob that fails to parse is moved
to ``quarantine/`` (never deleted) before the typed error propagates,
so one damaged file cannot wedge the store.  A missing blob is a plain
miss.

Sustained corruption trips a
:class:`~repro.resilience.breaker.CircuitBreaker`: after
``breaker_threshold`` consecutive corrupt fetches the store degrades
to pass-through — fetches short-circuit to misses (the caller
simulates; ``trace.store.breaker_short_circuits``) and puts are
dropped (``trace.store.breaker_dropped_writes``) — then half-opens
after ``breaker_cooldown`` refused fetches and closes again on the
first healthy probe.  State changes emit
``trace.store.breaker_open`` / ``breaker_half_open`` /
``breaker_closed``.

When a :mod:`repro.telemetry` registry is active the store counts
``trace.store.hits`` / ``misses`` / ``writes`` / ``bytes_written`` /
``evictions`` / ``quarantined`` — observational only, like all
telemetry.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..config import default_platform_config
from ..errors import TraceError, TraceStoreError
from ..resilience.breaker import CircuitBreaker
from ..resilience.checkpoint import publish, quarantine_file
from ..sidechannel.tracer import TraceRecord
from ..telemetry.context import active_registry
from ..telemetry.manifest import config_digest
from .reader import TraceReader
from .writer import write_corpus

__all__ = ["StoreEntry", "TraceStore", "VerifyReport"]


def _count(name: str, amount: int | float = 1) -> None:
    registry = active_registry()
    if registry is not None:
        registry.inc(f"trace.store.{name}", amount)


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
    """A size-capped, content-addressed cache of trace corpora."""

    def __init__(self, root, *, max_bytes: int | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 8) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            name="trace.store",
        )
        self._blobs = self.root / "blobs"
        self._quarantine = self.root / "quarantine"
        self._blobs.mkdir(parents=True, exist_ok=True)

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
                "platform": config_digest(
                    platform if platform is not None
                    else default_platform_config(),
                    backend=backend,
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
                reader = TraceReader(self.blob_path(key))
                meta, records = reader.meta, sum(1 for _ in reader)
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

    def total_bytes(self) -> int:
        return sum(stat.st_size for _, stat in self._stats())

    # -- write path ---------------------------------------------------

    def put(self, key: str, records, *, experiment: str = "",
            meta: dict | None = None) -> Path:
        """Atomically write a corpus under ``key``.

        ``experiment`` is folded into the header meta, so the blob alone
        says what it holds.

        The corpus is streamed to a *writer-unique* temp file in the
        blob directory (same filesystem) and published with an atomic
        rename, so readers never observe a half-written blob
        and concurrent writers never share a temp file — same-key
        writers are writing identical content by construction, each
        publishes its own complete copy, and the last rename wins
        harmlessly.  A successful publish also sweeps the legacy
        ``<key>.uftc.tmp`` name a crashed older writer may have
        stranded.

        While the corruption breaker is open the write is *dropped*
        (pass-through mode: the caller keeps its simulated data, the
        sick store is left alone) and the would-be blob path returned
        unwritten; ``trace.store.breaker_dropped_writes`` counts them.
        """
        blob = self.blob_path(key)
        if not self.breaker.allow_write():
            _count("breaker_dropped_writes")
            return blob
        if experiment:
            meta = {**(meta or {}), "experiment": experiment}
        with publish(blob) as temp:
            write_corpus(temp, records, meta=meta)
        # An interrupted put (from before temp names were per-writer)
        # strands the deterministic name; fresh data is now published,
        # so the half-written leftover can go.
        blob.with_suffix(".uftc.tmp").unlink(missing_ok=True)
        _stamp(blob)
        size = blob.stat().st_size
        _count("writes")
        _count("bytes_written", size)
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return blob

    # -- read path ----------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.blob_path(key).exists()

    def open(self, key: str) -> TraceReader:
        """A lazy reader over the corpus at ``key``; touches the LRU.

        Raises :class:`~repro.errors.TraceStoreError` when no blob is
        stored under ``key``.
        """
        blob = self.blob_path(key)
        try:
            _stamp(blob)
        except FileNotFoundError:
            raise TraceStoreError(
                f"no corpus stored under key {key}"
            ) from None
        return TraceReader(blob)

    def load(self, key: str) -> tuple[dict, list[TraceRecord]]:
        """Eagerly load ``key``; quarantine the blob if it is corrupt.

        A damaged header counts as corrupt too; a missing blob raises
        :class:`~repro.errors.TraceStoreError` and moves nothing.
        """
        try:
            reader = self.open(key)
            records = reader.read_all()
        except TraceStoreError:
            raise
        except TraceError:
            self.quarantine(key)
            raise
        _count("hits")
        return reader.meta, records

    def fetch(self, key: str) -> tuple[dict, list[TraceRecord]] | None:
        """Cache-style lookup: ``None`` on miss *or* quarantined blob.

        This is what the cache-aware runners call: a damaged corpus is
        moved aside (with its typed error swallowed) and reported as a
        miss, so the caller transparently falls back to simulation and
        overwrites the blob with a fresh corpus.

        Every fetch feeds the corruption breaker: corrupt loads are
        failures, healthy hits and plain misses are successes.  While
        the breaker is open the lookup short-circuits to a miss without
        touching disk (``trace.store.breaker_short_circuits``) — under
        sustained bit rot the store stops thrashing
        quarantine/re-simulate cycles and degrades to pure simulation
        until a cooled-down probe finds the store healthy again.
        """
        if not self.breaker.allow():
            _count("breaker_short_circuits")
            _count("misses")
            return None
        if not self.contains(key):
            _count("misses")
            self.breaker.record_success()
            return None
        try:
            loaded = self.load(key)
        except TraceError:
            _count("misses")
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return loaded

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

    def gc(self, max_bytes: int | None = None) -> list[str]:
        """Evict least-recently-used corpora until under ``max_bytes``.

        Returns the evicted keys, oldest mtime first (ties by key).
        With no cap configured anywhere, this is a no-op.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return []
        stats = sorted(self._stats(),
                       key=lambda item: (item[1].st_mtime_ns, item[0]))
        total = sum(stat.st_size for _, stat in stats)
        evicted: list[str] = []
        for key, stat in stats:
            if total <= cap:
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
                for _ in TraceReader(self.blob_path(key)):
                    pass
            except FileNotFoundError:
                continue  # evicted or quarantined since the listing
            except TraceError:
                corrupt.append(key)
            else:
                ok.append(key)
        return VerifyReport(ok=tuple(ok), corrupt=tuple(corrupt))
