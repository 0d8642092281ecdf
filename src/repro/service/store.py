"""Sharded storage: the trace-store keyspace split over N shards.

A single :class:`~repro.trace.store.TraceStore` keeps one index
directory; under heavy concurrent traffic every writer renames into the
same two directories and every ``_next_tick`` scan walks one shared
index.  :class:`ShardedTraceStore` splits the keyspace over ``N``
shards — each shard a full, self-contained ``TraceStore`` — so
concurrent workers land on different directories with probability
``(N-1)/N`` and no single index is a contention point.

Routing is pure: ``shard_for(key) = int(key[:8], 16) % N``.  Keys are
sha256 prefixes (uniform by construction), so shards fill evenly, and
the route depends only on the key — every process, worker and future
session agrees where a corpus lives without coordination.

:class:`LocalDirBackend` is the one place that knows the on-disk
layout: shard *i* lives under ``<root>/shard-NN``.

:class:`ResultCache` applies the same sharding to *job results*: small
records (pickle + sha256, atomically published) keyed by a job spec's
content address, living in a ``results/`` directory inside each shard.
This is what lets the service answer a repeated sweep submission
without running anything — the serving-side analogue of the trace
store's warm-replay path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from ..errors import ConfigError, TraceStoreError
from ..resilience.checkpoint import unique_temp
from ..telemetry.registry import MetricsRegistry
from ..trace.store import StoreEntry, TraceStore, VerifyReport

__all__ = [
    "LocalDirBackend",
    "ResultCache",
    "ShardedTraceStore",
    "shard_index",
]


def shard_index(key: str, shard_count: int) -> int:
    """The shard a key routes to — pure: ``(key, N)`` in, index out.

    Hex-prefixed keys (the sha256 content addresses every store layer
    mints) route by ``int(key[:8], 16) % N``; anything else — hand
    written test keys, future key schemes — routes through a sha256
    digest of the key so the mapping stays deterministic and uniform.
    Every router (trace shards, result cache) calls this one function,
    so they can never disagree about where a key lives.
    """
    try:
        prefix = int(key[:8], 16)
    except (TypeError, ValueError):
        digest = hashlib.sha256(str(key).encode("utf-8")).hexdigest()
        prefix = int(digest[:8], 16)
    return prefix % shard_count


class LocalDirBackend:
    """Shards as ``<root>/shard-00 .. shard-NN`` local directories."""

    def __init__(self, root, *, shard_count: int = 8,
                 max_bytes_per_shard: int | None = None) -> None:
        if shard_count < 1:
            raise ConfigError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        self.root = Path(root)
        self.shard_count = shard_count
        self.max_bytes_per_shard = max_bytes_per_shard

    def shard_root(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}"

    def open_shard(self, index: int) -> TraceStore:
        if not 0 <= index < self.shard_count:
            raise ConfigError(
                f"shard index {index} out of range "
                f"[0, {self.shard_count})"
            )
        return TraceStore(self.shard_root(index),
                          max_bytes=self.max_bytes_per_shard)


class ShardedTraceStore:
    """A :class:`TraceStore`-shaped facade over N shard stores.

    Offers the store surface the cache-aware runners and the CLI use —
    ``key`` / ``put`` / ``fetch`` / ``load`` / ``open`` / ``contains``
    / ``entries`` / ``gc`` / ``verify`` / ``rebuild_index`` /
    ``quarantine`` — routing every key to its shard.  Each shard keeps
    its own index, quarantine and corruption breaker, so damage in one
    shard degrades only that slice of the keyspace: the other shards
    keep serving.
    """

    #: The content-address recipe, unchanged: sharding moves blobs
    #: around on disk, it never changes what a key means.
    key = staticmethod(TraceStore.key)

    def __init__(self, root, *, shards: int = 8,
                 max_bytes: int | None = None) -> None:
        per_shard = (max_bytes // shards) if max_bytes else None
        self.backend = LocalDirBackend(root, shard_count=shards,
                                       max_bytes_per_shard=per_shard)
        self.shard_count = shards
        self._shards: dict[int, TraceStore] = {}

    # -- routing ------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The shard index a key routes to (pure: key in, index out)."""
        return shard_index(key, self.shard_count)

    def shard(self, key: str) -> TraceStore:
        """The (cached) ``TraceStore`` behind a key's shard."""
        return self.shard_at(self.shard_for(key))

    def shard_at(self, index: int) -> TraceStore:
        store = self._shards.get(index)
        if store is None:
            store = self.backend.open_shard(index)
            self._shards[index] = store
        return store

    def _all_shards(self) -> list[TraceStore]:
        return [self.shard_at(index) for index in range(self.shard_count)]

    # -- the TraceStore surface, routed -------------------------------

    def blob_path(self, key: str) -> Path:
        return self.shard(key).blob_path(key)

    def put(self, key: str, records, *, experiment: str = "",
            meta: dict | None = None) -> Path:
        return self.shard(key).put(key, records, experiment=experiment,
                                   meta=meta)

    def fetch(self, key: str):
        return self.shard(key).fetch(key)

    def load(self, key: str):
        return self.shard(key).load(key)

    def open(self, key: str):
        return self.shard(key).open(key)

    def contains(self, key: str) -> bool:
        return self.shard(key).contains(key)

    def quarantine(self, key: str) -> Path:
        return self.shard(key).quarantine(key)

    def entries(self) -> list[StoreEntry]:
        """Every shard's readable entries, sorted by key (like one store)."""
        merged: list[StoreEntry] = []
        for store in self._all_shards():
            merged.extend(store.entries())
        return sorted(merged, key=lambda entry: entry.key)

    def total_bytes(self) -> int:
        return sum(store.total_bytes() for store in self._all_shards())

    def gc(self, max_bytes: int | None = None) -> list[str]:
        """Evict LRU corpora until the *whole* store is under the cap.

        The cap is divided evenly across shards (uniform routing keeps
        shard sizes balanced, so an even split approximates a global
        LRU without a cross-shard tick order).
        """
        if max_bytes is None:
            return [key for store in self._all_shards()
                    for key in store.gc()]
        per_shard = max_bytes // self.shard_count
        evicted: list[str] = []
        for store in self._all_shards():
            evicted.extend(store.gc(per_shard))
        return evicted

    def rebuild_index(self) -> list[str]:
        rebuilt: list[str] = []
        for store in self._all_shards():
            rebuilt.extend(store.rebuild_index())
        return rebuilt

    def verify(self) -> VerifyReport:
        """One merged integrity report over every shard."""
        ok: list[str] = []
        missing: list[str] = []
        corrupt: list[str] = []
        bad_entries: list[str] = []
        for store in self._all_shards():
            report = store.verify()
            ok.extend(report.ok)
            missing.extend(report.missing)
            corrupt.extend(report.corrupt)
            bad_entries.extend(report.bad_entries)
        return VerifyReport(
            ok=tuple(sorted(ok)),
            missing=tuple(sorted(missing)),
            corrupt=tuple(sorted(corrupt)),
            bad_entries=tuple(sorted(bad_entries)),
        )


class ResultCache:
    """Sharded, content-addressed job results.

    One record per key: the pickled result payload wrapped with a
    sha256 digest (the checkpoint layer's record discipline), published
    with the temp + ``os.replace`` sequence so readers never observe a
    torn record.  A record that fails its digest or unpickle is treated
    as a miss and moved aside — worst case the job re-runs, never a
    wrong result served.  Records live in each shard's ``results/``
    directory under the backend root.

    Counters land in the *explicit* registry handed in (the service
    deliberately avoids the ambient telemetry global, which is not
    thread-safe next to in-process experiment runs):
    ``service.cache.hits`` / ``misses`` / ``writes`` /
    ``corrupt_records``.
    """

    def __init__(self, backend: LocalDirBackend, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.backend = backend
        self.shard_count = backend.shard_count
        self.registry = registry

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.inc(f"service.cache.{name}", amount)

    def _path(self, key: str) -> Path:
        root = self.backend.shard_root(shard_index(key, self.shard_count))
        return root / "results" / f"{key}.res"

    def _decode(self, blob: bytes):
        """Validate and unpickle one record blob; ``None`` on damage."""
        if len(blob) < 32:
            return None
        digest, body = blob[:32], blob[32:]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            return pickle.loads(body)
        except Exception:  # noqa: BLE001 - any damage means recompute
            return None

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` on (any) miss."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        payload = self._decode(blob)
        if payload is None:
            self._quarantine(path)
            return None
        self._count("hits")
        return payload

    def put(self, key: str, payload) -> Path:
        """Atomically publish ``payload`` under ``key``."""
        body = pickle.dumps(payload, protocol=4)
        blob = hashlib.sha256(body).digest() + body
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = unique_temp(path)
        try:
            temp.write_bytes(blob)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)
        self._count("writes")
        return path

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def _quarantine(self, path: Path) -> None:
        """Move a damaged record aside (evidence, never deletion)."""
        self._count("corrupt_records")
        self._count("misses")
        quarantine = path.parent / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, quarantine / path.name)
        except OSError as exc:  # pragma: no cover - racing cleanup
            raise TraceStoreError(
                f"could not quarantine damaged result record {path}"
            ) from exc
