"""Content-addressed on-disk store for trace corpora.

Layout under the store root::

    <root>/blobs/<key>.uftc        corpus blobs (the cached data)
    <root>/index/<key>.json        one index entry per blob
    <root>/quarantine/<key>.uftc   corrupt blobs, moved aside

A **key** is a digest of everything a corpus is a pure function of:
the effective platform configuration (via
:func:`repro.telemetry.config_digest`), the experiment name, the
canonicalised experiment parameters and the seed.  Two runs share a key
exactly when they would simulate identical traces, so a key hit means
the simulation can be skipped outright.

Index entries are *per-key files*, not one shared manifest: parallel
shards (``workers > 1``) write their own corpora concurrently, and
per-entry files make every write an atomic
:func:`~repro.resilience.checkpoint.publish` with no cross-process
read-modify-write window.  The entry records byte/record counts for
``ls`` and an access ``tick`` — a store-wide logical counter bumped on
every read — that orders entries for the size-capped LRU
:meth:`TraceStore.gc`.

Failure handling is conservative: a blob that fails to parse is moved
to ``quarantine/`` (never deleted) and its entry dropped before the
typed error propagates, so one damaged file cannot wedge the store; an
index entry whose blob vanished raises
:class:`~repro.errors.TraceStoreError` and is cleaned up the same way.
A *torn index entry* over a healthy blob is the one fault the store
heals in place: the blob carries its own header, meta and per-frame
CRCs, so the entry is rebuilt from the surviving bytes
(``trace.store.index_rebuilt``) instead of quarantined —
:meth:`TraceStore.rebuild_index` runs the same repair store-wide.

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
from dataclasses import dataclass
from pathlib import Path

from ..errors import TraceError, TraceStoreError
from ..resilience.breaker import CircuitBreaker
from ..resilience.checkpoint import publish, quarantine_file
from ..sidechannel.tracer import TraceRecord
from ..telemetry.context import active_registry
from ..telemetry.manifest import config_digest
from .reader import TraceReader
from .writer import TraceWriter

__all__ = ["StoreEntry", "TraceStore", "VerifyReport"]


def _count(name: str, amount: int | float = 1) -> None:
    registry = active_registry()
    if registry is not None:
        registry.inc(f"trace.store.{name}", amount)


@dataclass(frozen=True)
class StoreEntry:
    """One index entry: what a cached corpus is and how big it is."""

    key: str
    experiment: str
    records: int
    size_bytes: int
    tick: int
    meta: dict


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    ok: tuple[str, ...]
    missing: tuple[str, ...]
    corrupt: tuple[str, ...]
    #: Index entries that do not parse (truncated or bit-flipped JSON).
    #: The blob they pointed at may still be perfectly good; the entry
    #: itself is untrustworthy and gets quarantined on request.
    bad_entries: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not (self.missing or self.corrupt or self.bad_entries)


class TraceStore:
    """A size-capped, content-addressed cache of trace corpora."""

    def __init__(self, root, *, max_bytes: int | None = None,
                 breaker: CircuitBreaker | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: int = 8) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            name="trace.store",
        )
        self._blobs = self.root / "blobs"
        self._index = self.root / "index"
        self._quarantine = self.root / "quarantine"
        for directory in (self._blobs, self._index):
            directory.mkdir(parents=True, exist_ok=True)

    # -- keys ---------------------------------------------------------

    @staticmethod
    def key(experiment: str, *, platform=None, params: dict | None = None,
            seed: int | None = None, backend: str | None = None) -> str:
        """Digest ``(platform, experiment, params, seed)`` into a key.

        ``platform`` should be the *effective* configuration (resolve
        ``None`` to the default before calling) so that an explicit
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
                "platform": config_digest(platform, backend=backend),
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

    def _entry_path(self, key: str) -> Path:
        return self._index / f"{key}.json"

    # -- index entries ------------------------------------------------

    def _read_entry(self, key: str) -> StoreEntry | None:
        path = self._entry_path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceStoreError(
                f"index entry {path} is not valid JSON"
            ) from exc
        return StoreEntry(
            key=payload["key"],
            experiment=payload.get("experiment", ""),
            records=int(payload.get("records", 0)),
            size_bytes=int(payload.get("size_bytes", 0)),
            tick=int(payload.get("tick", 0)),
            meta=payload.get("meta", {}),
        )

    def _write_entry(self, entry: StoreEntry) -> None:
        with publish(self._entry_path(entry.key)) as temp:
            temp.write_text(
                json.dumps(
                    {
                        "key": entry.key,
                        "experiment": entry.experiment,
                        "records": entry.records,
                        "size_bytes": entry.size_bytes,
                        "tick": entry.tick,
                        "meta": entry.meta,
                    },
                    sort_keys=True,
                ),
                encoding="utf-8",
            )

    def _next_tick(self) -> int:
        ticks = [entry.tick for entry in self.entries()]
        return (max(ticks) + 1) if ticks else 1

    def entries(self) -> list[StoreEntry]:
        """All *readable* index entries, sorted by key.

        An entry file that no longer parses (truncated write, bit rot)
        is skipped — never surfaced as wrong data and never allowed to
        wedge ``ls``/``gc``/``put`` — and left in place on disk so
        :meth:`verify` can report it as ``bad_entries``.
        """
        result = []
        for path in sorted(self._index.glob("*.json")):
            try:
                entry = self._read_entry(path.stem)
            except TraceStoreError:
                continue
            if entry is not None:
                result.append(entry)
        return result

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    # -- write path ---------------------------------------------------

    def put(self, key: str, records, *, experiment: str = "",
            meta: dict | None = None) -> Path:
        """Atomically write a corpus under ``key`` and index it.

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
        with publish(blob) as temp:
            with TraceWriter(temp, meta=meta) as writer:
                for record in records:
                    writer.write(record)
                count = writer.count
        # An interrupted put (from before temp names were per-writer)
        # strands the deterministic name; fresh data is now published,
        # so the half-written leftover can go.
        blob.with_suffix(".uftc.tmp").unlink(missing_ok=True)
        size = blob.stat().st_size
        self._write_entry(StoreEntry(
            key=key,
            experiment=experiment,
            records=count,
            size_bytes=size,
            tick=self._next_tick(),
            meta=meta or {},
        ))
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

        Raises :class:`~repro.errors.TraceStoreError` for an unknown
        key, and — after dropping the stale entry — for an index entry
        whose blob is missing from disk.
        """
        blob = self.blob_path(key)
        try:
            entry = self._read_entry(key)
        except TraceStoreError:
            # The index entry is damaged but the blob carries its own
            # header and CRCs: rebuild the entry from the surviving
            # bytes and keep serving.
            entry = self._heal_entry(key)
        if not blob.exists():
            if entry is not None:
                self._entry_path(key).unlink(missing_ok=True)
                raise TraceStoreError(
                    f"index entry {key} points at a missing blob "
                    f"{blob}; entry dropped, store is consistent again"
                )
            raise TraceStoreError(f"no corpus stored under key {key}")
        if entry is not None:
            self._write_entry(StoreEntry(
                key=entry.key, experiment=entry.experiment,
                records=entry.records, size_bytes=entry.size_bytes,
                tick=self._next_tick(), meta=entry.meta,
            ))
        return TraceReader(blob)

    def load(self, key: str) -> tuple[dict, list[TraceRecord]]:
        """Eagerly load ``key``; quarantine the blob if it is corrupt."""
        reader = self.open(key)
        try:
            records = reader.read_all()
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
        overwrites the entry with a fresh corpus.

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

    def _heal_entry(self, key: str) -> StoreEntry | None:
        """Rebuild a torn index entry from its surviving blob.

        The blob is self-describing — header meta, per-frame CRCs — so
        everything the entry records can be recovered by one full read.
        If the blob is damaged too there is nothing to rebuild from:
        the entry moves to quarantine (evidence, never deletion) and
        the read path's blob-quarantine machinery handles the rest.
        """
        blob = self.blob_path(key)
        if not blob.exists():
            self._quarantine_entry(key)
            return None
        try:
            reader = TraceReader(blob)
            records = sum(1 for _ in reader)
        except TraceError:
            self._quarantine_entry(key)
            return None
        meta = dict(reader.meta)
        entry = StoreEntry(
            key=key,
            experiment=str(meta.get("experiment", "")),
            records=records,
            size_bytes=blob.stat().st_size,
            tick=self._next_tick(),
            meta=meta,
        )
        self._write_entry(entry)
        _count("index_rebuilt")
        return entry

    def rebuild_index(self) -> list[str]:
        """Repair the whole index from surviving blobs; return the keys.

        Every blob whose entry is missing or torn gets a rebuilt entry;
        blobs that are themselves damaged are left for the read path to
        quarantine.  Healthy entries are untouched.
        """
        rebuilt: list[str] = []
        for blob in sorted(self._blobs.glob("*.uftc")):
            key = blob.stem
            try:
                entry = self._read_entry(key)
            except TraceStoreError:
                entry = None
            if entry is None and self._heal_entry(key) is not None:
                rebuilt.append(key)
        return rebuilt

    def _quarantine_entry(self, key: str) -> None:
        """Move an index-entry file aside (evidence, never deletion)."""
        quarantine_file(self._entry_path(key), self._quarantine)

    def quarantine(self, key: str) -> Path:
        """Move a blob out of the blob dir; move its entry aside too.

        A blob or entry another reader already moved counts as
        quarantined, so racing readers of one corrupt corpus all see a
        typed error or a miss, never a crash.
        """
        target = quarantine_file(self.blob_path(key), self._quarantine)
        self._quarantine_entry(key)
        _count("quarantined")
        return target

    def gc(self, max_bytes: int | None = None) -> list[str]:
        """Evict least-recently-used corpora until under ``max_bytes``.

        Returns the evicted keys (oldest tick first).  With no cap
        configured anywhere, this is a no-op.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return []
        entries = sorted(self.entries(), key=lambda e: (e.tick, e.key))
        total = sum(entry.size_bytes for entry in entries)
        evicted: list[str] = []
        for entry in entries:
            if total <= cap:
                break
            self.blob_path(entry.key).unlink(missing_ok=True)
            self._entry_path(entry.key).unlink(missing_ok=True)
            total -= entry.size_bytes
            evicted.append(entry.key)
            _count("evictions")
        return evicted

    def verify(self) -> VerifyReport:
        """Integrity-check every indexed corpus without mutating it.

        Walks the raw index directory (not :meth:`entries`, which
        skips unreadable files) so damaged index entries are *reported*
        rather than silently ignored.
        """
        ok: list[str] = []
        missing: list[str] = []
        corrupt: list[str] = []
        bad_entries: list[str] = []
        for path in sorted(self._index.glob("*.json")):
            key = path.stem
            try:
                self._read_entry(key)
            except TraceStoreError:
                bad_entries.append(key)
                continue
            blob = self.blob_path(key)
            if not blob.exists():
                missing.append(key)
                continue
            try:
                for _ in TraceReader(blob):
                    pass
            except TraceError:
                corrupt.append(key)
            else:
                ok.append(key)
        return VerifyReport(
            ok=tuple(ok), missing=tuple(missing),
            corrupt=tuple(corrupt), bad_entries=tuple(bad_entries),
        )
