"""Atomic checkpoint files, and the record discipline every store shares.

A :class:`Checkpoint` records each completed trial's result under its
trial *label* as it lands, flushing to disk through :func:`publish` —
an interrupted flush can never tear the file, only strand a temp that
the next flush replaces.

The file is keyed by :func:`checkpoint_key`, which is literally
:meth:`repro.trace.store.TraceStore.key` — a digest of (effective
platform config, experiment name, canonical params, seed).  A resumed
run therefore only reuses results when it would have produced the exact
same ones, and a checkpoint written under a different shape (other
intervals, other bits, other platform) is ignored rather than merged.

Each result is a :func:`seal`-ed record (sha256 digest + pickle), so
resumed values round-trip bit-identically (pickle preserves float64
payloads exactly) and a damaged record is skipped — worst case the
trial is re-run, never resumed wrong.

The on-disk discipline lives here once, for the trace store and
checkpoints alike:

* :func:`publish` — write a writer-unique temp, rename it over the
  target; readers never observe a torn file;
* :func:`quarantine_file` — move a damaged file aside as evidence,
  never delete it, and tolerate a racing reader that moved it first;
* :func:`seal` / :func:`unseal` — a digest-checked pickle record that
  reads back as ``None`` on any damage.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..telemetry.context import active_registry

__all__ = ["Checkpoint", "checkpoint_key", "CHECKPOINT_VERSION",
           "publish", "quarantine_file", "seal", "unique_temp", "unseal"]

#: Version 2 stores each record as one hex :func:`seal` blob; a
#: version-1 file (separate ``sha256`` / ``data`` fields) is ignored,
#: so its trials re-run once.
CHECKPOINT_VERSION = 2

_TEMP_SEQ = itertools.count()

_DIGEST_BYTES = hashlib.sha256().digest_size


def unique_temp(path: Path) -> Path:
    """A collision-free temp name next to ``path``.

    Temp names must be unique *per writer*, not per key: two writers
    publishing the same path through a shared name can interleave their
    writes into one file (a torn file published as good data), and one
    writer's ``os.replace`` can consume the other's temp so the second
    rename fails.  pid + per-process counter makes every write its own
    file — across processes and across threads of one process; the
    ``.tmp`` suffix keeps stranded ones visible to cleanup sweeps.
    """
    return path.with_name(
        f"{path.name}.{os.getpid()}-{next(_TEMP_SEQ)}.tmp"
    )


@contextmanager
def publish(path: Path) -> Iterator[Path]:
    """Yield a writer-unique temp path; rename it onto ``path`` on success.

    The caller writes the whole file to the yielded temp.  If the body
    returns, the temp is ``os.replace``-d onto ``path`` (same directory,
    so the rename is atomic): readers see the old file or the new one,
    never a torn one.  If it raises, ``path`` is untouched.  Either way
    the temp is gone afterwards.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = unique_temp(path)
    try:
        yield temp
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def quarantine_file(path: Path, directory: Path) -> Path:
    """Move ``path`` into ``directory`` (evidence, never deletion).

    Creates ``directory`` first.  A source that is already gone —
    another reader found the same damage and moved it first — counts
    as quarantined, so concurrent readers of one damaged file never
    crash each other.  Returns the quarantined path.
    """
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / path.name
    try:
        os.replace(path, target)
    except FileNotFoundError:
        pass
    return target


def seal(obj: Any) -> bytes:
    """``obj`` as one record: sha256 digest of its pickle, then the pickle."""
    body = pickle.dumps(obj, protocol=4)
    return hashlib.sha256(body).digest() + body


def unseal(blob: bytes) -> Any:
    """The object a :func:`seal` record holds, or ``None`` on any damage.

    Truncation, a flipped bit and an unpicklable body all read as
    ``None``, so a caller recomputes rather than trusting bad bytes.
    (A sealed ``None`` also reads back as ``None``: it costs a
    recompute, never a wrong value.)  Only records this program wrote
    are unsealed — the digest is a damage check, not authentication.
    """
    if len(blob) < _DIGEST_BYTES:
        return None
    digest, body = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        return None
    try:
        return pickle.loads(body)
    except Exception:  # noqa: BLE001 - any damage means recompute
        return None


def _count(name: str, amount: int | float = 1) -> None:
    registry = active_registry()
    if registry is not None:
        registry.inc(f"runner.checkpoint.{name}", amount)


def checkpoint_key(experiment: str, *, platform=None,
                   params: dict | None = None,
                   seed: int | None = None,
                   backend: str | None = None) -> str:
    """The trace store's content-address recipe, reused verbatim.

    ``backend`` keeps checkpoints written by different simulators
    apart; ``None``/``"des"`` preserve every pre-backend key.
    """
    # Imported lazily: the trace store imports this module (for
    # ``publish`` and ``quarantine_file``), so a module-level import
    # here would be a cycle.
    from ..trace.store import TraceStore

    return TraceStore.key(experiment, platform=platform, params=params,
                          seed=seed, backend=backend)


class Checkpoint:
    """Label-addressed completed-trial results, atomically persisted.

    Every recorded result is published at once, so an interrupt loses
    nothing that finished.
    """

    def __init__(self, path, *, key: str = "") -> None:
        self.path = Path(path)
        self.key = key
        self._completed: dict[str, Any] = {}

    @classmethod
    def for_experiment(cls, directory, experiment: str, *, platform=None,
                       params: dict | None = None, seed: int | None = None,
                       backend: str | None = None) -> "Checkpoint":
        """The canonical path: ``<dir>/<experiment>-<key>.ckpt.json``."""
        key = checkpoint_key(experiment, platform=platform, params=params,
                             seed=seed, backend=backend)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / f"{experiment}-{key}.ckpt.json", key=key)

    # -- persistence --------------------------------------------------

    def load(self) -> dict[str, Any]:
        """Read the file, salvage every intact record, return them.

        Tolerates a missing file (fresh start), a torn file (fresh
        start, counted as ``runner.checkpoint.invalid``) and individual
        damaged records (skipped, counted) — resuming from a damaged
        checkpoint can cost re-runs but never correctness.
        """
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return dict(self._completed)
        except (json.JSONDecodeError, UnicodeDecodeError):
            _count("invalid")
            return dict(self._completed)
        if (not isinstance(payload, dict)
                or payload.get("version") != CHECKPOINT_VERSION
                or payload.get("key") != self.key):
            _count("invalid")
            return dict(self._completed)
        for label, record in payload.get("completed", {}).items():
            try:
                result = unseal(bytes.fromhex(record["data"]))
            except (KeyError, TypeError, ValueError):
                result = None
            if result is None:
                _count("corrupt_records")
                continue
            self._completed[label] = result
        return dict(self._completed)

    def record(self, label: str, result: Any) -> None:
        """Store one completed result and publish the whole state
        atomically (see :func:`publish`)."""
        self._completed[str(label)] = result
        _count("records")
        completed = {
            label: {"data": seal(self._completed[label]).hex()}
            for label in sorted(self._completed)
        }
        payload = json.dumps(
            {"version": CHECKPOINT_VERSION, "key": self.key,
             "completed": completed},
            sort_keys=True,
        )
        with publish(self.path) as temp:
            temp.write_text(payload, encoding="utf-8")
