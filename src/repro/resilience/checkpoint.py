"""Checkpoint journals, and the record discipline every store shares.

A :class:`Checkpoint` records each completed trial's result under its
trial *label* as it lands, as one line appended to a journal file: a
JSON header line (version and key), then one hex :func:`seal` line per
record.  Appending one line is a single ``write`` to a file that
already exists, far cheaper than republishing the whole state; a
record torn by an interrupt is just a damaged line.  The whole file is
rewritten through :func:`publish` only when this writer has not yet
seen it intact: the first record of a fresh run, or the first after a
load that found damage (which drops the damage, so no later line is
appended onto a torn one).

The file is keyed by :func:`checkpoint_key`, which is literally
:meth:`repro.trace.store.TraceStore.key` — a digest of (effective
platform config, experiment name, canonical params, seed).  A resumed
run therefore only reuses results when it would have produced the exact
same ones, and a checkpoint written under a different shape (other
intervals, other bits, other platform) is ignored rather than merged.

Each line seals the ``(label, result)`` pair (sha256 digest + pickle),
so resumed values round-trip bit-identically (pickle preserves float64
payloads exactly) and a damaged line is skipped — worst case the trial
is re-run, never resumed wrong.

The on-disk discipline lives here once, for the trace store and
checkpoints alike:

* :func:`publish` — write a writer-unique temp (:func:`unique_temp`,
  parsed back by :func:`temp_writer`), rename it over the target;
  readers never observe a torn file;
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
import re
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..telemetry.context import active_registry

__all__ = ["Checkpoint", "checkpoint_key", "CHECKPOINT_VERSION",
           "publish", "quarantine_file", "seal", "temp_writer",
           "unique_temp", "unseal"]

#: Version 3 is a journal: a JSON header line, then one hex
#: :func:`seal` of ``(label, result)`` per line.  A file of an earlier
#: version (one JSON object per file) is ignored, so its trials re-run
#: once.
CHECKPOINT_VERSION = 3

_TEMP_SEQ = itertools.count()

#: ``<target name>.<writer pid>-<n>.tmp``, as :func:`unique_temp` names.
_TEMP_NAME = re.compile(r"(.+)\.(\d+)-\d+\.tmp")

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


def temp_writer(path: Path) -> tuple[str, int] | None:
    """``(target name, writer pid)`` of a :func:`unique_temp` path, or
    ``None`` when ``path`` is not named like one."""
    match = _TEMP_NAME.fullmatch(path.name)
    if match is None:
        return None
    return match.group(1), int(match.group(2))


@contextmanager
def publish(path: Path) -> Iterator[Path]:
    """Yield a writer-unique temp path; rename it onto ``path`` on success.

    The caller writes the whole file to the yielded temp.  If the body
    returns, the temp is ``os.replace``-d onto ``path`` (same directory,
    so the rename is atomic): readers see the old file or the new one,
    never a torn one.  If it raises, ``path`` is untouched.  Either way
    the temp is gone afterwards: the rename consumes it, a failure
    deletes it.
    """
    if not path.parent.is_dir():  # a stat: cheaper than a failed mkdir
        path.parent.mkdir(parents=True, exist_ok=True)
    temp = unique_temp(path)
    try:
        yield temp
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


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
    """Label-addressed completed-trial results, journalled as they land.

    Every recorded result is in the file when :meth:`record` returns, so an
    interrupt loses nothing that finished.
    """

    def __init__(self, path, *, key: str = "") -> None:
        self.path = Path(path)
        self.key = key
        self._completed: dict[str, Any] = {}
        #: Each completed label's journal line, sealed once.
        self._lines: dict[str, bytes] = {}
        #: Whether the file on disk is undamaged and holds every record
        #: this writer has, so the next record may be appended to it.
        self._appendable = False

    @classmethod
    def for_experiment(cls, directory, experiment: str, *, platform=None,
                       params: dict | None = None, seed: int | None = None,
                       backend: str | None = None) -> "Checkpoint":
        """The canonical path: ``<dir>/<experiment>-<key>.ckpt.json``.

        The directory is made by the first record, not here.
        """
        key = checkpoint_key(experiment, platform=platform, params=params,
                             seed=seed, backend=backend)
        return cls(Path(directory) / f"{experiment}-{key}.ckpt.json",
                   key=key)

    # -- persistence --------------------------------------------------

    def load(self) -> dict[str, Any]:
        """Read the journal, salvage every intact record, return them.

        Tolerates a missing file (fresh start), a damaged header or one
        of another version or key (fresh start, counted as
        ``runner.checkpoint.invalid``) and individual damaged lines,
        such as one torn by an interrupted append (skipped, counted as
        ``runner.checkpoint.corrupt_records``) — resuming from a
        damaged checkpoint can cost re-runs but never correctness.  A
        label recorded twice resumes its later result.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return dict(self._completed)
        header, _, body = raw.partition(b"\n")
        try:
            payload = json.loads(header)
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = None
        if (not isinstance(payload, dict)
                or payload.get("version") != CHECKPOINT_VERSION
                or payload.get("key") != self.key):
            _count("invalid")
            return dict(self._completed)
        intact = raw.endswith(b"\n")
        on_disk = set()
        for line in body.splitlines():
            entry = _unseal_line(line)
            if entry is None:
                _count("corrupt_records")
                intact = False
                continue
            label, result = entry
            self._completed[label] = result
            self._lines[label] = line + b"\n"
            on_disk.add(label)
        self._appendable = intact and on_disk >= self._completed.keys()
        return dict(self._completed)

    def record(self, label: str, result: Any) -> None:
        """Store one completed result and put it on disk: appended as
        one line when the journal is intact, else the whole state
        republished atomically (see :func:`publish`)."""
        label = str(label)
        line = seal((label, result)).hex().encode("ascii") + b"\n"
        self._completed[label] = result
        self._lines[label] = line
        _count("records")
        if not (self._appendable and self._append(line)):
            self._publish()

    def _append(self, line: bytes) -> bool:
        """Append ``line``; ``False`` when the journal is gone."""
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            return False
        try:
            view = memoryview(line)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        return True

    def _publish(self) -> None:
        header = json.dumps(
            {"version": CHECKPOINT_VERSION, "key": self.key},
            sort_keys=True,
        ).encode("utf-8")
        with publish(self.path) as temp:
            temp.write_bytes(b"".join(
                [header, b"\n", *(self._lines[label]
                                  for label in self._completed)]
            ))
        self._appendable = True


def _unseal_line(line: bytes) -> tuple[str, Any] | None:
    """The ``(label, result)`` a journal line seals, or ``None``."""
    try:
        entry = unseal(bytes.fromhex(line.decode("ascii")))
    except (UnicodeDecodeError, ValueError):
        return None
    if (not isinstance(entry, tuple) or len(entry) != 2
            or not isinstance(entry[0], str)):
        return None
    return entry
