"""Frequency-trace capture, caching and deterministic replay.

The paper's side-channel results are built from thousands of sampled
uncore-frequency traces; this package makes those traces first-class
artefacts instead of transient simulation output:

* :mod:`repro.trace.format` — the versioned binary record format
  (struct-packed header, delta/varint streams, CRC32 trailer), with
  bit-exact round-trips;
* :mod:`repro.trace.writer` / :mod:`repro.trace.reader` — streaming
  corpus I/O, one record in memory at a time;
* :mod:`repro.trace.store` — a content-addressed on-disk store keyed
  by ``(platform digest, experiment, params, seed)``: one
  self-describing blob per key, atomic writes, corruption quarantine
  and size-capped LRU garbage collection by blob mtime;
* :mod:`repro.trace.replay` — stored corpora fed back through feature
  extraction and the kNN/RNN/GRU classifiers without the simulator,
  plus the :func:`~repro.trace.replay.golden_compare` checker behind
  the golden-trace regression tests.

The cache-aware runners
(:func:`repro.sidechannel.fingerprint.collect_dataset`,
:func:`repro.sidechannel.filesize.run_filesize_study`) use the store
transparently via ``cache_dir``: a key hit skips the simulation, a
miss records the fresh corpus on the way out, and results are
bit-identical either way — including under ``workers > 1``, where each
parallel shard owns its own cache line.
"""

from .format import MAGIC, VERSION, decode_record, encode_record
from .writer import CORPUS_MAGIC, CORPUS_VERSION, TraceWriter, write_corpus
from .reader import TraceReader, read_corpus
from .store import StoreEntry, TraceStore, VerifyReport
from .replay import (
    GoldenDiff,
    filesize_study_from_store,
    fingerprint_dataset_from_store,
    golden_compare,
    replay_filesize,
    replay_fingerprint,
)

__all__ = [
    "CORPUS_MAGIC",
    "CORPUS_VERSION",
    "GoldenDiff",
    "MAGIC",
    "StoreEntry",
    "TraceReader",
    "TraceStore",
    "TraceWriter",
    "VERSION",
    "VerifyReport",
    "decode_record",
    "encode_record",
    "filesize_study_from_store",
    "fingerprint_dataset_from_store",
    "golden_compare",
    "read_corpus",
    "replay_filesize",
    "replay_fingerprint",
    "write_corpus",
]
