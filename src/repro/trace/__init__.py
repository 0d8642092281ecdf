"""Frequency-trace capture, caching and deterministic replay.

The paper's side-channel results are built from thousands of sampled
uncore-frequency traces; this package makes those traces first-class
artefacts instead of transient simulation output:

* :mod:`repro.trace.format` — the versioned binary record format
  (struct-packed header, delta/varint streams, CRC32 trailer), with
  bit-exact round-trips, and the corpus file that frames records
  behind a JSON meta block (:func:`~repro.trace.format.write_corpus`,
  :func:`~repro.trace.format.read_corpus`);
* :mod:`repro.trace.store` — a content-addressed on-disk store keyed
  by ``(platform digest, experiment, params, seed)``: one
  self-describing blob per key, atomic writes, corruption quarantine
  and LRU garbage collection by blob mtime to a given cap, plus
  :func:`~repro.trace.store.cached_corpus`, the one cache step every
  trace-backed study goes through;
* :mod:`repro.trace.replay` — stored corpora fed back through feature
  extraction and the kNN/RNN classifiers without the simulator.

The cache-aware runners
(:func:`repro.sidechannel.fingerprint.collect_dataset`,
:func:`repro.sidechannel.filesize.run_filesize_study`) use the store
transparently via ``cache_dir``: a key hit skips the simulation, a
miss records the fresh corpus on the way out, and results are
bit-identical either way.  Each study is one cache line.
"""

from .format import (
    CORPUS_MAGIC,
    CORPUS_VERSION,
    MAGIC,
    VERSION,
    decode_record,
    encode_record,
    read_corpus,
    write_corpus,
)
from .store import StoreEntry, TraceStore, VerifyReport, cached_corpus
from .replay import (
    filesize_study_from_store,
    fingerprint_dataset_from_store,
    replay_fingerprint,
)

__all__ = [
    "CORPUS_MAGIC",
    "CORPUS_VERSION",
    "MAGIC",
    "StoreEntry",
    "TraceStore",
    "VERSION",
    "VerifyReport",
    "cached_corpus",
    "decode_record",
    "encode_record",
    "filesize_study_from_store",
    "fingerprint_dataset_from_store",
    "read_corpus",
    "replay_fingerprint",
    "write_corpus",
]
