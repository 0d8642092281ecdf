"""The versioned binary trace formats: one record, and a corpus of them.

A **record** blob holds one ``TraceRecord``.  Layout (all integers
little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       4     magic  b"UFTR"
    4       2     format version (currently 1)
    6       2     flags (stream encodings, source dtypes)
    8       8     label (signed 64-bit)
    16      4     sample count
    20      4     times stream length in bytes
    24      ...   times stream
    ...     4     freqs stream length in bytes
    ...     ...   freqs stream
    end-4   4     CRC32 of everything before it

Each stream is either a varint sequence (zigzag-encoded first value
followed by zigzag deltas) or, when the samples cannot be represented
exactly as integers, the raw little-endian ``float64`` array.  Times are
varint-encoded in *nanoseconds*: the collector derives ``times_ms`` by
dividing integer engine timestamps by ``1e6``, so the encoder recovers
the integer, verifies the division round-trips to the identical float,
and the decoder repeats the exact same division.  Decoding therefore
reproduces the source arrays **bit for bit** (values and dtype), which
is what makes replayed datasets indistinguishable from simulated ones.

A **corpus** file holds a JSON meta block followed by any number of
length-prefixed record blobs::

    offset  size  field
    ------  ----  -----------------------------------
    0       4     magic  b"UFTC"
    4       2     corpus version (currently 1)
    6       4     meta length in bytes
    10      ...   meta (UTF-8 JSON object, sorted keys)
    ...           records, each: u32 length + record blob

There is no record count in the header: end-of-file terminates the
corpus, and a partial frame reads as corruption.

Integrity is layered: the magic and version reject foreign bytes with
:class:`~repro.errors.TraceFormatError`; truncation and CRC mismatches
raise :class:`~repro.errors.TraceCorruptionError`.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import TraceCorruptionError, TraceFormatError
from ..sidechannel.tracer import TraceRecord

__all__ = [
    "CORPUS_MAGIC",
    "CORPUS_VERSION",
    "MAGIC",
    "VERSION",
    "encode_record",
    "decode_record",
    "read_corpus",
    "write_corpus",
]

MAGIC = b"UFTR"
VERSION = 1

CORPUS_MAGIC = b"UFTC"
CORPUS_VERSION = 1

_HEADER = struct.Struct("<4sHHqI")
_U32 = struct.Struct("<I")
_CORPUS_HEADER = struct.Struct("<4sHI")

# Flag bits: how each stream was encoded and what dtype it came from.
_TIMES_RAW_F64 = 0x1    # times stored as raw float64 (no exact ns form)
_FREQS_RAW_F64 = 0x2    # freqs stored as raw float64
_TIMES_INT_DTYPE = 0x4  # source times array had an integer dtype
_FREQS_INT_DTYPE = 0x8  # source freqs array had an integer dtype

_KNOWN_FLAGS = (
    _TIMES_RAW_F64 | _FREQS_RAW_F64 | _TIMES_INT_DTYPE | _FREQS_INT_DTYPE
)

_NS_PER_MS = 1e6


def _encode_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def _encode_deltas(values: list[int]) -> bytes:
    """Zigzag-varint the first value, then successive deltas."""
    out = bytearray()
    previous = 0
    for value in values:
        _encode_varint(_zigzag(value - previous), out)
        previous = value
    return bytes(out)


def _decode_deltas(buf: bytes, count: int) -> list[int]:
    values: list[int] = []
    position = 0
    previous = 0
    for _ in range(count):
        shift = 0
        accumulator = 0
        while True:
            if position >= len(buf):
                raise TraceCorruptionError(
                    "varint stream truncated mid-value"
                )
            byte = buf[position]
            position += 1
            accumulator |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        previous += _unzigzag(accumulator)
        values.append(previous)
    if position != len(buf):
        raise TraceCorruptionError(
            f"varint stream has {len(buf) - position} trailing bytes"
        )
    return values


def _times_as_ns(times: np.ndarray) -> list[int] | None:
    """Exact integer-nanosecond form of a float-ms array, or ``None``.

    The collector computes ``t_ms = t_ns / 1e6`` with ``t_ns`` an
    integer engine timestamp; that division is the single correctly
    rounded IEEE operation, so it is invertible exactly when
    ``round(t_ms * 1e6) / 1e6 == t_ms``.  Any sample that fails the
    round-trip (hand-built trace, resampled slice) sends the whole
    stream down the raw-float64 path instead.
    """
    ns_values: list[int] = []
    for value in times.tolist():
        try:
            candidate = round(value * _NS_PER_MS)
        except (ValueError, OverflowError):
            return None
        if candidate / _NS_PER_MS != value:
            return None
        ns_values.append(candidate)
    return ns_values


def _integral_values(array: np.ndarray) -> list[int] | None:
    """The exact integer values of a float array, or ``None``."""
    values: list[int] = []
    for value in array.tolist():
        if value != value or value in (float("inf"), float("-inf")):
            return None
        truncated = int(value)
        if float(truncated) != value or abs(truncated) >= 2 ** 53:
            return None
        values.append(truncated)
    return values


def encode_record(record: TraceRecord) -> bytes:
    """Serialise one trace to the versioned binary format."""
    times = np.asarray(record.times_ms)
    freqs = np.asarray(record.freqs_mhz)
    if times.shape != freqs.shape or times.ndim != 1:
        raise TraceFormatError(
            f"trace streams must be 1-D and equal length, got "
            f"times {times.shape} vs freqs {freqs.shape}"
        )
    flags = 0

    if times.dtype.kind in "iu":
        flags |= _TIMES_INT_DTYPE
        times_stream = _encode_deltas([int(v) for v in times.tolist()])
    else:
        ns_values = _times_as_ns(times)
        if ns_values is None:
            flags |= _TIMES_RAW_F64
            times_stream = times.astype("<f8").tobytes()
        else:
            times_stream = _encode_deltas(ns_values)

    if freqs.dtype.kind in "iu":
        flags |= _FREQS_INT_DTYPE
        freqs_stream = _encode_deltas([int(v) for v in freqs.tolist()])
    else:
        integral = _integral_values(freqs)
        if integral is None:
            flags |= _FREQS_RAW_F64
            freqs_stream = freqs.astype("<f8").tobytes()
        else:
            freqs_stream = _encode_deltas(integral)

    body = bytearray()
    body += _HEADER.pack(MAGIC, VERSION, flags, int(record.label),
                         len(times))
    body += _U32.pack(len(times_stream))
    body += times_stream
    body += _U32.pack(len(freqs_stream))
    body += freqs_stream
    body += _U32.pack(zlib.crc32(bytes(body)))
    return bytes(body)


def _decode_stream(buf: bytes, count: int, *, raw: bool,
                   int_dtype: bool, ns_scaled: bool) -> np.ndarray:
    if raw:
        if len(buf) != count * 8:
            raise TraceCorruptionError(
                f"raw float64 stream is {len(buf)} bytes, "
                f"expected {count * 8}"
            )
        return np.frombuffer(buf, dtype="<f8").astype(np.float64)
    values = _decode_deltas(buf, count)
    if int_dtype:
        return np.array(values, dtype=np.int64)
    if ns_scaled:
        # The exact inverse of the collector's (t - start) / 1e6.
        return np.array([v / _NS_PER_MS for v in values],
                        dtype=np.float64)
    return np.array(values, dtype=np.float64)


def decode_record(data: bytes) -> TraceRecord:
    """Parse one trace blob; raise a typed error on any defect."""
    if len(data) < _HEADER.size + 2 * _U32.size + _U32.size:
        raise TraceCorruptionError(
            f"blob of {len(data)} bytes is shorter than the fixed layout"
        )
    magic, version, flags, label, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceFormatError(
            f"bad magic {magic!r} (expected {MAGIC!r}): not a trace blob"
        )
    if version != VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version} "
            f"(this reader speaks {VERSION})"
        )
    if flags & ~_KNOWN_FLAGS:
        raise TraceFormatError(f"unknown flag bits 0x{flags:x}")

    crc_offset = len(data) - _U32.size
    (stored_crc,) = _U32.unpack_from(data, crc_offset)
    if zlib.crc32(data[:crc_offset]) != stored_crc:
        raise TraceCorruptionError("CRC32 mismatch: blob is corrupt")

    position = _HEADER.size
    streams: list[bytes] = []
    for name in ("times", "freqs"):
        if position + _U32.size > crc_offset:
            raise TraceCorruptionError(f"{name} stream length truncated")
        (length,) = _U32.unpack_from(data, position)
        position += _U32.size
        if position + length > crc_offset:
            raise TraceCorruptionError(f"{name} stream truncated")
        streams.append(data[position:position + length])
        position += length
    if position != crc_offset:
        raise TraceCorruptionError(
            f"{crc_offset - position} unaccounted bytes before trailer"
        )

    times = _decode_stream(
        streams[0], count,
        raw=bool(flags & _TIMES_RAW_F64),
        int_dtype=bool(flags & _TIMES_INT_DTYPE),
        ns_scaled=True,
    )
    freqs = _decode_stream(
        streams[1], count,
        raw=bool(flags & _FREQS_RAW_F64),
        int_dtype=bool(flags & _FREQS_INT_DTYPE),
        ns_scaled=False,
    )
    return TraceRecord(label=label, times_ms=times, freqs_mhz=freqs)


def write_corpus(path, records, *, meta: dict | None = None) -> int:
    """Write an iterable of records as a corpus; return the count."""
    meta_bytes = json.dumps(
        meta or {}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    count = 0
    with open(path, "wb") as handle:
        handle.write(_CORPUS_HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION,
                                         len(meta_bytes)))
        handle.write(meta_bytes)
        for record in records:
            blob = encode_record(record)
            handle.write(_U32.pack(len(blob)))
            handle.write(blob)
            count += 1
    return count


def read_corpus(path) -> tuple[dict, list[TraceRecord]]:
    """Load a corpus; return ``(meta, records)``.

    A foreign or future file raises
    :class:`~repro.errors.TraceFormatError`; a truncated header, meta
    block or frame, or a damaged record, raises
    :class:`~repro.errors.TraceCorruptionError`.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _CORPUS_HEADER.size:
        raise TraceCorruptionError(f"{path}: truncated corpus header")
    magic, version, meta_length = _CORPUS_HEADER.unpack_from(data, 0)
    if magic != CORPUS_MAGIC:
        raise TraceFormatError(
            f"{path}: bad corpus magic {magic!r} "
            f"(expected {CORPUS_MAGIC!r})"
        )
    if version != CORPUS_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported corpus version {version}"
        )
    position = _CORPUS_HEADER.size + meta_length
    if position > len(data):
        raise TraceCorruptionError(f"{path}: truncated corpus meta block")
    try:
        meta = json.loads(data[_CORPUS_HEADER.size:position]
                          .decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceCorruptionError(
            f"{path}: corpus meta is not valid JSON"
        ) from exc
    records: list[TraceRecord] = []
    while position < len(data):
        index = len(records)
        if position + _U32.size > len(data):
            raise TraceCorruptionError(
                f"{path}: record {index} frame truncated"
            )
        (length,) = _U32.unpack_from(data, position)
        position += _U32.size
        blob = data[position:position + length]
        if len(blob) < length:
            raise TraceCorruptionError(
                f"{path}: record {index} body truncated "
                f"({len(blob)} of {length} bytes)"
            )
        records.append(decode_record(blob))
        position += length
    return meta, records
