"""Property tests: the trace codec round-trips *everything* bit-exactly.

Generative coverage of ``trace/format.py`` driven by seeded
:mod:`repro.rng` streams — every case is reproducible from its regime
name and iteration index.  The contract under test is the strongest
one the format claims: ``decode(encode(r))`` returns the identical
label, dtypes, shapes and bit patterns, for every stream shape the
collector or a user can produce — engine-derived millisecond floats,
int64 extremes, denormals, signed zeros, huge nanosecond timestamps
and empty streams.
"""

import numpy as np
import pytest

from repro.rng import child_rng
from repro.sidechannel.tracer import TraceRecord
from repro.trace.format import decode_record, encode_record

ROUNDS_PER_REGIME = 25

#: Stream shapes the codec must round-trip bit-exactly.
TRACE_REGIMES: tuple[str, ...] = (
    "engine", "int64", "float", "denormal", "huge", "empty",
)


def random_trace_record(rng: np.random.Generator,
                        regime: str = "engine") -> TraceRecord:
    """A randomised :class:`~repro.sidechannel.tracer.TraceRecord`.

    ``regime`` selects the stream shape:

    * ``engine`` — what the collector emits: integer-nanosecond
      timestamps divided by 1e6, integer-valued float frequencies;
    * ``int64`` — both streams with integer dtype, huge magnitudes;
    * ``float`` — arbitrary float64 samples (raw-stream path);
    * ``denormal`` — subnormal and signed-zero frequencies;
    * ``huge`` — nanosecond timestamps near 2**62 (multi-month runs);
    * ``empty`` — zero samples.
    """
    label = int(rng.integers(-(2**31), 2**31))
    if regime == "empty":
        return TraceRecord(
            label=label,
            times_ms=np.array([], dtype=np.float64),
            freqs_mhz=np.array([], dtype=np.float64),
        )
    count = int(rng.integers(1, 200))
    if regime == "engine":
        start = int(rng.integers(0, 10**12))
        steps = rng.integers(1, 5_000_000, size=count)
        times_ns = start + np.cumsum(steps)
        times = np.array([t / 1e6 for t in times_ns.tolist()])
        freqs = rng.integers(1000, 2700, size=count).astype(np.float64)
    elif regime == "int64":
        times = np.sort(rng.integers(0, 2**62, size=count)).astype(np.int64)
        freqs = rng.integers(-(2**62), 2**62, size=count).astype(np.int64)
    elif regime == "denormal":
        times = np.cumsum(rng.random(size=count))
        choices = np.array([5e-324, -5e-324, 0.0, -0.0, 2.5e-310, 1.0])
        freqs = rng.choice(choices, size=count)
    elif regime == "huge":
        start = int(rng.integers(2**61, 2**62))
        steps = rng.integers(1, 10**9, size=count)
        times_ns = start + np.cumsum(steps)
        times = np.array([t / 1e6 for t in times_ns.tolist()])
        freqs = rng.random(size=count) * 1e18
    elif regime == "float":
        times = np.cumsum(rng.random(size=count)) * 1e3
        freqs = rng.standard_normal(size=count) * 2400.0
    else:
        raise ValueError(f"unknown trace regime {regime!r}")
    return TraceRecord(label=label, times_ms=times, freqs_mhz=freqs)


def _assert_bit_identical(original, decoded):
    assert decoded.label == original.label
    for name in ("times_ms", "freqs_mhz"):
        a = np.asarray(getattr(original, name))
        b = getattr(decoded, name)
        assert b.shape == a.shape, name
        assert b.dtype == a.dtype or (
            # Encoding normalises to the two supported dtypes.
            a.dtype.kind in "iu" and b.dtype == np.int64
        ) or (a.dtype.kind == "f" and b.dtype == np.float64), name
        # View as raw bits: NaNs, signed zeros and denormals all
        # compare exactly, with no float-equality escape hatch.
        assert np.array_equal(
            a.astype(b.dtype).view(np.uint8) if a.size else a,
            b.view(np.uint8) if b.size else b,
        ), name


@pytest.mark.parametrize("regime", TRACE_REGIMES)
def test_round_trip_is_bit_exact(regime):
    rng = child_rng(0, f"trace-prop-{regime}")
    for _ in range(ROUNDS_PER_REGIME):
        record = random_trace_record(rng, regime)
        _assert_bit_identical(record, decode_record(encode_record(record)))


@pytest.mark.parametrize("regime", TRACE_REGIMES)
def test_generation_is_seed_stable(regime):
    a = random_trace_record(child_rng(4, "stable"), regime)
    b = random_trace_record(child_rng(4, "stable"), regime)
    _assert_bit_identical(a, b)


@pytest.mark.parametrize("regime", TRACE_REGIMES)
def test_encoding_is_deterministic(regime):
    record = random_trace_record(child_rng(1, f"det-{regime}"), regime)
    assert encode_record(record) == encode_record(record)


def test_denormal_frequencies_survive():
    freqs = np.array([5e-324, -5e-324, 0.0, -0.0, 2.5e-310])
    record = TraceRecord(
        label=1,
        times_ms=np.arange(5, dtype=np.float64),
        freqs_mhz=freqs,
    )
    decoded = decode_record(encode_record(record))
    assert np.array_equal(
        decoded.freqs_mhz.view(np.uint64), freqs.view(np.uint64)
    )
    # Signed zero specifically: value-equal but bit-distinct.
    assert np.signbit(decoded.freqs_mhz[3])
    assert not np.signbit(decoded.freqs_mhz[2])


def test_huge_nanosecond_timestamps_survive():
    start = 2**62
    times_ns = [start, start + 1, start + 10**9]
    times = np.array([t / 1e6 for t in times_ns])
    record = TraceRecord(
        label=-7,
        times_ms=times,
        freqs_mhz=np.array([1200.0, 1300.0, 2400.0]),
    )
    decoded = decode_record(encode_record(record))
    assert np.array_equal(
        decoded.times_ms.view(np.uint64), times.view(np.uint64)
    )


def test_empty_streams_survive():
    record = TraceRecord(
        label=0,
        times_ms=np.array([], dtype=np.float64),
        freqs_mhz=np.array([], dtype=np.float64),
    )
    decoded = decode_record(encode_record(record))
    assert decoded.times_ms.size == 0
    assert decoded.freqs_mhz.size == 0
    assert decoded.times_ms.dtype == np.float64


def test_every_supported_dtype_round_trips():
    cases = [
        (np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int64)),
        (
            np.arange(4, dtype=np.float64),
            np.array([1.5, 2.25, -0.0, np.nan]),
        ),
        (
            np.array([0.0, 0.003, 17.5]),
            np.array([1200, 1300, 2400], dtype=np.int64),
        ),
    ]
    for times, freqs in cases:
        record = TraceRecord(label=5, times_ms=times, freqs_mhz=freqs)
        decoded = decode_record(encode_record(record))
        assert decoded.times_ms.dtype == times.dtype
        assert decoded.freqs_mhz.dtype == freqs.dtype
        for a, b in ((times, decoded.times_ms),
                     (freqs, decoded.freqs_mhz)):
            assert np.array_equal(
                a.view(np.uint64), b.view(np.uint64)
            )
