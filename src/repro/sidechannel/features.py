"""Feature extraction from frequency traces.

The classifiers consume fixed-length sequences.  Raw 3 ms-sampled
traces (~1700 points for 5 s) are average-pooled into a configurable
number of bins and normalised into [0, 1], with 1 meaning "victim
active" (frequency at the bottom of the range) so the sequence reads
like an activity waveform.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .tracer import TraceRecord


def bin_trace(freqs_mhz: np.ndarray, num_bins: int) -> np.ndarray:
    """Average-pool a frequency trace into ``num_bins`` values."""
    if num_bins < 1:
        raise ConfigError(f"need at least one bin, got {num_bins}")
    freqs = np.asarray(freqs_mhz, dtype=np.float64)
    size = freqs.size
    if size == 0:
        return np.zeros(num_bins)
    edges = np.linspace(0, size, num_bins + 1).astype(int)
    lo = edges[:-1]
    lengths = np.minimum(np.maximum(edges[1:], lo + 1), size) - lo
    # A bin that starts past the end repeats the last sample.
    pooled = np.full(num_bins, freqs[-1])
    inside = lo < size
    # Bins of one length are gathered as rows.  NumPy sums each
    # contiguous row pairwise, as ``mean`` sums a slice, so this is the
    # per-bin mean bit for bit (``np.add.reduceat`` sums sequentially
    # and is not).
    for length in set(lengths[inside].tolist()):
        index = np.flatnonzero(inside & (lengths == length))
        rows = freqs[lo[index, None] + np.arange(length)]
        pooled[index] = rows.sum(axis=1) / length
    return pooled


def to_activity(freqs_mhz: np.ndarray, *, low_mhz: float = 1400.0,
                high_mhz: float = 2400.0) -> np.ndarray:
    """Map frequency to an activity score in [0, 1] (1 = victim busy)."""
    span = high_mhz - low_mhz
    activity = (high_mhz - np.asarray(freqs_mhz, dtype=np.float64)) / span
    return np.clip(activity, 0.0, 1.0)


def trace_features(trace: TraceRecord, num_bins: int) -> np.ndarray:
    """Binned activity waveform of one trace."""
    return to_activity(bin_trace(trace.freqs_mhz, num_bins))


def normalize_traces(traces: list[TraceRecord],
                     num_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack traces into (features, labels) arrays for training."""
    features = np.stack([trace_features(t, num_bins) for t in traces])
    labels = np.array([t.label for t in traces], dtype=np.int64)
    return features, labels
