"""Statistics helpers shared by experiments and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bit_error_rate(sent: list[int], received: list[int]) -> float:
    """Fraction of mismatching bits between two equal-length streams."""
    if len(sent) != len(received):
        raise ValueError(
            f"length mismatch: {len(sent)} sent, {len(received)} received"
        )
    if not sent:
        return 0.0
    errors = sum(1 for a, b in zip(sent, received) if a != b)
    return errors / len(sent)


def median_mhz(freqs) -> float:
    """Median of a frequency trace (the Figure 3 cell statistic)."""
    return float(np.median(np.asarray(freqs, dtype=np.float64)))


@dataclass(frozen=True)
class QuantileSummary:
    """The Figure 8 box-plot statistics for a latency sample."""

    mean: float
    median: float
    q25: float
    q75: float
    p1: float
    p99: float


def quantile_summary(samples) -> QuantileSummary:
    """Mean/median/IQR/1-99 percentile summary of a sample."""
    data = np.asarray(samples, dtype=np.float64)
    if data.size == 0:
        raise ValueError("empty sample")
    q = np.percentile(data, [1, 25, 50, 75, 99])
    return QuantileSummary(
        mean=float(data.mean()),
        median=float(q[2]),
        q25=float(q[1]),
        q75=float(q[3]),
        p1=float(q[0]),
        p99=float(q[4]),
    )


def top_k_accuracy(scores: np.ndarray, labels, k: int) -> float:
    """Fraction of rows whose true label is among the top-k scores.

    ``scores`` is ``(n_samples, n_classes)``; the paper reports top-1
    and top-5 for website fingerprinting (Section 5).
    """
    labels = np.asarray(labels)
    if scores.ndim != 2 or len(labels) != scores.shape[0]:
        raise ValueError("scores/labels shape mismatch")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if len(labels) == 0:
        raise ValueError("top-k accuracy of no samples is undefined")
    top_k = np.argsort(scores, axis=1)[:, -k:]
    hits = sum(
        1 for i, label in enumerate(labels) if label in top_k[i]
    )
    return hits / len(labels)
