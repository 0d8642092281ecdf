"""Frequency trace collection for the side-channel attacks.

The attacker samples its latency-based frequency estimate every 3 ms
(the paper's cadence in both Section 5 attacks).  Traces are regular
arrays ready for feature extraction and classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..units import ms
from .methodology import UfsAttacker


@dataclass(frozen=True)
class TraceRecord:
    """One collected frequency trace with its ground-truth label."""

    label: int
    times_ms: np.ndarray
    freqs_mhz: np.ndarray

    @property
    def duration_ms(self) -> float:
        """Span of the trace: last timestamp minus first.

        The subtraction matters for traces that do not start at zero
        (replayed slices, re-based recordings); for collector output,
        whose first sample is at 0.0, it is the last timestamp anyway.
        """
        if not len(self.times_ms):
            return 0.0
        return float(self.times_ms[-1] - self.times_ms[0])


class FrequencyTraceCollector:
    """Samples the attacker's probe at a fixed cadence."""

    def __init__(self, attacker: UfsAttacker,
                 sample_period_ms: float = 3.0) -> None:
        self.attacker = attacker
        self.sample_period_ns = ms(sample_period_ms)
        if not self.sample_period_ns > 0:
            raise ConfigError(
                f"sample period must be at least 1 ns, got "
                f"{sample_period_ms} ms"
            )

    def collect(self, duration_ms: float, label: int = -1) -> TraceRecord:
        """Record a trace of ``duration_ms`` starting now."""
        points = self.attacker.probe.trace(
            ms(duration_ms), self.sample_period_ns
        )
        start = points[0][0] if points else 0
        times = np.array([(t - start) / 1e6 for t, _ in points])
        freqs = np.array([f for _, f in points])
        return TraceRecord(label=label, times_ms=times, freqs_mhz=freqs)


def active_duration_ms(trace: TraceRecord,
                       threshold_mhz: float = 2000.0) -> float:
    """Total time the trace spends *below* ``threshold_mhz``.

    Under the attack methodology the frequency sits at freq_max while
    the victim idles and falls toward freq_min while the victim runs,
    so time-below-threshold estimates the victim's busy time.
    """
    if len(trace.times_ms) < 2:
        return 0.0
    below = trace.freqs_mhz < threshold_mhz
    step = float(np.median(np.diff(trace.times_ms)))
    return float(below.sum()) * step
