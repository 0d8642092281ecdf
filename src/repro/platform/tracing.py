"""Frequency-trace extraction (the figures' raw material).

Section 3 collects uncore frequency traces by sampling the uclk MSR
every 200 us; Section 5's attacker samples every 3 ms through the
latency probe.  Privileged traces are reconstructed here directly from
the PMU's frequency timeline — sampling after the fact is exact and
costs no simulation events.
"""

from __future__ import annotations

import numpy as np

from ..power.timeline import FrequencyTimeline


def frequency_trace(timeline: FrequencyTimeline, t0_ns: int, t1_ns: int,
                    step_ns: int = 200_000) -> tuple[np.ndarray, np.ndarray]:
    """Sample a timeline at a fixed cadence.

    Returns ``(times_ms, freqs_mhz)`` — times relative to ``t0_ns`` in
    milliseconds, matching the paper's figure axes.
    """
    samples = timeline.samples(t0_ns, t1_ns, step_ns)
    times = np.array([(t - t0_ns) / 1e6 for t, _ in samples])
    freqs = np.array([f for _, f in samples], dtype=np.int64)
    return times, freqs


def step_times_ms(times_ms: np.ndarray,
                  freqs_mhz: np.ndarray) -> list[tuple[float, int, int]]:
    """(time_ms, from_mhz, to_mhz) for each frequency change in a trace.

    Used to verify the ~10 ms adjustment cadence of Figures 5 and 6.
    """
    changes: list[tuple[float, int, int]] = []
    for i in range(1, len(freqs_mhz)):
        if freqs_mhz[i] != freqs_mhz[i - 1]:
            changes.append(
                (float(times_ms[i]), int(freqs_mhz[i - 1]),
                 int(freqs_mhz[i]))
            )
    return changes
