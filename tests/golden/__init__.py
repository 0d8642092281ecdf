"""Golden trace fixtures: recorded corpora the simulator must match.

Each preset gets one small corpus of attacker-collected frequency
traces, checked into the repository.  The regression test re-simulates
the identical scenario and demands bit-identical streams via
:func:`golden_compare`, so any behavioural drift in
the simulator — UFS control law, probe latency model, RNG plumbing —
fails loudly instead of silently shifting every experiment's numbers.

``python -m tests.golden.make_golden`` regenerates the corpora after
an *intentional* behaviour change; the diff then documents exactly
which presets moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent
GOLDEN_SEED = 2023  # MICRO 2023 — fixed forever, never reseed


def golden_presets() -> dict[str, object]:
    """Name -> platform config for every golden corpus."""
    from repro.config import (
        default_platform_config,
        single_socket_config,
    )

    return {
        "dual-socket": default_platform_config(),
        "single-socket": single_socket_config(),
        "restricted-ufs": default_platform_config().with_ufs(
            min_freq_mhz=1500, max_freq_mhz=1700
        ),
    }


def golden_path(preset: str) -> Path:
    return GOLDEN_DIR / f"{preset}.uftc"


def simulate_golden_traces(preset: str) -> list:
    """The canonical golden scenario for one preset.

    Three short attacker traces: uncore pinned by the helpers alone,
    then two compression victims of different sizes — enough to
    exercise settle, the busy excursion and the recovery ramp without
    taking more than ~1 s of simulated time per preset.
    """
    from repro.platform import System
    from repro.sidechannel import FrequencyTraceCollector, UfsAttacker
    from repro.workloads import CompressionVictim

    platform = golden_presets()[preset]
    system = System(platform, seed=GOLDEN_SEED)
    attacker = UfsAttacker(system)
    attacker.settle()
    collector = FrequencyTraceCollector(attacker)
    traces = [collector.collect(duration_ms=90, label=0)]
    for label, size_kb in ((1, 600), (2, 1500)):
        victim = CompressionVictim(f"golden-{label}", size_kb,
                                   start_delay_ms=1)
        system.launch(victim, 0, 5)
        traces.append(collector.collect(duration_ms=150, label=label))
        system.terminate(victim)
        system.run_ms(150.0)
    attacker.shutdown()
    system.stop()
    return traces


@dataclass(frozen=True)
class GoldenDiff:
    """Outcome of comparing one trace against its golden recording."""

    ok: bool
    reason: str | None = None
    max_time_error_ms: float = 0.0
    max_freq_error_mhz: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def golden_compare(actual, expected) -> GoldenDiff:
    """Diff a trace against its golden recording, bit for bit.

    The simulator is deterministic, so a golden test allows no slack:
    the first way the two traces disagree is the reported reason.
    """
    if actual.label != expected.label:
        return GoldenDiff(False, f"label {actual.label} != "
                                 f"{expected.label}")
    a_times = np.asarray(actual.times_ms, dtype=np.float64)
    e_times = np.asarray(expected.times_ms, dtype=np.float64)
    a_freqs = np.asarray(actual.freqs_mhz, dtype=np.float64)
    e_freqs = np.asarray(expected.freqs_mhz, dtype=np.float64)
    if a_times.shape != e_times.shape:
        return GoldenDiff(False, f"{len(a_times)} samples, golden has "
                                 f"{len(e_times)}")
    time_err = (float(np.max(np.abs(a_times - e_times)))
                if len(a_times) else 0.0)
    freq_err = (float(np.max(np.abs(a_freqs - e_freqs)))
                if len(a_freqs) else 0.0)
    if not np.array_equal(a_times, e_times):
        return GoldenDiff(False, f"times diverge (max abs error "
                                 f"{time_err:g} ms)",
                          time_err, freq_err)
    if not np.array_equal(a_freqs, e_freqs):
        return GoldenDiff(False, f"freqs diverge (max abs error "
                                 f"{freq_err:g} MHz)",
                          time_err, freq_err)
    return GoldenDiff(True, None, time_err, freq_err)
