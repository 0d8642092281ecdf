"""File-size profiling through UFS (Section 5, Figure 11).

The victim compresses a file; its execution time is proportional to the
file size.  The attacker watches the uncore frequency: it rests at
``freq_max`` while the victim idles (helper-thread methodology) and
falls while the victim computes, so the length of the low-frequency
excursion measures the job — and hence the file size.

The busy-time metric is *time below a near-maximum threshold*, counted
sample-wise (robust to isolated probe noise).  The metric is monotone
in the true busy time but nonlinear for jobs shorter than the full UFS
down-ramp, so the attacker first calibrates it against known sizes and
then classifies unknown runs to the nearest calibrated size — the
paper's "granularity of 300 KB with an accuracy of over 99 %".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PlatformConfig
from ..engine.parallel import resolve_workers
from ..errors import ConfigError
from ..platform.system import System
from ..workloads.compression import CompressionVictim
from .methodology import UfsAttacker
from .tracer import FrequencyTraceCollector, active_duration_ms

#: The attacker's near-maximum frequency threshold: any departure from
#: freq_max counts as victim activity.
BUSY_THRESHOLD_MHZ = 2330.0


@dataclass(frozen=True)
class ProfiledRun:
    """One victim run: ground truth, metric and classification."""

    true_size_kb: float
    busy_metric_ms: float
    predicted_size_kb: float

    @property
    def correct(self) -> bool:
        return self.predicted_size_kb == self.true_size_kb


@dataclass(frozen=True)
class FileSizeStudy:
    """Aggregate results of a profiling sweep."""

    runs: tuple[ProfiledRun, ...]
    granularity_kb: float
    calibration: tuple[tuple[float, float], ...]  # (size_kb, metric_ms)

    @property
    def accuracy(self) -> float:
        if not self.runs:
            return 0.0
        return sum(1 for r in self.runs if r.correct) / len(self.runs)


class FileSizeProfiler:
    """Collects the busy metric for one victim compression run."""

    def __init__(self, system: System, attacker: UfsAttacker, *,
                 victim_core: int = 5,
                 sample_period_ms: float = 3.0) -> None:
        self.system = system
        self.attacker = attacker
        self.victim_core = victim_core
        self.collector = FrequencyTraceCollector(
            attacker, sample_period_ms=sample_period_ms
        )

    def profile(self, file_size_kb: float, *, tag: str = "run"):
        """Run the victim once; return the attacker's raw trace."""
        from ..workloads.compression import MS_PER_MB

        victim = CompressionVictim(
            f"compress-{file_size_kb}-{tag}",
            file_size_kb,
            start_delay_ms=60.0,
            rng=self.system.namer.rng(f"compress-{file_size_kb}-{tag}"),
        )
        trace_ms = 280.0 + file_size_kb / 1024.0 * MS_PER_MB * 1.25
        self.system.launch(victim, 0, self.victim_core)
        trace = self.collector.collect(trace_ms)
        self.system.terminate(victim)
        # Let the frequency recover to freq_max between runs.
        self.system.run_ms(150.0)
        return trace


def study_from_traces(
    traces,
    *,
    sizes_kb: tuple[float, ...],
    calibration_runs: int,
    trials: int,
    granularity_kb: float,
) -> FileSizeStudy:
    """Score a file-size study from its raw traces alone.

    The traces must be in collection order — every size's calibration
    runs, then every size's attack trials — which is exactly the order
    :func:`run_filesize_study` collects (and the trace store replays)
    them.  All arithmetic here is a pure function of the trace floats,
    so a replayed corpus reproduces the simulated study bit for bit.
    """
    traces = list(traces)
    expected = len(sizes_kb) * (calibration_runs + trials)
    if len(traces) != expected:
        raise ConfigError(
            f"file-size corpus holds {len(traces)} traces but the "
            f"study shape needs {expected} "
            f"({len(sizes_kb)} sizes x ({calibration_runs} calibration "
            f"+ {trials} attack) runs)"
        )
    iterator = iter(traces)

    calibration: list[tuple[float, float]] = []
    for size in sizes_kb:
        metrics = [
            active_duration_ms(next(iterator), BUSY_THRESHOLD_MHZ)
            for _ in range(calibration_runs)
        ]
        calibration.append((size, float(np.mean(metrics))))

    runs: list[ProfiledRun] = []
    for size in sizes_kb:
        for _ in range(trials):
            metric = active_duration_ms(next(iterator),
                                        BUSY_THRESHOLD_MHZ)
            predicted = min(
                calibration, key=lambda entry: abs(entry[1] - metric)
            )[0]
            runs.append(
                ProfiledRun(
                    true_size_kb=size,
                    busy_metric_ms=metric,
                    predicted_size_kb=predicted,
                )
            )
    return FileSizeStudy(
        runs=tuple(runs),
        granularity_kb=granularity_kb,
        calibration=tuple(calibration),
    )


def filesize_corpus(
    *,
    sizes_kb: tuple[float, ...],
    calibration_runs: int,
    trials: int,
    granularity_kb: float,
    seed: int,
    platform: PlatformConfig | None = None,
) -> dict:
    """The identity of a file-size corpus in the trace store.

    The keywords of :func:`~repro.trace.store.cached_corpus` and
    :meth:`~repro.trace.store.TraceStore.key`, shared by
    :func:`run_filesize_study` and the replay side so both address the
    same blob.  ``workers`` is not part of it (it never changes
    results); ``granularity_kb`` is, because it is part of the study's
    identity even though it does not steer the simulation.
    """
    return {
        "experiment": "filesize",
        "params": {
            "sizes_kb": list(sizes_kb),
            "calibration_runs": calibration_runs,
            "trials": trials,
            "granularity_kb": granularity_kb,
        },
        "seed": seed,
        "platform": platform,
    }


def _collect_study_traces(
    *,
    sizes_kb: tuple[float, ...],
    calibration_runs: int,
    trials: int,
    seed: int,
    platform: PlatformConfig | None,
) -> list:
    """Simulate the study's victim runs; return traces in study order."""
    system = System(platform, seed=seed)
    attacker = UfsAttacker(system)
    attacker.settle()
    profiler = FileSizeProfiler(system, attacker)
    traces = []
    for size in sizes_kb:
        for i in range(calibration_runs):
            traces.append(profiler.profile(size, tag=f"cal{i}"))
    for size in sizes_kb:
        for trial in range(trials):
            traces.append(profiler.profile(size, tag=f"try{trial}"))
    attacker.shutdown()
    system.stop()
    return traces


def run_filesize_study(
    *,
    sizes_kb: tuple[float, ...] = tuple(
        300.0 * step for step in range(1, 11)
    ),
    calibration_runs: int = 2,
    trials: int = 2,
    granularity_kb: float = 300.0,
    seed: int = 0,
    platform: PlatformConfig | None = None,
    workers: int | None = 1,
    cache_dir=None,
) -> FileSizeStudy:
    """The Figure 11 experiment.

    Phase 1 (calibration): run each known size a few times and record
    the mean busy metric.  Phase 2 (attack): profile fresh runs and
    classify each to the calibrated size with the nearest metric.

    The calibration baselines and the attack runs share one long-lived
    system (the attacker's helpers stay resident), so there is nothing
    to fan out: ``workers`` is validated for signature uniformity but
    unused.

    ``cache_dir`` names a :class:`~repro.trace.store.TraceStore` root.
    The study's raw traces are a pure function of ``(platform, study
    shape, seed)``: on a key hit the simulation is skipped and the
    stored corpus is scored instead, on a miss the simulated traces are
    stored on the way out.  Either path feeds the identical floats to
    :func:`study_from_traces`, so results are bit-identical with the
    cache cold, warm or disabled.
    """
    resolve_workers(workers)
    if not sizes_kb:
        raise ConfigError("a file-size study needs at least one size")
    if calibration_runs < 1 or trials < 1:
        raise ConfigError(
            f"a file-size study needs at least one calibration run and "
            f"one trial per size, got {calibration_runs} and {trials}"
        )
    from ..trace.store import TraceStore, cached_corpus

    shape = dict(sizes_kb=sizes_kb, calibration_runs=calibration_runs,
                 trials=trials, granularity_kb=granularity_kb)
    _, traces = cached_corpus(
        None if cache_dir is None else TraceStore(cache_dir),
        **filesize_corpus(**shape, seed=seed, platform=platform),
        simulate=lambda: _collect_study_traces(
            sizes_kb=sizes_kb, calibration_runs=calibration_runs,
            trials=trials, seed=seed, platform=platform,
        ),
    )
    return study_from_traces(traces, **shape)
