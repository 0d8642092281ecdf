"""Quantitative evaluation of the Section 6.1 countermeasures.

Three questions, matching the paper's discussion:

1. Does the defense stop UF-variation?  (Fixed, randomized and
   busy-uncore do; a restricted-but-nonempty range does not.)
2. What does it cost?  (Fixing at freq_max costs ~7 % uncore energy on
   an analytics workload; fixing low costs performance.)
3. Does restricting the range at least blunt the side channel?
   (Yes — the fingerprinting accuracy collapses with a <= 0.2 GHz
   window.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PlatformConfig, default_platform_config
from ..core.channel import UFVariationChannel
from ..core.context import ExperimentContext
from ..core.evaluation import random_bits
from ..core.protocol import ChannelConfig
from ..engine.parallel import Trial, require_complete, run_trials
from ..platform.system import System
from ..units import ms, seconds
from ..workloads.analytics import AnalyticsWorkload
from .countermeasures import (
    BusyUncoreDefense,
    RandomizedFrequencyDefense,
    apply_fixed_frequency,
)

#: The defense configurations of the Section 6.1 study.
DEFENSE_KEYS = (
    "none",
    "fixed_max",
    "fixed_mid",
    "randomized",
    "restricted_1500_1700",
    "busy_uncore",
    "performance_governor",
)


@dataclass(frozen=True)
class DefenseReport:
    """UF-variation's fate under one countermeasure."""

    defense: str
    error_rate: float
    capacity_bps: float

    @property
    def channel_stopped(self) -> bool:
        """Stopped = decoding at (or near) chance."""
        return self.error_rate >= 0.25


def _defense_runner(resolved: str):
    """The module-level (hence picklable) batch runner for a backend."""
    if resolved == "batch":
        from ..fastpath.batch import batch_defense_reports

        return batch_defense_reports
    from ..fastpath.analytical import analytical_defense_reports

    return analytical_defense_reports


def channel_under_defense(defense: str, *, bits: int = 80,
                          interval_ms: float = 38.0,
                          seed: int = 0,
                          platform: PlatformConfig | None = None,
                          backend: str | None = None,
                          ) -> DefenseReport:
    """Deploy UF-variation against one active countermeasure.

    ``platform`` overrides the base platform the defense modifies
    (default: the paper's Table 1 system).  ``backend`` picks the
    simulator (``"des"`` default; ``"batch"`` is bit-identical,
    ``"analytical"`` closed-form).
    """
    from ..fastpath.backend import DefenseRequest, resolve_backend

    resolved = resolve_backend(backend, experiment="channel_under_defense")
    if resolved != "des":
        return _defense_runner(resolved)([DefenseRequest(
            defense=defense,
            bits=bits,
            interval_ms=interval_ms,
            seed=seed,
            platform=platform,
        )])[0]
    if platform is None:
        platform = default_platform_config()
    if defense == "restricted_1500_1700":
        # A narrowed window is part of the pre-agreed calibration: the
        # attacker knows the platform policy (Kerckhoffs).
        platform = platform.with_ufs(min_freq_mhz=1500,
                                     max_freq_mhz=1700)
    system = System(platform, seed=seed)
    active = None
    if defense == "fixed_max":
        apply_fixed_frequency(system, platform.ufs.max_freq_mhz)
    elif defense == "fixed_mid":
        apply_fixed_frequency(system, 1800)
    elif defense == "randomized":
        active = RandomizedFrequencyDefense(system)
    elif defense == "busy_uncore":
        active = BusyUncoreDefense(system, core_id=15)
    elif defense == "performance_governor":
        # Not in the paper's list, but suggested by Section 2.2.1:
        # an *active* core above base frequency pins the uncore at the
        # maximum.  It turns out to be a leaky defense: UFS re-engages
        # whenever every turbo core sleeps, and a duty-cycled receiver
        # (ours probes ~10 ms per interval) leaves exactly such gaps —
        # the measured BER lands near the functionality border instead
        # of at chance.
        from ..cpu.dvfs import DvfsGovernor, GovernorPolicy

        active = DvfsGovernor(
            system, policy=GovernorPolicy.PERFORMANCE
        )
    elif defense not in ("none", "restricted_1500_1700"):
        raise ValueError(f"unknown defense {defense!r}")

    channel = UFVariationChannel(
        system, config=ChannelConfig(interval_ns=ms(interval_ms))
    )
    payload = random_bits(bits, seed, f"defense-{defense}")
    result = channel.transmit(payload)
    channel.shutdown()
    if active is not None:
        active.stop()
    system.stop()
    return DefenseReport(
        defense=defense,
        error_rate=result.error_rate,
        capacity_bps=result.capacity_bps,
    )


def evaluate_defenses(*, bits: int = 80, seed: int = 0,
                      defenses: tuple[str, ...] = DEFENSE_KEYS,
                      platform: PlatformConfig | None = None,
                      workers: int | None = 1,
                      checkpoint_dir=None,
                      retry=None,
                      backend: str | None = None,
                      ) -> list[DefenseReport]:
    """UF-variation under every countermeasure.

    Each defense deploys its own seeded system, so the reports are
    independent trials: ``workers > 1`` evaluates them in parallel
    processes and still returns them in ``defenses`` order,
    bit-identical to the serial run.  ``backend`` picks the simulator
    per :func:`~repro.fastpath.backend.resolve_backend`; the vectorized
    backends fan chunks out over ``workers`` through
    :func:`~repro.engine.parallel.run_batches`.

    ``checkpoint_dir`` / ``retry`` behave exactly as in
    :func:`repro.core.evaluation.capacity_sweep`: completed defenses
    are checkpointed for bit-identical resume, transient crashes are
    retried (DES path only), and a defense still failed after its
    attempts raises :class:`~repro.errors.ResilienceError`.
    """
    ctx = ExperimentContext(platform=platform, seed=seed, workers=workers,
                            backend=backend)
    from ..fastpath.backend import DefenseRequest, resolve_backend

    resolved = resolve_backend(ctx.backend, experiment="evaluate_defenses")
    labels = [f"defense-{defense}" for defense in defenses]
    checkpoint = None
    if checkpoint_dir is not None:
        from ..resilience.checkpoint import Checkpoint

        checkpoint = Checkpoint.for_experiment(
            checkpoint_dir, "evaluate_defenses",
            platform=ctx.platform,
            params=dict(bits=bits, defenses=list(defenses)),
            seed=ctx.seed,
            backend=resolved,
        )
    if resolved != "des":
        from ..engine.parallel import run_batches

        requests = [
            DefenseRequest(
                defense=defense,
                bits=bits,
                seed=ctx.seed,
                platform=ctx.platform,
            )
            for defense in defenses
        ]
        return run_batches(
            requests, _defense_runner(resolved),
            workers=ctx.workers, labels=labels, checkpoint=checkpoint,
        )
    trials = [
        Trial(channel_under_defense, dict(
            defense=defense,
            bits=bits,
            seed=ctx.seed,
            platform=ctx.platform,
            backend="des",
        ), label=label)
        for defense, label in zip(defenses, labels)
    ]
    reports = run_trials(trials, workers=ctx.workers, retry=retry,
                         checkpoint=checkpoint)
    require_complete(reports, "defense evaluation")
    return reports


@dataclass(frozen=True)
class EnergyOverheadResult:
    """Uncore energy of a fixed-max policy relative to UFS."""

    ufs_joules: float
    fixed_max_joules: float
    duration_s: float

    @property
    def overhead_percent(self) -> float:
        if self.ufs_joules == 0.0:
            return 0.0
        return 100.0 * (self.fixed_max_joules / self.ufs_joules - 1.0)


def analytics_energy_overhead(*, workers: int = 8,
                              duration_s: float = 10.0,
                              seed: int = 0) -> EnergyOverheadResult:
    """The paper's CloudSuite measurement: fixing the uncore at
    ``freq_max`` costs ~7 % more energy than UFS on analytics.

    The same seeded workload schedule runs twice — once under UFS, once
    with the frequency fixed at the maximum — and the uncore energy is
    integrated from the frequency timeline either way.
    """

    def run(fixed_max: bool) -> float:
        system = System(seed=seed)
        if fixed_max:
            apply_fixed_frequency(
                system, system.config.ufs.max_freq_mhz
            )
        for index in range(workers):
            # All workers share one schedule stream: graph analytics is
            # bulk-synchronous, so scan phases and barrier waits align
            # across the worker pool.
            worker = AnalyticsWorkload(
                f"analytics-{index}",
                system.namer.rng("analytics-superstep"),
            )
            system.launch(worker, 0, index)
        start = system.now
        system.run_for(seconds(duration_s))
        energy = system.energy_meter.energy_joules(
            system.socket(0).pmu.timeline, start, system.now
        )
        system.stop()
        return energy

    return EnergyOverheadResult(
        ufs_joules=run(fixed_max=False),
        fixed_max_joules=run(fixed_max=True),
        duration_s=duration_s,
    )
