"""Scenario execution and the top-level validation loop.

:func:`execute_scenario` turns a :class:`FuzzScenario` into a live
system — platform built from the scenario's UFS parameters, PMU
snapshots retained, defenses applied, workloads launched, optional
fault armed — runs it, optionally transmits over a UF-variation
channel, and distils the run into the :class:`~.oracles.Observation`
the invariant oracles consume.

:func:`run_validation` fans scenarios out through
:func:`repro.engine.parallel.run_trials` under a one-attempt
``retry=RetryPolicy(max_attempts=1)`` (one crashing scenario cannot mask
the other 499), gathers violations,
and — when any scenario fails — shrinks the first failure to a minimal
scenario and writes a self-contained repro file that
:func:`replay_repro` (and ``repro validate --replay``) can re-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..core.evaluation import CapacityPoint, random_bits
from ..engine.parallel import Trial, TrialFailure, run_trials
from ..errors import ValidationError
from ..resilience.retry import RetryPolicy
from ..telemetry.context import using
from ..telemetry.registry import MetricsRegistry
from ..units import ms
from .oracles import (
    ModulationObservation,
    Observation,
    Violation,
    check_all,
)
from .scenarios import (
    BUSY_DEFENSE_CORE,
    MODULATION_CORES,
    FuzzScenario,
    build_platform,
    generate_scenarios,
    non_default_params,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "ScenarioOutcome",
    "ValidationReport",
    "execute_scenario",
    "load_repro",
    "replay_repro",
    "run_validation",
    "write_repro",
]

REPRO_VERSION = 1


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's verdict: clean, violating, or crashed."""

    scenario: FuzzScenario
    violations: tuple[Violation, ...] = ()
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None


@dataclass(frozen=True)
class ValidationReport:
    """The verdict over a whole fuzzing run."""

    seed: int
    count: int
    fault: str | None
    outcomes: tuple[ScenarioOutcome, ...]
    repro_path: str | None = None

    @property
    def failures(self) -> tuple[ScenarioOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(
            v for o in self.outcomes for v in o.violations
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def scenario_kinds(self) -> dict[str, int]:
        """How many scenarios drove each modulation regime.

        The CI smoke asserts every kind appeared, so a generation
        change that silently stops producing (say) duty regimes fails
        loudly instead of hollowing out oracle coverage.
        """
        counts = {"none": 0, "turbo": 0, "current": 0, "duty": 0}
        for outcome in self.outcomes:
            spec = outcome.scenario.modulation
            counts["none" if spec is None else spec.kind] += 1
        return counts

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.ValidationError` if anything
        failed, naming the first few problems."""
        if self.ok:
            return
        lines = []
        for outcome in self.failures[:5]:
            tag = f"scenario {outcome.scenario.index}"
            if outcome.error is not None:
                lines.append(f"{tag} crashed: {outcome.error}")
            for violation in outcome.violations[:3]:
                lines.append(
                    f"{tag} [{violation.oracle}] {violation.message}"
                )
        summary = "; ".join(lines)
        extra = ""
        if self.repro_path:
            extra = f" (repro file: {self.repro_path})"
        raise ValidationError(
            f"{len(self.failures)} of {self.count} scenarios failed "
            f"(seed {self.seed}): {summary}{extra}"
        )


def _make_workload(spec):
    from ..workloads import (
        L2PointerChaseLoop,
        NopLoop,
        StallingLoop,
        TrafficLoop,
    )

    name = f"fuzz-{spec.kind}-s{spec.socket}c{spec.core}"
    if spec.kind == "traffic":
        return TrafficLoop(name, hops=spec.hops)
    if spec.kind == "stalling":
        return StallingLoop(name)
    if spec.kind == "l2chase":
        return L2PointerChaseLoop(name)
    return NopLoop(name)


def _apply_defenses(system, scenario: FuzzScenario) -> list:
    from ..defenses.countermeasures import (
        BusyUncoreDefense,
        RandomizedFrequencyDefense,
        apply_fixed_frequency,
        apply_restricted_range,
    )

    stoppable = []
    for spec in scenario.defenses:
        if spec.kind == "fixed":
            apply_fixed_frequency(system, spec.freq_mhz)
        elif spec.kind == "restrict":
            apply_restricted_range(system, spec.min_mhz, spec.max_mhz)
        elif spec.kind == "randomize":
            stoppable.append(RandomizedFrequencyDefense(
                system, period_ms=spec.period_ms
            ))
        else:
            # The busy thread is registered as a workload, so
            # System.stop() terminates it; no handle needed.
            BusyUncoreDefense(
                system, socket_id=0, core_id=BUSY_DEFENSE_CORE
            )
    return stoppable


def _measure_channel(system, scenario: FuzzScenario) -> CapacityPoint:
    from ..core.channel import UFVariationChannel
    from ..core.protocol import ChannelConfig
    from ..core.sender import SenderMode

    params = scenario.channel
    channel = UFVariationChannel(
        system,
        config=ChannelConfig(interval_ns=ms(params.interval_ms)),
        sender_socket=0,
        sender_cores=(0,),
        receiver_socket=1 if params.cross_processor else 0,
        receiver_core=8,
        sender_mode=SenderMode(params.sender_mode),
    )
    payload = random_bits(
        params.bits, scenario.run_seed, "fuzz-payload"
    )
    result = channel.transmit(payload)
    channel.shutdown()
    return CapacityPoint(
        interval_ms=params.interval_ms,
        raw_rate_bps=result.raw_rate_bps,
        error_rate=result.error_rate,
        capacity_bps=result.capacity_bps,
        bits=params.bits,
    )


def _observation_digest(end_time_ns: int, run_ns: int, timelines,
                        snapshots, capacity, modulation) -> str:
    material = json.dumps(
        {
            "end_time_ns": end_time_ns,
            "run_ns": run_ns,
            "timelines": timelines,
            "snapshots": snapshots,
            "capacity": None if capacity is None else {
                "interval_ms": capacity.interval_ms,
                "raw_rate_bps": capacity.raw_rate_bps,
                "error_rate": capacity.error_rate,
                "capacity_bps": capacity.capacity_bps,
                "bits": capacity.bits,
            },
            "modulation": None if modulation is None else {
                "turbo": modulation.turbo,
                "throttle": modulation.throttle,
                "duty": modulation.duty,
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def _drive_modulation(system, scenario: FuzzScenario,
                      run_ns: int) -> None:
    """Run the scenario's modulation regime over the whole run window.

    The run is cut into ``toggles + 1`` equal segments, alternating an
    on-phase (helper cores busy, or a reduced duty level) with an
    off-phase, starting on.  Helpers live on :data:`MODULATION_CORES`,
    so the regime composes with any workload mix, channel and defense
    stack the scenario also drew.
    """
    from ..channels.icc_cores import POWER_VIRUS_PROFILE
    from ..channels.turbo_boost import ACTIVE_COMPUTE_PROFILE
    from ..cpu.activity import ActivityProfile

    spec = scenario.modulation
    socket = system.socket(0)
    unit = socket.modulation  # attach the controllers at t=0
    cores = []
    if spec.kind != "duty":
        cores = [socket.core(cid) for cid in MODULATION_CORES[:spec.cores]]
        for core in cores:
            core.claim(f"fuzz-modulation-{core.core_id}")
    on_profile = (
        POWER_VIRUS_PROFILE if spec.kind == "current"
        else ACTIVE_COMPUTE_PROFILE
    )
    segments = spec.toggles + 1
    segment_ns = run_ns // segments
    for index in range(segments):
        on = index % 2 == 0
        now = system.now
        if spec.kind == "duty":
            unit.clockmod.set_duty(
                spec.duty_step if on
                else unit.clockmod.config.duty_steps
            )
        else:
            for core in cores:
                core.set_profile(
                    now, on_profile if on else ActivityProfile()
                )
        system.run_for(segment_ns)
    now = system.now
    for core in cores:
        core.release(now)
    remainder = run_ns - segments * segment_ns
    if remainder:
        system.run_for(remainder)


def _collect_modulation(system,
                        scenario: FuzzScenario) -> ModulationObservation | None:
    if scenario.modulation is None:
        return None
    unit = system.socket(0).modulation
    return ModulationObservation(
        turbo=tuple(
            (s.time_ns, s.active_cores, s.turbo_mhz)
            for s in unit.turbo.snapshots
        ),
        throttle=tuple(unit.current.transitions),
        duty=tuple(
            (r.time_ns, r.duty_steps, r.effective_mhz)
            for r in unit.clockmod.records
        ),
    )


def _execute_once(scenario: FuzzScenario,
                  fault: str | None) -> Observation:
    from ..platform.system import System
    from .faults import inject_fault

    platform = build_platform(scenario)
    system = System(platform, seed=scenario.run_seed)
    for socket in system.sockets:
        socket.pmu.keep_snapshots = True
    stoppable = _apply_defenses(system, scenario)
    if fault is not None:
        inject_fault(fault, system, scenario)
    workloads = [_make_workload(spec) for spec in scenario.workloads]
    for spec, workload in zip(scenario.workloads, workloads):
        system.launch(workload, spec.socket, spec.core)
    run_ns = ms(scenario.run_ms)
    if scenario.modulation is not None:
        _drive_modulation(system, scenario, run_ns)
    else:
        system.run_for(run_ns)
    capacity = None
    if scenario.channel is not None:
        capacity = _measure_channel(system, scenario)
    for defense in stoppable:
        defense.stop()
    end_time_ns = system.now
    timelines = tuple(
        socket.pmu.timeline.points() for socket in system.sockets
    )
    snapshots = tuple(
        tuple(
            (snap.time_ns, snap.freq_mhz, snap.target_mhz)
            for snap in socket.pmu.snapshots
        )
        for socket in system.sockets
    )
    modulation = _collect_modulation(system, scenario)
    system.stop()
    digest = _observation_digest(
        end_time_ns, run_ns, timelines, snapshots, capacity, modulation
    )
    return Observation(
        end_time_ns=end_time_ns,
        run_ns=run_ns,
        timelines=timelines,
        snapshots=snapshots,
        capacity=capacity,
        modulation=modulation,
        digest=digest,
    )


def execute_scenario(scenario: FuzzScenario,
                     fault: str | None = None) -> Observation:
    """Run one scenario end to end and return its observation.

    Scenarios with ``check_telemetry`` run twice — once bare, once
    under a fresh metrics registry — and the second run's digest lands
    in ``telemetry_digest`` for the transparency oracle to compare.
    """
    obs = _execute_once(scenario, fault)
    if not scenario.check_telemetry:
        return obs
    registry = MetricsRegistry()
    with using(registry):
        telemetry_obs = _execute_once(scenario, fault)
    return Observation(
        end_time_ns=obs.end_time_ns,
        run_ns=obs.run_ns,
        timelines=obs.timelines,
        snapshots=obs.snapshots,
        capacity=obs.capacity,
        modulation=obs.modulation,
        digest=obs.digest,
        telemetry_digest=telemetry_obs.digest,
    )


def _run_one(scenario: FuzzScenario,
             fault: str | None = None,
             seed: int | None = None) -> ScenarioOutcome:
    """Execute + judge one scenario (module-level: pool-picklable).

    ``seed`` is the scenario's run seed, accepted (and otherwise
    unused) so it rides in the trial kwargs — a crashed trial's
    :class:`~repro.engine.parallel.TrialFailure` then carries the seed
    alongside the label, enough to write a replayable repro without
    re-running anything.
    """
    del seed
    obs = execute_scenario(scenario, fault)
    return ScenarioOutcome(
        scenario=scenario,
        violations=tuple(check_all(scenario, obs)),
    )


def run_validation(*, seed: int = 0, count: int = 100,
                   workers: int | None = 1,
                   fault: str | None = None,
                   repro_dir=None,
                   shrink_failures: bool = True,
                   checkpoint_dir=None) -> ValidationReport:
    """Fuzz ``count`` scenarios from ``seed`` and judge every one.

    A crashing scenario is contained (a one-attempt ``retry=`` policy:
    contained, never re-run) and reported as a failed outcome.  A
    worker death under ``workers > 1`` is contained the same way: the
    runner rebuilds the pool and convicts the scenario whose worker
    died.  When anything fails and
    ``repro_dir`` is given, the first failure is shrunk to a minimal
    scenario and written there as a self-contained repro file; a
    *crashed* scenario's repro is written directly from the collected
    failure — error string included — with no shrink re-runs.

    ``checkpoint_dir`` makes long fuzz runs resumable: every judged
    scenario is recorded to an atomic checkpoint keyed by the run's
    (count, fault, seed), and a re-run with the same arguments skips
    the scenarios already judged.
    """
    scenarios = generate_scenarios(seed, count)
    trials = [
        Trial(_run_one, dict(scenario=scenario, fault=fault,
                             seed=scenario.run_seed),
              label=f"scenario-{scenario.index}")
        for scenario in scenarios
    ]
    checkpoint = None
    if checkpoint_dir is not None:
        from ..resilience.checkpoint import Checkpoint

        # Scenario platforms are themselves pure functions of
        # (seed, count), so the run-level key takes the default one.
        checkpoint = Checkpoint.for_experiment(
            checkpoint_dir, "run_validation",
            params=dict(count=count, fault=fault),
            seed=seed,
        )
    # Mask any ambient registry for the whole fuzz+shrink phase:
    # scenarios deliberately span heterogeneous platforms, whose
    # per-platform histogram layouts (e.g. ``ufs.freq_mhz`` bucket
    # edges) cannot merge into one caller registry.  The telemetry-
    # transparency oracle builds its own private registries regardless.
    with using(None):
        raw = run_trials(trials, workers=workers,
                         retry=RetryPolicy(max_attempts=1),
                         checkpoint=checkpoint)
        outcomes: list[ScenarioOutcome] = []
        for scenario, result in zip(scenarios, raw):
            if isinstance(result, TrialFailure):
                outcomes.append(ScenarioOutcome(
                    scenario=scenario,
                    error=f"{result.error_type}: {result.message}",
                ))
            else:
                outcomes.append(result)
        repro_path = None
        failures = [o for o in outcomes if not o.ok]
        if failures and repro_dir is not None:
            repro_path = str(_write_first_repro(
                failures[0], fault, Path(repro_dir),
                shrink_failures=shrink_failures,
            ))
    return ValidationReport(
        seed=seed,
        count=count,
        fault=fault,
        outcomes=tuple(outcomes),
        repro_path=repro_path,
    )


def _scenario_fails(scenario: FuzzScenario, fault: str | None) -> bool:
    """The shrinker's predicate: does this scenario still fail?"""
    try:
        outcome = _run_one(scenario, fault)
    except Exception:  # noqa: BLE001 - a crash is still a failure
        return True
    return not outcome.ok


def _write_first_repro(outcome: ScenarioOutcome, fault: str | None,
                       repro_dir: Path, *,
                       shrink_failures: bool) -> Path:
    from .shrink import shrink

    scenario = outcome.scenario
    error = outcome.error
    if error is not None:
        # A collected crash is written out as-is: the outcome already
        # carries everything a replay needs (scenario, fault, error),
        # and shrink re-runs would chase a crash that may only occur
        # under the conditions that just produced it.
        violations = outcome.violations
    elif shrink_failures:
        scenario = shrink(
            scenario, lambda s: _scenario_fails(s, fault)
        )
        final = _run_one(scenario, fault)
        violations = final.violations
    else:
        violations = outcome.violations
    repro_dir.mkdir(parents=True, exist_ok=True)
    path = repro_dir / (
        f"repro-seed{scenario.seed}-scenario{scenario.index}.json"
    )
    write_repro(path, scenario, fault, violations, error=error)
    return path


def write_repro(path, scenario: FuzzScenario, fault: str | None,
                violations, *, error: str | None = None) -> None:
    """Write a self-contained, replayable failure description."""
    payload = {
        "version": REPRO_VERSION,
        "fault": fault,
        "scenario": scenario_to_dict(scenario),
        "non_default_params": sorted(non_default_params(scenario)),
        "violations": [
            {"oracle": v.oracle, "message": v.message}
            for v in violations
        ],
    }
    if error is not None:
        payload["error"] = error
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_repro(path) -> tuple[FuzzScenario, str | None, list[dict]]:
    """Parse a repro file back into (scenario, fault, violations)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("version") != REPRO_VERSION:
        raise ValidationError(
            f"repro file {path} has version {payload.get('version')}, "
            f"this build speaks {REPRO_VERSION}"
        )
    return (
        scenario_from_dict(payload["scenario"]),
        payload.get("fault"),
        payload.get("violations", []),
    )


def replay_repro(path) -> ScenarioOutcome:
    """Re-run a repro file's scenario and return the fresh verdict."""
    scenario, fault, _ = load_repro(path)
    with using(None):
        return _run_one(scenario, fault)
