"""Invariant oracles: what must hold on *every* valid scenario.

An oracle is a pure function ``(scenario, observation) -> [Violation]``
over the :class:`Observation` a finished scenario run leaves behind.
The registered oracles encode the simulator's load-bearing contracts:

* **time-monotonic** — timeline change points and PMU snapshots never
  run backwards; the engine clock covers the requested run;
* **frequency-grid** — every uncore frequency ever recorded sits on the
  configured operating-point grid (``min + k * step``);
* **frequency-range** — and inside the configured ``[min, max]`` window;
* **evaluation-spacing** — PMU evaluations land at exactly
  ``phase + k * period`` with the documented per-socket stagger;
* **capacity-bound** — a measured channel point is information-
  theoretically possible (BER is a probability, capacity ≤ raw rate);
* **telemetry-transparent** — running with a metrics registry active
  yields the bit-identical observation digest.

Oracles never mutate anything and never raise on a violation — they
*describe* it, so one broken invariant cannot hide the others.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .scenarios import FuzzScenario

__all__ = [
    "ORACLES",
    "Observation",
    "Violation",
    "check_all",
]

#: Stagger between consecutive sockets' PMU phases (mirrors
#: ``repro.platform.system._PMU_STAGGER_NS``; asserting the documented
#: constant is the point, so it is restated here, not imported).
PMU_STAGGER_NS = 500_000


@dataclass(frozen=True)
class Violation:
    """One broken invariant, tied to the scenario that broke it."""

    oracle: str
    message: str
    scenario_index: int = -1
    scenario_seed: int = 0


@dataclass(frozen=True)
class Observation:
    """Everything an executed scenario exposes to the oracles.

    ``timelines`` and ``snapshots`` are per-socket tuples;
    ``snapshots`` entries are ``(time_ns, freq_mhz, target_mhz)``
    triples.  ``digest`` fingerprints the whole
    observation; ``telemetry_digest`` is the digest of the
    telemetry-on re-run when the scenario asked for one (``None``
    otherwise).
    """

    end_time_ns: int
    run_ns: int
    timelines: tuple[tuple[tuple[int, int], ...], ...]
    snapshots: tuple[tuple[tuple[int, int, int], ...], ...]
    capacity: object = None
    digest: str = ""
    telemetry_digest: str | None = None


def oracle_time_monotonic(scenario: FuzzScenario,
                          obs: Observation) -> list[Violation]:
    """Simulated time only moves forward, everywhere it is recorded."""
    problems: list[Violation] = []
    if obs.end_time_ns < obs.run_ns:
        problems.append(_violation(
            scenario, "time-monotonic",
            f"engine stopped at {obs.end_time_ns} ns, before the "
            f"requested {obs.run_ns} ns run",
        ))
    for socket_id, points in enumerate(obs.timelines):
        times = [t for t, _ in points]
        if times != sorted(times):
            problems.append(_violation(
                scenario, "time-monotonic",
                f"socket {socket_id} timeline times are not "
                f"non-decreasing: {times}",
            ))
    for socket_id, snaps in enumerate(obs.snapshots):
        times = [t for t, _, _ in snaps]
        if any(b <= a for a, b in zip(times, times[1:])):
            problems.append(_violation(
                scenario, "time-monotonic",
                f"socket {socket_id} PMU snapshots are not strictly "
                f"increasing in time",
            ))
    return problems


def oracle_frequency_grid(scenario: FuzzScenario,
                          obs: Observation) -> list[Violation]:
    """Every recorded frequency is a configured operating point."""
    problems: list[Violation] = []
    step = scenario.ufs_step_mhz
    base = scenario.ufs_min_mhz
    for socket_id, points in enumerate(obs.timelines):
        off_grid = sorted(
            {f for _, f in points if (f - base) % step != 0}
        )
        if off_grid:
            problems.append(_violation(
                scenario, "frequency-grid",
                f"socket {socket_id} visited frequencies off the "
                f"{base}+k*{step} MHz grid: {off_grid}",
            ))
    return problems


def oracle_frequency_range(scenario: FuzzScenario,
                           obs: Observation) -> list[Violation]:
    """Every recorded frequency lies inside the configured window."""
    problems: list[Violation] = []
    lo, hi = scenario.ufs_min_mhz, scenario.ufs_max_mhz
    for socket_id, points in enumerate(obs.timelines):
        outside = sorted({f for _, f in points if not lo <= f <= hi})
        if outside:
            problems.append(_violation(
                scenario, "frequency-range",
                f"socket {socket_id} left the [{lo}, {hi}] MHz window: "
                f"{outside}",
            ))
    return problems


def oracle_evaluation_spacing(scenario: FuzzScenario,
                              obs: Observation) -> list[Violation]:
    """PMU evaluations tick at exactly ``phase + k * period``."""
    problems: list[Violation] = []
    period = scenario.period_ns
    for socket_id, snaps in enumerate(obs.snapshots):
        if not snaps:
            continue
        phase = period + socket_id * PMU_STAGGER_NS
        first = snaps[0][0]
        if first != phase:
            problems.append(_violation(
                scenario, "evaluation-spacing",
                f"socket {socket_id} first PMU evaluation at {first} "
                f"ns, expected phase {phase} ns",
            ))
        gaps = {
            b[0] - a[0] for a, b in zip(snaps, snaps[1:])
        }
        if gaps - {period}:
            problems.append(_violation(
                scenario, "evaluation-spacing",
                f"socket {socket_id} evaluation gaps {sorted(gaps)} ns "
                f"differ from the period {period} ns",
            ))
    return problems


def oracle_capacity_bound(scenario: FuzzScenario,
                          obs: Observation) -> list[Violation]:
    """A measured capacity point must be physically possible."""
    if obs.capacity is None:
        return []
    try:
        obs.capacity.validate()
    except ConfigError as exc:
        return [_violation(scenario, "capacity-bound", str(exc))]
    return []


def oracle_telemetry_transparent(scenario: FuzzScenario,
                                 obs: Observation) -> list[Violation]:
    """Telemetry collection must not perturb results."""
    if obs.telemetry_digest is None:
        return []
    if obs.telemetry_digest != obs.digest:
        return [_violation(
            scenario, "telemetry-transparent",
            f"telemetry-on re-run digest {obs.telemetry_digest} differs "
            f"from the plain run's {obs.digest}",
        )]
    return []


def _violation(scenario: FuzzScenario, oracle: str,
               message: str) -> Violation:
    return Violation(
        oracle=oracle,
        message=message,
        scenario_index=scenario.index,
        scenario_seed=scenario.seed,
    )


#: Every registered oracle, in report order.
ORACLES = (
    oracle_time_monotonic,
    oracle_frequency_grid,
    oracle_frequency_range,
    oracle_evaluation_spacing,
    oracle_capacity_bound,
    oracle_telemetry_transparent,
)


def check_all(scenario: FuzzScenario,
              obs: Observation) -> list[Violation]:
    """Run every oracle; return the concatenated violations."""
    problems: list[Violation] = []
    for oracle in ORACLES:
        problems.extend(oracle(scenario, obs))
    return problems
