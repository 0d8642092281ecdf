"""Property-based validation: fuzz the simulator, prove its contracts.

The subsystem behind ``repro validate``:

* :mod:`.scenarios` — deterministic, seed-addressed random scenarios
  (platform shape, workload mixes, channel deployments, defense
  stacks), valid by construction;
* :mod:`.oracles` — invariant checks every scenario must satisfy
  (monotone time, on-grid in-window frequencies, exact PMU cadence,
  Shannon-bounded capacity, telemetry transparency);
* :mod:`.differential` — bit-identity checks across execution paths
  (serial vs parallel, cold vs warm trace store, live vs replay);
* :mod:`.faults` — injectors that plant known defects to prove the
  oracles and the store's quarantine paths actually fire;
* :mod:`.shrink` — greedy minimisation of failing scenarios;
* :mod:`.runner` — the loop tying it together, emitting replayable
  repro files for failures.

Typical use::

    from repro.validate import run_validation

    report = run_validation(seed=0, count=500, workers=0)
    report.raise_on_failure()
"""

from .differential import (
    DifferentialReport,
    equal_results,
    run_differential_suite,
)
from .faults import FAULTS, inject_fault
from .oracles import ORACLES, Observation, Violation, check_all
from .runner import (
    ScenarioOutcome,
    ValidationReport,
    execute_scenario,
    load_repro,
    replay_repro,
    run_validation,
    write_repro,
)
from .scenarios import (
    BASELINE,
    ChannelParams,
    DefenseSpec,
    FuzzScenario,
    WorkloadSpec,
    build_platform,
    generate_scenario,
    generate_scenarios,
    is_valid,
    non_default_params,
)
from .shrink import shrink

__all__ = [
    "BASELINE",
    "ChannelParams",
    "DefenseSpec",
    "DifferentialReport",
    "FAULTS",
    "FuzzScenario",
    "ORACLES",
    "Observation",
    "ScenarioOutcome",
    "ValidationReport",
    "Violation",
    "WorkloadSpec",
    "build_platform",
    "check_all",
    "equal_results",
    "execute_scenario",
    "generate_scenario",
    "generate_scenarios",
    "inject_fault",
    "is_valid",
    "load_repro",
    "non_default_params",
    "replay_repro",
    "run_differential_suite",
    "run_validation",
    "shrink",
    "write_repro",
]
