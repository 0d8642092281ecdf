"""The registry of servable experiments and their payload codecs.

A job's result crosses a JSON wire, so every servable experiment pairs
a runner (spec in, JSON-able payload out) with enough structure that a
client can decode the payload back into the exact dataclasses a direct
in-process call returns.  Bit-identity survives the trip: results are
floats and ints, Python's ``json`` round-trips ``float64`` exactly
(``repr`` shortest-round-trip), and the tests and the CI smoke assert
served == direct to the last bit.

Runners accept ``workers=1`` semantics only — the service's unit of
concurrency is the *job*, fanned over worker pools, not processes
inside one job.  (A job that wants intra-job fan-out should be split
into jobs; that is what the queue is for.)
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import ServiceError
from ..telemetry.context import using
from ..telemetry.registry import MetricsRegistry
from .protocol import JobSpec, spec_from_wire

__all__ = [
    "EXPERIMENTS",
    "ExperimentRunner",
    "comparison_cells_from_payload",
    "execute_instrumented",
    "register_experiment",
    "run_job",
    "sweep_from_payload",
]


@dataclass(frozen=True)
class ExperimentRunner:
    """How the service runs one kind of experiment.

    ``run(params, seed, backend, checkpoint_dir)`` returns a JSON-able
    payload dict.  ``param_names`` is the closed set of accepted params
    (unknown keys are rejected at submission — a typo must fail fast,
    not silently run the default shape).  ``supports_checkpoint`` says
    whether the runner threads ``checkpoint_dir`` through to the
    resilience layer, making a daemon crash mid-job resumable.
    """

    name: str
    run: Callable[..., dict]
    param_names: frozenset[str]
    supports_checkpoint: bool = False


def _points_payload(points) -> list[dict]:
    return [
        {
            "interval_ms": point.interval_ms,
            "raw_rate_bps": point.raw_rate_bps,
            "error_rate": point.error_rate,
            "capacity_bps": point.capacity_bps,
            "bits": point.bits,
        }
        for point in points
    ]


def _run_capacity_sweep(params: dict, seed: int, backend: str,
                        checkpoint_dir) -> dict:
    from ..core.evaluation import DEFAULT_INTERVALS_MS, capacity_sweep

    intervals = params.get("intervals_ms")
    sweep = capacity_sweep(
        intervals_ms=(tuple(float(i) for i in intervals)
                      if intervals else DEFAULT_INTERVALS_MS),
        bits=int(params.get("bits", 120)),
        cross_processor=bool(params.get("cross_processor", False)),
        seed=seed,
        backend=backend,
        checkpoint_dir=checkpoint_dir,
    )
    return {
        "points": _points_payload(sweep.points),
        "summary": sweep.summarize(),
    }


def _run_measure_capacity(params: dict, seed: int, backend: str,
                          checkpoint_dir) -> dict:
    from ..core.evaluation import measure_capacity

    del checkpoint_dir
    point = measure_capacity(
        interval_ms=float(params.get("interval_ms", 38.0)),
        bits=int(params.get("bits", 120)),
        cross_processor=bool(params.get("cross_processor", False)),
        seed=seed,
        backend=backend,
    )
    return {"points": _points_payload([point])}


def _run_mean_error(params: dict, seed: int, backend: str,
                    checkpoint_dir) -> dict:
    from ..core.evaluation import mean_error_over_seeds

    del checkpoint_dir, seed  # per-trial seeds come from params
    seeds = tuple(int(s) for s in params.get("seeds", (0, 1, 2)))
    mean = mean_error_over_seeds(
        float(params.get("interval_ms", 38.0)),
        bits=int(params.get("bits", 80)),
        seeds=seeds,
        cross_processor=bool(params.get("cross_processor", False)),
        backend=backend,
    )
    return {"mean_error_rate": mean, "seeds": list(seeds)}


def _run_evaluate_defenses(params: dict, seed: int, backend: str,
                           checkpoint_dir) -> dict:
    from ..defenses import evaluate_defenses
    from ..defenses.evaluation import DEFENSE_KEYS

    defenses = tuple(params.get("defenses", DEFENSE_KEYS))
    reports = evaluate_defenses(
        bits=int(params.get("bits", 80)),
        seed=seed,
        defenses=defenses,
        backend=backend,
        checkpoint_dir=checkpoint_dir,
    )
    return {
        "reports": [
            {
                "defense": report.defense,
                "error_rate": report.error_rate,
                "capacity_bps": report.capacity_bps,
                "channel_stopped": report.channel_stopped,
            }
            for report in reports
        ],
    }


def _run_comparison_matrix(params: dict, seed: int, backend: str,
                           checkpoint_dir) -> dict:
    from ..channels.comparison import (
        ALL_CHANNELS,
        CHANNELS_BY_NAME,
        comparison_matrix,
    )
    from ..channels.scenarios import SCENARIOS, scenario_by_key

    del checkpoint_dir
    names = params.get("channels")
    if names is None:
        channels = ALL_CHANNELS
    else:
        unknown = sorted(set(names) - set(CHANNELS_BY_NAME))
        if unknown:
            raise ServiceError(
                f"unknown channels {unknown}; servable: "
                f"{sorted(CHANNELS_BY_NAME)}"
            )
        channels = tuple(CHANNELS_BY_NAME[name] for name in names)
    keys = params.get("scenarios")
    scenarios = (
        SCENARIOS if keys is None
        else tuple(scenario_by_key(key) for key in keys)
    )
    cells = comparison_matrix(
        bits=int(params.get("bits", 24)),
        seed=seed,
        channels=channels,
        scenarios=scenarios,
        backend=backend,
    )
    return {
        "cells": [
            {
                "channel": cell.channel,
                "scenario": cell.scenario,
                "functional": cell.functional,
                "error_rate": cell.error_rate,
                "note": cell.note,
            }
            for cell in cells
        ],
    }


EXPERIMENTS: dict[str, ExperimentRunner] = {}


def register_experiment(runner: ExperimentRunner) -> ExperimentRunner:
    """Add (or replace) a servable experiment.

    Module-level registration keeps runners picklable and lets tests
    plug in synthetic experiments (flaky ones, slow ones) without
    touching the real registry entries.
    """
    EXPERIMENTS[runner.name] = runner
    return runner


register_experiment(ExperimentRunner(
    name="capacity_sweep",
    run=_run_capacity_sweep,
    param_names=frozenset({"intervals_ms", "bits", "cross_processor"}),
    supports_checkpoint=True,
))
register_experiment(ExperimentRunner(
    name="measure_capacity",
    run=_run_measure_capacity,
    param_names=frozenset({"interval_ms", "bits", "cross_processor"}),
))
register_experiment(ExperimentRunner(
    name="mean_error_over_seeds",
    run=_run_mean_error,
    param_names=frozenset(
        {"interval_ms", "bits", "seeds", "cross_processor"}
    ),
))
register_experiment(ExperimentRunner(
    name="evaluate_defenses",
    run=_run_evaluate_defenses,
    param_names=frozenset({"bits", "defenses"}),
    supports_checkpoint=True,
))
register_experiment(ExperimentRunner(
    name="comparison_matrix",
    run=_run_comparison_matrix,
    param_names=frozenset({"bits", "channels", "scenarios"}),
))


def validate_spec(spec: JobSpec) -> ExperimentRunner:
    """Check a spec names a known experiment with known params."""
    spec.validate()
    runner = EXPERIMENTS.get(spec.experiment)
    if runner is None:
        raise ServiceError(
            f"unknown experiment {spec.experiment!r}; servable: "
            f"{sorted(EXPERIMENTS)}"
        )
    unknown = sorted(set(spec.params) - runner.param_names)
    if unknown:
        raise ServiceError(
            f"experiment {spec.experiment!r} does not take params "
            f"{unknown}; accepted: {sorted(runner.param_names)}"
        )
    spec.resolved_backend()  # raises ConfigError on a bad backend
    return runner


def run_job(spec: JobSpec, *, checkpoint_dir=None) -> dict:
    """Execute one job spec to its JSON-able result payload."""
    runner = validate_spec(spec)
    return runner.run(
        spec.params, spec.seed, spec.resolved_backend(),
        checkpoint_dir if runner.supports_checkpoint else None,
    )


def execute_instrumented(wire_spec: dict,
                         checkpoint_dir=None) -> tuple[dict, dict]:
    """Worker-side entry: run a wire spec under a fresh registry.

    Returns ``(payload, deterministic_snapshot)`` so the scheduler can
    merge the job's simulator metrics into the daemon's registry —
    mirroring how :func:`repro.engine.parallel.run_trials` aggregates
    per-trial registries.  Module-level and wire-typed, so it works
    from thread and process executors alike.
    """
    spec = spec_from_wire(wire_spec)
    registry = MetricsRegistry()
    with using(registry):
        payload = run_job(spec, checkpoint_dir=checkpoint_dir)
    return payload, registry.deterministic_snapshot()


def sweep_from_payload(payload: dict):
    """Decode a served ``capacity_sweep`` payload back to a
    :class:`~repro.core.evaluation.SweepResult` (bit-identical to the
    direct call's return value)."""
    from ..core.evaluation import CapacityPoint, SweepResult

    return SweepResult(points=tuple(
        CapacityPoint(
            interval_ms=point["interval_ms"],
            raw_rate_bps=point["raw_rate_bps"],
            error_rate=point["error_rate"],
            capacity_bps=point["capacity_bps"],
            bits=point["bits"],
        )
        for point in payload["points"]
    ))


def comparison_cells_from_payload(payload: dict):
    """Decode a served ``comparison_matrix`` payload back to
    :class:`~repro.channels.comparison.ComparisonCell` records
    (bit-identical to the direct call's return value)."""
    from ..channels.comparison import ComparisonCell

    return [
        ComparisonCell(
            channel=cell["channel"],
            scenario=cell["scenario"],
            functional=cell["functional"],
            error_rate=cell["error_rate"],
            note=cell["note"],
        )
        for cell in payload["cells"]
    ]
