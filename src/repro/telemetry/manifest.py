"""Run manifests: one machine-readable record per experiment run.

A manifest answers "what ran, with what configuration, and what did it
cost": experiment name, seed, worker count, a digest of the platform
configuration, wall time, total simulated time and the full metric
snapshot.  The CLI writes one JSONL record per run via
:func:`repro.analysis.export.write_manifest` (``--telemetry PATH``) and
prints the same record in ``--json`` mode.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .registry import MetricsRegistry

__all__ = [
    "RunManifest",
    "build_manifest",
    "config_digest",
]


def config_digest(config, *, backend: str | None = None) -> str | None:
    """A short stable digest of a (frozen, repr-stable) configuration.

    Frozen dataclasses repr deterministically, so two runs share a
    digest exactly when they share a platform configuration.

    ``backend`` folds the simulation backend into the digest so results
    produced by different simulators never share a content address (an
    ``"analytical"`` estimate must not be resumed as a DES
    measurement).  ``None`` and ``"des"`` are the *same* identity — the
    reference simulator — so a digest computed without the keyword is
    byte-for-byte what it always was and pre-backend checkpoints and
    trace corpora stay valid.
    """
    if backend in (None, "des"):
        if config is None:
            return None
        material = repr(config)
    else:
        material = f"{backend}:{repr(config) if config is not None else ''}"
    return hashlib.sha256(material.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """The machine-readable record of one experiment run."""

    experiment: str
    seed: int | None
    workers: int | None
    config_digest: str | None
    wall_time_s: float
    simulated_ns: int
    metrics: dict
    results: object = None
    #: Which simulator produced the results (``"des"``, ``"batch"``,
    #: ``"analytical"``); ``None`` on records written before backends
    #: existed.
    backend: str | None = None
    #: The ``repro`` package version that produced this record
    #: (single-sourced from :mod:`repro._version`); ``None`` on records
    #: written before versions were stamped.
    version: str | None = None


def build_manifest(
    experiment: str,
    *,
    registry: MetricsRegistry,
    seed: int | None = None,
    workers: int | None = None,
    platform=None,
    wall_time_s: float = 0.0,
    results=None,
    backend: str | None = None,
) -> RunManifest:
    """Assemble a manifest from a finished run's registry.

    ``simulated_ns`` is read from the ``engine.simulated_ns`` counter —
    harvested at each ``System.stop()`` and summed across trials, it is
    the total simulated time the run consumed across all systems.
    """
    from .._version import __version__

    snapshot = registry.snapshot()
    simulated_ns = int(
        snapshot["counters"].get("engine.simulated_ns", 0)
    )
    return RunManifest(
        experiment=experiment,
        seed=seed,
        workers=workers,
        config_digest=config_digest(platform),
        wall_time_s=wall_time_s,
        simulated_ns=simulated_ns,
        metrics=snapshot,
        results=results,
        backend=backend,
        version=__version__,
    )
