"""Observability for the simulated platform.

A zero-dependency metrics layer threaded through the hot subsystems:

* :mod:`repro.telemetry.registry` — counters and fixed-edge
  histograms with deterministic snapshot/merge;
* :mod:`repro.telemetry.context` — the ambient "active registry" that
  makes telemetry opt-in (no registry active, no collection);
* :mod:`repro.telemetry.collect` — harvest functions that fold a
  finished system/channel's counters into the active registry;
* :mod:`repro.telemetry.manifest` — the per-run JSON manifest the CLI
  emits via ``--telemetry PATH`` / ``--json``.

Typical use::

    from repro.telemetry import MetricsRegistry, using
    from repro.core.evaluation import capacity_sweep

    registry = MetricsRegistry()
    with using(registry):
        sweep = capacity_sweep(bits=40)
    print(registry.snapshot()["counters"]["engine.events_fired"])

Telemetry is strictly observational: results are bit-identical with a
registry active or not, for any worker count.
"""

from .collect import (
    LATENCY_EDGES,
    harvest_channel,
    harvest_engine,
    harvest_socket,
    harvest_system,
)
from .context import activate, active_registry, deactivate, using
from .manifest import (
    RunManifest,
    build_manifest,
    config_digest,
)
from .registry import Counter, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Histogram",
    "LATENCY_EDGES",
    "MetricsRegistry",
    "RunManifest",
    "activate",
    "active_registry",
    "build_manifest",
    "config_digest",
    "deactivate",
    "harvest_channel",
    "harvest_engine",
    "harvest_socket",
    "harvest_system",
    "using",
]
