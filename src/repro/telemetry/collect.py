"""Harvesting: fold a finished run's counters into a registry.

Instrumented layers keep cheap always-on integer counters; nothing in
the hot paths touches the registry.  At teardown (``System.stop()``,
``UFVariationChannel.shutdown()``) these functions read the counters
and fold them into the ambient registry under stable dotted names:

=========================  ==================================================
``engine.*``               events scheduled/fired/cancelled, compactions,
                           simulated nanoseconds
``ufs.*``                  PMU evaluations, frequency steps, stall/turbo
                           pins, decrease vetoes, frequency histogram
``cache.*``                loads by service level, clflushes
``noc.*``                  flows, rate updates, contention/hop queries
``channel.*``              transmissions, bits, errors, sync waits,
                           retransmissions, latency histogram
=========================  ==================================================

Harvesting is read-only — it never mutates the platform — so results
stay bit-identical with telemetry on or off.
"""

from __future__ import annotations

from ..config import UfsConfig
from .registry import MetricsRegistry

__all__ = [
    "FREQ_EDGES_MHZ",
    "LATENCY_EDGES",
    "harvest_channel",
    "harvest_engine",
    "harvest_socket",
    "harvest_system",
]

#: Fixed bucket edges (TSC cycles) for the receiver's LLC latency
#: distribution — spanning the Figure 8 range of ~50-100 cycles.
LATENCY_EDGES: tuple[float, ...] = (
    45.0, 55.0, 65.0, 75.0, 85.0, 95.0, 110.0
)

#: The ``ufs.freq_mhz`` bucket edges: the default UFS operating points,
#: for every platform.  A run over several platforms (the §6.1
#: restricted range, fuzzed platforms) then folds into one histogram;
#: a frequency between or beyond these points counts in the next bucket
#: up.
FREQ_EDGES_MHZ = tuple(float(f) for f in UfsConfig().frequency_points_mhz)


def harvest_engine(engine, registry: MetricsRegistry) -> None:
    """Fold one event engine's lifetime counters into ``registry``."""
    registry.inc("engine.events_scheduled", engine.events_scheduled)
    registry.inc("engine.events_fired", engine.events_fired)
    registry.inc("engine.events_cancelled", engine.events_cancelled)
    registry.inc("engine.compactions", engine.compactions)
    registry.inc("engine.simulated_ns", engine.now)


def harvest_socket(socket, registry: MetricsRegistry) -> None:
    """Fold one socket's PMU, cache and interconnect counters."""
    pmu = socket.pmu
    registry.inc("ufs.evaluations", pmu.evaluations)
    registry.inc("ufs.freq_steps", pmu.timeline.change_count)
    registry.inc("ufs.turbo_pins", pmu.turbo_pins)
    registry.inc("ufs.stall_pins", pmu.stall_pins)
    registry.inc("ufs.decrease_vetoes", pmu.decrease_vetoes)
    # One observation per piecewise-constant segment the frequency
    # actually held.
    hist = registry.histogram("ufs.freq_mhz", FREQ_EDGES_MHZ)
    for _start, _end, freq_mhz in pmu.timeline.segments(
        0, socket.engine.now
    ):
        hist.observe(float(freq_mhz))

    stats = socket.hierarchy.stats
    registry.inc("cache.loads", stats.loads)
    registry.inc("cache.l1_hits", stats.l1_hits)
    registry.inc("cache.l2_hits", stats.l2_hits)
    registry.inc("cache.llc_hits", stats.llc_hits)
    registry.inc("cache.remote_hits", stats.remote_hits)
    registry.inc("cache.dram_fills", stats.dram_fills)
    registry.inc("cache.clflushes", stats.clflushes)

    contention = socket.contention
    registry.inc("noc.flows_registered", contention.flows_registered)
    registry.inc("noc.rate_updates", contention.rate_updates)
    registry.inc("noc.contention_queries",
                 contention.contention_queries)
    mesh = socket.mesh
    registry.inc("noc.hop_queries", mesh.hop_queries)
    registry.inc("noc.hops_traversed", mesh.hops_traversed)
    registry.inc("noc.route_queries", mesh.route_queries)


def harvest_system(system, registry: MetricsRegistry) -> None:
    """Fold a whole platform (engine + every socket) into ``registry``."""
    harvest_engine(system.engine, registry)
    for socket in system.sockets:
        harvest_socket(socket, registry)


def harvest_channel(channel, registry: MetricsRegistry) -> None:
    """Fold one UF-variation channel's endpoint counters."""
    registry.inc("channel.transmissions", channel.transmissions)
    registry.inc("channel.bits_sent", channel.bits_sent)
    registry.inc("channel.bit_errors", channel.bit_errors)
    registry.inc("channel.sync_waits", channel.sync_waits)
    registry.inc("channel.retransmissions", channel.retransmissions)
    hist = registry.histogram("channel.latency_cycles", LATENCY_EDGES)
    for observation in channel.receiver.observations:
        hist.observe(observation.t1_cycles)
        hist.observe(observation.t2_cycles)
