"""repro — a full reproduction of *Uncore Encore: Covert Channels
Exploiting Uncore Frequency Scaling* (Guo, Cao, Xin, Zhang, Yang;
MICRO 2023) on a simulated dual-socket Skylake-SP platform.

Quick start::

    from repro import System, UFVariationChannel, ChannelConfig
    from repro.units import ms

    system = System(seed=7)
    channel = UFVariationChannel(
        system, config=ChannelConfig(interval_ns=ms(38))
    )
    result = channel.transmit([1, 1, 0, 1, 0, 0, 1, 0, 1, 1])
    print(result.received, result.error_rate, result.capacity_bps)

Layer map (bottom up):

* :mod:`repro.engine` — deterministic discrete-event simulation;
* :mod:`repro.mem`, :mod:`repro.cache`, :mod:`repro.noc`,
  :mod:`repro.cpu`, :mod:`repro.power` — the hardware substrates
  (memory, caches+directory, mesh/ring, cores/MSRs, UFS/PC-states);
* :mod:`repro.platform` — the assembled system and the unprivileged
  actor facade;
* :mod:`repro.workloads` — the paper's loops, stressors and victims;
* :mod:`repro.core` — **UF-variation**, the paper's contribution;
* :mod:`repro.channels` — ten prior covert channels and the Table 3
  comparison harness;
* :mod:`repro.sidechannel` — file-size profiling and website
  fingerprinting (Section 5);
* :mod:`repro.defenses` — the Section 6.1 countermeasures;
* :mod:`repro.analysis` — capacity math, statistics, table rendering;
* :mod:`repro.telemetry` — the observational metrics registry and run
  manifests;
* :mod:`repro.trace` — trace capture, the content-addressed corpus
  store and deterministic replay;
* :mod:`repro.validate` — the scenario fuzzer, invariant oracles and
  differential checks behind ``repro validate``;
* :mod:`repro.resilience` — retry policies, checkpoint/resume and the
  ``repro chaos`` fault matrix.

Import surface: this top-level package re-exports the working set —
the system (:class:`System`, :class:`PlatformConfig`,
:func:`default_platform_config`), the channel
(:class:`UFVariationChannel`, :class:`ChannelConfig`), the uniform
experiment API (:func:`capacity_sweep` → :class:`SweepResult`), the
telemetry registry (:class:`MetricsRegistry`) and the trace store
(:class:`TraceStore`).  Everything else lives one level down in its
layer module.
"""

from ._version import __version__
from .config import (
    PlatformConfig,
    default_platform_config,
    platform_summary,
    single_socket_config,
)
from .platform import Actor, SecurityConfig, System
from .core import (
    ChannelConfig,
    SenderMode,
    SweepResult,
    TransmissionResult,
    UFReceiver,
    UFSender,
    UFVariationChannel,
    UncoreFrequencyProbe,
    capacity_sweep,
    capacity_under_stress,
)
from .telemetry import MetricsRegistry
from .trace import TraceStore
from .resilience import Checkpoint, RetryPolicy
from .errors import (
    ChannelError,
    ConfigError,
    PrerequisiteError,
    PrivilegeError,
    ReproError,
    ResilienceError,
    TraceError,
    ValidationError,
)

__all__ = [
    "Actor",
    "ChannelConfig",
    "ChannelError",
    "Checkpoint",
    "ConfigError",
    "MetricsRegistry",
    "PlatformConfig",
    "PrerequisiteError",
    "PrivilegeError",
    "ReproError",
    "ResilienceError",
    "RetryPolicy",
    "SecurityConfig",
    "SenderMode",
    "SweepResult",
    "System",
    "TraceError",
    "TraceStore",
    "TransmissionResult",
    "UFReceiver",
    "UFSender",
    "UFVariationChannel",
    "UncoreFrequencyProbe",
    "ValidationError",
    "__version__",
    "capacity_sweep",
    "capacity_under_stress",
    "default_platform_config",
    "platform_summary",
    "single_socket_config",
]
