"""Platform assembly: sockets, the full system, latency model, actors.

``System`` wires every substrate together: the event engine, physical
memory, per-socket cores + caches + mesh + UFS PMU + MSRs, and the
security configuration (defense toggles of Table 3).  ``Actor`` is the
facade an unprivileged process uses: its own address space, eviction
lists, timed loads and (where available) clflush/TSX.
"""

from .latency import LatencyModel
from .processor import Socket
from .actor import Actor, TimedLoad
from .system import SecurityConfig, System
from .tracing import frequency_trace

__all__ = [
    "Actor",
    "LatencyModel",
    "SecurityConfig",
    "Socket",
    "System",
    "TimedLoad",
    "frequency_trace",
]
