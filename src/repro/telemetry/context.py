"""The ambient telemetry registry.

Instrumented layers (the engine, the PMU, channels) harvest into
whatever registry is *active* when they tear down.  The active registry
is ambient rather than a threaded-through parameter so that telemetry
stays opt-in: with no registry activated, instrumented code pays only a
handful of integer increments and harvest becomes a no-op.

Activation is **per-thread**: each thread starts with no registry and
activates its own.  Parallel runners already follow this discipline —
their workers activate a fresh registry, run, and hand a snapshot back
to be merged — and per-thread storage keeps it sound for any
in-process threads too: two threads can neither harvest into each
other's registries nor clobber the restore of an overlapping
``using()`` block.

``using(registry)`` scopes activation; :func:`activate` /
:func:`deactivate` manage it imperatively (the CLI and the parallel
runner's worker shim use those).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .registry import MetricsRegistry

__all__ = ["activate", "active_registry", "deactivate", "using"]

_local = threading.local()


def active_registry() -> MetricsRegistry | None:
    """This thread's active registry, or ``None`` when telemetry is off."""
    return getattr(_local, "active", None)


def activate(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Make ``registry`` this thread's ambient registry; the previous one."""
    previous = getattr(_local, "active", None)
    _local.active = registry
    return previous


def deactivate() -> None:
    """Turn ambient telemetry off in this thread."""
    activate(None)


@contextmanager
def using(registry: MetricsRegistry):
    """Activate ``registry`` for the duration of a ``with`` block."""
    previous = activate(registry)
    try:
        yield registry
    finally:
        activate(previous)
