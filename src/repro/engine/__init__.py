"""Discrete-event simulation engine.

A minimal, deterministic event loop: integer-nanosecond time, a binary
heap of callbacks, stable FIFO ordering for simultaneous events, and
helpers for periodic tasks (the UFS PMU tick, activity samplers).
:mod:`.parallel` adds a deterministic multi-process trial runner on
top, for experiments made of independent seeded runs.
"""

from .parallel import (
    Trial,
    TrialFailure,
    resolve_workers,
    run_trials,
)
from .periodic import PeriodicTask
from .simulator import Engine, Event

__all__ = [
    "Engine",
    "Event",
    "PeriodicTask",
    "Trial",
    "TrialFailure",
    "resolve_workers",
    "run_trials",
]
