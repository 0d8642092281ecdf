"""Periodic tasks on top of the event engine.

The UFS power-management unit is the canonical user: it re-evaluates the
socket every ~10 ms (Section 3.3).  A :class:`PeriodicTask` reschedules
itself after each firing and supports an optional phase offset so the two
sockets' PMUs can tick out of step, reproducing the 10 ms follower lag of
Figure 7.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import SchedulingError
from .simulator import Engine, Event


class PeriodicTask:
    """Re-arms a callback every ``period_ns`` until stopped."""

    def __init__(
        self,
        engine: Engine,
        period_ns: int,
        callback: Callable[[], None],
        *,
        phase_ns: int = 0,
        name: str = "periodic",
    ) -> None:
        if period_ns <= 0:
            raise SchedulingError(f"{name}: period must be positive")
        if phase_ns < 0:
            raise SchedulingError(f"{name}: phase must be non-negative")
        self._engine = engine
        self._period_ns = period_ns
        self._callback = callback
        self._name = name
        self._running = True
        self._fire_count = 0
        self._event: Event = engine.schedule(phase_ns or period_ns,
                                             self._fire)

    @property
    def fire_count(self) -> int:
        """How many times the callback has run."""
        return self._fire_count

    @property
    def running(self) -> bool:
        return self._running

    def _fire(self) -> None:
        if not self._running:
            return
        self._fire_count += 1
        self._callback()
        if self._running:
            # Fast path: the handle that just fired is re-armed in place
            # (Engine.reschedule), so a steady periodic tick allocates no
            # Event objects after the first firing.
            self._engine.reschedule(self._event, self._period_ns)

    def stop(self) -> None:
        """Stop firing.  Safe to call from inside the callback."""
        self._running = False
        self._event.cancel()

    def next_fire_time(self) -> int:
        """Absolute time of the next scheduled firing."""
        if not self._running:
            raise SchedulingError(f"{self._name} is stopped")
        return self._event.time_ns
