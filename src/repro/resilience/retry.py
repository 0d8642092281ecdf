"""Retry policies: error classification plus deterministic backoff.

A :class:`RetryPolicy` answers two questions for the parallel runner:

* *Is this exception worth retrying?*  Transient faults (worker death,
  I/O hiccups, OOM-killed children) are; deterministic bugs are not —
  a ``ValueError`` raised by a pure function of ``(seed, label)`` will
  raise again on every attempt, so retrying it only hides the bug.
* *How long to wait before the next attempt?*  Exponential backoff with
  jitter — but the jitter is **derived from the trial's seed and label**
  through the same :func:`~repro.rng.child_rng` scheme the simulator
  uses, so two runs of the same experiment back off identically and a
  retried trial stays a pure function of its inputs.

The trial itself is seeded, so re-running it after a transient fault
produces a bit-identical result; the policy only has to make sure the
*bookkeeping* around the re-run (sleep schedule, attempt counts) is
just as reproducible.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import ConfigError, ReproError
from ..rng import child_rng

__all__ = ["RetryPolicy", "TRANSIENT_ERRORS", "PERMANENT_ERRORS"]

#: Each retry waits this many times longer than the one before ...
BACKOFF_FACTOR = 2.0
#: ... up to this cap (seconds), before jitter.
MAX_BACKOFF_S = 1.0

#: Faults of the *environment*: a re-run can plausibly succeed.  (Any
#: exception outside :data:`PERMANENT_ERRORS` is retried; these are the
#: ones retrying is for.)
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    OSError,
    EOFError,
    ConnectionError,
    TimeoutError,
    InterruptedError,
    MemoryError,
    BrokenProcessPool,
)

#: Faults of the *code or inputs*: deterministic, so retrying is futile.
PERMANENT_ERRORS: tuple[type[BaseException], ...] = (
    ReproError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    AssertionError,
    ZeroDivisionError,
    NotImplementedError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a crashed trial, and how to wait.

    ``backoff_s(attempt)`` grows by :data:`BACKOFF_FACTOR` from
    ``base_backoff_s`` and is capped at :data:`MAX_BACKOFF_S`; the
    jitter factor (0.5x–1.5x) comes from
    ``child_rng(seed, f"{label}/retry-{attempt}")`` so the schedule is a
    pure function of the trial's identity.  Tests and benchmarks pass
    ``base_backoff_s=0.0`` to retry without sleeping.

    Classification: :data:`PERMANENT_ERRORS` wins over
    :data:`TRANSIENT_ERRORS` when both match (``ReproError`` et al. are
    never retried even though some subclass an ``OSError``-adjacent
    type); an exception matching neither tuple is treated as transient
    — an unknown crash in a worker is more often environmental than a
    latent determinism bug, and a futile retry costs one attempt while
    a skipped rescue costs the whole sweep.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.05

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_s < 0:
            raise ConfigError(
                f"base_backoff_s must be >= 0, got {self.base_backoff_s}"
            )

    def is_transient(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth retrying (permanent classes win)."""
        return not isinstance(exc, PERMANENT_ERRORS)

    def backoff_s(self, attempt: int, *, seed: int | None = None,
                  label: str | None = None) -> float:
        """Deterministic jittered delay before retry ``attempt`` (1-based).

        The same ``(seed, label, attempt)`` triple always yields the
        same delay, so a retried run's timing bookkeeping replays
        exactly.
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        base = min(self.base_backoff_s * BACKOFF_FACTOR ** (attempt - 1),
                   MAX_BACKOFF_S)
        if base <= 0.0:
            return 0.0
        rng = child_rng(seed if seed is not None else 0,
                        f"{label or 'trial'}/retry-{attempt}")
        return base * (0.5 + rng.random())

    def sleep(self, attempt: int, *, seed: int | None = None,
              label: str | None = None) -> float:
        """Sleep for the backoff delay; returns the duration slept."""
        delay = self.backoff_s(attempt, seed=seed, label=label)
        if delay > 0.0:
            time.sleep(delay)
        return delay
