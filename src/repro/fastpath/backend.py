"""The one backend switch for the experiment runners.

The capacity and defense experiments run on three simulators:

* ``"des"`` — the event-driven reference simulator (the default; every
  other backend is validated against it);
* ``"batch"`` — the batch lattice simulator
  (:mod:`repro.fastpath.batch`), bit-identical to DES on the supported
  experiment shapes at a fraction of the wall-clock;
* ``"analytical"`` — the closed-form capacity/error estimator
  (:mod:`repro.fastpath.analytical`), statistically matched to DES.

Every backend answers the same plain-data requests
(:class:`CapacityRequest`, :class:`DefenseRequest`) through a runner
``runner(requests) -> results``, one result per request, in order.
:func:`runner_for` is the one place that maps a request kind and a
backend name to a runner; :func:`run_requests` is the one way a sweep
fans its requests out.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..config import PlatformConfig
from ..core.sender import SenderMode
from ..engine.parallel import (
    Trial,
    require_complete,
    resolve_workers,
    run_batches,
    run_trials,
)
from ..errors import ConfigError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CapacityRequest",
    "DefenseRequest",
    "check_backend",
    "run_requests",
    "runner_for",
]

#: Every accepted ``backend=`` spelling.
BACKENDS = ("des", "batch", "analytical")

DEFAULT_BACKEND = "des"


def _check_bits(bits: int) -> None:
    """A point needs at least one measured bit, on any backend."""
    if bits < 1:
        raise ConfigError(f"need at least one bit per point, got {bits}")


@dataclass(frozen=True)
class CapacityRequest:
    """One ``measure_capacity`` call, as plain data.

    Field for field the keyword surface of
    :func:`repro.core.evaluation.measure_capacity`; a backend consumes a
    sequence of these and returns one
    :class:`~repro.core.evaluation.CapacityPoint` per request.
    ``interval_ms`` is carried exactly as the caller passed it because
    the payload seed label interpolates the raw value.
    """

    interval_ms: float
    bits: int = 120
    cross_processor: bool = False
    seed: int = 0
    platform: PlatformConfig | None = None
    sender_mode: SenderMode = SenderMode.STALL

    def __post_init__(self) -> None:
        _check_bits(self.bits)


@dataclass(frozen=True)
class DefenseRequest:
    """One ``channel_under_defense`` call, as plain data."""

    defense: str
    bits: int = 80
    interval_ms: float = 38.0
    seed: int = 0
    platform: PlatformConfig | None = None

    def __post_init__(self) -> None:
        _check_bits(self.bits)


#: ``(module, attribute)`` of the runner for each request kind on each
#: backend.  Looked up by name on every call, so a runner rebound on its
#: module (a profiler's wrapper, a test's fault injector) is the one
#: that runs.
_RUNNERS: dict[type, dict[str, tuple[str, str]]] = {
    CapacityRequest: {
        "des": ("repro.core.evaluation", "des_capacity_points"),
        "batch": ("repro.fastpath.batch", "batch_capacity_points"),
        "analytical": ("repro.fastpath.analytical",
                       "analytical_capacity_points"),
    },
    DefenseRequest: {
        "des": ("repro.defenses.evaluation", "des_defense_reports"),
        "batch": ("repro.fastpath.batch", "batch_defense_reports"),
        "analytical": ("repro.fastpath.analytical",
                       "analytical_defense_reports"),
    },
}


def check_backend(backend: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``backend`` is in
    :data:`BACKENDS` — a typo silently running the wrong simulator
    would be far worse."""
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}: choose one of "
            f"{', '.join(BACKENDS)}"
        )


def runner_for(kind: type, backend: str) -> Callable[[Sequence], list]:
    """The runner answering requests of type ``kind`` on ``backend``."""
    check_backend(backend)
    module, name = _RUNNERS[kind][backend]
    return getattr(importlib.import_module(module), name)


def _answer(*, runner: Callable[[Sequence], list], request: Any,
            seed: int) -> Any:
    """One DES trial: ``runner`` on a single request.

    ``seed`` repeats ``request.seed`` as a top-level kwarg, where
    :class:`~repro.engine.parallel.TrialFailure` and the retry backoff
    read a trial's seed.
    """
    del seed
    return runner([request])[0]


def run_requests(requests: Sequence[CapacityRequest | DefenseRequest],
                 backend: str = DEFAULT_BACKEND, *,
                 workers: int | None = 1,
                 labels: Sequence[str] | None = None,
                 checkpoint=None,
                 retry=None) -> list[Any]:
    """Answer every request on ``backend``, in request order.

    ``"des"`` runs one :class:`~repro.engine.parallel.Trial` per request
    through :func:`~repro.engine.parallel.run_trials`, so ``retry`` (a
    :class:`~repro.resilience.retry.RetryPolicy`) re-runs each request
    on its own, and a request still failed after its attempts raises
    :class:`~repro.errors.ResilienceError` naming its label and seed.
    The vectorized backends run their runner over contiguous chunks
    through :func:`~repro.engine.parallel.run_batches`, each chunk once.
    Either way ``labels`` name the requests for a ``checkpoint`` (a
    :class:`~repro.resilience.checkpoint.Checkpoint`, which records
    every completed request and skips the ones it already holds), and
    the results are bit-identical for every ``workers``.
    """
    requests = list(requests)
    check_backend(backend)
    resolve_workers(workers)
    if not requests:
        return []
    runner = runner_for(type(requests[0]), backend)
    if backend != "des":
        return run_batches(requests, runner, workers=workers,
                           labels=labels, checkpoint=checkpoint)
    if labels is None:
        labels = [None] * len(requests)
    trials = [
        Trial(_answer, dict(runner=runner, request=request,
                            seed=request.seed), label=label)
        for request, label in zip(requests, labels, strict=True)
    ]
    results = run_trials(trials, workers=workers, retry=retry,
                         checkpoint=checkpoint)
    require_complete(results, "DES run")
    return results
