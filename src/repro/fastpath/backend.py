"""Backend selection for the experiment runners.

Every experiment runner historically *was* the discrete-event simulator:
``measure_capacity`` built a :class:`~repro.platform.system.System`,
deployed a channel and ran the engine.  The fastpath package splits
"what experiment" from "which simulator":

* ``"des"`` — the event-driven reference simulator (the default; every
  other backend is validated against it);
* ``"batch"`` — the batch lattice simulator
  (:mod:`repro.fastpath.batch`), bit-identical to DES on the supported
  experiment shapes at a fraction of the wall-clock;
* ``"analytical"`` — the closed-form capacity/error estimator
  (:mod:`repro.fastpath.analytical`), statistically matched to DES;
* ``"auto"`` — resolve per experiment: vectorizable sweeps take the
  batch backend, everything else falls back to DES.

Callers pass ``backend=``; ``None`` defers to the
``REPRO_BACKEND`` environment variable and then to ``"des"``, mirroring
how ``REPRO_WORKERS`` feeds the parallel runner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..config import PlatformConfig
from ..core.sender import SenderMode
from ..errors import ConfigError

__all__ = [
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "BATCHABLE_EXPERIMENTS",
    "DEFAULT_BACKEND",
    "CapacityRequest",
    "DefenseRequest",
    "resolve_backend",
]

#: Every accepted ``backend=`` spelling.  ``"auto"`` is resolved to one
#: of the other three before any work happens.
BACKENDS = ("des", "batch", "analytical", "auto")

DEFAULT_BACKEND = "des"

#: Environment override consulted when ``backend=None`` everywhere,
#: mirroring the ``REPRO_WORKERS`` convention of the parallel runner.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Experiment names the vectorized backends can run end to end.  The
#: ``"auto"`` heuristic sends these to the batch backend; everything
#: else (channel comparison matrix, fingerprinting, traces with custom
#: workloads) keeps the full DES.
BATCHABLE_EXPERIMENTS = frozenset({
    "measure_capacity",
    "capacity_sweep",
    "mean_error_over_seeds",
    "channel_under_defense",
    "evaluate_defenses",
})


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


@dataclass(frozen=True)
class DefenseRequest:
    """One ``channel_under_defense`` call, as plain data."""

    defense: str
    bits: int = 80
    interval_ms: float = 38.0
    seed: int = 0
    platform: PlatformConfig | None = None


def resolve_backend(backend: str | None = None, *,
                    experiment: str | None = None) -> str:
    """Normalise a backend request to a concrete backend name.

    ``None`` falls back to ``$REPRO_BACKEND`` and then to ``"des"``
    (an empty/blank variable counts as unset).  ``"auto"`` resolves per
    experiment: members of :data:`BATCHABLE_EXPERIMENTS` go to
    ``"batch"``, everything else to ``"des"``.  Anything not in
    :data:`BACKENDS` raises :class:`~repro.errors.ConfigError` — a typo
    silently running the wrong simulator would be far worse.
    """
    if backend is None:
        raw = os.environ.get(BACKEND_ENV_VAR, "").strip()
        backend = raw if raw else DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}: choose one of "
            f"{', '.join(BACKENDS)} (or set ${BACKEND_ENV_VAR})"
        )
    if backend == "auto":
        return (
            "batch" if experiment in BATCHABLE_EXPERIMENTS else "des"
        )
    return backend
