"""The shared experiment-context bundle.

Every public experiment runner accepts the same keyword quartet —
``platform=``, ``seed=``, ``workers=``, ``backend=`` — and bundles it
into one validated :class:`ExperimentContext` before doing any work, so
runner signatures stop drifting and a bad worker count or backend name
fails the same way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PlatformConfig
from ..errors import ConfigError

__all__ = ["ExperimentContext"]


@dataclass(frozen=True)
class ExperimentContext:
    """How an experiment runs: platform, seed, fan-out and simulator.

    * ``platform`` — the simulated hardware (``None`` = the paper's
      Table 1 dual-socket default);
    * ``seed`` — the experiment seed every trial's streams derive from;
    * ``workers`` — process fan-out for independent trials (``None``/
      ``0`` = all CPUs); never changes results, only wall time;
    * ``backend`` — which simulator runs the trials (``"des"``,
      ``"batch"``, ``"analytical"`` or ``"auto"``; ``None`` defers to
      ``$REPRO_BACKEND`` and then ``"des"``).  ``"batch"`` is
      bit-identical to ``"des"``; ``"analytical"`` trades exactness for
      instant closed-form estimates.
    """

    platform: PlatformConfig | None = None
    seed: int = 0
    workers: int | None = 1
    backend: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on a nonsensical context (runs on
        construction)."""
        if self.workers is not None and self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = all CPUs), got {self.workers}"
            )
        if self.backend is not None:
            from ..fastpath.backend import BACKENDS

            if self.backend not in BACKENDS:
                raise ConfigError(
                    f"unknown backend {self.backend!r}: choose one of "
                    f"{', '.join(BACKENDS)}"
                )
