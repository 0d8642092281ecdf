"""Core-side modulation mechanisms layered on the UFS control loop.

The paper treats uncore frequency scaling as one member of a family of
frequency/power covert channels; this module models the three siblings
named in PAPERS.md so the repo can compare them under the same Table 3
scenarios:

* :class:`TurboController` — per-core Turbo Boost bins driven by the
  active-core count (Gross et al., "TurboCC: A Practical
  Frequency-Based Covert Channel Using Intel Turbo Boost",
  https://arxiv.org/pdf/2007.07046).
* :class:`CurrentThrottleController` — the current-excursion throttle
  state machine with multi-level hysteresis (Haj-Yahya et al.,
  "IChannels: Exploiting Current Management Mechanisms to Create
  Covert Channels in Modern Processors",
  https://arxiv.org/pdf/2106.05050).
* :class:`DutyCycleModulator` — IA32_CLOCK_MODULATION-style T-state
  duty cycling on a ``k/16`` grid (the software-controlled clock
  modulation channel of https://arxiv.org/pdf/2404.05823).

All three are :class:`~repro.engine.PeriodicTask`-driven, like
:class:`~repro.power.ufs.UfsPmu`, but deliberately do *not* write core
P-states or touch the uncore: they publish a multiplier/ceiling that
timing loops read.  That keeps the UFS golden traces bit-identical —
the layer is opt-in, created lazily by ``Socket.modulation``, and a
default run never instantiates it.

Unlike the PMU (whose snapshots are opt-in via ``keep_snapshots``),
these controllers always record: they exist only when an experiment or
the fuzzer asked for them, their tick counts are small, and the
validation oracles need the full history.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ClockModulationConfig, CurrentLimitConfig, TurboConfig
from ..cpu.core import Core
from ..engine import Engine, PeriodicTask
from ..errors import ConfigError

__all__ = [
    "CurrentThrottleController",
    "DutyCycleModulator",
    "DutySnapshot",
    "ModulationUnit",
    "ThrottleSnapshot",
    "TurboController",
    "TurboSnapshot",
]


@dataclass(frozen=True)
class TurboSnapshot:
    """What the turbo controller saw in one evaluation (for oracles)."""

    time_ns: int
    active_cores: int
    turbo_mhz: int


@dataclass(frozen=True)
class ThrottleSnapshot:
    """One current-limit evaluation: the draw it saw, the state it kept."""

    time_ns: int
    draw: float
    state: int


@dataclass(frozen=True)
class DutySnapshot:
    """One duty-cycle window boundary and the level in force after it."""

    time_ns: int
    duty_steps: int
    effective_mhz: float


class TurboController:
    """The package turbo ceiling, stepped between published bins.

    Every evaluation period the controller counts the socket's active
    cores and moves the shared ceiling to the bin for that count —
    fewer active cores, higher boost.  The ceiling is what a receiver's
    timed arithmetic observes (TurboCC, arxiv 2007.07046): parking or
    waking helper cores on the *same package* modulates everyone's
    clock.
    """

    def __init__(
        self,
        *,
        socket_id: int,
        engine: Engine,
        cores: list[Core],
        config: TurboConfig,
    ) -> None:
        config.validate()
        self.socket_id = socket_id
        self.engine = engine
        self.cores = cores
        self.config = config
        self.evaluations = 0
        self.snapshots: list[TurboSnapshot] = []
        self._ceiling_mhz = config.bin_mhz(0)
        self._task = PeriodicTask(
            engine,
            config.period_ns,
            self._evaluate,
            name=f"turbo-{socket_id}",
        )

    @property
    def ceiling_mhz(self) -> int:
        """The turbo ceiling a timed loop runs against right now."""
        return self._ceiling_mhz

    def stop(self) -> None:
        """Halt periodic evaluation (end of experiment)."""
        self._task.stop()

    def _evaluate(self) -> None:
        now = self.engine.now
        active = sum(1 for core in self.cores if core.is_active(now))
        self._ceiling_mhz = self.config.bin_mhz(active)
        self.evaluations += 1
        self.snapshots.append(
            TurboSnapshot(
                time_ns=now,
                active_cores=active,
                turbo_mhz=self._ceiling_mhz,
            )
        )


class CurrentThrottleController:
    """The package current-limit state machine (IChannels).

    All cores share one voltage regulator; the controller integrates
    the package's current draw (summed ``power_weight`` of the active
    cores' profiles) each period and walks a three-level throttle
    ladder — 0 none, 1 soft, 2 hard.  Transitions move ONE level at a
    time and only after the dwell time has elapsed in the current
    level: the hysteresis that keeps the regulator out of limit cycles
    is exactly what gives the channel its slow, reliable symbol clock
    (arxiv 2106.05050, Section 4).
    """

    def __init__(
        self,
        *,
        socket_id: int,
        engine: Engine,
        cores: list[Core],
        config: CurrentLimitConfig,
    ) -> None:
        config.validate()
        self.socket_id = socket_id
        self.engine = engine
        self.cores = cores
        self.config = config
        self.evaluations = 0
        self.state = 0
        self._entered_ns = engine.now
        self.transitions: list[tuple[int, int]] = [(engine.now, 0)]
        self.snapshots: list[ThrottleSnapshot] = []
        self._task = PeriodicTask(
            engine,
            config.period_ns,
            self._evaluate,
            name=f"current-{socket_id}",
        )

    @property
    def factor(self) -> float:
        """The instruction-throughput multiplier of the current state."""
        return self.config.throttle_factors[self.state]

    def stop(self) -> None:
        """Halt periodic evaluation (end of experiment)."""
        self._task.stop()

    def _draw(self, now: int) -> float:
        draw = 0.0
        for core in self.cores:
            profile = core.profile_at(now)
            if profile.active:
                draw += profile.power_weight
        return draw

    def _evaluate(self) -> None:
        now = self.engine.now
        draw = self._draw(now)
        if draw >= self.config.hard_threshold:
            desired = 2
        elif draw >= self.config.soft_threshold:
            desired = 1
        else:
            desired = 0
        if (
            desired != self.state
            and now - self._entered_ns >= self.config.dwell_ns
        ):
            self.state += 1 if desired > self.state else -1
            self._entered_ns = now
            self.transitions.append((now, self.state))
        self.evaluations += 1
        self.snapshots.append(
            ThrottleSnapshot(time_ns=now, draw=draw, state=self.state)
        )


class DutyCycleModulator:
    """Software-controlled clock modulation for one package.

    The duty level is a ``k / duty_steps`` fraction of the base clock
    (6.25 % steps on real IA32_CLOCK_MODULATION hardware); requests
    take effect at the next window boundary, never mid-window — the
    gating pattern is fixed for a whole window, which quantises the
    channel's symbol clock to the window period
    (arxiv 2404.05823).
    """

    def __init__(
        self,
        *,
        socket_id: int,
        engine: Engine,
        config: ClockModulationConfig,
        base_freq_mhz: int,
    ) -> None:
        config.validate()
        self.socket_id = socket_id
        self.engine = engine
        self.config = config
        self.base_freq_mhz = base_freq_mhz
        self.windows = 0
        self._duty = config.duty_steps
        self._pending = config.duty_steps
        self.records: list[DutySnapshot] = [self._snapshot(engine.now)]
        self._task = PeriodicTask(
            engine,
            config.window_ns,
            self._window_boundary,
            name=f"clockmod-{socket_id}",
        )

    @property
    def duty_steps(self) -> int:
        """The duty level currently in force (``k`` of ``k/steps``)."""
        return self._duty

    @property
    def duty_fraction(self) -> float:
        """Fraction of cycles not gated off this window."""
        return self._duty / self.config.duty_steps

    @property
    def effective_mhz(self) -> float:
        """Base clock scaled by the in-force duty level."""
        return self.config.effective_mhz(self.base_freq_mhz, self._duty)

    def set_duty(self, duty_steps: int) -> None:
        """Request a duty level; applied at the next window boundary."""
        if not self.config.min_duty_steps <= duty_steps \
                <= self.config.duty_steps:
            raise ConfigError(
                f"duty level {duty_steps} outside the "
                f"[{self.config.min_duty_steps}, "
                f"{self.config.duty_steps}] grid"
            )
        self._pending = duty_steps

    def stop(self) -> None:
        """Halt window ticks (end of experiment)."""
        self._task.stop()

    def _snapshot(self, now: int) -> DutySnapshot:
        return DutySnapshot(
            time_ns=now,
            duty_steps=self._duty,
            effective_mhz=self.config.effective_mhz(
                self.base_freq_mhz, self._duty
            ),
        )

    def _window_boundary(self) -> None:
        self.windows += 1
        if self._pending != self._duty:
            self._duty = self._pending
            self.records.append(self._snapshot(self.engine.now))


class ModulationUnit:
    """One socket's bundle of the three modulation controllers.

    Created lazily by ``Socket.modulation`` so default runs (and every
    golden UFS trace) never schedule a modulation tick; once created,
    :meth:`stop` halts all three at experiment teardown.
    """

    def __init__(
        self,
        *,
        socket_id: int,
        engine: Engine,
        cores: list[Core],
        turbo_config: TurboConfig,
        current_config: CurrentLimitConfig,
        clockmod_config: ClockModulationConfig,
        base_freq_mhz: int,
    ) -> None:
        self.socket_id = socket_id
        self.turbo = TurboController(
            socket_id=socket_id,
            engine=engine,
            cores=cores,
            config=turbo_config,
        )
        self.current = CurrentThrottleController(
            socket_id=socket_id,
            engine=engine,
            cores=cores,
            config=current_config,
        )
        self.clockmod = DutyCycleModulator(
            socket_id=socket_id,
            engine=engine,
            config=clockmod_config,
            base_freq_mhz=base_freq_mhz,
        )

    def stop(self) -> None:
        """Halt all three controllers (end of experiment)."""
        self.turbo.stop()
        self.current.stop()
        self.clockmod.stop()
