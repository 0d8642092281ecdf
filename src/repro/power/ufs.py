"""The UFS power-management unit: Intel's control law, reconstructed.

Implements the behaviour summarised in Section 3.5 of the paper:

* The uncore has operating points in 100 MHz increments; the PMU checks
  the socket roughly every 10 ms and increases, decreases or maintains
  the frequency (Figures 5/6).
* The frequency follows uncore utilisation — both LLC access density
  and interconnect traffic (Figure 3).  LLC demand alone saturates at
  2.3 GHz; interconnect traffic is needed to reach 2.4 GHz.
* When strictly more than 1/3 of the *active* cores are stalled on
  memory, the uncore pins at the maximum frequency (Figure 4).
* Increases step once per evaluation period only when heading for the
  maximum frequency (heavy demand / stalled cores); light-demand
  targets are approached with slow stepping — "over 50 ms to change
  from 1.5 GHz to 1.6 GHz" (Section 4.3.1).  Decreases always step once
  per period (Figure 6).
* With active cores but no uncore demand, the frequency dithers between
  1.4 and 1.5 GHz (Section 3.1) — the paper's ``freq_min``.
* Sockets couple: a follower trails the fastest other socket by one
  step with roughly one period of lag and stabilises 100 MHz below it
  (Figure 7).

The OS restrains (or disables) UFS through ``UNCORE_RATIO_LIMIT``; the
PMU re-reads its limits whenever that MSR is written (Section 6.1's
countermeasures build on exactly this).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from ..config import DemandModelConfig, UfsConfig
from ..cpu.core import Core
from ..engine import Engine, PeriodicTask
from ..errors import ConfigError
from .timeline import FrequencyTimeline


@dataclass(frozen=True)
class SocketSnapshot:
    """What the PMU saw in one evaluation period (for tracing/tests)."""

    time_ns: int
    active_cores: int
    stalled_cores: int
    llc_rate_per_us: float
    noc_score: float
    stall_rule_triggered: bool
    target_mhz: int
    heavy: bool
    freq_mhz: int


def accumulate_observation(
    samples: Iterable[tuple], stall_ratio_threshold: float
) -> tuple[int, int, float, float, float, bool]:
    """Fold per-core window statistics into one socket observation.

    ``samples`` yields ``(stats, above_base)`` pairs — one
    :class:`~repro.cpu.activity.WindowStats` plus the core's turbo flag
    per core that is not silent, in core order.  The fold is the single
    definition of what the PMU "sees" each period; both the event-driven
    PMU and the batch backend call it, so their observations agree bit
    for bit (floating point accumulation is order-sensitive).  A silent
    core (:meth:`~repro.cpu.activity.ProfileTimeline.silent_since`) would
    only add exact zeros, so callers may leave it out: the PMU folds only
    its awake cores, the batch backend skips silent windows.
    """
    active = 0
    stalled = 0
    llc_rate = 0.0
    noc_score = 0.0
    max_stall = 0.0
    turbo_active = False
    for stats, above_base in samples:
        llc_rate += stats.llc_rate_per_us
        noc_score += stats.noc_score
        # Stall residue weighted by how much of the window the core was
        # active — a core stalled for 2 of 5 ms contributes 0.4 of its
        # stall ratio.
        residue = stats.stall_ratio * stats.active_fraction
        max_stall = max(max_stall, residue)
        if above_base and stats.active_fraction > 0.05:
            turbo_active = True
        if stats.is_active:
            active += 1
            if residue > stall_ratio_threshold:
                stalled += 1
    return (active, stalled, llc_rate, noc_score, max_stall, turbo_active)


def demand_target(demand: DemandModelConfig, llc_rate: float,
                  noc_score: float) -> int | None:
    """Map integrated socket demand to a target frequency (Fig. 3 fit).

    Demand is normalised to units of one traffic-loop thread
    (``traffic_loop_rate_per_us``).  The LLC component saturates at
    2.3 GHz; the interconnect component — thresholded on the
    hop-squared-weighted score — reaches the maximum.  The target is the
    higher of the two; ``None`` means no demand (idle dither).  See
    :class:`repro.config.DemandModelConfig` for the calibration.
    """
    rate = demand.traffic_loop_rate_per_us
    # Each component's target is the highest band it reaches: bands
    # ascend (``DemandModelConfig.validate``), so the scan stops at the
    # first threshold not reached.  The socket target is the higher of
    # the two.
    target = None
    units = llc_rate / rate
    for threshold, freq in demand.llc_bands:
        if not units >= threshold:
            break
        target = freq
    noc_target = None
    units = noc_score / rate
    for threshold, freq in demand.noc_bands:
        if not units >= threshold:
            break
        noc_target = freq
    if noc_target is not None and (target is None or noc_target > target):
        target = noc_target
    return target


class LawSignal(NamedTuple):
    """All the control law reads of a socket observation.

    ``demand_mhz`` is the unclamped :func:`demand_target` (``None``
    without demand) and ``veto_stall`` whether the observation's largest
    stall residue exceeds ``decrease_veto_stall_ratio``.  A field the
    law cannot read under the signal's own branch is normalised away: a
    turbo core masks every other field, the stall rule masks the demand
    target and the veto, and a demand target masks the veto.  So two
    observations the law cannot tell apart have equal signals.
    """

    turbo: bool
    stall_rule: bool
    demand_mhz: int | None
    veto_stall: bool


def law_signal(fold: tuple[int, int, float, float, float, bool], *,
               ufs: UfsConfig, demand: DemandModelConfig) -> LawSignal:
    """What :func:`ufs_control_step` needs of one socket observation.

    ``fold`` is an :func:`accumulate_observation` result.  The first
    half of the control law of Section 3.5: the stalled-core rule
    (strictly more than ``stalled_fraction_trigger`` of the active cores
    stalled), the Fig. 3 demand band, and the decrease-veto test.  Both
    the PMU and the batch backend step through it, so they share one
    law.
    """
    active, stalled, llc_rate, noc_score, max_stall, turbo = fold
    if turbo:
        return LawSignal(True, False, None, False)
    if active > 0 and stalled > ufs.stalled_fraction_trigger * active:
        return LawSignal(False, True, None, False)
    target = demand_target(demand, llc_rate, noc_score)
    if target is not None:
        return LawSignal(False, False, target, False)
    return LawSignal(False, False, None,
                     max_stall > ufs.decrease_veto_stall_ratio)


class UfsStepResult(NamedTuple):
    """Next state plus the decision flags of one control step.

    ``freq_mhz`` / ``dither_phase`` / ``slow_countdown`` are the updated
    socket state; the remaining fields describe what the step decided,
    in exactly the shape :meth:`UfsPmu._record` wants: the recorded
    target, whether the stall rule fired, whether stepping was heavy,
    and whether the turbo pin or the decrease veto applied.
    """

    freq_mhz: int
    dither_phase: int
    slow_countdown: int
    target_mhz: int
    stall_rule: bool
    heavy: bool
    turbo_pin: bool
    veto: bool


#: Builds a :class:`UfsStepResult` from one tuple of its fields, without
#: the generated ``__new__`` frame, which costs about half a law step.
_step_result = partial(tuple.__new__, UfsStepResult)


def ufs_control_step(
    *,
    freq_mhz: int, dither_phase: int, slow_countdown: int,
    min_limit_mhz: int, max_limit_mhz: int,
    signal: LawSignal,
    remote_mhz: int | None = None,
    ufs: UfsConfig, coupling_lag_mhz: int = 100,
) -> UfsStepResult:
    """One PMU evaluation of one socket: the control law of Section 3.5.

    The second half of the law, after :func:`law_signal`: it reads the
    observation only through ``signal``.  The event-driven
    :class:`UfsPmu` calls it once per tick and the batch backend once
    per distinct ``(state, signal, remote)`` of a trial group, so both
    backends take their decisions from this one definition.

    ``remote_mhz`` is the fastest *other* socket's frequency (coupling),
    or ``None`` on single-socket platforms.  The limits are the socket's
    current ``UNCORE_RATIO_LIMIT`` window.
    """
    freq = freq_mhz
    enabled = min_limit_mhz != max_limit_mhz
    turbo = signal.turbo
    if turbo or not enabled:
        # Turbo pins the uncore at the ceiling; a collapsed window
        # (UFS disabled) holds it where it is.
        turbo_pin = turbo and enabled
        pinned = max_limit_mhz if turbo_pin else freq
        return _step_result((
            pinned, dither_phase, 0 if turbo_pin else slow_countdown,
            pinned, False, turbo_pin, turbo_pin, False,
        ))

    # -- target selection (stall rule, demand bands, coupling) ----------
    # Clamps, minima and maxima are spelled out inline and the result
    # is built positionally: this runs once per socket per tick on the
    # DES.
    stall_rule = signal.stall_rule
    if stall_rule:
        target = max_limit_mhz
    else:
        target = signal.demand_mhz
        if target is not None:
            if target > max_limit_mhz:
                target = max_limit_mhz
            elif target < min_limit_mhz:
                target = min_limit_mhz

    coupled_binding = False
    if remote_mhz is not None:
        coupled = remote_mhz - coupling_lag_mhz
        if coupled > max_limit_mhz:
            coupled = max_limit_mhz
        elif coupled < min_limit_mhz:
            coupled = min_limit_mhz
        coupled_binding = (
            (target is None or coupled > target)
            and coupled > ufs.active_idle_high_mhz
        )
        if coupled_binding:
            target = coupled

    # -- idle dither and the decrease-hysteresis veto -------------------
    phase = dither_phase
    veto = heavy = False
    if target is None:
        phase = (phase + 1) % 4
        effective = (ufs.active_idle_low_mhz if phase == 0
                     else ufs.active_idle_high_mhz)
        if effective > max_limit_mhz:
            effective = max_limit_mhz
        elif effective < min_limit_mhz:
            effective = min_limit_mhz
        veto = effective < freq and signal.veto_stall
        if veto:
            effective = freq
    else:
        effective = target
        heavy = stall_rule or target >= max_limit_mhz or coupled_binding

    # -- stepping (fast to the ceiling, slow otherwise) -----------------
    countdown = slow_countdown
    if effective > freq:
        if heavy:
            freq += ufs.step_mhz
        elif countdown > 0:
            countdown -= 1  # slow step still waiting out its periods
        else:
            countdown = ufs.slow_step_periods - 1
            freq += ufs.step_mhz
        if freq > effective:
            freq = effective
    else:
        countdown = 0
        if effective < freq:
            freq -= ufs.step_mhz
            if freq < effective:
                freq = effective

    return _step_result((freq, phase, countdown, effective, stall_rule,
                         heavy, False, veto))


class UfsPmu:
    """One socket's uncore frequency controller."""

    def __init__(
        self,
        *,
        socket_id: int,
        engine: Engine,
        cores: list[Core],
        ufs_config: UfsConfig,
        demand_config: DemandModelConfig,
        phase_ns: int = 0,
        remote_frequency: Callable[[], int] | None = None,
        coupling_lag_mhz: int = 100,
    ) -> None:
        ufs_config.validate()
        demand_config.validate()
        self.socket_id = socket_id
        self.engine = engine
        self.cores = cores
        # Every core starts awake; ``_observe`` puts a silent one to
        # sleep and ``Core.set_profile`` wakes it (see :meth:`wake`).
        for core in cores:
            core.awake = True
            core.pmu = self
        self._awake: list[Core] | None = list(cores)
        # The law is pure, so each PMU memoises its answers: fold ->
        # signal, and step inputs -> step result.
        self._signals: dict[tuple, LawSignal] = {}
        self._steps: dict[tuple, UfsStepResult] = {}
        self.config = ufs_config
        self.demand_config = demand_config
        self.remote_frequency = remote_frequency
        self.coupling_lag_mhz = coupling_lag_mhz

        self.min_limit_mhz = ufs_config.min_freq_mhz
        self.max_limit_mhz = ufs_config.max_freq_mhz
        initial = self._clamp(ufs_config.active_idle_high_mhz)
        self.timeline = FrequencyTimeline(initial, engine.now)
        self._dither_phase = 0
        self._slow_step_countdown = 0
        self._last_eval_ns = engine.now
        self.snapshots: list[SocketSnapshot] = []
        self.keep_snapshots = False
        # Lifetime decision counters (telemetry harvest, Section 3.5's
        # observable control-law behaviour): plain ints, always on.
        self.evaluations = 0
        self.turbo_pins = 0
        self.stall_pins = 0
        self.decrease_vetoes = 0
        self._task = PeriodicTask(
            engine,
            ufs_config.period_ns,
            self._evaluate,
            phase_ns=phase_ns if phase_ns else ufs_config.period_ns,
            name=f"ufs-pmu-{socket_id}",
        )

    # -- public surface ------------------------------------------------------

    @property
    def current_mhz(self) -> int:
        """The uncore frequency right now."""
        return self.timeline.current_mhz

    @property
    def ufs_enabled(self) -> bool:
        """UFS is disabled when the MSR window collapses to one point."""
        return self.min_limit_mhz != self.max_limit_mhz

    def set_limits(self, min_mhz: int, max_mhz: int) -> None:
        """Apply an ``UNCORE_RATIO_LIMIT`` update (Section 6.1).

        Setting min == max fixes the frequency (UFS disabled); the
        frequency snaps into the new window immediately.
        """
        if min_mhz > max_mhz:
            raise ConfigError("uncore min limit exceeds max limit")
        self.min_limit_mhz = min_mhz
        self.max_limit_mhz = max_mhz
        clamped = self._clamp(self.current_mhz)
        if clamped != self.current_mhz:
            self.timeline.set_frequency(self.engine.now, clamped)

    def next_evaluation_ns(self) -> int | None:
        """Absolute time of the next PMU evaluation, or None if stopped."""
        if not self._task.running:
            return None
        return self._task.next_fire_time()

    def stop(self) -> None:
        """Halt periodic evaluation (end of experiment)."""
        self._task.stop()

    # -- internals --------------------------------------------------------------

    def _clamp(self, freq_mhz: int) -> int:
        return max(self.min_limit_mhz, min(self.max_limit_mhz, freq_mhz))

    def wake(self, core: Core) -> None:
        """Fold ``core`` again from the next tick on.

        :meth:`Core.set_profile` calls this when it changes a core this
        PMU had put to sleep.  The awake list is rebuilt in core order
        at the next tick: the fold's floating point sums are
        order-sensitive.
        """
        self._awake = None

    def _observe(self, t0: int,
                 t1: int) -> tuple[int, int, float, float, float, bool]:
        """Integrate the awake cores' timelines over the observation
        window.

        Only the trailing ``observation_ns`` of the evaluation period is
        integrated — the PMU reacts to recent behaviour.  An awake core
        silent since the window start is put to sleep instead: it would
        fold in exact zeros, and it stays silent from every later window
        start until its profile changes, which wakes it.  So the fold
        equals one over every core, in core order.
        """
        t0 = max(t0, t1 - self.config.observation_ns)
        awake = self._awake
        if awake is None:
            awake = [core for core in self.cores if core.awake]
        samples = []
        for core in awake:
            timeline = core.timeline
            if timeline.silent_since(t0):
                core.awake = False
            else:
                samples.append((timeline.window_stats(t0, t1),
                                core.above_base))
        if len(samples) != len(awake):
            awake = [core for core in awake if core.awake]
        self._awake = awake
        return accumulate_observation(samples,
                                      self.config.stall_ratio_threshold)

    def _evaluate(self) -> None:
        """One PMU evaluation: observe, choose a target, step.

        The decision itself is delegated to :func:`law_signal` and
        :func:`ufs_control_step`, the same law the batch backend steps
        its trials through — which is what makes the two backends
        bit-identical by construction.  Both are pure, so their answers
        are memoised per PMU; the counters, the frequency timeline and
        the snapshots still move on every tick.
        """
        now = self.engine.now
        t0, t1 = self._last_eval_ns, now
        self._last_eval_ns = now
        if t1 <= t0:
            return

        fold = self._observe(t0, t1)
        signal = self._signals.get(fold)
        if signal is None:
            signal = self._signals[fold] = law_signal(
                fold, ufs=self.config, demand=self.demand_config)
        remote = (None if self.remote_frequency is None
                  else self.remote_frequency())
        freq = self.timeline.current_mhz
        key = (freq, self._dither_phase, self._slow_step_countdown,
               self.min_limit_mhz, self.max_limit_mhz, signal, remote)
        result = self._steps.get(key)
        if result is None:
            result = self._steps[key] = ufs_control_step(
                freq_mhz=freq,
                dither_phase=self._dither_phase,
                slow_countdown=self._slow_step_countdown,
                min_limit_mhz=self.min_limit_mhz,
                max_limit_mhz=self.max_limit_mhz,
                signal=signal,
                remote_mhz=remote,
                ufs=self.config,
                coupling_lag_mhz=self.coupling_lag_mhz,
            )
        self._dither_phase = result.dither_phase
        self._slow_step_countdown = result.slow_countdown
        if result.turbo_pin:
            self.turbo_pins += 1
        if result.veto:
            self.decrease_vetoes += 1
        self.timeline.set_frequency(now, result.freq_mhz)
        active, stalled, llc_rate, noc_score = fold[:4]
        self._record(now, active, stalled, llc_rate, noc_score,
                     result.stall_rule, result.target_mhz, result.heavy)

    def _record(self, now: int, active: int, stalled: int, llc: float,
                noc: float, stall_rule: bool, target: int,
                heavy: bool) -> None:
        self.evaluations += 1
        if stall_rule:
            self.stall_pins += 1
        if self.keep_snapshots:
            self.snapshots.append(
                SocketSnapshot(
                    time_ns=now,
                    active_cores=active,
                    stalled_cores=stalled,
                    llc_rate_per_us=llc,
                    noc_score=noc,
                    stall_rule_triggered=stall_rule,
                    target_mhz=target,
                    heavy=heavy,
                    freq_mhz=self.current_mhz,
                )
            )
