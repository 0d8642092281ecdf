"""The chaos matrix: inject every fault, prove every containment.

Each check in :data:`CHAOS_FAULTS` injects one fault class from
:mod:`repro.validate.faults` (or drives one live failure mode) against
the resilience mechanism built to contain it, end to end:

====================== ==============================================
fault                  mechanism under test
====================== ==============================================
crashing-trial         retrying runner (``retry=RetryPolicy(...)``)
worker-death           pool rebuild after ``BrokenProcessPool``
interrupted-sweep      checkpoint/resume, bit-identical results
flipped-crc            trace-store quarantine + rewarm
half-written-temp      atomic publish (temp + ``os.replace``)
breaker-storm          corruption circuit breaker, full state cycle
====================== ==============================================

A check returns a :class:`ChaosOutcome`; ``contained=False`` means the
mechanism let the fault through — the ``repro chaos`` CLI turns that
into a non-zero exit, which is the CI chaos gate.  Checks are
deterministic given ``(seed, workers)``: the faults are planted, not
random.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ResilienceError
from ..rng import child_rng
from ..telemetry.context import using
from ..telemetry.registry import MetricsRegistry
from .retry import RetryPolicy

__all__ = ["ChaosOutcome", "run_chaos", "CHAOS_FAULTS"]

CHAOS_FAULTS: tuple[str, ...] = (
    "crashing-trial",
    "worker-death",
    "interrupted-sweep",
    "flipped-crc",
    "half-written-temp",
    "breaker-storm",
)


@dataclass(frozen=True)
class ChaosOutcome:
    """One injected fault and whether its mechanism contained it."""

    fault: str
    mechanism: str
    contained: bool
    detail: str


def _echo(value=None):
    """Module-level (picklable) healthy trial body."""
    return value


def _records(seed: int, count: int = 3):
    from ..sidechannel.tracer import TraceRecord

    rng = child_rng(seed, "chaos-corpus")
    out = []
    for label in range(count):
        n = int(rng.integers(3, 7))
        out.append(TraceRecord(
            label=label,
            times_ms=np.cumsum(rng.uniform(0.1, 2.0, size=n)),
            freqs_mhz=rng.choice([1200.0, 1500.0, 2400.0], size=n),
        ))
    return out


def _counters(registry: MetricsRegistry) -> dict:
    return registry.snapshot().get("counters", {})


def _check_crashing_trial(workdir: Path, *, seed: int,
                          workers: int) -> ChaosOutcome:
    from ..engine.parallel import Trial, run_trials
    from ..validate.faults import flaky_trial

    del seed, workers  # inline is enough: retry semantics are identical
    trials = [
        Trial(_echo, dict(value=0), label="t0"),
        Trial(flaky_trial, dict(sentinel=str(workdir / "sentinel"),
                                value=1), label="t1"),
        Trial(_echo, dict(value=2), label="t2"),
    ]
    registry = MetricsRegistry()
    with using(registry):
        results = run_trials(
            trials, workers=1,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        )
    counters = _counters(registry)
    retries = counters.get("runner.retries", 0)
    contained = results == [0, 1, 2] and retries >= 1
    return ChaosOutcome(
        fault="crashing-trial",
        mechanism="retrying runner",
        contained=contained,
        detail=(f"retried {retries}x, results {results}"
                if contained else f"results {results}, "
                f"retries {retries}"),
    )


def _check_worker_death(workdir: Path, *, seed: int,
                        workers: int) -> ChaosOutcome:
    from ..engine.parallel import Trial, TrialFailure, run_trials
    from ..validate.faults import worker_killing_trial

    del seed
    pool_size = max(2, workers)  # os._exit inline would kill *us*

    def trials(sentinel: str):
        return [
            Trial(_echo, dict(value=0), label="t0"),
            Trial(worker_killing_trial,
                  dict(sentinel=str(workdir / sentinel)), label="t1"),
            Trial(_echo, dict(value=2), label="t2"),
        ]

    registry = MetricsRegistry()
    with using(registry):
        results = run_trials(
            trials("retried"), workers=pool_size,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        )
    rebuilds = _counters(registry).get("runner.pool_rebuilds", 0)
    # One attempt: the trial whose worker died is convicted by label,
    # and its siblings still return their values.
    convicted = run_trials(trials("convicted"), workers=pool_size,
                           retry=RetryPolicy(max_attempts=1))
    killer = convicted[1]
    contained = (results == [0, "survived", 2] and rebuilds >= 1
                 and convicted[0::2] == [0, 2]
                 and isinstance(killer, TrialFailure)
                 and killer.label == "t1")
    return ChaosOutcome(
        fault="worker-death",
        mechanism="pool rebuild + resubmit",
        contained=contained,
        detail=(f"pool rebuilt {rebuilds}x, all results intact; "
                "one-attempt run convicted t1"
                if contained else f"results {results}, "
                f"rebuilds {rebuilds}, convicted {convicted}"),
    )


def _check_interrupted_sweep(workdir: Path, *, seed: int,
                             workers: int) -> ChaosOutcome:
    from ..core import evaluation

    del workers  # serial: the monkeypatched crash must run in-process
    shape = dict(intervals_ms=(28.0, 24.0), bits=8, seed=seed)
    clean = evaluation.capacity_sweep(**shape)
    sentinel = workdir / "crash-once"
    original = evaluation.measure_capacity

    def crash_once(**kwargs):
        if kwargs.get("interval_ms") == 24.0 and not sentinel.exists():
            sentinel.write_text("tripped", encoding="utf-8")
            raise RuntimeError("injected mid-sweep crash")
        return original(**kwargs)

    evaluation.measure_capacity = crash_once
    interrupted = False
    try:
        try:
            evaluation.capacity_sweep(**shape, checkpoint_dir=workdir)
        except RuntimeError:
            interrupted = True
    finally:
        evaluation.measure_capacity = original
    registry = MetricsRegistry()
    with using(registry):
        resumed = evaluation.capacity_sweep(**shape,
                                            checkpoint_dir=workdir)
    skipped = _counters(registry).get("runner.checkpoint.skipped", 0)
    contained = (interrupted and skipped >= 1
                 and resumed.points == clean.points)
    return ChaosOutcome(
        fault="interrupted-sweep",
        mechanism="checkpoint/resume",
        contained=contained,
        detail=(f"resumed past {skipped} checkpointed points, "
                "bit-identical to the clean run"
                if contained else
                f"interrupted={interrupted} skipped={skipped} "
                f"identical={resumed.points == clean.points}"),
    )


def _check_flipped_crc(workdir: Path, *, seed: int,
                       workers: int) -> ChaosOutcome:
    from ..trace.store import TraceStore
    from ..validate.faults import flip_crc_bit

    del workers
    store = TraceStore(workdir / "store")
    key = TraceStore.key("chaos-crc", seed=seed)
    registry = MetricsRegistry()
    with using(registry):
        store.put(key, _records(seed), experiment="chaos-crc")
        flip_crc_bit(store, key)
        miss = store.fetch(key)
        store.put(key, _records(seed), experiment="chaos-crc")
        rewarmed = store.fetch(key)
    counters = _counters(registry)
    contained = (miss is None and rewarmed is not None
                 and len(rewarmed[1]) == 3
                 and counters.get("trace.store.quarantined", 0) >= 1)
    return ChaosOutcome(
        fault="flipped-crc",
        mechanism="quarantine + rewarm",
        contained=contained,
        detail=("corrupt blob quarantined, miss reported, rewarm served"
                if contained else f"miss={miss is None} "
                f"rewarmed={rewarmed is not None}"),
    )


def _check_half_written_temp(workdir: Path, *, seed: int,
                             workers: int) -> ChaosOutcome:
    from ..trace.store import TraceStore
    from ..validate.faults import leave_half_written_temp

    del workers
    store = TraceStore(workdir / "store")
    key = TraceStore.key("chaos-temp", seed=seed)
    store.put(key, _records(seed), experiment="chaos-temp")
    temp = leave_half_written_temp(store, key)
    served = store.fetch(key)
    store.put(key, _records(seed), experiment="chaos-temp")
    contained = (served is not None and not temp.exists()
                 and store.verify().clean)
    return ChaosOutcome(
        fault="half-written-temp",
        mechanism="atomic publish (temp + os.replace)",
        contained=contained,
        detail=("stranded temp invisible to reads, replaced by next put"
                if contained else f"served={served is not None} "
                f"temp_gone={not temp.exists()}"),
    )


def _check_breaker_storm(workdir: Path, *, seed: int,
                         workers: int) -> ChaosOutcome:
    from ..trace.store import TraceStore
    from ..validate.faults import flip_crc_bit

    del workers
    store = TraceStore(workdir / "store", breaker_threshold=3,
                       breaker_cooldown=2)
    key = TraceStore.key("chaos-storm", seed=seed)
    registry = MetricsRegistry()
    with using(registry):
        # Three corrupt fetches in a row trip the breaker open.
        for _ in range(3):
            store.put(key, _records(seed), experiment="chaos-storm")
            flip_crc_bit(store, key)
            store.fetch(key)
        dropped_put = not store.contains(key)
        store.put(key, _records(seed), experiment="chaos-storm")
        dropped_put = dropped_put and not store.contains(key)
        # Cooldown: one refused fetch, then the probe (a clean miss —
        # the corrupt blob is quarantined) closes the breaker again.
        probe_results = [store.fetch(key), store.fetch(key)]
        store.put(key, _records(seed), experiment="chaos-storm")
        recovered = store.fetch(key)
    counters = _counters(registry)
    contained = (
        counters.get("trace.store.breaker_open", 0) >= 1
        and counters.get("trace.store.breaker_short_circuits", 0) >= 1
        and counters.get("trace.store.breaker_closed", 0) >= 1
        and dropped_put
        and probe_results == [None, None]
        and recovered is not None
        and store.breaker.state == "closed"
    )
    return ChaosOutcome(
        fault="breaker-storm",
        mechanism="corruption circuit breaker",
        contained=contained,
        detail=("opened under sustained corruption, degraded to "
                "pass-through, half-open probe closed it again"
                if contained else f"state={store.breaker.state} "
                f"counters={ {k: v for k, v in counters.items() if 'breaker' in k} }"),
    )


_CHECKS = {
    "crashing-trial": _check_crashing_trial,
    "worker-death": _check_worker_death,
    "interrupted-sweep": _check_interrupted_sweep,
    "flipped-crc": _check_flipped_crc,
    "half-written-temp": _check_half_written_temp,
    "breaker-storm": _check_breaker_storm,
}


def run_chaos(workdir, *, seed: int = 0, workers: int | None = 1,
              faults: str | tuple[str, ...] | None = None,
              ) -> list[ChaosOutcome]:
    """Run the fault matrix; each check gets its own subdirectory.

    Returns one :class:`ChaosOutcome` per requested fault, in
    :data:`CHAOS_FAULTS` order; a bare ``str`` names one fault.  A name
    not in :data:`CHAOS_FAULTS` raises
    :class:`~repro.errors.ResilienceError` before any check runs.  A
    check that *itself* crashes counts as uncontained — escaping the
    harness is the worst containment failure of all.
    """
    if isinstance(faults, str):
        faults = (faults,)
    selected = CHAOS_FAULTS if faults is None else tuple(faults)
    unknown = sorted(set(selected) - set(CHAOS_FAULTS))
    if unknown:
        raise ResilienceError(
            f"unknown faults {unknown}; known: {list(CHAOS_FAULTS)}"
        )
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workers = 1 if workers is None else workers
    outcomes: list[ChaosOutcome] = []
    for name in CHAOS_FAULTS:
        if name not in selected:
            continue
        check_dir = workdir / name.replace("-", "_")
        check_dir.mkdir(parents=True, exist_ok=True)
        try:
            outcomes.append(
                _CHECKS[name](check_dir, seed=seed, workers=workers)
            )
        except Exception as exc:  # noqa: BLE001 - report, don't die
            outcomes.append(ChaosOutcome(
                fault=name,
                mechanism=_CHECKS[name].__doc__ or "?",
                contained=False,
                detail=f"check escaped: {type(exc).__name__}: {exc}",
            ))
    return outcomes
