"""Deterministic parallel experiment runner.

Every paper artefact repeats dozens to hundreds of *independent* seeded
trials (capacity sweep points, Table 3 cells, fingerprint site visits).
This module fans those trials out across processes while keeping the
results bit-identical to a serial run:

* each trial is a plain ``func(**kwargs)`` call whose kwargs carry an
  explicit seed, so nothing depends on execution order or wall clock;
* seeds are split by *name* through the same :func:`~repro.rng.child_rng`
  / :func:`~repro.rng.derive_seed` scheme the simulator itself uses, so
  a trial's stream is a function of (experiment seed, trial label) only;
* results always come back in submission order, whatever order the
  workers finish in.

``workers=1`` (the default everywhere) runs the trials inline in the
calling process — no executor, no pickling requirement — and produces
the exact same list a parallel run does.

Because a trial is a pure function of its inputs, fault tolerance is
cheap: ``on_error="retry"`` re-runs crashed trials under a
:class:`~repro.resilience.retry.RetryPolicy` (a retried trial returns
the bit-identical result a never-crashed one would), and a
:class:`~repro.resilience.checkpoint.Checkpoint` records completed
results as they land so an interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError
from ..resilience.retry import RetryPolicy
from ..telemetry.context import active_registry, using
from ..telemetry.registry import MetricsRegistry

__all__ = [
    "Trial",
    "TrialFailure",
    "run_trials",
    "run_batches",
    "resolve_workers",
]


@dataclass(frozen=True)
class Trial:
    """One independent unit of work: ``func(**kwargs)``.

    ``func`` must be picklable for ``workers > 1`` (i.e. a module-level
    callable); the kwargs should carry the trial's derived seed so the
    result does not depend on where or when it runs.  ``label`` names
    the trial for checkpointing, retry backoff derivation and failure
    reports — runners use the same label they derive seeds from, so a
    label identifies one reproducible unit of work.
    """

    func: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str | None = None

    def __call__(self) -> Any:
        return self.func(**self.kwargs)


@dataclass(frozen=True)
class TrialFailure:
    """What a crashed trial left behind (``collect``/``retry`` modes).

    Takes the crashed trial's slot in the results list so the survivors
    keep their submission-order positions.  Carries enough to diagnose
    *and to re-run*: the trial index, exception type name and message,
    plus the trial's label and seed (when the trial declared them) so a
    caller can write a replayable repro without re-deriving anything.
    ``attempts`` counts how many times the trial ran before giving up.
    Falsy, so ``[r for r in results if r]`` drops failures.
    """

    index: int
    error_type: str
    message: str
    label: str | None = None
    seed: int | None = None
    attempts: int = 1

    def __bool__(self) -> bool:
        return False


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request.

    ``None`` or ``0`` means "all available CPUs"; anything negative is
    a configuration error.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    return workers


def _trial_label(trial) -> str | None:
    return getattr(trial, "label", None)


def _trial_seed(trial) -> int | None:
    kwargs = getattr(trial, "kwargs", None)
    if isinstance(kwargs, dict):
        seed = kwargs.get("seed")
        if isinstance(seed, int):
            return seed
    return None


def _invoke(trial: Trial) -> Any:
    return trial()


def _invoke_instrumented(trial: Trial) -> tuple[Any, dict]:
    """Run one trial under a fresh registry; return (result, snapshot).

    Used whenever the *caller* has a registry active: every trial —
    inline or pooled — collects into its own private registry, and the
    caller merges the deterministic snapshots in submission order.
    Serial and parallel runs therefore aggregate identically.
    """
    registry = MetricsRegistry()
    with using(registry):
        result = trial()
    return result, registry.snapshot()


def _failure(index: int, trial, exc: Exception,
             attempts: int = 1) -> TrialFailure:
    return TrialFailure(
        index=index,
        error_type=type(exc).__name__,
        message=str(exc),
        label=_trial_label(trial),
        seed=_trial_seed(trial),
        attempts=attempts,
    )


def _invoke_guarded(indexed: tuple[int, Trial]) -> tuple[Any, dict | None]:
    """Worker shim for ``on_error="collect"``: never raises.

    A crash inside the trial comes back as a :class:`TrialFailure`
    instead of poisoning the whole pool.map, so one bad trial cannot
    take down its siblings' results.
    """
    index, trial = indexed
    try:
        return trial(), None
    except Exception as exc:  # noqa: BLE001 - the point is containment
        return _failure(index, trial, exc), None


def _invoke_guarded_instrumented(
    indexed: tuple[int, Trial],
) -> tuple[Any, dict | None]:
    """Guarded + per-trial registry.  A crashed trial contributes *no*
    metrics (its partial registry is discarded), so the caller's
    aggregate stays identical to a serial run that failed the same way.
    """
    index, trial = indexed
    registry = MetricsRegistry()
    try:
        with using(registry):
            result = trial()
    except Exception as exc:  # noqa: BLE001 - the point is containment
        return _failure(index, trial, exc), None
    return result, registry.snapshot()


def _invoke_retrying(
    packed: tuple[int, Trial, RetryPolicy, bool],
) -> tuple[Any, dict | None, int]:
    """Worker shim for ``on_error="retry"``: re-run transient crashes.

    Each attempt runs under its own fresh registry; a failed attempt's
    partial metrics are discarded, so the snapshot of a trial that
    succeeded on attempt 3 is bit-identical to one that succeeded on
    attempt 1.  Backoff between attempts is the policy's deterministic
    jittered schedule, derived from the trial's seed and label.
    """
    index, trial, policy, instrument = packed
    failure: TrialFailure | None = None
    for attempt in range(1, policy.max_attempts + 1):
        registry = MetricsRegistry() if instrument else None
        try:
            if registry is not None:
                with using(registry):
                    result = trial()
            else:
                result = trial()
        except Exception as exc:  # noqa: BLE001 - classified below
            failure = _failure(index, trial, exc, attempts=attempt)
            if not policy.is_transient(exc) \
                    or attempt == policy.max_attempts:
                return failure, None, attempt
            policy.sleep(attempt, seed=_trial_seed(trial),
                         label=_trial_label(trial) or f"trial-{index}")
            continue
        snapshot = (registry.snapshot()
                    if registry is not None else None)
        return result, snapshot, attempt
    return failure, None, policy.max_attempts


def run_trials(trials: Sequence[Trial] | Iterable[Trial], *,
               workers: int | None = 1,
               on_error: str = "raise",
               retry: RetryPolicy | None = None,
               checkpoint=None) -> list[Any]:
    """Run every trial and return the results in submission order.

    With ``workers`` <= 1 (or a single trial) everything runs inline in
    the calling process.  Otherwise the trials are distributed over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; because every
    trial carries its own derived seed and ``ProcessPoolExecutor.map``
    preserves input order, the returned list is bit-identical for every
    worker count.

    When a telemetry registry is active in the calling process, each
    trial runs under its own per-trial registry and the per-trial
    snapshots are merged into the caller's registry in submission
    order — so the aggregated metrics, like the results, are identical
    for every worker count.

    ``on_error`` picks the failure policy:

    * ``"raise"`` (default) — the first trial exception propagates to
      the caller; the pool shuts down cleanly and no partial metric
      snapshots are merged.
    * ``"collect"`` — a crashed trial yields a :class:`TrialFailure`
      in its submission-order slot and the remaining trials still run;
      the scenario fuzzer uses this so one broken scenario cannot mask
      the other 499.
    * ``"retry"`` — transient crashes are re-run under ``retry`` (a
      :class:`~repro.resilience.retry.RetryPolicy`; defaulted if not
      given).  Worker death (``BrokenProcessPool``) rebuilds the pool
      and resubmits the unfinished tail.  A trial that exhausts its
      attempts (or fails a *permanent* error) yields a
      :class:`TrialFailure` like ``"collect"``.  Telemetry counts
      ``runner.retries``, ``runner.permanent_failures`` and
      ``runner.pool_rebuilds``.

    ``checkpoint`` (a :class:`~repro.resilience.checkpoint.Checkpoint`)
    records each completed result under its trial label as it lands and
    skips trials whose labels the checkpoint already holds — counted as
    ``runner.checkpoint.skipped``.  Requires a unique ``label`` on
    every trial.  Resumed results are the pickled originals, so a
    resumed run returns bit-identical values; its telemetry reflects
    only the work actually (re)done.
    """
    if on_error not in ("raise", "collect", "retry"):
        raise ConfigError(
            "on_error must be 'raise', 'collect' or 'retry', "
            f"got {on_error!r}"
        )
    if retry is not None and on_error != "retry":
        raise ConfigError("retry= is only meaningful with on_error='retry'")
    policy: RetryPolicy | None = None
    if on_error == "retry":
        policy = retry if retry is not None else RetryPolicy()
        policy.validate()
    trials = list(trials)
    count = resolve_workers(workers)
    parent = active_registry()

    completed: dict[str, Any] = {}
    if checkpoint is not None:
        labels = [_trial_label(trial) for trial in trials]
        if any(label is None for label in labels):
            raise ConfigError(
                "checkpointing requires a label on every trial"
            )
        if len(set(labels)) != len(labels):
            raise ConfigError(
                "checkpointing requires unique trial labels"
            )
        completed = checkpoint.load()

    results: list[Any] = [None] * len(trials)
    pending: list[tuple[int, Trial]] = []
    for index, trial in enumerate(trials):
        label = _trial_label(trial)
        if checkpoint is not None and label in completed:
            results[index] = completed[label]
            if parent is not None:
                parent.inc("runner.checkpoint.skipped")
        else:
            pending.append((index, trial))

    snapshots: list[tuple[int, dict]] = []
    try:
        if on_error == "collect":
            _run_collect(pending, count, parent, results, snapshots,
                         checkpoint)
        elif on_error == "retry":
            _run_retry(pending, count, parent, policy, results,
                       snapshots, checkpoint)
        else:
            _run_raise(pending, count, parent, results, snapshots,
                       checkpoint)
    finally:
        if checkpoint is not None:
            checkpoint.flush()
    if parent is not None:
        for _, snapshot in sorted(snapshots, key=lambda item: item[0]):
            parent.merge_snapshot(snapshot)
    return results


def _complete(index: int, trial, result: Any, checkpoint, results) -> None:
    """File one finished result; checkpoint it unless it is a failure."""
    results[index] = result
    if checkpoint is not None and not isinstance(result, TrialFailure):
        checkpoint.record(_trial_label(trial), result)


def _run_raise(pending, count, parent, results, snapshots,
               checkpoint) -> None:
    instrument = parent is not None
    if count <= 1 or len(pending) <= 1:
        for index, trial in pending:
            if instrument:
                result, snapshot = _invoke_instrumented(trial)
                snapshots.append((index, snapshot))
            else:
                result = _invoke(trial)
            _complete(index, trial, result, checkpoint, results)
        return
    funcs = [trial for _, trial in pending]
    with ProcessPoolExecutor(
        max_workers=min(count, len(pending))
    ) as pool:
        stream = pool.map(
            _invoke_instrumented if instrument else _invoke, funcs
        )
        for (index, trial), item in zip(pending, stream):
            if instrument:
                result, snapshot = item
                snapshots.append((index, snapshot))
            else:
                result = item
            _complete(index, trial, result, checkpoint, results)


def _run_collect(pending, count, parent, results, snapshots,
                 checkpoint) -> None:
    invoke = (_invoke_guarded if parent is None
              else _invoke_guarded_instrumented)
    if count <= 1 or len(pending) <= 1:
        pairs = [invoke(item) for item in pending]
    else:
        with ProcessPoolExecutor(
            max_workers=min(count, len(pending))
        ) as pool:
            pairs = list(pool.map(invoke, pending))
    for (index, trial), (result, snapshot) in zip(pending, pairs):
        if snapshot is not None:
            snapshots.append((index, snapshot))
        _complete(index, trial, result, checkpoint, results)


def _run_retry(pending, count, parent, policy, results, snapshots,
               checkpoint) -> None:
    """Retry mode: in-worker re-runs plus pool-rebuild on worker death.

    ``BrokenProcessPool`` poisons an entire ``pool.map``, so it cannot
    be retried inside the worker: the driver rebuilds the pool and
    resubmits the unfinished tail.  A trial whose pool dies
    ``policy.max_attempts`` times in a row with no progress is
    convicted (by position — the head of the tail is always in flight
    when the pool breaks repeatedly), filled with a
    :class:`TrialFailure`, and skipped so its siblings still complete.
    """
    instrument = parent is not None

    def account(index, trial, result, snapshot, attempts):
        if parent is not None:
            if attempts > 1:
                parent.inc("runner.retries", attempts - 1)
            if isinstance(result, TrialFailure):
                parent.inc("runner.permanent_failures")
        if snapshot is not None:
            snapshots.append((index, snapshot))
        _complete(index, trial, result, checkpoint, results)

    packed = [(index, trial, policy, instrument)
              for index, trial in pending]
    if count <= 1 or len(packed) <= 1:
        for item in packed:
            result, snapshot, attempts = _invoke_retrying(item)
            account(item[0], item[1], result, snapshot, attempts)
        return

    position = 0
    stuck_rebuilds = 0
    while position < len(packed):
        remaining = packed[position:]
        progressed = False
        try:
            with ProcessPoolExecutor(
                max_workers=min(count, len(remaining))
            ) as pool:
                stream = pool.map(_invoke_retrying, remaining)
                for item in remaining:
                    result, snapshot, attempts = next(stream)
                    account(item[0], item[1], result, snapshot, attempts)
                    position += 1
                    progressed = True
        except BrokenProcessPool:
            if parent is not None:
                parent.inc("runner.pool_rebuilds")
            stuck_rebuilds = 0 if progressed else stuck_rebuilds + 1
            if stuck_rebuilds >= policy.max_attempts:
                index, trial, _, _ = packed[position]
                failure = TrialFailure(
                    index=index,
                    error_type="BrokenProcessPool",
                    message=(
                        "worker process died "
                        f"{stuck_rebuilds} consecutive times while this "
                        "trial led the queue; trial convicted and skipped"
                    ),
                    label=_trial_label(trial),
                    seed=_trial_seed(trial),
                    attempts=stuck_rebuilds,
                )
                account(index, trial, failure, None, 1)
                position += 1
                stuck_rebuilds = 0
            continue
        break


def _invoke_batch(*, runner: Callable[[Sequence[Any]], list[Any]],
                  requests: Sequence[Any]) -> list[Any]:
    """Module-level chunk shim so batch chunks pickle for pooled runs."""
    return list(runner(requests))


def run_batches(requests: Sequence[Any],
                runner: Callable[[Sequence[Any]], list[Any]], *,
                workers: int | None = 1,
                labels: Sequence[str] | None = None,
                checkpoint=None) -> list[Any]:
    """Fan a vectorized batch ``runner`` out over contiguous chunks.

    ``runner`` takes a sequence of request records and returns one
    result per request, in order — the contract of the fastpath
    backends' ``capacity_points``/``defense_reports``.  Because every
    request is an independent seeded trial, the results are
    bit-identical under *any* contiguous partition, so ``workers > 1``
    simply splits the requests into up to ``workers`` near-equal chunks
    and runs each chunk through :func:`run_trials` — inheriting its
    submission-order results, per-chunk telemetry registries and
    deterministic snapshot merging.

    ``checkpoint`` composes the same way it does for ``run_trials``:
    ``labels`` must then name every request uniquely; completed labels
    are resumed from the checkpoint (counted as
    ``runner.checkpoint.skipped``), only the remainder is dispatched,
    and each fresh result is recorded under its label.
    """
    requests = list(requests)
    completed: dict[str, Any] = {}
    if checkpoint is not None:
        if labels is None:
            raise ConfigError(
                "checkpointing requires a label for every request"
            )
        labels = list(labels)
        if len(labels) != len(requests):
            raise ConfigError(
                f"{len(labels)} labels for {len(requests)} requests"
            )
        if len(set(labels)) != len(labels):
            raise ConfigError(
                "checkpointing requires unique request labels"
            )
        completed = checkpoint.load()

    parent = active_registry()
    results: list[Any] = [None] * len(requests)
    pending: list[int] = []
    for index in range(len(requests)):
        label = labels[index] if labels is not None else None
        if checkpoint is not None and label in completed:
            results[index] = completed[label]
            if parent is not None:
                parent.inc("runner.checkpoint.skipped")
        else:
            pending.append(index)
    if not pending:
        return results

    count = min(resolve_workers(workers), len(pending))
    base, extra = divmod(len(pending), count)
    chunks: list[list[int]] = []
    start = 0
    for rank in range(count):
        size = base + (1 if rank < extra else 0)
        chunks.append(pending[start:start + size])
        start += size
    trials = [
        Trial(_invoke_batch, dict(
            runner=runner,
            requests=[requests[index] for index in chunk],
        ))
        for chunk in chunks
    ]
    try:
        for chunk, chunk_results in zip(
            chunks, run_trials(trials, workers=workers)
        ):
            for index, result in zip(chunk, chunk_results):
                results[index] = result
                if checkpoint is not None:
                    checkpoint.record(labels[index], result)
    finally:
        if checkpoint is not None:
            checkpoint.flush()
    return results
