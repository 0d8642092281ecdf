"""Deterministic parallel experiment runner.

Most paper artefacts repeat dozens to hundreds of *independent* seeded
trials (capacity sweep points, Table 3 cells, §6.1 defenses).
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
cheap, and one rule sets it: ``retry=None`` lets the first crash
propagate, while ``retry=RetryPolicy(...)`` contains crashes and re-runs
transient ones (a retried trial returns the bit-identical result a
never-crashed one would).  A
:class:`~repro.resilience.checkpoint.Checkpoint` records completed
results as they land so an interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError, ResilienceError
from ..resilience.retry import RetryPolicy
from ..telemetry.context import active_registry, using
from ..telemetry.registry import MetricsRegistry

__all__ = [
    "Trial",
    "TrialFailure",
    "run_trials",
    "run_batches",
    "require_complete",
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
    """What a crashed trial left behind under a ``retry=`` policy.

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


def require_complete(results: Sequence[Any], what: str) -> None:
    """Raise :class:`~repro.errors.ResilienceError` if a trial was lost.

    A sweep with holes is not a result: the error names every
    :class:`TrialFailure` slot by label (or index), and the seeds they
    ran under, so the lost trials can be re-run.
    """
    failed = [r for r in results if isinstance(r, TrialFailure)]
    if failed:
        seeds = sorted({f.seed for f in failed if f.seed is not None})
        seeded = f" (seed {', '.join(map(str, seeds))})" if seeds else ""
        raise ResilienceError(
            f"{what} lost {len(failed)} of {len(results)} trials after "
            f"retries{seeded}: "
            + ", ".join(f.label or str(f.index) for f in failed)
        )


def _trial_label(trial) -> str | None:
    return getattr(trial, "label", None)


def _trial_seed(trial) -> int | None:
    kwargs = getattr(trial, "kwargs", None)
    if isinstance(kwargs, dict):
        seed = kwargs.get("seed")
        if isinstance(seed, int):
            return seed
    return None


def _failure(index: int, trial, error_type: str, message: str,
             attempts: int) -> TrialFailure:
    return TrialFailure(
        index=index,
        error_type=error_type,
        message=message,
        label=_trial_label(trial),
        seed=_trial_seed(trial),
        attempts=attempts,
    )


def _attempt(index: int, trial, policy: RetryPolicy | None,
             instrument: bool) -> tuple[Any, dict | None, int]:
    """Run one trial; return ``(result, snapshot, attempts)``.

    The one worker shim, inline and pooled alike.  With ``instrument``
    every attempt runs under its own fresh registry and only a
    successful attempt's snapshot comes back, so the caller's merged
    aggregate is identical for every worker count and for a trial that
    succeeded on attempt 3 or on attempt 1.  Without a ``policy`` the
    first exception propagates.  With one, a crash becomes a
    :class:`TrialFailure` once it is permanent or the attempts are
    spent; a transient crash sleeps the policy's deterministic
    backoff, derived from the trial's seed and label, and runs again.
    """
    attempt = 0
    while True:
        attempt += 1
        registry = MetricsRegistry() if instrument else None
        try:
            with using(registry):
                result = trial()
        except Exception as exc:  # noqa: BLE001 - classified below
            if policy is None:
                raise
            if (not policy.is_transient(exc)
                    or attempt >= policy.max_attempts):
                return (_failure(index, trial, type(exc).__name__,
                                 str(exc), attempt), None, attempt)
            policy.sleep(attempt, seed=_trial_seed(trial),
                         label=_trial_label(trial) or f"trial-{index}")
            continue
        return (result, registry.snapshot() if instrument else None,
                attempt)


def _resume(labels: Sequence[str | None], checkpoint,
            results: list[Any]) -> list[int]:
    """Fill ``results`` from ``checkpoint``; return the indices to run.

    Checkpointing needs a unique label per slot.  Each slot whose label
    the checkpoint already holds takes the stored (pickled, hence
    bit-identical) result and counts as ``runner.checkpoint.skipped``.
    """
    if checkpoint is None:
        return list(range(len(labels)))
    if any(label is None for label in labels):
        raise ConfigError("checkpointing requires a label on every trial")
    if len(set(labels)) != len(labels):
        raise ConfigError("checkpointing requires unique trial labels")
    completed = checkpoint.load()
    parent = active_registry()
    pending = []
    for index, label in enumerate(labels):
        if label in completed:
            results[index] = completed[label]
            if parent is not None:
                parent.inc("runner.checkpoint.skipped")
        else:
            pending.append(index)
    return pending


def run_trials(trials: Sequence[Trial] | Iterable[Trial], *,
               workers: int | None = 1,
               retry: RetryPolicy | None = None,
               checkpoint=None) -> list[Any]:
    """Run every trial and return the results in submission order.

    With ``workers`` <= 1 (or a single trial) everything runs inline in
    the calling process.  Otherwise the trials are distributed over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; because every
    trial carries its own derived seed and each result lands in its
    trial's slot, the returned list is bit-identical for every
    worker count.

    When a telemetry registry is active in the calling process, each
    trial runs under its own per-trial registry and the per-trial
    snapshots are merged into the caller's registry in submission
    order — so the aggregated metrics, like the results, are identical
    for every worker count.

    ``retry`` sets the failure policy:

    * ``None`` (default) — the first trial exception propagates to the
      caller; the pool shuts down cleanly and no partial metric
      snapshots are merged.
    * a :class:`~repro.resilience.retry.RetryPolicy` — crashes are
      contained.  Transient ones are re-run up to ``max_attempts``
      times; a trial that exhausts its attempts (or fails a *permanent*
      error) yields a :class:`TrialFailure` in its slot, is not
      checkpointed, contributes no metrics, and the remaining trials
      still run.  ``RetryPolicy(max_attempts=1)`` contains without
      re-running.  Worker death (``BrokenProcessPool``) rebuilds the
      pool and resubmits the unfinished trials; the trial whose worker
      died is charged one attempt and, once it has killed
      ``max_attempts`` workers, convicted.  Telemetry counts
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
    if retry is not None:
        retry.validate()
    trials = list(trials)
    count = resolve_workers(workers)
    parent = active_registry()
    labels = [_trial_label(trial) for trial in trials]
    results: list[Any] = [None] * len(trials)
    pending = _resume(labels, checkpoint, results)
    snapshots: list[tuple[int, dict]] = []

    def land(index: int, result: Any, snapshot: dict | None,
             attempts: int) -> None:
        if parent is not None:
            if attempts > 1:
                parent.inc("runner.retries", attempts - 1)
            if isinstance(result, TrialFailure):
                parent.inc("runner.permanent_failures")
        if snapshot is not None:
            snapshots.append((index, snapshot))
        results[index] = result
        if checkpoint is not None and not isinstance(result, TrialFailure):
            checkpoint.record(labels[index], result)

    _drive(pending, trials, count, retry, parent, land)
    if parent is not None:
        for _, snapshot in sorted(snapshots, key=lambda item: item[0]):
            parent.merge_snapshot(snapshot)
    return results


#: Per-trial marks a pooled worker leaves in shared memory: a trial
#: still ``_RUNNING`` after its pool broke is the one whose worker died.
_RUNNING, _SETTLED = 1, 2
_marks = None
_current: int | None = None


def _init_worker(marks) -> None:
    """Pool initializer: adopt the shared marks, take the pool's SIGTERM.

    A broken pool terminates its surviving workers; the waiter marks
    the trial such a worker was running as settled, so only the trial
    whose worker died by itself stays ``_RUNNING``.  The signal is
    blocked in the main thread and taken by :func:`signal.sigwait` on
    a daemon thread: a Python-level handler runs only between
    bytecodes, so a SIGTERM landing just before an idle worker blocks
    on the call queue would trip it and never run it, and the pool's
    shutdown would wait for that worker forever.
    """
    global _marks
    _marks = marks
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    threading.Thread(target=_await_terminate, daemon=True).start()


def _await_terminate() -> None:
    signum = signal.sigwait({signal.SIGTERM})
    current = _current
    if current is not None:
        _marks[current] = _SETTLED
    os._exit(128 + signum)


def _pooled_attempt(index: int, trial, policy: RetryPolicy | None,
                    instrument: bool) -> tuple[Any, dict | None, int]:
    """:func:`_attempt` in a pool worker, bracketed by the trial's mark."""
    global _current
    _current = index
    _marks[index] = _RUNNING
    try:
        return _attempt(index, trial, policy, instrument)
    finally:
        _marks[index] = _SETTLED
        _current = None


def _drive(pending: list[int], trials: list, count: int,
           policy: RetryPolicy | None, parent, land) -> None:
    """Run :func:`_attempt` over ``pending``; ``land`` each outcome.

    With ``count`` <= 1 (or a single trial) the trials run inline, in
    order.  Otherwise each trial is submitted to a process pool and
    lands in submission order.  ``BrokenProcessPool`` breaks every
    unfinished future at once, and refuses the submissions still to
    come, so worker death cannot be retried inside the worker.  Without
    a ``policy`` it propagates.  With one, the driver rebuilds the pool
    and resubmits the unfinished trials.  The trials still marked
    running are the ones whose worker died (if none is, the head of the
    unfinished queue stands in, so repeated deaths still end); each is
    charged one attempt and, after ``max_attempts`` dead workers,
    convicted with a :class:`TrialFailure`.  Trials the break merely
    interrupted are resubmitted uncharged.
    """
    instrument = parent is not None
    if count <= 1 or len(pending) <= 1:
        for index in pending:
            land(index, *_attempt(index, trials[index], policy, instrument))
        return
    context = multiprocessing.get_context()
    deaths: Counter[int] = Counter()
    while pending:
        marks = context.RawArray("b", len(trials))
        unfinished = []
        with ProcessPoolExecutor(
            max_workers=min(count, len(pending)), mp_context=context,
            initializer=_init_worker, initargs=(marks,),
        ) as pool:
            futures = []
            for index in pending:
                try:
                    futures.append(pool.submit(
                        _pooled_attempt, index, trials[index], policy,
                        instrument,
                    ))
                except BrokenProcessPool:
                    # An early trial killed its worker before the rest
                    # were queued; they count as interrupted.
                    if policy is None:
                        raise
                    break
            for index, future in zip(pending, futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    if policy is None:
                        raise
                    unfinished.append(index)
                    continue
                land(index, *outcome)
            unfinished.extend(pending[len(futures):])
        if not unfinished:
            return
        if parent is not None:
            parent.inc("runner.pool_rebuilds")
        culprits = [index for index in unfinished
                    if marks[index] == _RUNNING] or unfinished[:1]
        for index in culprits:
            deaths[index] += 1
            if deaths[index] >= policy.max_attempts:
                land(index, _failure(
                    index, trials[index], "BrokenProcessPool",
                    f"{deaths[index]} worker process(es) died running "
                    "this trial; trial convicted and skipped",
                    deaths[index],
                ), None, 1)
        pending = [index for index in unfinished
                   if deaths[index] < policy.max_attempts]


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

    ``checkpoint`` resumes exactly as it does for ``run_trials``, with
    ``labels`` naming the requests: completed labels are skipped, only
    the remainder is dispatched, and each fresh result is recorded
    under its label.
    """
    requests = list(requests)
    labels = [None] * len(requests) if labels is None else list(labels)
    if len(labels) != len(requests):
        raise ConfigError(
            f"{len(labels)} labels for {len(requests)} requests"
        )
    workers = resolve_workers(workers)
    results: list[Any] = [None] * len(requests)
    pending = _resume(labels, checkpoint, results)
    if not pending:
        return results

    count = min(workers, len(pending))
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
    for chunk, chunk_results in zip(
        chunks, run_trials(trials, workers=workers)
    ):
        for index, result in zip(chunk, chunk_results):
            results[index] = result
            if checkpoint is not None:
                checkpoint.record(labels[index], result)
    return results
