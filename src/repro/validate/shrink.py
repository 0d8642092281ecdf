"""Greedy scenario minimisation.

A fuzzer that only says "scenario 317 fails" leaves the diagnosis to a
human diffing forty parameters.  The shrinker closes that gap: given a
failing scenario and a ``fails(scenario) -> bool`` predicate, it walks
the scenario toward :data:`~.scenarios.BASELINE` — resetting whole
fields, emptying lists, dropping elements one at a time — keeping a
mutation only if the failure survives it.  The result is a scenario
whose :func:`~.scenarios.non_default_params` names exactly the
parameters that matter.

Every candidate is filtered through :func:`~.scenarios.is_valid`
first, so shrinking never "discovers" a crash that is really just an
inconsistent mutation (a cross-processor channel on one socket, a
defense outside the shrunk UFS window).

The predicate re-executes the scenario, so shrinking costs one run per
attempted mutation; ``max_attempts`` bounds that (the default budget
of 80 runs is a few seconds).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import fields, replace

from .scenarios import BASELINE, FuzzScenario, is_valid

__all__ = ["shrink"]

#: Field-reset order: structure first (dropping a channel or a defense
#: stack removes whole subsystems from the repro), then platform shape,
#: then timing scalars.
_FIELD_ORDER = (
    "channel",
    "defenses",
    "workloads",
    "check_telemetry",
    "sockets",
    "coupling",
    "ufs_step_mhz",
    "ufs_min_mhz",
    "ufs_max_mhz",
    "period_ms",
    "run_ms",
)

#: Sanity: the order must cover every behavioural field exactly once.
assert set(_FIELD_ORDER) == {
    f.name for f in fields(FuzzScenario)
} - {"index", "seed"}


def _candidates(scenario: FuzzScenario):
    """Mutations toward BASELINE, most aggressive first."""
    # Whole-window reset in one move: individual UFS fields often can't
    # shrink alone (the window must stay consistent with defenses).
    if (
        scenario.ufs_min_mhz,
        scenario.ufs_max_mhz,
        scenario.ufs_step_mhz,
    ) != (
        BASELINE.ufs_min_mhz,
        BASELINE.ufs_max_mhz,
        BASELINE.ufs_step_mhz,
    ):
        yield replace(
            scenario,
            ufs_min_mhz=BASELINE.ufs_min_mhz,
            ufs_max_mhz=BASELINE.ufs_max_mhz,
            ufs_step_mhz=BASELINE.ufs_step_mhz,
        )
    for name in _FIELD_ORDER:
        value = getattr(scenario, name)
        baseline = getattr(BASELINE, name)
        if value != baseline:
            yield replace(scenario, **{name: baseline})
    # Element-wise drops for the list-shaped fields (the whole-list
    # reset above may fail while dropping one element succeeds).
    for name in ("workloads", "defenses"):
        items = getattr(scenario, name)
        if len(items) > 1:
            for index in range(len(items)):
                kept = items[:index] + items[index + 1:]
                yield replace(scenario, **{name: kept})


def shrink(scenario: FuzzScenario,
           fails: Callable[[FuzzScenario], bool], *,
           max_attempts: int = 80) -> FuzzScenario:
    """Minimise a failing scenario while ``fails`` stays true.

    Greedy fixpoint iteration: take the first candidate mutation that
    still fails, restart from it, stop when no mutation survives (a
    1-minimal scenario) or the run budget is spent.  ``scenario``
    itself is returned unchanged if it unexpectedly stops failing.
    """
    if not fails(scenario):
        return scenario
    current = scenario
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            if not is_valid(candidate):
                continue
            attempts += 1
            if fails(candidate):
                current = candidate
                progressed = True
                break
    return current
