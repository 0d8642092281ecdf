"""Fault injection: prove the failure paths actually fire.

Two families live here:

* **simulator faults** (:data:`FAULTS`) — named injectors the runner
  arms inside an otherwise-healthy scenario, planting a defect the
  invariant oracles are supposed to catch.  The CI canary plants
  ``off-grid-step`` and requires the harness to find it, shrink it and
  emit a replayable repro file — a end-to-end proof the net has no
  holes;
* **artifact faults** — byte-level damage to trace-store files
  (truncation, bit flips, stray temp files) used by the corruption
  tests to show the store quarantines instead of crashing.

Everything here is deliberately destructive *to the object it is
handed*; nothing touches global state.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..errors import ConfigError
from ..resilience.checkpoint import unique_temp
from .scenarios import FuzzScenario

__all__ = [
    "FAULTS",
    "crashing_trial",
    "flaky_trial",
    "flip_bit",
    "flip_crc_bit",
    "inject_fault",
    "leave_half_written_temp",
    "truncate_file",
    "worker_killing_trial",
]


# -- simulator faults -----------------------------------------------------


def _midpoint_ns(scenario: FuzzScenario) -> int:
    return round(scenario.run_ms * 1_000_000 / 2)


def _inject_off_grid_step(system, scenario: FuzzScenario) -> None:
    """Force socket 0 onto a frequency between two operating points.

    The planted value is off-grid for both supported steps (50 and
    100 MHz) yet inside the configured window, so *only* the grid
    oracle fires — a precise canary.
    """
    bad = (
        scenario.ufs_min_mhz
        + scenario.ufs_step_mhz
        + scenario.ufs_step_mhz // 2
        + 1
    )
    timeline = system.socket(0).pmu.timeline
    system.engine.schedule_at(
        _midpoint_ns(scenario),
        lambda: timeline.set_frequency(system.engine.now, bad),
    )


def _inject_freq_above_max(system, scenario: FuzzScenario) -> None:
    """Push socket 0 one step past the configured maximum."""
    bad = scenario.ufs_max_mhz + scenario.ufs_step_mhz
    timeline = system.socket(0).pmu.timeline
    system.engine.schedule_at(
        _midpoint_ns(scenario),
        lambda: timeline.set_frequency(system.engine.now, bad),
    )


#: Named simulator-fault injectors, armed via ``--plant-fault NAME``.
FAULTS = {
    "off-grid-step": _inject_off_grid_step,
    "freq-above-max": _inject_freq_above_max,
}


def inject_fault(name: str, system, scenario: FuzzScenario) -> None:
    """Arm the named fault on a freshly built system."""
    try:
        injector = FAULTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault {name!r}; known: {sorted(FAULTS)}"
        ) from None
    injector(system, scenario)


# -- worker-crash fault ---------------------------------------------------


def crashing_trial(message: str = "injected crash") -> None:
    """A module-level (hence picklable) trial body that always dies.

    Used to prove ``run_trials(retry=RetryPolicy(...))`` contains a
    worker crash instead of poisoning its siblings.
    """
    raise RuntimeError(message)


def flaky_trial(sentinel, value=None,
                message: str = "injected transient crash"):
    """Crash until the sentinel file exists, then succeed forever.

    Models a transient environmental fault: the first attempt plants
    the sentinel and dies; every retry finds it and returns ``value``.
    The sentinel lives on disk (not in process state) so the fault
    behaves identically inline and across pool workers.
    """
    sentinel = Path(sentinel)
    if not sentinel.exists():
        sentinel.parent.mkdir(parents=True, exist_ok=True)
        sentinel.write_text("tripped", encoding="utf-8")
        raise OSError(message)
    return value


def worker_killing_trial(sentinel, value="survived"):
    """Kill the hosting worker process once, then succeed forever.

    ``os._exit`` skips all exception handling, so the in-worker retry
    shim never sees it — the pool itself breaks (``BrokenProcessPool``)
    and the *driver* must rebuild and resubmit.  Only meaningful with
    ``workers > 1``; calling it inline would kill the test process.
    """
    sentinel = Path(sentinel)
    if not sentinel.exists():
        sentinel.parent.mkdir(parents=True, exist_ok=True)
        sentinel.write_text("tripped", encoding="utf-8")
        os._exit(17)
    return value


# -- artifact faults ------------------------------------------------------


def truncate_file(path, keep_bytes: int) -> None:
    """Chop a file to its first ``keep_bytes`` bytes."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[:max(0, keep_bytes)])


def flip_bit(path, offset: int, bit: int = 0) -> None:
    """Flip one bit of one byte in place (simulated bit rot)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))


def flip_crc_bit(store, key: str) -> None:
    """Corrupt a blob's CRC32 trailer by one bit."""
    blob = store.blob_path(key)
    flip_bit(blob, blob.stat().st_size - 1, bit=3)


def leave_half_written_temp(store, key: str) -> Path:
    """Plant the writer-unique temp a ``put`` killed mid-write strands."""
    temp = unique_temp(store.blob_path(key))
    os.makedirs(temp.parent, exist_ok=True)
    temp.write_bytes(b"UFTC\x01\x00half-written garbage")
    return temp
