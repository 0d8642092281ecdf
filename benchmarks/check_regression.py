#!/usr/bin/env python
"""Performance smoke gates for CI.

Four paired measurements, each with a budget; exit 1 when any fails:

* **Telemetry overhead** — the engine event-throughput spin of
  ``benchmarks/bench_simulator_performance.py`` plain versus with the
  telemetry registry active, in interleaved pairs.  The median of the
  pairs' time ratios must land within the tolerance (default 5 %).
* **Trace-cache speedup** — the fingerprint smoke study cold (simulate
  + store) versus warm (served from the trace store).  The warm run
  must be at least ``--trace-speedup`` (default 10) times faster than
  the cold run, or the cache has stopped paying for itself.
  ``--skip-trace-cache`` omits the gate.
* **Resilience overhead** — a capacity sweep plain versus the same
  sweep under a no-fault retry policy and a fresh checkpoint, in
  interleaved pairs.  When nothing fails, the retry and checkpoint
  machinery must cost within the tolerance (default 5 %) of the plain
  run, as the median of the pairs' time ratios, and return identical
  results.  ``--skip-resilience`` omits the gate.
* **Fastpath speedup** — the gate sweep of
  ``benchmarks/bench_fastpath.py`` through the DES backend versus the
  vectorized batch backend, in interleaved pairs.  The median of the
  pairs' DES/batch time ratios must be at least ``--fastpath-speedup``
  (default 10); the ratios' first and third quartiles are printed
  beside it, so a thin margin shows.  Every pair's batch results must
  be bit-identical to its DES results (anything else is a correctness
  failure, not a perf one); the analytical backend must land within
  its own documented tolerance of the DES error rates; both must leave
  their telemetry fingerprints (``fastpath.batch.trials`` /
  ``fastpath.analytical.evals``).
  ``--skip-fastpath`` omits the gate.

Usage::

    python benchmarks/check_regression.py [--tolerance 0.05]
        [--trace-speedup 10] [--skip-trace-cache]
        [--skip-resilience] [--fastpath-speedup 10]
        [--skip-fastpath]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent


def interleaved_pairs(plain: Callable[[], tuple[float, object]],
                      other: Callable[[], tuple[float, object]],
                      rounds: int,
                      ) -> tuple[float, float, list[float], list[tuple]]:
    """Time ``rounds`` adjacent pairs of two runs.

    Each run returns ``(seconds, result)`` and must start its clock
    after a full collection, so neither side inherits the other's
    garbage.  Pairs alternate which run goes first.  Returns the plain
    and other median times, each pair's other/plain time ratio and
    every pair's ``(plain result, other result)``.  A pair's two runs
    are adjacent, so host load that drifts over seconds cancels in its
    ratio, and the median of the ratios drops pairs a burst hit on one
    side only.
    """
    plain_times, other_times, results = [], [], []
    for round_index in range(rounds):
        if round_index % 2:
            other_s, other_result = other()
            plain_s, plain_result = plain()
        else:
            plain_s, plain_result = plain()
            other_s, other_result = other()
        plain_times.append(plain_s)
        other_times.append(other_s)
        results.append((plain_result, other_result))
    ratios = [other_s / plain_s
              for plain_s, other_s in zip(plain_times, other_times)]
    return (statistics.median(plain_times),
            statistics.median(other_times), ratios, results)


#: Interleaved plain/telemetry pairs in the telemetry gate, and spins
#: per run.  One spin is ~5 ms on a shared 2-CPU x86-64 host.  Many
#: short pairs beat a few long ones there: for the same gate time,
#: eight readings on unchanged code spread -8.3..+1.0 % with 21 pairs
#: of ten spins, and -0.8..+1.3 % with 101 pairs of two.
TELEMETRY_ROUNDS = 101
TELEMETRY_SPINS = 2


def measure_telemetry_overhead() -> tuple[float, float, float]:
    """Time the event-throughput spin plain versus with telemetry.

    Returns the plain and telemetry median times per spin and the
    overhead over :data:`TELEMETRY_ROUNDS` interleaved pairs (see
    :func:`interleaved_pairs`).
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from bench_simulator_performance import (  # noqa: E402
        event_spin,
        event_spin_telemetry,
    )

    def timed(spin) -> Callable[[], tuple[float, object]]:
        def run() -> tuple[float, object]:
            gc.collect()
            start = time.perf_counter()
            for _ in range(TELEMETRY_SPINS):
                spin()
            return time.perf_counter() - start, None
        return run

    plain_s, telemetry_s, ratios, _ = interleaved_pairs(
        timed(event_spin), timed(event_spin_telemetry), TELEMETRY_ROUNDS
    )
    return (plain_s / TELEMETRY_SPINS, telemetry_s / TELEMETRY_SPINS,
            statistics.median(ratios) - 1.0)


def measure_trace_cache() -> tuple[float, float]:
    """Wall-time one cold and one warm fingerprint smoke run.

    Uses the same smoke shape as
    ``benchmarks/bench_trace_io.py::test_perf_fingerprint_cold_vs_warm``
    so the gate and the tracked benchmark measure the same work.  Both
    runs happen in this process against a throwaway store; the cold run
    simulates and records, the warm run must be served entirely from
    the store.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from bench_trace_io import SMOKE_SHAPE  # noqa: E402

    from repro.sidechannel import collect_dataset  # noqa: E402

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        cold = collect_dataset(**SMOKE_SHAPE, cache_dir=tmp)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = collect_dataset(**SMOKE_SHAPE, cache_dir=tmp)
        warm_s = time.perf_counter() - start
    for a, b in zip(cold.train + cold.test, warm.train + warm.test):
        if a.label != b.label or list(a.freqs_mhz) != list(b.freqs_mhz):
            raise SystemExit(
                "warm trace-cache run diverged from the cold run — "
                "the determinism contract is broken, not just slow"
            )
    return cold_s, warm_s


#: The resilience gate's sweep.  The no-fault machinery costs about
#: 0.6 ms per sweep: the checkpoint key, a load of the missing journal
#: and two sealed records (the first publishes the journal, the second
#: appends to it), each made right after a DES trial, when every cache
#: is cold.  On a shared 2-CPU x86-64 host that reads 2-4 % of a 40-bit
#: sweep (~20 ms); a shorter sweep would sit too close to the tolerance
#: to tell a regression from host noise.
RESILIENCE_SHAPE = dict(intervals_ms=(28.0, 24.0), bits=40, seed=0)
#: Interleaved plain/resilient pairs in the resilience gate.  On
#: unchanged code and the same shared host, 24 readings with 15 pairs
#: had an interquartile range of 1.7..4.8 % and 6 at or over the 5 %
#: budget; with 61 pairs, 3.0..4.5 % and 3 over.
RESILIENCE_ROUNDS = 61


def measure_resilience_overhead() -> tuple[float, float, float]:
    """Wall-time a sweep plain versus retry+checkpoint, no faults.

    The resilient run uses a zero-backoff retry policy and a cold
    checkpoint directory, so everything it does beyond the plain run —
    policy bookkeeping, per-point pickling, atomic flushes — is pure
    overhead.  Returns the plain and resilient median times and the
    overhead over :data:`RESILIENCE_ROUNDS` interleaved pairs (see
    :func:`interleaved_pairs`).  A results mismatch is reported as its
    own failure: the machinery must be invisible, not just cheap.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.evaluation import capacity_sweep  # noqa: E402
    from repro.resilience import RetryPolicy  # noqa: E402

    policy = RetryPolicy(max_attempts=2, base_backoff_s=0.0)

    def plain_run() -> tuple[float, object]:
        gc.collect()
        start = time.perf_counter()
        sweep = capacity_sweep(**RESILIENCE_SHAPE)
        return time.perf_counter() - start, sweep

    def resilient_run() -> tuple[float, object]:
        with tempfile.TemporaryDirectory() as ckpt:
            gc.collect()
            start = time.perf_counter()
            sweep = capacity_sweep(**RESILIENCE_SHAPE,
                                   checkpoint_dir=ckpt, retry=policy)
            return time.perf_counter() - start, sweep

    plain_s, resilient_s, ratios, results = interleaved_pairs(
        plain_run, resilient_run, RESILIENCE_ROUNDS
    )
    for plain, resilient in results:
        if resilient.points != plain.points:
            raise SystemExit(
                "retry+checkpoint sweep diverged from the plain run — "
                "the determinism contract is broken, not just slow"
            )
    return plain_s, resilient_s, statistics.median(ratios) - 1.0


#: Interleaved DES/batch pairs in the fastpath gate.  One pair is a
#: ~130 ms DES sweep and a ~6 ms batch sweep on a shared 2-CPU x86-64
#: host.
FASTPATH_ROUNDS = 20


def measure_fastpath(
) -> tuple[float, float, float, tuple[float, float], float, float]:
    """Wall-time the gate sweep: DES versus the batch backend.

    Returns ``(des_s, batch_s, speedup, quartiles, worst_delta,
    worst_tolerance)``: the median DES and batch times, the median of
    the pairs' DES/batch ratios over :data:`FASTPATH_ROUNDS`
    interleaved pairs (see :func:`interleaved_pairs`) and their first
    and third quartiles, then the analytical backend's
    worst interval: the absolute DES-vs-analytical error-rate gap and
    the tolerance it must stay inside.  Dies outright (not a budget
    failure) when a pair's batch results are not bit-identical to its
    DES results or a backend fails to leave its telemetry counter —
    those are correctness regressions, not slowness.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from bench_fastpath import GATE_SHAPE  # noqa: E402

    from repro.core.evaluation import capacity_sweep  # noqa: E402
    from repro.fastpath.analytical import (  # noqa: E402
        analytical_estimates,
    )
    from repro.fastpath.backend import CapacityRequest  # noqa: E402
    from repro.fastpath.batch import _capacity_plan  # noqa: E402
    from repro.telemetry import MetricsRegistry, using  # noqa: E402

    registry = MetricsRegistry()

    def des_run() -> tuple[float, object]:
        gc.collect()
        start = time.perf_counter()
        sweep = capacity_sweep(**GATE_SHAPE, backend="des")
        return time.perf_counter() - start, sweep

    def batch_run() -> tuple[float, object]:
        gc.collect()
        start = time.perf_counter()
        with using(registry):
            sweep = capacity_sweep(**GATE_SHAPE, backend="batch")
        return time.perf_counter() - start, sweep

    batch_s, des_s, ratios, results = interleaved_pairs(
        batch_run, des_run, FASTPATH_ROUNDS
    )
    for batch, des in results:
        if batch.points != des.points:
            raise SystemExit(
                "batch backend diverged from DES on the gate sweep — "
                "the bit-identity contract is broken, not just slow"
            )
    intervals = GATE_SHAPE["intervals_ms"]
    counters = registry.snapshot()["counters"]
    if counters.get("fastpath.batch.trials") != \
            FASTPATH_ROUNDS * len(intervals):
        raise SystemExit(
            "fastpath.batch.trials counter missing or wrong — the "
            "batch backend is no longer telemetry-transparent"
        )

    registry = MetricsRegistry()
    with using(registry):
        estimates = analytical_estimates([
            _capacity_plan(CapacityRequest(
                interval_ms=interval_ms, bits=GATE_SHAPE["bits"],
                seed=GATE_SHAPE["seed"],
            ))
            for interval_ms in intervals
        ])
    counters = registry.snapshot()["counters"]
    if counters.get("fastpath.analytical.evals") != len(intervals):
        raise SystemExit(
            "fastpath.analytical.evals counter missing or wrong — the "
            "analytical backend is no longer telemetry-transparent"
        )
    worst_delta, worst_tolerance = 0.0, float("inf")
    for point, estimate in zip(results[0][1].points, estimates):
        delta = abs(point.error_rate - estimate.error_rate)
        if delta - estimate.error_tolerance > \
                worst_delta - worst_tolerance:
            worst_delta = delta
            worst_tolerance = estimate.error_tolerance
    first, _, third = statistics.quantiles(ratios, n=4)
    return (des_s, batch_s, statistics.median(ratios), (first, third),
            worst_delta, worst_tolerance)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional overhead (default 0.05)")
    parser.add_argument("--trace-speedup", type=float, default=10.0,
                        help="minimum warm-over-cold trace-cache "
                             "speedup (default 10)")
    parser.add_argument("--skip-trace-cache", action="store_true",
                        help="skip the trace-cache speedup gate")
    parser.add_argument("--skip-resilience", action="store_true",
                        help="skip the no-fault resilience overhead "
                             "gate")
    parser.add_argument("--fastpath-speedup", type=float, default=10.0,
                        help="minimum batch-over-DES sweep speedup "
                             "(default 10)")
    parser.add_argument("--skip-fastpath", action="store_true",
                        help="skip the vectorized backend speedup and "
                             "equivalence gate")
    args = parser.parse_args(argv)

    plain, telemetry, overhead = measure_telemetry_overhead()
    print(f"spin plain:        {plain * 1e3:8.3f} ms")
    print(f"spin telemetry:    {telemetry * 1e3:8.3f} ms")
    print(f"telemetry cost:    {100 * overhead:+8.2f} % "
          f"(tolerance {100 * args.tolerance:.0f} %)")

    failed = False
    if overhead > args.tolerance:
        print("FAIL: telemetry overhead exceeds tolerance")
        failed = True

    if not args.skip_trace_cache:
        cold_s, warm_s = measure_trace_cache()
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        print(f"trace cache cold:  {cold_s * 1e3:8.1f} ms")
        print(f"trace cache warm:  {warm_s * 1e3:8.1f} ms")
        print(f"speedup:           {speedup:8.1f}x "
              f"(budget >= {args.trace_speedup:.0f}x)")
        if speedup < args.trace_speedup:
            print("FAIL: trace-cache hit path is under the speedup "
                  "budget")
            failed = True

    if not args.skip_resilience:
        plain_s, resilient_s, resilience = measure_resilience_overhead()
        print(f"sweep plain:       {plain_s * 1e3:8.1f} ms")
        print(f"sweep resilient:   {resilient_s * 1e3:8.1f} ms")
        print(f"resilience cost:   {100 * resilience:+8.2f} % "
              f"(tolerance {100 * args.tolerance:.0f} %)")
        if resilience > args.tolerance:
            print("FAIL: no-fault retry/checkpoint overhead exceeds "
                  "tolerance")
            failed = True

    if not args.skip_fastpath:
        (des_s, batch_s, speedup, (first, third), delta,
         tolerance) = measure_fastpath()
        print(f"sweep des:         {des_s * 1e3:8.1f} ms")
        print(f"sweep batch:       {batch_s * 1e3:8.1f} ms")
        print(f"speedup:           {speedup:8.1f}x "
              f"(pair quartiles {first:.1f}x..{third:.1f}x; "
              f"budget >= {args.fastpath_speedup:.0f}x)")
        print(f"analytical gap:    {delta:8.4f} "
              f"(tolerance {tolerance:.4f})")
        if speedup < args.fastpath_speedup:
            print("FAIL: batch backend is under the speedup budget")
            failed = True
        if delta > tolerance:
            print("FAIL: analytical backend is outside its error "
                  "tolerance")
            failed = True

    if not failed:
        print("OK: all performance budgets met")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
