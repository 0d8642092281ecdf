"""Differential checks: two paths that must produce identical bits.

The simulator's headline guarantee is not "roughly the same" but
*bit-identical*: serial and parallel runs, cold and warm trace caches,
live simulation and store replay all promise the exact same result
objects.  Each check here exercises one such pair on a deliberately
small workload and deep-compares the outputs with
:func:`equal_results`, which refuses to call two floats equal unless
they are the same float.

The same machinery validates the simulation backends: the ``batch``
backend promises results *bit-identical* to the DES (checked here over
the capacity sweep, the defense matrix and platforms drawn from the
validation fuzzer's scenario grid), and the ``analytical`` backend
promises agreement within its documented statistical tolerance
(:func:`repro.fastpath.analytical.error_tolerance`).  A frequency-grid
oracle additionally proves every batch-computed frequency lands on the
platform's UFS operating points.

The checks double as building blocks: ``repro validate --differential``
runs :func:`run_differential_suite`, and the differential test module
drives the individual checks with larger fixtures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DifferentialReport",
    "check_batch_frequency_grid",
    "check_cold_vs_warm_store",
    "check_des_vs_analytical_capacity",
    "check_des_vs_batch_capacity",
    "check_des_vs_batch_defenses",
    "check_des_vs_batch_fuzz_platforms",
    "check_live_vs_replay",
    "check_serial_vs_parallel_capacity",
    "check_serial_vs_parallel_defenses",
    "check_serial_vs_parallel_matrix",
    "equal_results",
    "run_differential_suite",
]


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one A/B comparison."""

    name: str
    matched: bool
    detail: str = ""


def equal_results(a: object, b: object) -> bool:
    """Deep bit-exact equality over experiment result objects.

    Handles dataclasses (field by field), numpy arrays (shape, dtype
    and values — NaNs compare equal to NaNs, because a replayed NaN is
    a faithful replay), mappings and sequences.  Floats compare with
    ``==``: differential identity means *identical*, not close.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        if a.dtype.kind == "f":
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return False
        return all(
            equal_results(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return False
        return all(equal_results(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(equal_results(x, y) for x, y in zip(a, b))
    return bool(a == b)


def _report(name: str, a: object, b: object, detail: str
            ) -> DifferentialReport:
    matched = equal_results(a, b)
    return DifferentialReport(
        name=name,
        matched=matched,
        detail=detail if matched else f"MISMATCH: {detail}",
    )


def check_serial_vs_parallel_capacity(
    seed: int = 0, *,
    intervals_ms: tuple[float, ...] = (21.0, 15.0),
    bits: int = 6,
) -> DifferentialReport:
    """``capacity_sweep`` with 1 worker vs a process pool."""
    from ..core.evaluation import capacity_sweep

    serial = capacity_sweep(
        intervals_ms=intervals_ms, bits=bits, seed=seed, workers=1
    )
    parallel = capacity_sweep(
        intervals_ms=intervals_ms, bits=bits, seed=seed, workers=2
    )
    return _report(
        "serial-vs-parallel:capacity", serial, parallel,
        f"{len(intervals_ms)} sweep points, {bits} bits",
    )


def check_serial_vs_parallel_defenses(
    seed: int = 0, *,
    defenses: tuple[str, ...] = ("none", "fixed_max"),
    bits: int = 6,
) -> DifferentialReport:
    """``evaluate_defenses`` with 1 worker vs a process pool."""
    from ..defenses.evaluation import evaluate_defenses

    serial = evaluate_defenses(
        defenses=defenses, bits=bits, seed=seed, workers=1
    )
    parallel = evaluate_defenses(
        defenses=defenses, bits=bits, seed=seed, workers=2
    )
    return _report(
        "serial-vs-parallel:defenses", serial, parallel,
        f"defenses {defenses}, {bits} bits",
    )


def check_serial_vs_parallel_matrix(seed: int = 0, *,
                                    bits: int = 8) -> DifferentialReport:
    """A 2x2 corner of ``comparison_matrix``, serial vs pooled."""
    from ..channels.comparison import comparison_matrix
    from ..channels.scenarios import SCENARIOS
    from ..channels.flush_reload import FlushReloadChannel
    from ..channels.prime_probe import PrimeProbeChannel

    channels = (FlushReloadChannel, PrimeProbeChannel)
    scenarios = SCENARIOS[:2]
    serial = comparison_matrix(
        channels=channels, scenarios=scenarios, bits=bits,
        seed=seed, workers=1,
    )
    parallel = comparison_matrix(
        channels=channels, scenarios=scenarios, bits=bits,
        seed=seed, workers=2,
    )
    return _report(
        "serial-vs-parallel:comparison-matrix", serial, parallel,
        "2 channels x 2 scenarios",
    )


def check_cold_vs_warm_store(workdir, seed: int = 0, *,
                             num_sites: int = 2,
                             trace_ms: float = 300.0
                             ) -> DifferentialReport:
    """``collect_dataset`` simulating vs replaying its own cache.

    The first collection populates a fresh :class:`TraceStore`; the
    second must be served entirely from it and return the identical
    dataset.
    """
    from ..sidechannel.fingerprint import collect_dataset

    root = Path(workdir) / "cold-warm-store"
    kwargs = dict(
        num_sites=num_sites, train_visits=1, test_visits=1,
        trace_ms=trace_ms, seed=seed, cache_dir=root,
    )
    cold = collect_dataset(**kwargs)
    warm = collect_dataset(**kwargs)
    return _report(
        "cold-vs-warm:trace-store", cold, warm,
        f"{num_sites} sites x 2 visits, {trace_ms:g} ms traces",
    )


def check_live_vs_replay(workdir, seed: int = 0, *,
                         num_sites: int = 2,
                         trace_ms: float = 300.0) -> DifferentialReport:
    """Live collection vs pure store replay.

    :func:`fingerprint_dataset_from_store` reassembles the dataset from
    blobs alone — no simulation — and must reproduce the live dataset
    bit for bit.
    """
    from ..sidechannel.fingerprint import collect_dataset
    from ..trace.replay import fingerprint_dataset_from_store
    from ..trace.store import TraceStore

    root = Path(workdir) / "live-replay-store"
    live = collect_dataset(
        num_sites=num_sites, train_visits=1, test_visits=1,
        trace_ms=trace_ms, seed=seed, cache_dir=root,
    )
    replayed = fingerprint_dataset_from_store(
        TraceStore(root),
        num_sites=num_sites, train_visits=1, test_visits=1,
        trace_ms=trace_ms, seed=seed,
    )
    return _report(
        "live-vs-replay:fingerprint", live, replayed,
        f"{num_sites} sites, {trace_ms:g} ms traces",
    )


def check_des_vs_batch_capacity(
    seed: int = 0, *,
    intervals_ms: tuple[float, ...] = (21.0, 15.0),
    bits: int = 6,
) -> DifferentialReport:
    """``capacity_sweep`` on the DES vs the vectorized batch backend.

    The batch backend's contract is bit-identity, so this check uses
    the same exact comparator as the serial-vs-parallel pairs.
    """
    from ..core.evaluation import capacity_sweep

    des = capacity_sweep(
        intervals_ms=intervals_ms, bits=bits, seed=seed, backend="des"
    )
    batch = capacity_sweep(
        intervals_ms=intervals_ms, bits=bits, seed=seed, backend="batch"
    )
    return _report(
        "des-vs-batch:capacity", des, batch,
        f"{len(intervals_ms)} sweep points, {bits} bits",
    )


def check_des_vs_batch_defenses(
    seed: int = 0, *,
    defenses: tuple[str, ...] = ("none", "fixed_max", "randomized"),
    bits: int = 6,
) -> DifferentialReport:
    """``evaluate_defenses`` on the DES vs the batch backend."""
    from ..defenses.evaluation import evaluate_defenses

    des = evaluate_defenses(
        defenses=defenses, bits=bits, seed=seed, backend="des"
    )
    batch = evaluate_defenses(
        defenses=defenses, bits=bits, seed=seed, backend="batch"
    )
    return _report(
        "des-vs-batch:defenses", des, batch,
        f"defenses {defenses}, {bits} bits",
    )


def check_des_vs_batch_fuzz_platforms(
    seed: int = 0, *, count: int = 3, bits: int = 5,
    interval_ms: float = 21.0,
) -> DifferentialReport:
    """DES vs batch over platforms from the fuzzer's scenario grid.

    The fixed Table 1 platform exercises one corner of the control
    law; the validation fuzzer draws socket counts, UFS limits, step
    sizes, PMU periods and coupling flags, so running the same capacity
    measurement through both backends on fuzzed platforms checks the
    batch lattice against configurations nobody hand-picked.
    """
    from ..core.evaluation import measure_capacity
    from ..telemetry.context import using
    from .scenarios import build_platform, generate_scenarios

    pairs = []
    # Mask any ambient registry, as the fuzz runner does: the fuzzed
    # platforms' metrics stay out of the caller's.
    with using(None):
        for scenario in generate_scenarios(seed, count):
            platform = build_platform(scenario)
            kwargs = dict(
                interval_ms=interval_ms, bits=bits, seed=seed,
                platform=platform,
            )
            pairs.append((
                measure_capacity(**kwargs, backend="des"),
                measure_capacity(**kwargs, backend="batch"),
            ))
    return _report(
        "des-vs-batch:fuzz-platforms",
        [a for a, _ in pairs], [b for _, b in pairs],
        f"{count} fuzzed platforms, {bits} bits",
    )


def check_batch_frequency_grid(
    seed: int = 0, *, bits: int = 5,
) -> DifferentialReport:
    """Oracle: every batch-computed frequency is a UFS operating point.

    Mirrors the fuzzer's on-grid frequency oracle for the DES: the
    batch lattice's per-socket histories must stay inside the effective
    platform's limits, on its step grid, with non-decreasing times.
    """
    from ..config import default_platform_config
    from ..fastpath.backend import CapacityRequest, DefenseRequest
    from ..fastpath.batch import (
        _capacity_plan,
        _defense_plan,
        batch_frequency_lattices,
    )

    requests = [
        CapacityRequest(interval_ms=21.0, bits=bits, seed=seed),
        CapacityRequest(
            interval_ms=15.0, bits=bits, seed=seed, cross_processor=True,
        ),
        DefenseRequest("restricted_1500_1700", bits=bits, seed=seed),
        DefenseRequest("randomized", bits=bits, seed=seed),
    ]
    # Re-planning is cheap; the plans expose each trial's *effective*
    # platform (the restricted defense narrows the UFS window).
    plans = [
        _defense_plan(request) if isinstance(request, DefenseRequest)
        else _capacity_plan(request)
        for request in requests
    ]
    lattices = batch_frequency_lattices(requests)
    default_points = set(
        default_platform_config().ufs.frequency_points_mhz
    )
    violations: list[str] = []
    for plan, lattice in zip(plans, lattices):
        points = set(plan.platform.ufs.frequency_points_mhz)
        for socket_id, history in enumerate(lattice):
            last_time = None
            for when, freq in history:
                if freq not in points:
                    violations.append(
                        f"socket {socket_id}: {freq} MHz off the "
                        f"{plan.platform.ufs.min_freq_mhz}.."
                        f"{plan.platform.ufs.max_freq_mhz} grid"
                    )
                if last_time is not None and when < last_time:
                    violations.append(
                        f"socket {socket_id}: time went backwards "
                        f"({last_time} -> {when})"
                    )
                last_time = when
    # The restricted plan must actually be restricted, or the check
    # above would vacuously pass against the full default grid.
    restricted = set(plans[2].platform.ufs.frequency_points_mhz)
    if not restricted < default_points:
        violations.append("restricted plan kept the full grid")
    return DifferentialReport(
        name="oracle:batch-frequency-grid",
        matched=not violations,
        detail=(f"MISMATCH: {'; '.join(violations[:3])}" if violations
                else f"{len(plans)} lattices on-grid and monotone"),
    )


def check_des_vs_analytical_capacity(
    seed: int = 0, *, interval_ms: float = 12.0, bits: int = 30,
) -> DifferentialReport:
    """DES realised BER vs the analytical expectation, within tolerance.

    The analytical backend is statistical, not bit-exact: the DES
    error rate is one realisation of ``bits`` Bernoulli decodes whose
    probabilities the estimator computes, so the acceptance band is
    :func:`repro.fastpath.analytical.error_tolerance` around the
    expectation (and the capacity re-derived from the band's edge).
    """
    from ..core.evaluation import measure_capacity
    from ..fastpath.analytical import analytical_estimates
    from ..fastpath.backend import CapacityRequest
    from ..fastpath.batch import _capacity_plan

    request = CapacityRequest(
        interval_ms=interval_ms, bits=bits, seed=seed,
    )
    des = measure_capacity(
        interval_ms=interval_ms, bits=bits, seed=seed, backend="des"
    )
    estimate = analytical_estimates([_capacity_plan(request)])[0]
    delta = abs(des.error_rate - estimate.error_rate)
    matched = delta <= estimate.error_tolerance
    detail = (
        f"|{des.error_rate:.4f} - {estimate.error_rate:.4f}| = "
        f"{delta:.4f} vs tolerance {estimate.error_tolerance:.4f}"
    )
    return DifferentialReport(
        name="des-vs-analytical:capacity",
        matched=matched,
        detail=detail if matched else f"MISMATCH: {detail}",
    )


def run_differential_suite(workdir, seed: int = 0, *,
                           backend: str | None = None,
                           ) -> list[DifferentialReport]:
    """The fast subset behind ``repro validate --differential``.

    ``backend`` narrows the backend-equivalence checks: ``"des"`` runs
    only the legacy execution-path pairs, ``"batch"`` adds the
    bit-identity and grid-oracle checks, ``"analytical"`` adds the
    statistical check, and ``None`` (the default) runs everything.
    """
    from ..fastpath.backend import check_backend

    if backend is not None:
        check_backend(backend)
    reports = [
        check_serial_vs_parallel_capacity(seed),
        check_serial_vs_parallel_defenses(seed),
        check_serial_vs_parallel_matrix(seed),
        check_cold_vs_warm_store(workdir, seed),
        check_live_vs_replay(workdir, seed),
    ]
    if backend in (None, "batch"):
        reports += [
            check_des_vs_batch_capacity(seed),
            check_des_vs_batch_defenses(seed),
            check_des_vs_batch_fuzz_platforms(seed),
            check_batch_frequency_grid(seed),
        ]
    if backend in (None, "analytical"):
        reports.append(check_des_vs_analytical_capacity(seed))
    return reports
