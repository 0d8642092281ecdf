"""One pass of one workload, in a fresh process.

``run.py`` starts this script; nothing here is meant to be run by hand.

    worker.py setup --workload W --seed N
        Do the workload's set-up (imports, first ``System``, first
        eviction list), print ``ready`` and exit.  ``run.py`` times it
        from process spawn to that line.

    worker.py run --workload W --seed N --seconds S --mode M --out F
        Warm up, then run the workload's op back to back for ``S``
        seconds, reading the host's slowdown (``speed.py``) before the
        first op and after every op; then check every output against an
        independent path (outside the timed region) and write a JSON
        report to ``F``.  ``M`` is ``plain`` (no instrumentation),
        ``trace`` (layer spans plus the simulator's MetricsRegistry
        counters) or ``profile`` (cProfile).

Every input derives from ``--seed``; every call runs with
``workers=1``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import os
import pstats
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import GC_SPAN, OP_SPAN, Tracer, summarize_profile  # noqa: E402

#: The paper's Figure 10 peak capacities (bit/s).
PAPER_PEAK_BPS = {False: 46.0, True: 31.0}

#: ``fig10-des``: the 11 default intervals x 2 deployments, interleaved
#: long/short and cross-core/cross-processor so that any prefix of the
#: cycle has the cost mix of the whole sweep.
FIG10_BITS = 120

#: ``fig12-fingerprint`` op shape: one long-lived collection system.
FIG12_SHAPE = dict(num_sites=4, train_visits=2, test_visits=1,
                   trace_ms=400.0)
FIG12_EPOCHS = 100

#: ``sweep-batch`` payload length for both Fig. 10 sweeps and §6.1.
SWEEP_BITS = 100

WORKLOADS = ("fig10-des", "fig12-fingerprint", "sweep-batch")

#: The ``speed.py`` kernels each workload's times are scaled by: those
#: that resemble its hot path.  ``fig10-des`` builds a ``System`` per
#: op (object construction, memory); ``sweep-batch`` steps the UFS
#: lattice in small numpy arrays; ``fig12-fingerprint`` does both.
PROBE_KERNELS = {
    "fig10-des": ("objects", "chase", "copy"),
    "fig12-fingerprint": ("objects", "chase", "small_numpy"),
    "sweep-batch": ("small_numpy",),
}


def _fig10_points():
    from repro.core.evaluation import DEFAULT_INTERVALS_MS

    intervals = list(DEFAULT_INTERVALS_MS)
    order = []
    for index in range(len(intervals)):
        order.append((intervals[index], False))
        order.append((intervals[-1 - index], True))
    return order


def paper_gap_bps(cross_core, cross_processor) -> float:
    """Mean |peak - paper| over the two Figure 10 deployments."""
    return (abs(cross_core.peak().capacity_bps - PAPER_PEAK_BPS[False])
            + abs(cross_processor.peak().capacity_bps
                  - PAPER_PEAK_BPS[True])) / 2.0


def des_setup(seed: int) -> None:
    """First ``System`` plus the receiver's first eviction list."""
    from repro.platform.system import System

    system = System(None, seed=seed)
    system.create_actor("setup-probe", 0, 8).build_measurement_list()
    system.stop()


# -- in-process workloads ------------------------------------------------


class Fig10Des:
    """Fig. 10 on the reference DES: one op is one capacity point."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.points = _fig10_points()

    def setup(self) -> None:
        des_setup(self.seed)

    warm_up = setup

    def op(self, index: int):
        from repro.core.evaluation import measure_capacity

        interval, cross = self.points[index % len(self.points)]
        return measure_capacity(interval_ms=interval, bits=FIG10_BITS,
                                cross_processor=cross, seed=self.seed,
                                workers=1, backend="des")

    def plant(self, outputs) -> None:
        first = outputs[0]
        outputs[0] = dataclasses.replace(
            first, error_rate=first.error_rate + 1.0 / first.bits
        )

    def verify(self, outputs) -> tuple[dict[int, str], dict]:
        """Each DES point must equal the batch point bit for bit."""
        from repro.core.evaluation import capacity_sweep
        from repro.validate.differential import equal_results

        sweeps = {
            cross: capacity_sweep(bits=FIG10_BITS, cross_processor=cross,
                                  seed=self.seed, workers=1,
                                  backend="batch")
            for cross in (False, True)
        }
        reference = {(point.interval_ms, cross): point
                     for cross, sweep in sweeps.items() for point in sweep}
        wrong = {}
        for index, point in enumerate(outputs):
            if point is None:
                continue
            interval, cross = self.points[index % len(self.points)]
            try:
                point.validate()
            except Exception as exc:  # noqa: BLE001 - reported as wrong
                wrong[index] = str(exc)
                continue
            if not equal_results(point, reference[(interval, cross)]):
                wrong[index] = (
                    f"DES point at {interval} ms "
                    f"({'cross-processor' if cross else 'cross-core'}) "
                    "differs from the batch point"
                )
        gap = paper_gap_bps(sweeps[False], sweeps[True])
        return wrong, {"paper_gap_bps": gap}


class Fig12Fingerprint:
    """Fig. 12: cold collection into a fresh trace store, warm
    re-collection from it, then RNN + kNN classification."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        des_setup(self.seed)

    def warm_up(self) -> None:
        from repro.sidechannel.fingerprint import (
            collect_dataset,
            run_fingerprinting_study,
        )
        from repro.sidechannel.rnn import RnnConfig

        dataset = collect_dataset(num_sites=2, train_visits=1,
                                  test_visits=1, trace_ms=50.0,
                                  seed=self.seed, workers=1,
                                  cache_dir=self.scratch / "warm-up")
        run_fingerprinting_study(
            dataset, rnn_config=RnnConfig(num_classes=2, epochs=2),
            seed=self.seed,
        )

    def op(self, index: int):
        from repro.sidechannel.fingerprint import (
            collect_dataset,
            run_fingerprinting_study,
        )
        from repro.sidechannel.rnn import RnnConfig

        store = self.scratch / f"store-{index}"
        cold = collect_dataset(**FIG12_SHAPE, seed=self.seed, workers=1,
                               cache_dir=store)
        warm = collect_dataset(**FIG12_SHAPE, seed=self.seed, workers=1,
                               cache_dir=store)
        result = run_fingerprinting_study(
            cold,
            rnn_config=RnnConfig(num_classes=FIG12_SHAPE["num_sites"],
                                 epochs=FIG12_EPOCHS, seed=self.seed),
            seed=self.seed,
        )
        return cold, warm, result

    def verify(self, outputs) -> tuple[dict[int, str], dict]:
        """The warm dataset must equal the cold one; identical inputs
        must give identical datasets and accuracies on every op."""
        from repro.validate.differential import equal_results

        done = [(index, out) for index, out in enumerate(outputs)
                if out is not None]
        if not done:
            return {}, {}
        first_cold, _first_warm, first_result = done[0][1]
        wrong = {}
        for index, (cold, warm, result) in done:
            if not equal_results(cold, warm):
                wrong[index] = "warm dataset differs from the cold one"
            elif not (equal_results(cold, first_cold)
                      and equal_results(result, first_result)):
                wrong[index] = ("same seed, different dataset or accuracy "
                                "than the first op")
        return wrong, {"top1_acc": first_result.top1}


class SweepBatch:
    """Fig. 10 (both deployments) and §6.1 on the batch backend."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.core.evaluation import capacity_sweep

        capacity_sweep(intervals_ms=(21.0,), bits=8, seed=self.seed,
                       workers=1, backend="batch")

    def warm_up(self) -> None:
        from repro.defenses import evaluate_defenses

        self.setup()
        evaluate_defenses(bits=8, seed=self.seed, workers=1,
                          backend="batch")

    def op(self, index: int):
        from repro.core.evaluation import capacity_sweep
        from repro.defenses import evaluate_defenses

        del index  # every op runs the same seeded experiment
        sweeps = tuple(
            capacity_sweep(bits=SWEEP_BITS, cross_processor=cross,
                           seed=self.seed, workers=1, backend="batch")
            for cross in (False, True)
        )
        reports = evaluate_defenses(bits=SWEEP_BITS, seed=self.seed,
                                    workers=1, backend="batch")
        return sweeps, reports

    def verify(self, outputs) -> tuple[dict[int, str], dict]:
        """Every point and defense report within the analytical
        backend's ``error_tolerance``; every op identical to op 0."""
        from repro.fastpath.analytical import analytical_estimates
        from repro.fastpath.backend import CapacityRequest, DefenseRequest
        from repro.fastpath.batch import _capacity_plan, _defense_plan
        from repro.validate.differential import equal_results

        done = [(index, out) for index, out in enumerate(outputs)
                if out is not None]
        if not done:
            return {}, {}
        first_index, (sweeps, reports) = done[0]
        plans, observed, labels = [], [], []
        for cross, sweep in zip((False, True), sweeps):
            for point in sweep:
                plans.append(_capacity_plan(CapacityRequest(
                    interval_ms=point.interval_ms, bits=SWEEP_BITS,
                    cross_processor=cross, seed=self.seed,
                )))
                observed.append(point.error_rate)
                deployment = "cross-processor" if cross else "cross-core"
                labels.append(f"{point.interval_ms:g} ms {deployment}")
        for report in reports:
            plans.append(_defense_plan(DefenseRequest(
                defense=report.defense, bits=SWEEP_BITS, seed=self.seed,
            )))
            observed.append(report.error_rate)
            labels.append(f"defense {report.defense}")
        wrong = {}
        for label, error_rate, estimate in zip(
                labels, observed, analytical_estimates(plans)):
            delta = abs(error_rate - estimate.error_rate)
            if delta > estimate.error_tolerance:
                wrong[first_index] = (
                    f"{label}: BER {error_rate:.4f} outside "
                    f"{estimate.error_rate:.4f} +/- "
                    f"{estimate.error_tolerance:.4f}"
                )
        for index, out in done[1:]:
            if not equal_results(out, done[0][1]):
                wrong[index] = "same seed, different result than the first op"
        return wrong, {"paper_gap_bps": paper_gap_bps(*sweeps)}


def run_in_process(workload, *, seconds: float, mode: str, plant: bool,
                   probe_kernels: tuple[str, ...]) -> dict:
    """Warm up, time ops back to back, then check every output.

    Every op ends with a full garbage collection inside its timed
    region: a DES op leaves hundreds of thousands of objects in
    reference cycles, and collecting them at a fixed point makes each
    op pay for its own garbage and the memory high-water mark one op's,
    rather than wherever the automatic collector happened to run.

    The host's slowdown is read before the first op and after every
    op, outside the op's time (and outside the profile).
    """
    tracer = registry = profile = None
    collect = gc.collect
    if mode == "trace":
        from repro.telemetry import MetricsRegistry, activate

        tracer = Tracer()
        tracer.install()
        collect = tracer.wrap(gc.collect, GC_SPAN, True)
    workload.warm_up()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        registry = MetricsRegistry()
        activate(registry)
    if mode == "profile":
        profile = cProfile.Profile()

    outputs, latencies, errors = [], [], {}
    clock = time.perf_counter
    with SpeedProbe(probe_kernels) as probe:
        slowdowns = [probe.slowdown()]
        start = clock()
        deadline = start + seconds
        index = 0
        while True:
            if profile is not None:
                profile.enable()
            began = clock()
            try:
                if tracer is not None:
                    tracer.run_id = index
                    with tracer.span(OP_SPAN):
                        outputs.append(workload.op(index))
                        collect()
                else:
                    outputs.append(workload.op(index))
                    collect()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                outputs.append(None)
                errors[index] = f"{type(exc).__name__}: {exc}"
            latencies.append((clock() - began) * 1000.0)
            if profile is not None:
                profile.disable()
            slowdowns.append(probe.slowdown())
            index += 1
            if clock() >= deadline:
                break
        window_s = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"ops": index, "window_s": window_s, "latencies_ms": latencies,
              "slowdowns": slowdowns, "rss_mb": rss_mb}
    if profile is not None:
        report["profile"] = summarize_profile(pstats.Stats(profile))
    if tracer is not None:
        from repro.telemetry import deactivate

        deactivate()
        tracer.uninstall()
        report["trace"] = tracer.export()
        report["counters"] = registry.snapshot()["counters"]

    if plant:
        workload.plant(outputs)
    wrong, fidelity = workload.verify(outputs)
    problems = {**wrong, **errors}
    report.update(failed=len(problems), fidelity=fidelity,
                  problems=[f"op {index}: {text}"
                            for index, text in sorted(problems.items())])
    return report


# -- processes -----------------------------------------------------------


def stop_process(process, timeout: float) -> None:
    """Wait for ``process``; kill it if it outlives ``timeout``."""
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


def child_env() -> dict:
    """This checkout's sources first; no ambient repro settings."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# -- entry ---------------------------------------------------------------


def make_workload(name: str, seed: int, scratch: Path):
    if name == "fig10-des":
        return Fig10Des(seed)
    if name == "fig12-fingerprint":
        return Fig12Fingerprint(seed, scratch)
    if name == "sweep-batch":
        return SweepBatch(seed)
    raise ValueError(f"no workload {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("plain", "trace", "profile"),
                        default="plain")
    parser.add_argument("--plant-fault", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args(argv)

    if args.action == "setup":
        make_workload(args.workload, args.seed, args.scratch).setup()
        print("ready", flush=True)
        return 0
    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, args.scratch)
        if args.plant_fault and not hasattr(workload, "plant"):
            parser.error(f"no planted fault for {args.workload}")
        report = run_in_process(workload, seconds=args.seconds,
                                mode=args.mode, plant=args.plant_fault,
                                probe_kernels=PROBE_KERNELS[args.workload])
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
