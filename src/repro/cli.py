"""Command-line front end: run the paper's experiments from a shell.

::

    python -m repro transmit --message "UFS!" --interval-ms 28
    python -m repro characterize
    python -m repro capacity --cross-processor --bits 150
    python -m repro capacity --backend batch
    python -m repro stress --threads 4
    python -m repro defenses --backend auto
    python -m repro compare --bits 24
    python -m repro fingerprint --sites 16 --cache-dir traces/
    python -m repro filesize
    python -m repro trace record fingerprint --cache-dir traces/
    python -m repro trace replay fingerprint --cache-dir traces/
    python -m repro trace ls --cache-dir traces/
    python -m repro validate --scenarios 500 --seed 1
    python -m repro validate --differential
    python -m repro capacity --resume ckpt/ --retries 2
    python -m repro chaos --workers 2

Every subcommand accepts ``--seed`` for reproducibility and prints the
same row format the benchmark harness uses.  ``--workers N`` (or
``REPRO_WORKERS``) fans independent trials out across processes where a
command supports it (``capacity``, ``stress``, ``defenses``,
``compare``, ``fingerprint``); worker count never changes the results,
only the wall time.

Backends: ``capacity``, ``defenses``, ``compare`` and ``validate`` take
``--backend {des,batch,analytical,auto}`` (default ``$REPRO_BACKEND``,
then ``des``) to pick the simulator — ``batch`` is the bit-identical
vectorized fast path, ``analytical`` the closed-form estimator.  The
resolved backend is recorded in the run manifest.

Trace caching: ``fingerprint`` and ``filesize`` accept ``--cache-dir``
(or ``$REPRO_TRACE_CACHE``) to reuse recorded trace corpora — a cache
hit skips the simulation entirely and produces bit-identical results;
``--no-cache`` forces a cold run.  The ``trace`` subcommand group
(``record``, ``replay``, ``ls``, ``gc``, ``verify``) manages the store
directly.

Observability: every subcommand takes ``--telemetry PATH``, appending
a run manifest —
config digest, seed, wall time, simulated time and the full metric
snapshot — as one JSON line to PATH.  The experiment commands also take
``--json``, replacing the human tables with the manifest (including the
results) on stdout.  Telemetry is strictly observational: results are
byte-identical with it on or off.

Resilience: the long-running commands (``capacity``, ``defenses``,
``fingerprint``, ``validate``) take ``--resume DIR`` — completed
trials are checkpointed there atomically, and re-running the same
command resumes past them with bit-identical results.  ``capacity``
and ``defenses`` also take ``--retries N`` to re-run transient worker
crashes in place.  ``repro chaos`` injects the whole fault matrix
(crashed trials, killed workers, interrupted sweeps, corrupt trace
stores, stranded temp files, a breaker storm) and exits non-zero unless every fault
is contained.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import format_table


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    """Effective trace-store root for a cache-aware command.

    ``--cache-dir`` beats the ``REPRO_TRACE_CACHE`` environment
    variable; ``--no-cache`` beats both (so CI can export a store root
    globally and still run individual commands cold).
    """
    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_TRACE_CACHE") or None


def _cmd_transmit(args: argparse.Namespace) -> dict:
    from .core import ChannelConfig, SenderMode, UFVariationChannel
    from .platform import System
    from .units import ms

    system = System(seed=args.seed)
    channel = UFVariationChannel(
        system,
        config=ChannelConfig(interval_ns=ms(args.interval_ms)),
        receiver_socket=1 if args.cross_processor else 0,
        sender_mode=(
            SenderMode.TRAFFIC if args.traffic else SenderMode.STALL
        ),
    )
    bits = [
        (byte >> shift) & 1
        for byte in args.message.encode()
        for shift in range(7, -1, -1)
    ]
    result = channel.transmit(bits)
    received = bytearray()
    for offset in range(0, len(result.received) - 7, 8):
        value = 0
        for bit in result.received[offset:offset + 8]:
            value = (value << 1) | bit
        received.append(value)
    print(f"sent:     {args.message!r} ({len(bits)} bits)")
    print(f"received: {received.decode(errors='replace')!r}")
    print(f"BER: {100 * result.error_rate:.1f} %   capacity: "
          f"{result.capacity_bps:.1f} bit/s")
    channel.shutdown()
    system.stop()
    return {
        "experiment": "transmit",
        "results": {
            "bits": len(bits),
            "error_rate": result.error_rate,
            "capacity_bps": result.capacity_bps,
        },
    }


def _cmd_characterize(args: argparse.Namespace) -> dict:
    import numpy as np

    from .platform import System
    from .platform.tracing import frequency_trace
    from .units import ms
    from .workloads import L2PointerChaseLoop, TrafficLoop

    counts = (1, 2, 3, 4, 8, 16)
    rows = []
    for kind in ("None", "0-hop", "1-hop", "2-hop", "3-hop"):
        row = [kind]
        for threads in counts:
            system = System(seed=args.seed)
            for index in range(threads):
                if kind == "None":
                    workload = L2PointerChaseLoop(f"l2-{index}")
                else:
                    workload = TrafficLoop(f"t-{index}",
                                           hops=int(kind[0]))
                system.launch(workload, 0, index)
            system.run_ms(900)
            _, freqs = frequency_trace(
                system.socket(0).pmu.timeline,
                system.now - ms(300), system.now, ms(1),
            )
            row.append(f"{float(np.median(freqs)) / 1000:.1f}")
            system.stop()
        rows.append(row)
    print(format_table(
        ["traffic"] + [str(c) for c in counts], rows,
        title="median uncore frequency (GHz) vs thread count "
              "(Figure 3 excerpt)",
    ))
    return {
        "experiment": "characterize",
        "results": {
            "thread_counts": list(counts),
            "median_ghz": {row[0]: row[1:] for row in rows},
        },
    }


def _resolve_retry(args: argparse.Namespace):
    """``--retries N`` → a RetryPolicy allowing N re-runs (N+1 attempts)."""
    retries = getattr(args, "retries", 0)
    if not retries:
        return None
    from .resilience import RetryPolicy

    return RetryPolicy(max_attempts=retries + 1)


def _cmd_capacity(args: argparse.Namespace) -> dict:
    from .core.evaluation import DEFAULT_INTERVALS_MS, capacity_sweep
    from .fastpath.backend import resolve_backend

    backend = resolve_backend(args.backend, experiment="capacity_sweep")
    intervals = (
        tuple(args.intervals) if args.intervals else DEFAULT_INTERVALS_MS
    )
    sweep = capacity_sweep(
        intervals_ms=intervals,
        bits=args.bits,
        cross_processor=args.cross_processor,
        seed=args.seed,
        workers=args.workers,
        checkpoint_dir=args.resume,
        retry=_resolve_retry(args),
        backend=backend,
    )
    if not args.json:
        rows = [
            [f"{p.interval_ms:.0f}", f"{p.raw_rate_bps:.1f}",
             f"{100 * p.error_rate:.1f}", f"{p.capacity_bps:.1f}"]
            for p in sweep
        ]
        label = ("cross-processor" if args.cross_processor
                 else "cross-core")
        best = sweep.peak()
        print(format_table(
            ["interval (ms)", "raw (bps)", "BER (%)",
             "capacity (bit/s)"],
            rows,
            title=f"{label} capacity sweep; peak "
                  f"{best.capacity_bps:.1f} bit/s",
        ))
    return {
        "experiment": "capacity",
        "backend": backend,
        "results": {
            "points": sweep.points,
            "summary": sweep.summarize(),
        },
    }


def _cmd_stress(args: argparse.Namespace) -> dict:
    from .core.reliability import stress_table

    cells = stress_table(
        args.threads, bits=args.bits, seed=args.seed,
        workers=args.workers,
    )
    if not args.json:
        rows = [
            [
                cell.stress_threads,
                f"{cell.capacity_bps:.1f}",
                f"{100 * cell.error_rate:.0f}",
            ]
            for cell in cells
        ]
        print(format_table(
            ["N", "capacity (bit/s)", "BER (%)"], rows,
            title="UF-variation under stress-ng --cache N (Table 2)",
        ))
    return {"experiment": "stress", "results": {"cells": cells}}


def _cmd_defenses(args: argparse.Namespace) -> dict:
    from .defenses import analytics_energy_overhead, evaluate_defenses
    from .fastpath.backend import resolve_backend

    backend = resolve_backend(args.backend, experiment="evaluate_defenses")
    reports = evaluate_defenses(
        bits=args.bits, seed=args.seed, workers=args.workers,
        checkpoint_dir=args.resume, retry=_resolve_retry(args),
        backend=backend,
    )
    if not args.json:
        rows = [
            [
                r.defense,
                f"{100 * r.error_rate:.1f}",
                f"{r.capacity_bps:.1f}",
                "stopped" if r.channel_stopped else "functional",
            ]
            for r in reports
        ]
        print(format_table(
            ["defense", "BER (%)", "capacity", "verdict"], rows,
            title="UF-variation vs countermeasures (Section 6.1)",
        ))
    results: dict = {"reports": reports}
    if args.energy:
        energy = analytics_energy_overhead(seed=args.seed)
        results["energy"] = energy
        if not args.json:
            print(f"\nfixed-at-max energy overhead on analytics: "
                  f"{energy.overhead_percent:.1f} % (paper: ~7 %)")
    return {"experiment": "defenses", "backend": backend,
            "results": results}


def _cmd_compare(args: argparse.Namespace) -> dict:
    from .channels.comparison import (
        EXTENDED_TABLE3,
        PAPER_TABLE3,
        comparison_matrix,
    )
    from .channels.scenarios import SCENARIOS
    from .fastpath.backend import resolve_backend

    backend = resolve_backend(args.backend,
                              experiment="comparison_matrix")
    cells = comparison_matrix(
        bits=args.bits, seed=args.seed, workers=args.workers,
        backend=backend,
    )
    scenario_keys = [scenario.key for scenario in SCENARIOS]
    by_channel: dict[str, dict[str, object]] = {}
    for cell in cells:
        by_channel.setdefault(cell.channel, {})[cell.scenario] = cell
    agree = total = 0
    rows = []
    for channel, row_cells in by_channel.items():
        row = [channel]
        for key in scenario_keys:
            cell = row_cells.get(key)
            if cell is None:
                row.append("-")
                continue
            row.append(cell.mark)
            expected = {**PAPER_TABLE3, **EXTENDED_TABLE3}.get(
                channel, {}
            ).get(key)
            if expected is not None:
                total += 1
                agree += int(cell.functional is expected)
        rows.append(row)
    if not args.json:
        print(format_table(
            ["channel"] + scenario_keys, rows,
            title=f"channel x scenario functionality (Table 3); "
                  f"{agree}/{total} cells match the paper",
        ))
    return {
        "experiment": "compare",
        "backend": backend,
        "results": {
            "cells": cells,
            "paper_agreement": {"matched": agree, "graded": total},
        },
    }


def _cmd_fingerprint(args: argparse.Namespace) -> dict:
    from .sidechannel import collect_dataset, run_fingerprinting_study
    from .sidechannel.rnn import RnnConfig

    dataset = collect_dataset(
        num_sites=args.sites, train_visits=3, test_visits=2,
        trace_ms=args.trace_ms, seed=args.seed, workers=args.workers,
        cache_dir=_resolve_cache_dir(args),
        checkpoint_dir=args.resume,
    )
    result = run_fingerprinting_study(
        dataset,
        rnn_config=RnnConfig(num_classes=args.sites, epochs=400,
                             seed=args.seed),
    )
    if not args.json:
        print(f"sites: {args.sites}  attack traces: "
              f"{result.test_traces}")
        print(f"RNN top-1: {100 * result.top1:.1f} %  "
              f"top-5: {100 * result.top5:.1f} %  "
              f"(paper, 100 sites: 82.18 / 91.48)")
    return {"experiment": "fingerprint", "results": result}


def _cmd_filesize(args: argparse.Namespace) -> dict:
    from .sidechannel import run_filesize_study

    study = run_filesize_study(
        sizes_kb=tuple(300.0 * s for s in range(1, args.steps + 1)),
        trials=args.trials,
        seed=args.seed,
        cache_dir=_resolve_cache_dir(args),
    )
    if not args.json:
        print(f"file-size profiling at 300 KB granularity over "
              f"{len(study.runs)} runs: {100 * study.accuracy:.1f} % "
              "(paper: > 99 %)")
    return {
        "experiment": "filesize",
        "results": {"accuracy": study.accuracy, "study": study},
    }


def _fingerprint_shape(args: argparse.Namespace) -> dict:
    """The CLI fingerprint study shape (``repro fingerprint`` uses
    3 training and 2 attack visits per site)."""
    return dict(
        num_sites=args.sites,
        train_visits=3,
        test_visits=2,
        trace_ms=args.trace_ms,
    )


def _filesize_shape(args: argparse.Namespace) -> dict:
    """The CLI file-size study shape (300 KB steps, like the paper)."""
    return dict(
        sizes_kb=tuple(300.0 * s for s in range(1, args.steps + 1)),
        calibration_runs=2,
        trials=args.trials,
        granularity_kb=300.0,
    )


def _cmd_trace_record(args: argparse.Namespace) -> dict:
    from .sidechannel import collect_dataset, run_filesize_study
    from .trace import TraceStore

    store = TraceStore(args.cache_dir)
    before = set(store.keys())
    if args.experiment == "fingerprint":
        dataset = collect_dataset(
            **_fingerprint_shape(args),
            seed=args.seed, workers=args.workers,
            cache_dir=args.cache_dir,
        )
        traces = len(dataset.train) + len(dataset.test)
    else:
        study = run_filesize_study(
            **_filesize_shape(args),
            seed=args.seed,
            cache_dir=args.cache_dir,
        )
        traces = len(study.runs) + len(study.calibration) * 2
    new_keys = sorted(set(store.keys()) - before)
    verb = "recorded" if new_keys else "already cached"
    print(f"{verb}: {args.experiment} ({traces} traces) in "
          f"{args.cache_dir}")
    for key in new_keys:
        print(f"  + {key}")
    return {
        "experiment": "trace-record",
        "results": {
            "recorded": args.experiment,
            "traces": traces,
            "new_keys": new_keys,
        },
    }


def _cmd_trace_replay(args: argparse.Namespace) -> dict:
    from .trace import TraceStore, replay_filesize, replay_fingerprint

    store = TraceStore(args.cache_dir)
    if args.experiment == "fingerprint":
        result = replay_fingerprint(
            store,
            **_fingerprint_shape(args),
            seed=args.seed,
            sharded=args.sharded,
            classifier=args.classifier,
        )
        if not args.json:
            print(f"replayed {result.test_traces} attack traces from "
                  f"{args.cache_dir} (no simulation)")
            print(f"{args.classifier} top-1: {100 * result.top1:.1f} %  "
                  f"top-5: {100 * result.top5:.1f} %")
        return {"experiment": "trace-replay", "results": result}
    study = replay_filesize(store, **_filesize_shape(args),
                            seed=args.seed)
    if not args.json:
        print(f"replayed {len(study.runs)} profiled runs from "
              f"{args.cache_dir} (no simulation)")
        print(f"file-size accuracy: {100 * study.accuracy:.1f} %")
    return {
        "experiment": "trace-replay",
        "results": {"accuracy": study.accuracy, "study": study},
    }


def _cmd_trace_ls(args: argparse.Namespace) -> dict:
    from .trace import TraceStore

    store = TraceStore(args.cache_dir)
    entries = store.entries()
    if not args.json:
        # Rank 1 is the least recently used corpus, the next to evict.
        rows = [
            [
                entry.key,
                entry.experiment or "-",
                "-" if entry.records is None else str(entry.records),
                f"{entry.size_bytes / 1024:.1f}",
                str(rank),
            ]
            for rank, entry in enumerate(sorted(
                entries, key=lambda e: (e.last_used_ns, e.key)), start=1)
        ]
        print(format_table(
            ["key", "experiment", "records", "KiB", "lru"], rows,
            title=f"{len(entries)} corpora, "
                  f"{store.total_bytes() / 1024:.1f} KiB total "
                  f"in {args.cache_dir}",
        ))
    return {
        "experiment": "trace-ls",
        "results": {
            "entries": entries,
            "total_bytes": store.total_bytes(),
        },
    }


def _cmd_trace_gc(args: argparse.Namespace) -> dict:
    from .trace import TraceStore

    store = TraceStore(args.cache_dir)
    evicted = store.gc(args.max_bytes)
    if not args.json:
        for key in evicted:
            print(f"evicted {key}")
        print(f"{len(evicted)} corpora evicted; "
              f"{store.total_bytes() / 1024:.1f} KiB retained "
              f"(cap {args.max_bytes / 1024:.1f} KiB)")
    return {
        "experiment": "trace-gc",
        "results": {
            "evicted": evicted,
            "total_bytes": store.total_bytes(),
        },
    }


def _cmd_trace_verify(args: argparse.Namespace) -> dict:
    from .errors import TraceStoreError
    from .trace import TraceStore

    store = TraceStore(args.cache_dir)
    report = store.verify()
    if not args.json:
        print(f"{len(report.ok)} ok, {len(report.corrupt)} corrupt "
              f"in {args.cache_dir}")
    if not report.clean:
        for key in report.corrupt:
            print(f"  corrupt blob: {key}", file=sys.stderr)
        if args.quarantine:
            # Corrupt blobs move aside, so the next record re-warms them.
            for key in report.corrupt:
                store.quarantine(key)
            print(f"  quarantined {len(report.corrupt)} corpora",
                  file=sys.stderr)
        raise TraceStoreError(
            f"trace store {args.cache_dir} failed verification "
            f"({len(report.corrupt)} corrupt)"
        )
    return {"experiment": "trace-verify", "results": report}


def _cmd_validate(args: argparse.Namespace) -> dict:
    from .errors import ValidationError
    from .validate import (
        FAULTS,
        non_default_params,
        replay_repro,
        run_differential_suite,
        run_validation,
    )

    if args.backend is not None and not args.differential:
        raise ValidationError(
            "--backend narrows the backend-equivalence checks and "
            "only applies with --differential"
        )

    if args.replay:
        outcome = replay_repro(args.replay)
        if not args.json:
            for violation in outcome.violations:
                print(f"  [{violation.oracle}] {violation.message}")
        if outcome.ok:
            raise ValidationError(
                f"repro file {args.replay} no longer reproduces: the "
                f"recorded failure is gone (fixed, or the repro is "
                f"stale)"
            )
        if not args.json:
            print(f"reproduced: scenario {outcome.scenario.index} "
                  f"(seed {outcome.scenario.seed}) still fails with "
                  f"{len(outcome.violations)} violations")
        return {
            "experiment": "validate-replay",
            "results": {
                "reproduced": True,
                "violations": len(outcome.violations),
                "non_default_params": sorted(
                    non_default_params(outcome.scenario)
                ),
            },
        }

    if args.differential:
        import tempfile

        with tempfile.TemporaryDirectory() as workdir:
            reports = run_differential_suite(
                workdir, seed=args.seed, backend=args.backend
            )
        if not args.json:
            rows = [
                [r.name, "ok" if r.matched else "MISMATCH", r.detail]
                for r in reports
            ]
            print(format_table(["check", "result", "detail"], rows))
        mismatched = [r for r in reports if not r.matched]
        if mismatched:
            raise ValidationError(
                f"{len(mismatched)} differential checks diverged: "
                + ", ".join(r.name for r in mismatched)
            )
        return {
            "experiment": "validate-differential",
            "backend": args.backend,
            "results": {"checks": len(reports), "mismatches": 0},
        }

    if args.plant_fault is not None and args.plant_fault not in FAULTS:
        raise ValidationError(
            f"unknown fault {args.plant_fault!r}; "
            f"known: {sorted(FAULTS)}"
        )
    report = run_validation(
        seed=args.seed,
        count=args.scenarios,
        workers=args.workers,
        fault=args.plant_fault,
        repro_dir=args.repro_dir,
        checkpoint_dir=args.resume,
    )
    kinds = report.scenario_kinds
    if not args.json:
        print(f"{report.count - len(report.failures)}/{report.count} "
              f"scenarios clean (seed {report.seed}, "
              f"{len(report.violations)} violations)")
        print("modulation regimes: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items())
        ))
        if report.repro_path:
            print(f"repro file: {report.repro_path}")
    report.raise_on_failure()
    return {
        "experiment": "validate",
        "results": {
            "scenarios": report.count,
            "violations": 0,
            "fault": report.fault,
            "scenario_kinds": kinds,
        },
    }


def _cmd_chaos(args: argparse.Namespace) -> dict:
    import tempfile

    from .errors import ResilienceError
    from .resilience.chaos import run_chaos

    faults = tuple(args.faults) if args.faults else None
    if args.workdir:
        outcomes = run_chaos(
            args.workdir, seed=args.seed, workers=args.workers,
            faults=faults,
        )
    else:
        with tempfile.TemporaryDirectory() as workdir:
            outcomes = run_chaos(
                workdir, seed=args.seed, workers=args.workers,
                faults=faults,
            )
    contained = sum(1 for o in outcomes if o.contained)
    if not args.json:
        rows = [
            [
                o.fault,
                o.mechanism,
                "contained" if o.contained else "ESCAPED",
                o.detail,
            ]
            for o in outcomes
        ]
        print(format_table(
            ["fault", "mechanism", "verdict", "detail"], rows,
            title=f"chaos matrix: {contained}/{len(outcomes)} faults "
                  "contained",
        ))
    escaped = [o for o in outcomes if not o.contained]
    if escaped:
        raise ResilienceError(
            f"{len(escaped)} of {len(outcomes)} injected faults "
            "escaped containment: "
            + ", ".join(o.fault for o in escaped)
        )
    return {
        "experiment": "chaos",
        "results": {
            "outcomes": outcomes,
            "contained": contained,
            "total": len(outcomes),
        },
    }


def _add_backend_flag(subparser: argparse.ArgumentParser) -> None:
    from .fastpath.backend import BACKENDS

    subparser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="simulation backend: des (reference), batch "
             "(vectorized, bit-identical to des), analytical "
             "(closed-form estimate), auto (batch where supported); "
             "default $REPRO_BACKEND, then des",
    )


def _add_resume_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="checkpoint completed trials in DIR and skip them when "
             "re-run with the same parameters (results are "
             "bit-identical to an uninterrupted run)",
    )


def _add_retries_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a trial up to N times after a transient worker "
             "failure before giving up (default 0: fail fast)",
    )


def _add_telemetry_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="append the run manifest (metrics, config digest, "
             "timings) as one JSON line to PATH",
    )


def _add_json_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--json", action="store_true",
        help="emit the run manifest (with results) as JSON on stdout "
             "instead of the human table",
    )
    _add_telemetry_flag(subparser)


def _add_cache_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="trace-store root: reuse stored traces on a key hit, "
             "record fresh ones on a miss (results are bit-identical "
             "either way; default $REPRO_TRACE_CACHE)",
    )
    subparser.add_argument(
        "--no-cache", action="store_true",
        help="always simulate, even when $REPRO_TRACE_CACHE is set",
    )


def _add_fingerprint_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sites", type=int, default=16)
    sub.add_argument("--trace-ms", type=float, default=5000.0)


def _add_filesize_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--steps", type=int, default=8)
    sub.add_argument("--trials", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    from ._version import __version__
    from .resilience.chaos import CHAOS_FAULTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Uncore Encore (MICRO 2023) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--seed", type=int, default=0,
                        help="experiment seed (default 0)")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes for independent trials "
                             "(default 1 or $REPRO_WORKERS; 0 = all "
                             "CPUs; results are identical for every "
                             "value)")
    parser.set_defaults(json=False, telemetry=None)
    commands = parser.add_subparsers(dest="command", required=True)

    transmit = commands.add_parser(
        "transmit", help="send a message through UF-variation"
    )
    transmit.add_argument("--message", default="UFS!")
    transmit.add_argument("--interval-ms", type=float, default=28.0)
    transmit.add_argument("--cross-processor", action="store_true")
    transmit.add_argument("--traffic", action="store_true",
                          help="drive with the traffic loop instead "
                               "of the stalling loop")
    _add_telemetry_flag(transmit)
    transmit.set_defaults(handler=_cmd_transmit)

    characterize = commands.add_parser(
        "characterize", help="the Figure 3 frequency matrix (excerpt)"
    )
    _add_telemetry_flag(characterize)
    characterize.set_defaults(handler=_cmd_characterize)

    capacity = commands.add_parser(
        "capacity", help="the Figure 10 capacity sweep"
    )
    capacity.add_argument("--bits", type=int, default=150)
    capacity.add_argument("--cross-processor", action="store_true")
    capacity.add_argument("--intervals", type=float, nargs="+",
                          metavar="MS", default=None,
                          help="interval lengths (ms) to sweep "
                               "(default: the Figure 10 grid)")
    _add_backend_flag(capacity)
    _add_resume_flag(capacity)
    _add_retries_flag(capacity)
    _add_json_flag(capacity)
    capacity.set_defaults(handler=_cmd_capacity)

    stress = commands.add_parser(
        "stress", help="the Table 2 stress-ng reliability row"
    )
    stress.add_argument("--threads", type=int, default=9)
    stress.add_argument("--bits", type=int, default=100)
    _add_json_flag(stress)
    stress.set_defaults(handler=_cmd_stress)

    defenses = commands.add_parser(
        "defenses", help="the Section 6.1 countermeasure study"
    )
    defenses.add_argument("--bits", type=int, default=60)
    defenses.add_argument("--energy", action="store_true",
                          help="also run the energy-overhead study")
    _add_backend_flag(defenses)
    _add_resume_flag(defenses)
    _add_retries_flag(defenses)
    _add_json_flag(defenses)
    defenses.set_defaults(handler=_cmd_defenses)

    compare = commands.add_parser(
        "compare",
        help="the Table 3 channel x scenario comparison",
        description="Run every covert channel in every defensive "
                    "scenario and grade functionality, reproducing "
                    "Table 3.  Cells are graded against the paper's "
                    "published marks.  DES only: the matrix mixes "
                    "non-UFS channels the vectorized backends do not "
                    "model.",
    )
    compare.add_argument("--bits", type=int, default=24)
    _add_backend_flag(compare)
    _add_json_flag(compare)
    compare.set_defaults(handler=_cmd_compare)

    fingerprint = commands.add_parser(
        "fingerprint", help="the Figure 12 website fingerprinting study"
    )
    _add_fingerprint_shape_flags(fingerprint)
    _add_cache_flags(fingerprint)
    _add_resume_flag(fingerprint)
    _add_json_flag(fingerprint)
    fingerprint.set_defaults(handler=_cmd_fingerprint)

    filesize = commands.add_parser(
        "filesize", help="the Figure 11 file-size profiling study"
    )
    _add_filesize_shape_flags(filesize)
    _add_cache_flags(filesize)
    _add_json_flag(filesize)
    filesize.set_defaults(handler=_cmd_filesize)

    trace = commands.add_parser(
        "trace",
        help="trace store: record, replay, ls, gc, verify",
        description="Manage the content-addressed trace store: record "
                    "study corpora, replay them through the "
                    "classifiers without simulating, and inspect, "
                    "garbage-collect or integrity-check the store.",
    )
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)

    record = trace_commands.add_parser(
        "record", help="simulate a study and store its traces"
    )
    record.add_argument("experiment",
                        choices=("fingerprint", "filesize"))
    record.add_argument("--cache-dir", metavar="DIR", required=True,
                        help="trace-store root to record into")
    _add_fingerprint_shape_flags(record)
    _add_filesize_shape_flags(record)
    _add_telemetry_flag(record)
    record.set_defaults(handler=_cmd_trace_record)

    replay = trace_commands.add_parser(
        "replay",
        help="classify stored traces without touching the simulator",
    )
    replay.add_argument("experiment",
                        choices=("fingerprint", "filesize"))
    replay.add_argument("--cache-dir", metavar="DIR", required=True,
                        help="trace-store root to replay from")
    replay.add_argument("--classifier",
                        choices=("rnn", "knn", "gru"), default="rnn",
                        help="fingerprint model (default rnn)")
    replay.add_argument("--sharded", action="store_true",
                        help="the corpus was recorded in sharded "
                             "(workers > 1) mode")
    _add_fingerprint_shape_flags(replay)
    _add_filesize_shape_flags(replay)
    _add_json_flag(replay)
    replay.set_defaults(handler=_cmd_trace_replay)

    ls = trace_commands.add_parser(
        "ls", help="list the stored corpora"
    )
    ls.add_argument("--cache-dir", metavar="DIR", required=True)
    _add_json_flag(ls)
    ls.set_defaults(handler=_cmd_trace_ls)

    gc = trace_commands.add_parser(
        "gc", help="evict least-recently-used corpora over a size cap"
    )
    gc.add_argument("--cache-dir", metavar="DIR", required=True)
    gc.add_argument("--max-bytes", type=int, required=True,
                    help="target store size in bytes")
    _add_json_flag(gc)
    gc.set_defaults(handler=_cmd_trace_gc)

    verify = trace_commands.add_parser(
        "verify",
        help="integrity-check every stored corpus (exit 2 on damage)",
    )
    verify.add_argument("--cache-dir", metavar="DIR", required=True)
    verify.add_argument("--quarantine", action="store_true",
                        help="move corrupt blobs to quarantine/ "
                             "instead of leaving them in place")
    _add_json_flag(verify)
    verify.set_defaults(handler=_cmd_trace_verify)

    validate = commands.add_parser(
        "validate",
        help="fuzz the simulator against its invariant oracles",
        description="Generate seed-addressed random scenarios and "
                    "check every one against the simulator's "
                    "invariants (monotone time, on-grid frequencies, "
                    "exact PMU cadence, Shannon-bounded capacity, "
                    "telemetry transparency).  Failures are shrunk to "
                    "a minimal scenario and written as a replayable "
                    "repro file.  Exit 2 on any violation.",
    )
    # Accepted here as well as globally, so the natural spelling
    # ``repro validate --seed 1 --scenarios 500`` works; SUPPRESS
    # leaves the global value untouched when the flag is absent.
    validate.add_argument("--seed", type=int,
                          default=argparse.SUPPRESS,
                          help="experiment seed (default 0)")
    validate.add_argument("--workers", type=int,
                          default=argparse.SUPPRESS,
                          help="processes for scenario fan-out "
                               "(0 = all CPUs)")
    validate.add_argument("--scenarios", type=int, default=100,
                          help="number of fuzzed scenarios (default "
                               "100)")
    validate.add_argument("--repro-dir", metavar="DIR", default=None,
                          help="where to write the shrunk repro file "
                               "for the first failure")
    validate.add_argument("--plant-fault", metavar="NAME", default=None,
                          help="arm a named fault injector in every "
                               "scenario (canary mode: the run MUST "
                               "fail)")
    validate.add_argument("--replay", metavar="FILE", default=None,
                          help="re-run a repro file instead of "
                               "fuzzing; exit 0 if the recorded "
                               "failure reproduces")
    validate.add_argument("--differential", action="store_true",
                          help="run the differential suite (serial vs "
                               "parallel, cold vs warm store, live vs "
                               "replay) instead of fuzzing")
    _add_backend_flag(validate)
    _add_resume_flag(validate)
    _add_json_flag(validate)
    validate.set_defaults(handler=_cmd_validate)

    chaos = commands.add_parser(
        "chaos",
        help="inject the fault matrix and prove every fault contained",
        description="Run every injected fault — crashed trials, killed "
                    "workers, an interrupted sweep, flipped CRCs, a "
                    "half-written temp file and a breaker storm — "
                    "through the matching resilience "
                    "mechanism.  Exit 0 only if every fault is "
                    "contained with bit-identical results.",
    )
    chaos.add_argument("--seed", type=int,
                       default=argparse.SUPPRESS,
                       help="experiment seed (default 0)")
    chaos.add_argument("--workers", type=int,
                       default=argparse.SUPPRESS,
                       help="processes for the pool-rebuild checks "
                            "(0 = all CPUs)")
    chaos.add_argument("--workdir", metavar="DIR", default=None,
                       help="keep the chaos scratch state (stores, "
                            "checkpoints) in DIR instead of a "
                            "temporary directory")
    chaos.add_argument("--faults", metavar="NAME", nargs="+",
                       default=None,
                       help="run only these faults (default: all of "
                            f"{' '.join(CHAOS_FAULTS)})")
    _add_json_flag(chaos)
    chaos.set_defaults(handler=_cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from concurrent.futures.process import BrokenProcessPool

    from .config import RunnerConfig, default_platform_config
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.workers is None:
            # Resolved here, not at parser build time, so a bad
            # REPRO_WORKERS yields a clean error (and --help works).
            args.workers = RunnerConfig.from_env().workers
        else:
            RunnerConfig(workers=args.workers).validate()

        if not (args.telemetry or args.json):
            args.handler(args)
            return 0

        from .analysis.export import manifest_to_json, write_manifest
        from .telemetry import MetricsRegistry, build_manifest, using

        registry = MetricsRegistry()
        start = time.perf_counter()
        with using(registry):
            payload = args.handler(args)
        wall_time_s = time.perf_counter() - start
        manifest = build_manifest(
            payload["experiment"],
            registry=registry,
            seed=args.seed,
            workers=args.workers,
            platform=default_platform_config(),
            wall_time_s=wall_time_s,
            results=payload["results"],
            backend=payload.get("backend"),
        )
        if args.telemetry:
            write_manifest(args.telemetry, manifest)
        if args.json:
            print(manifest_to_json(manifest))
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool:
        # A worker died hard enough that the retry machinery could not
        # rebuild around it (or the command does not retry).
        print("error: a worker process died (killed by the OS or out "
              "of memory) — reduce --workers, add --retries, or "
              "re-run with --resume to pick up where it stopped",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Conventional 128 + SIGINT.  Checkpointed commands flush on
        # the way out, so an interrupted run resumes with --resume.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
