"""The end-to-end benchmark of record: three workloads, end-to-end and
per-layer metrics.

    python benchmarks/e2e/run.py --seed 0                  # all workloads
    python benchmarks/e2e/run.py --workload fig10-des --seed 3 \\
        --seconds 25 --trace 0                             # one run
    python benchmarks/e2e/run.py --seed 0 --trace --ledger # LEDGER.md
    python benchmarks/e2e/run.py --seed 0 --runs 10 --save A.json
    python benchmarks/e2e/run.py --compare A.json B.json

One run of one workload:

1. sets the workload up ``SETUP_REPEATS`` times, each in a fresh
   process, and reports the median as ``setup_s``;
2. runs the workload's op back to back for ``--seconds`` in a fresh
   worker process with no instrumentation, which gives every
   end-to-end metric;
3. with ``--trace``, runs a second, traced pass of the same length,
   which gives the per-layer metrics, and writes its spans to
   ``out/<workload>.trace.json``; with ``--profile``, a cProfile pass
   written to ``out/<workload>.profile.json``.

Every process of a run is pinned to one CPU.  Times are scaled to a
reference host speed read by ``speed.py`` between ops and between
set-ups; the raw times are printed beside them.

Every output is checked against an independent path after the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics, or with ``--trace`` the per-layer metrics).  The exit code is
non-zero when any output check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe, scale  # noqa: E402
from tracer import GC_SPAN, LAYER_NAMES, OP_SPAN  # noqa: E402
from worker import WORKLOADS, child_env, stop_process  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
LEDGER = HERE / "LEDGER.md"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The ``speed.py`` kernels that scale set-up times: a set-up is
#: imports and object construction on every workload.
SETUP_PROBE_KERNELS = ("objects", "chase", "copy")

#: Grace on top of ``--seconds`` for one worker pass (warm-up, output
#: checks, process start and exit).
PASS_GRACE_S = 120.0


# -- running -------------------------------------------------------------


def _pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so the
    speed probe measures the CPU the ops run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _setup_once(workload: str, seed: int) -> float:
    """Seconds from process spawn to the workload being ready."""
    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "setup",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, env=child_env(),
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - began
    finally:
        stop_process(process, timeout=PASS_GRACE_S)
    if line.strip() != b"ready" or process.returncode != 0:
        raise RuntimeError(f"{workload}: set-up process failed")
    return elapsed


def _setups(workload: str, seed: int) -> dict:
    """``SETUP_REPEATS`` set-ups with a slowdown reading around each."""
    with SpeedProbe(SETUP_PROBE_KERNELS) as probe:
        slowdowns = [probe.slowdown()]
        seconds = []
        for _ in range(SETUP_REPEATS):
            seconds.append(_setup_once(workload, seed))
            slowdowns.append(probe.slowdown())
    return {"seconds": seconds, "slowdowns": slowdowns}


def _run_pass(workload: str, seed: int, seconds: float, mode: str,
              plant: bool = False) -> dict:
    """One worker process; its JSON report."""
    stem = OUT / "tmp" / f"{workload}-{mode}-{os.getpid()}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    report_path = stem.with_suffix(".json")
    command = [sys.executable, str(HERE / "worker.py"), "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--out", str(report_path), "--scratch", str(stem)]
    if plant:
        command.append("--plant-fault")
    process = subprocess.Popen(command, env=child_env())
    stop_process(process, timeout=seconds + PASS_GRACE_S)
    try:
        if process.returncode != 0:
            raise RuntimeError(
                f"{workload}: {mode} pass exited {process.returncode}"
            )
        return json.loads(report_path.read_text())
    finally:
        for leftover in stem.parent.glob(stem.name + ".*"):
            leftover.unlink()


def run_workload(workload: str, *, seed: int, seconds: float,
                 trace: bool = False, profile: bool = False,
                 plant: bool = False) -> dict:
    """One run: set-ups, the plain pass, optionally traced/profiled."""
    setups = _setups(workload, seed)
    passes = {"plain": _run_pass(workload, seed, seconds, "plain", plant)}
    if trace:
        passes["trace"] = _run_pass(workload, seed, seconds, "trace")
    if profile:
        passes["profile"] = _run_pass(workload, seed, seconds, "profile")
    plain = passes["plain"]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "end_to_end": end_to_end_metrics(plain, setups),
        "raw": raw_metrics(plain, setups),
        "attempted": sum(p["ops"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "problems": [f"{mode}: {text}" for mode, p in passes.items()
                     for text in p["problems"]],
        "fidelity": plain["fidelity"],
        "latencies_ms": scale(plain["latencies_ms"], plain["slowdowns"]),
    }
    if trace:
        traced = passes["trace"]
        result["per_layer"] = per_layer_metrics(plain, traced)
        result["layers"] = traced["trace"]["layers"]
        result["traced_ops"] = traced["ops"]
        _write_json(OUT / f"{workload}.trace.json", {
            "workload": workload, "seed": seed,
            "window_s": traced["window_s"], "ops": traced["ops"],
            "counters": traced["counters"], **traced["trace"],
        })
    if profile:
        result["profile"] = passes["profile"]["profile"]
        _write_json(OUT / f"{workload}.profile.json",
                    passes["profile"]["profile"])
    return result


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


# -- metrics -------------------------------------------------------------


def _reference_throughput(report: dict) -> float:
    """Ops per second of op time at the reference host speed."""
    scaled_ms = scale(report["latencies_ms"], report["slowdowns"])
    return 1000.0 * len(scaled_ms) / sum(scaled_ms)


def end_to_end_metrics(plain: dict, setups: dict) -> dict:
    """Times at the reference host speed (see ``speed.py``)."""
    return {
        "op_p50_ms": statistics.median(
            scale(plain["latencies_ms"], plain["slowdowns"])),
        "throughput_ops": _reference_throughput(plain),
        "setup_s": statistics.median(
            scale(setups["seconds"], setups["slowdowns"])),
        "peak_rss_mb": plain["rss_mb"],
    }


def raw_metrics(plain: dict, setups: dict) -> dict:
    """The same times as measured, and the host's median slowdown."""
    return {
        "op_p50_ms": statistics.median(plain["latencies_ms"]),
        "throughput_ops": 1000.0 * plain["ops"] / sum(plain["latencies_ms"]),
        "setup_s": statistics.median(setups["seconds"]),
        "host_slowdown": statistics.median(plain["slowdowns"]),
    }


def per_layer_metrics(plain: dict, traced: dict) -> dict:
    """Layer self-time shares of the traced op time, per-op counts."""
    table = traced["trace"]["layers"]
    op_s = table[OP_SPAN]["total_s"]
    ops = traced["ops"]
    counters = traced.get("counters", {})

    def share(layer: str) -> float:
        return 100.0 * table.get(layer, {}).get("self_s", 0.0) / op_s

    def calls(layer: str) -> float:
        return table.get(layer, {}).get("count", 0) / ops

    def per_op(counter: str) -> float:
        return counters.get(counter, 0) / ops

    metrics = {f"{layer}_pct": share(layer) for layer in LAYER_NAMES}
    metrics["bench.gc_pct"] = share(GC_SPAN)
    metrics["bench.unattributed_pct"] = 100.0 - sum(metrics.values())
    bits = counters.get("channel.bits_sent", 0)
    metrics.update({
        "platform.system_builds": calls("platform.system_build"),
        "cache.loads": per_op("cache.loads"),
        "engine.events_fired": per_op("engine.events_fired"),
        "engine.sim_rate": counters.get("engine.simulated_ns", 0) / 1e9
        / op_s,
        "power.ufs_evaluations": calls("power.ufs_step"),
        "cpu.window_stats_calls": calls("cpu.window_stats"),
        "core.bits": per_op("channel.bits_sent"),
        "core.ber": counters.get("channel.bit_errors", 0) / bits
        if bits else 0.0,
        "trace.store_hits": per_op("trace.store.hits"),
        "trace.store_misses": per_op("trace.store.misses"),
        "trace.store_writes": per_op("trace.store.writes"),
        "fastpath.batch_trials": per_op("fastpath.batch.trials"),
        "bench.traced_calls": sum(row["count"] for row in table.values())
        / ops,
        "bench.tracing_overhead_pct": 100.0 * (
            _reference_throughput(plain) / _reference_throughput(traced)
            - 1.0),
    })
    return metrics


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples
    beyond it, and its value."""
    ordered = sorted(values)
    best = 50.0
    for candidate in (90.0, 99.0, 99.9):
        if len(ordered) * (1.0 - candidate / 100.0) >= 10:
            best = candidate
    index = min(len(ordered) - 1, int(len(ordered) * best / 100.0))
    return best, ordered[index]


# -- reporting -----------------------------------------------------------


def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def _units(spec: dict, section: str) -> dict[str, str]:
    return {row["name"]: row["unit"] for row in spec[section]}


def print_result(result: dict, spec: dict) -> None:
    attempted = result["attempted"]
    raw = result["raw"]
    print(f"{result['workload']}  (seed {result['seed']}, "
          f"{result['seconds']:g} s per pass, {attempted} ops attempted, "
          f"{result['failed']} failed; host slowdown "
          f"{raw['host_slowdown']:.2f})")
    units = _units(spec, "end_to_end")
    for name, value in result["end_to_end"].items():
        measured = (f"  (as measured {raw[name]:.4f})" if name in raw
                    else "")
        print(f"  {name:<28} {value:14.4f} {units[name]}{measured}")
    percentile, value = tail_percentile(result["latencies_ms"])
    print(f"  {'op tail':<28} {value:14.4f} ms  "
          f"(p{percentile:g} of {len(result['latencies_ms'])} ops)")
    print(f"  {'failed_ratio':<28} {result['failed'] / attempted:14.4f} "
          f"ratio")
    for name, value in result["fidelity"].items():
        unit = "bit/s" if name.endswith("bps") else "ratio"
        print(f"  {name:<28} {value:14.4f} {unit}")
    if "per_layer" in result:
        units = _units(spec, "per_layer")
        for name, value in result["per_layer"].items():
            print(f"  {name:<34} {value:14.4f} {units[name]}")
    for text in result["problems"][:10]:
        print(f"  WRONG: {text}")


def final_line(results: list[dict], spec: dict, trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    units = _units(spec, section)
    if len(results) == 1:
        values = results[0][section]
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {}
        for workload in dict.fromkeys(r["workload"] for r in results):
            rows = [r[section] for r in results if r["workload"] == workload]
            for name in units:
                metrics[f"{workload}/{name}"] = {
                    "value": statistics.median(row[name] for row in rows),
                    "unit": units[name],
                }
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def machine_description() -> dict:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "memory_gib": round(memory / 2**30, 1),
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.release()}",
    }


def save_set(path: Path, results: list[dict]) -> None:
    _write_json(path, {
        "machine": machine_description(),
        "runs": [
            {key: result[key] for key in
             ("workload", "seed", "seconds", "end_to_end", "raw",
              "fidelity", "attempted", "failed")}
            for result in results
        ],
    })


# -- comparing two sets --------------------------------------------------


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Flag every (metric, workload) whose median in B is worse than in
    A by more than the metric's bound; deterministic values (fidelity,
    failed ratio) must match exactly for every seed both sets ran."""
    runs_a = json.loads(path_a.read_text())["runs"]
    runs_b = json.loads(path_b.read_text())["runs"]
    workloads = [w for w in dict.fromkeys(r["workload"] for r in runs_a)
                 if any(r["workload"] == w for r in runs_b)]
    flagged = 0
    print(f"{'workload':<18} {'metric':<16} {'median A':>12} "
          f"{'median B':>12} {'change':>8} {'bound':>6} {'A spread':>8} "
          f"{'B spread':>8}")
    for workload in workloads:
        rows_a = [r for r in runs_a if r["workload"] == workload]
        rows_b = [r for r in runs_b if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [r["end_to_end"][name] for r in rows_a]
            values_b = [r["end_to_end"][name] for r in rows_b]
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            change = (median_b - median_a) / median_a
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            flagged += verdict != "ok"
            print(f"{workload:<18} {name:<16} {median_a:12.4f} "
                  f"{median_b:12.4f} {100 * change:+7.1f}% "
                  f"{metric['bound']:6.2f} "
                  f"{100 * quartile_spread(values_a):7.1f}% "
                  f"{100 * quartile_spread(values_b):7.1f}%  {verdict}")
        exact = {}
        for row in rows_a + rows_b:
            values = dict(row["fidelity"],
                          failed_ratio=row["failed"] / row["attempted"])
            for key, value in values.items():
                exact.setdefault((key, row["seed"]), set()).add(value)
        mismatched = sorted({key for (key, _seed), values in exact.items()
                             if len(values) > 1})
        for key in sorted({key for key, _seed in exact}):
            verdict = "MISMATCH" if key in mismatched else "ok"
            flagged += verdict != "ok"
            seeds = sorted(seed for name, seed in exact if name == key)
            print(f"{workload:<18} {key:<16} equal per seed over "
                  f"{len(seeds)} seeds  {verdict}")
    print("no regression" if not flagged else f"{flagged} flagged")
    return 1 if flagged else 0


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# -- the ledger ----------------------------------------------------------


def write_ledger(results: list[dict]) -> None:
    """LEDGER.md: where the time goes, per workload, from a traced run."""
    latest = {r["workload"]: r for r in results if "per_layer" in r}
    profiled = " --profile" if any("profile" in r for r in results) else ""
    lines = [
        "# Where the time goes",
        "",
        "Generated by `python benchmarks/e2e/run.py --seed "
        f"{results[0]['seed']} --seconds {results[0]['seconds']:g} "
        f"--trace{profiled} --ledger`; do not edit by hand.",
        "",
        "Machine: " + ", ".join(f"{key} {value}" for key, value in
                                machine_description().items()) + ".",
        "",
        "Self time is a layer's span minus the spans nested in it, as a "
        "share of the traced pass's op time (see README.md). "
        "Shares and per-op figures come from the traced pass; "
        "`op_p50_ms` and the overhead compare it with the plain pass, "
        "at the reference host speed.",
        "",
    ]
    for workload, result in latest.items():
        layers = result["layers"]
        per_layer = result["per_layer"]
        ops_traced = result["traced_ops"]
        lines += [
            f"## {workload}",
            "",
            f"op_p50_ms {result['end_to_end']['op_p50_ms']:.1f} "
            f"(plain pass), tracing overhead "
            f"{per_layer['bench.tracing_overhead_pct']:+.1f} %, "
            f"{ops_traced} traced ops.",
            "",
            "| layer | self share | self ms / op | calls / op |",
            "|---|---:|---:|---:|",
        ]
        rows = sorted(
            ((name, row) for name, row in layers.items() if name != OP_SPAN),
            key=lambda item: -item[1]["self_s"],
        )
        for name, row in rows:
            lines.append(
                f"| {name} | {per_layer[name + '_pct']:.1f} % | "
                f"{1000 * row['self_s'] / ops_traced:.2f} | "
                f"{row['count'] / ops_traced:.1f} |"
            )
        lines.append(f"| (unattributed) | "
                     f"{per_layer['bench.unattributed_pct']:.1f} % | | |")
        counts = [f"{name} {value:.4g}" for name, value in per_layer.items()
                  if not name.endswith("_pct") and value]
        lines += ["", "Per-op counts: " + ", ".join(counts) + ".", ""]
        profile = result.get("profile")
        if profile:
            lines += ["Profile, own time by package: " + ", ".join(
                f"{name} {100 * seconds / profile['total_s']:.0f} %"
                for name, seconds in list(profile["by_package"].items())[:6]
            ) + ".", "", "Hottest functions (cProfile own time):", ""]
            lines += [f"- `{row['function']}`: {row['self_s']:.2f} s over "
                      f"{row['calls']} calls"
                      for row in profile["top_functions"][:5]]
            lines.append("")
    lines += _ledger_claims(latest)
    LEDGER.write_text("\n".join(lines) + "\n")


def _ledger_claims(latest: dict) -> list[str]:
    """The split the benchmark was designed around, checked, and the
    next hot path: the layer with the largest self share on any
    workload."""
    lines = ["## Checks against the expected split", ""]

    def share(workload, *layers):
        per_layer = latest[workload]["per_layer"]
        return sum(per_layer[f"{layer}_pct"] for layer in layers)

    if "fig10-des" in latest:
        build = share("fig10-des", "platform.system_build",
                      "cache.hierarchy_build")
        garbage = latest["fig10-des"]["per_layer"]["bench.gc_pct"]
        channel = share("fig10-des", "core.transmit", "core.receive_bit")
        lines.append(f"- fig10-des: `System` construction (platform + "
                     f"cache hierarchy) is {build:.1f} % of the op, "
                     f"collecting its garbage {garbage:.1f} "
                     f"%, the channel's own code {channel:.1f} % -> "
                     f"{'holds' if build >= 50 else 'does not hold'}.")
    if "sweep-batch" in latest:
        builds = latest["sweep-batch"]["per_layer"]["platform.system_builds"]
        lines.append(f"- sweep-batch: `platform.system_builds` = "
                     f"{builds:g} per op -> "
                     f"{'holds' if builds == 0 else 'does not hold'}.")
    if "fig12-fingerprint" in latest:
        rnn = share("fig12-fingerprint", "sidechannel.rnn_fit")
        lines.append(f"- fig12-fingerprint: RNN training is {rnn:.1f} % "
                     f"-> {'visible' if rnn >= 10 else 'not visible'}.")
    hottest = max(
        ((result["per_layer"][f"{layer}_pct"], workload, layer)
         for workload, result in latest.items() for layer in LAYER_NAMES),
        default=None,
    )
    if hottest is not None:
        value, workload, layer = hottest
        lines += ["", "## Next hot path", "",
                  f"`{layer}`: {value:.1f} % self time on {workload}, the "
                  "largest single layer share measured."]
        profile = latest[workload].get("profile")
        if profile and profile["top_functions"]:
            top = profile["top_functions"][0]
            lines.append(f"Below span level the profile names "
                         f"`{top['function']}` ({top['self_s']:.2f} s own "
                         f"time, {top['calls']} calls).")
    return lines


# -- entry ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per pass (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run a traced pass; report per-layer "
                             "metrics")
    parser.add_argument("--profile", action="store_true",
                        help="also run a cProfile pass per workload")
    parser.add_argument("--ledger", action="store_true",
                        help="rewrite LEDGER.md (needs --trace)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds --seed, "
                             "--seed + 1, ...")
    parser.add_argument("--save", type=Path, metavar="SET.json",
                        help="write the runs' metrics as a comparable set")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("A.json", "B.json"),
                        help="compare two saved sets against the bounds")
    parser.add_argument("--plant-fault", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.ledger and not args.trace:
        parser.error("--ledger needs --trace")
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    _pin_to_one_cpu()
    results = []
    for offset in range(args.runs):
        for workload in workloads:
            result = run_workload(workload, seed=args.seed + offset,
                                  seconds=seconds, trace=bool(args.trace),
                                  profile=args.profile,
                                  plant=args.plant_fault)
            print_result(result, spec)
            results.append(result)
    if args.ledger:
        write_ledger(results)
    if args.save:
        save_set(args.save, results)
    line = final_line(results, spec, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
