"""Load test for the experiment service (``repro serve``).

Drives a real daemon — socket, HTTP parsing, queue, scheduler, on-disk
result cache — with a storm of concurrent capacity-sweep requests and
reports what a capacity-planning reader wants to know:

* **latency** — client-observed p50 / p99 per request, plus the
  daemon's own ``service.latency_ms`` histogram from the telemetry
  registry;
* **throughput** — completed requests per second over the storm;
* **cache-hit ratio** — ``service.cache.hits / (hits + misses)`` from
  the registry; the storm repeats a small set of unique specs against
  a pre-warmed store, so this should be ~1.

Correctness rides along: every one of the thousands of served payloads
is compared against the direct in-process
:func:`~repro.core.evaluation.capacity_sweep` result for its spec —
one divergent bit fails the bench before any latency number is
printed.

Every client the bench constructs uses ``max_backoffs=0``: a 429 must
surface as a 429, not be quietly absorbed by the client's retry loop,
or the storm stops measuring the daemon's real backpressure.

Standalone (writes ``BENCH_service.json`` at the repo root)::

    python benchmarks/bench_service.py [--requests 1000]
        [--unique 20] [--clients 64] [--output BENCH_service.json]

Under pytest-benchmark (small smoke shape)::

    python -m pytest benchmarks/bench_service.py --benchmark-only

``check_regression.py --skip-service`` skips the CI gates built on
:func:`run_load_test`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.evaluation import capacity_sweep  # noqa: E402
from repro.service.client import (  # noqa: E402
    AsyncServiceClient,
    ServiceClient,
)
from repro.service.daemon import (  # noqa: E402
    ServiceConfig,
    ServiceThread,
)
from repro.service.jobs import sweep_from_payload  # noqa: E402
from repro.service.protocol import JobSpec  # noqa: E402
from repro.telemetry import MetricsRegistry  # noqa: E402

#: The full load-test shape: what "sustains 1000 concurrent sweep
#: requests against a warm result store" means, concretely.
LOAD_SHAPE = dict(
    requests=1000,      # concurrent in-flight sweep requests
    unique=20,          # distinct specs behind those requests
    clients=64,         # async client connections carrying them
    bits=12,
    intervals_ms=(30.0, 40.0),
    backend="batch",
    tenants=4,
)

#: The CI smoke shape: same path, small enough for a gate.
SMOKE_SHAPE = dict(LOAD_SHAPE, requests=200, clients=16)


def _specs(shape: dict) -> list[JobSpec]:
    return [
        JobSpec(
            experiment="capacity_sweep",
            params={
                "bits": shape["bits"],
                "intervals_ms": list(shape["intervals_ms"]),
                "cross_processor": False,
            },
            seed=seed,
            backend=shape["backend"],
            tenant=f"tenant-{seed % shape['tenants']}",
        )
        for seed in range(shape["unique"])
    ]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


async def _storm(port: int, specs: list[JobSpec],
                 expected: list[dict], shape: dict) -> list[float]:
    """Fire every request concurrently; client-observed latencies (s).

    ``clients`` connections carry ``requests`` in-flight requests: each
    connection serialises its own HTTP exchanges, so the connection
    pool bounds sockets while every request coroutine is concurrently
    in flight from submission to response.
    """
    pool = [AsyncServiceClient(port, max_backoffs=0)
            for _ in range(shape["clients"])]
    try:
        async def one(index: int) -> float:
            spec = specs[index % len(specs)]
            client = pool[index % len(pool)]
            start = time.perf_counter()
            payload = await client.run(spec, timeout=120.0)
            elapsed = time.perf_counter() - start
            if payload != expected[index % len(specs)]:
                raise SystemExit(
                    f"request {index}: served payload diverged from "
                    f"the direct in-process sweep for seed {spec.seed}"
                )
            return elapsed

        return list(await asyncio.gather(
            *[one(index) for index in range(shape["requests"])]
        ))
    finally:
        for client in pool:
            await client.close()


def run_load_test(shape: dict | None = None, *,
                  store_root: str | Path | None = None) -> dict:
    """Run warm-up plus storm against a fresh daemon; the report dict.

    ``store_root=None`` uses a throwaway directory.  The warm-up phase
    computes each unique spec once (misses that fill the result
    store); the storm phase then drives ``requests`` concurrent
    submissions that must all be served from the cache.
    """
    shape = dict(LOAD_SHAPE, **(shape or {}))
    expected_sweeps = [
        capacity_sweep(
            intervals_ms=tuple(shape["intervals_ms"]),
            bits=shape["bits"],
            seed=seed,
            backend=shape["backend"],
        )
        for seed in range(shape["unique"])
    ]
    specs = _specs(shape)

    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            store_root=store_root or Path(tmp) / "store",
            pools=2,
            workers_per_pool=4,
            queue_depth=max(64, shape["requests"] + shape["unique"]),
        )
        with ServiceThread(config, registry=registry) as svc:
            client = ServiceClient(svc.port, max_backoffs=0)
            warm_start = time.perf_counter()
            for spec, direct in zip(specs, expected_sweeps):
                served = sweep_from_payload(
                    client.run(spec, timeout=300.0))
                if served != direct:
                    raise SystemExit(
                        f"warm-up: served sweep for seed {spec.seed} "
                        f"diverged from the direct in-process run"
                    )
            warm_s = time.perf_counter() - warm_start

            expected_payloads = [
                client.run(spec, timeout=60.0) for spec in specs
            ]
            storm_start = time.perf_counter()
            latencies = asyncio.run(_storm(
                svc.port, specs, expected_payloads, shape))
            storm_s = time.perf_counter() - storm_start
            metrics = client.metrics()
            client.close()

    latencies.sort()
    counters = metrics["counters"]
    hits = counters.get("service.cache.hits", 0)
    misses = counters.get("service.cache.misses", 0)
    served_hist = metrics["histograms"].get("service.latency_ms", {})
    return {
        "shape": {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in shape.items()},
        "warm_up_s": warm_s,
        "storm_s": storm_s,
        "requests": shape["requests"],
        "throughput_rps": shape["requests"] / storm_s,
        "latency_ms": {
            "p50": _percentile(latencies, 0.50) * 1e3,
            "p99": _percentile(latencies, 0.99) * 1e3,
            "max": latencies[-1] * 1e3,
            "mean": statistics.fmean(latencies) * 1e3,
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        },
        "served_latency_histogram": served_hist,
        "counters": {name: value for name, value in sorted(
            counters.items()) if name.startswith("service.")},
        "bit_identical": True,  # a divergence dies before reporting
    }


def test_perf_service_load(benchmark):
    """pytest-benchmark smoke: the storm at the small CI shape."""
    from _harness import report, run_once

    result = run_once(benchmark, lambda: run_load_test(SMOKE_SHAPE))
    report(
        "service_load",
        json.dumps(result["latency_ms"] | {
            "throughput_rps": result["throughput_rps"],
            "hit_ratio": result["cache"]["hit_ratio"],
        }, indent=2),
    )
    assert result["cache"]["hit_ratio"] > 0.5
    assert result["bit_identical"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Load-test the experiment service")
    parser.add_argument("--requests", type=int,
                        default=LOAD_SHAPE["requests"])
    parser.add_argument("--unique", type=int,
                        default=LOAD_SHAPE["unique"])
    parser.add_argument("--clients", type=int,
                        default=LOAD_SHAPE["clients"])
    parser.add_argument("--output",
                        default=str(REPO_ROOT / "BENCH_service.json"))
    args = parser.parse_args(argv)

    result = run_load_test({
        "requests": args.requests,
        "unique": args.unique,
        "clients": args.clients,
    })
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    lat = result["latency_ms"]
    print(f"requests:    {result['requests']} "
          f"({result['shape']['unique']} unique specs, "
          f"{result['shape']['clients']} connections)")
    print(f"storm:       {result['storm_s']:.2f} s "
          f"({result['throughput_rps']:.0f} req/s)")
    print(f"latency:     p50 {lat['p50']:.1f} ms   "
          f"p99 {lat['p99']:.1f} ms   max {lat['max']:.1f} ms")
    print(f"cache:       {result['cache']['hits']} hits / "
          f"{result['cache']['misses']} misses "
          f"(ratio {result['cache']['hit_ratio']:.3f})")
    print(f"report:      {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
