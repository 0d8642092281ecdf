"""The experiment service: protocol, queue, stores, scheduler, daemon.

The load-bearing contract is served-equals-direct: a capacity sweep
submitted over the wire — computed by a worker pool or answered from
the on-disk result cache, also after a daemon restart — decodes to a
``SweepResult`` bit-identical to calling
:func:`repro.core.evaluation.capacity_sweep` in process.  Around that,
the queue's fairness/backpressure arithmetic, the cache's corruption
handling and the scheduler's resilience wiring (retry, breaker,
cancel) are each pinned down in isolation.
"""

import asyncio
import json
import time

import pytest

from repro.core.evaluation import capacity_sweep
from repro.errors import (
    JobNotFoundError,
    QueueFullError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.resilience.retry import RetryPolicy
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.daemon import ServiceConfig, ServiceThread
from repro.service.jobs import (
    EXPERIMENTS,
    ExperimentRunner,
    register_experiment,
    run_job,
    sweep_from_payload,
)
from repro.service.protocol import (
    JobRecord,
    JobSpec,
    JobState,
    record_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ResultCache
from repro.telemetry import MetricsRegistry

SWEEP_PARAMS = {"bits": 12, "intervals_ms": [30.0, 40.0]}


# -- synthetic experiments for scheduler behaviour ------------------------

_FLAKY_SEEN: dict[str, int] = {}


def _flaky_run(params, seed, backend, checkpoint_dir):
    """Fail transiently (OSError) ``fail`` times per id, then succeed."""
    token = params["id"]
    _FLAKY_SEEN[token] = _FLAKY_SEEN.get(token, 0) + 1
    if _FLAKY_SEEN[token] <= params.get("fail", 2):
        raise OSError("synthetic transient fault")
    return {"ok": True, "attempts_seen": _FLAKY_SEEN[token]}


def _broken_run(params, seed, backend, checkpoint_dir):
    raise ValueError("synthetic permanent bug")


def _sleepy_run(params, seed, backend, checkpoint_dir):
    time.sleep(params.get("s", 0.2))
    return {"slept": params.get("s", 0.2), "seed": seed}


register_experiment(ExperimentRunner(
    name="_test_flaky", run=_flaky_run,
    param_names=frozenset({"id", "fail"}),
))
register_experiment(ExperimentRunner(
    name="_test_broken", run=_broken_run, param_names=frozenset(),
))
register_experiment(ExperimentRunner(
    name="_test_sleepy", run=_sleepy_run, param_names=frozenset({"s"}),
))


def _scheduler(**kwargs):
    registry = kwargs.pop("registry", None) or MetricsRegistry()
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3,
                                           base_backoff_s=0.0))
    return Scheduler(registry=registry, **kwargs), registry


async def _submit_and_wait(sched, spec, timeout=60.0):
    record = sched.submit(spec)
    return await sched.wait(record.job_id, timeout=timeout)


class TestProtocol:
    def test_wire_round_trip(self):
        spec = JobSpec(experiment="capacity_sweep",
                       params=SWEEP_PARAMS, seed=3, backend="batch",
                       tenant="alice", priority=2)
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_unknown_wire_fields_rejected(self):
        with pytest.raises(ServiceError, match="priorty"):
            spec_from_wire({"experiment": "capacity_sweep",
                            "priorty": 1})

    def test_non_object_submission_rejected(self):
        with pytest.raises(ServiceError):
            spec_from_wire([1, 2, 3])

    def test_bad_seed_rejected(self):
        with pytest.raises(ServiceError, match="seed"):
            JobSpec(experiment="x", seed="zero").validate()

    def test_unserialisable_params_rejected(self):
        with pytest.raises(ServiceError, match="JSON"):
            JobSpec(experiment="x", params={"f": object()}).validate()

    def test_key_ignores_tenant_and_priority(self):
        base = JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS,
                       seed=1, backend="batch")
        other = JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS,
                        seed=1, backend="batch", tenant="bob",
                        priority=9)
        assert base.key() == other.key()

    def test_key_depends_on_params_seed_backend(self):
        base = JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS,
                       seed=1, backend="batch")
        assert base.key() != JobSpec(
            experiment="capacity_sweep", params=SWEEP_PARAMS, seed=2,
            backend="batch").key()
        assert base.key() != JobSpec(
            experiment="capacity_sweep", params={"bits": 13}, seed=1,
            backend="batch").key()
        assert base.key() != JobSpec(
            experiment="capacity_sweep", params=SWEEP_PARAMS, seed=1,
            backend="analytical").key()

    def test_record_wire_withholds_result_by_default(self):
        record = JobRecord(job_id="job-000001",
                           spec=JobSpec(experiment="capacity_sweep"),
                           result={"big": "payload"})
        assert "result" not in record_to_wire(record)
        assert record_to_wire(record,
                              with_result=True)["result"] is not None


class TestJobsRegistry:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ServiceError, match="unknown experiment"):
            run_job(JobSpec(experiment="not_a_thing"))

    def test_unknown_params_rejected(self):
        with pytest.raises(ServiceError, match="does not take params"):
            run_job(JobSpec(experiment="capacity_sweep",
                            params={"bitz": 8}))

    def test_payload_decodes_bit_identical(self):
        spec = JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS,
                       seed=5, backend="batch")
        served = sweep_from_payload(run_job(spec))
        direct = capacity_sweep(intervals_ms=(30.0, 40.0), bits=12,
                                seed=5, backend="batch")
        assert served == direct

    def test_registry_lists_real_experiments(self):
        for name in ("capacity_sweep", "measure_capacity",
                     "mean_error_over_seeds", "evaluate_defenses"):
            assert name in EXPERIMENTS


def _record(tenant="default", priority=0, seq=0, job_id=None):
    spec = JobSpec(experiment="capacity_sweep", tenant=tenant,
                   priority=priority)
    return JobRecord(job_id=job_id or f"job-{seq:06d}", spec=spec,
                     seq=seq)


class TestJobQueue:
    def test_round_robin_across_tenants(self):
        queue = JobQueue()
        for seq, tenant in enumerate(
                ["alice", "alice", "alice", "bob", "carol"], start=1):
            queue.submit(_record(tenant=tenant, seq=seq))
        order = [queue.pop().spec.tenant for _ in range(5)]
        # One tenant's flood cannot starve the others: every tenant is
        # served once per round.
        assert order[:3] != ["alice", "alice", "alice"]
        assert set(order[:3]) == {"alice", "bob", "carol"}
        assert order.count("alice") == 3

    def test_priority_then_fifo_within_tenant(self):
        queue = JobQueue()
        queue.submit(_record(priority=0, seq=1, job_id="low-early"))
        queue.submit(_record(priority=5, seq=2, job_id="high-late"))
        queue.submit(_record(priority=5, seq=3, job_id="high-later"))
        assert [queue.pop().job_id for _ in range(3)] == [
            "high-late", "high-later", "low-early"]

    def test_total_depth_backpressure(self):
        queue = JobQueue(max_depth=2)
        queue.submit(_record(seq=1))
        queue.submit(_record(seq=2))
        with pytest.raises(QueueFullError, match="queue full"):
            queue.submit(_record(seq=3))

    def test_per_tenant_cap_protects_other_tenants(self):
        queue = JobQueue(max_depth=10, max_per_tenant=2)
        queue.submit(_record(tenant="greedy", seq=1))
        queue.submit(_record(tenant="greedy", seq=2))
        with pytest.raises(QueueFullError, match="greedy"):
            queue.submit(_record(tenant="greedy", seq=3))
        queue.submit(_record(tenant="modest", seq=4))  # still admitted

    def test_cancel_removes_pending(self):
        queue = JobQueue()
        queue.submit(_record(seq=1, job_id="keep"))
        queue.submit(_record(seq=2, job_id="drop"))
        cancelled = queue.cancel("drop")
        assert cancelled.state == JobState.CANCELLED
        assert len(queue) == 1
        with pytest.raises(JobNotFoundError):
            queue.cancel("drop")

    def test_telemetry_counts(self):
        registry = MetricsRegistry()
        queue = JobQueue(max_depth=1, registry=registry)
        queue.submit(_record(seq=1))
        with pytest.raises(QueueFullError):
            queue.submit(_record(seq=2))
        queue.pop()
        counters = registry.snapshot()["counters"]
        assert counters["service.queue.submitted"] == 1
        assert counters["service.queue.rejected"] == 1
        assert counters["service.queue.dequeued"] == 1


class TestResultCache:
    def _cache(self, tmp_path, registry=None):
        return ResultCache(tmp_path, registry=registry)

    def test_round_trip(self, tmp_path):
        cache = self._cache(tmp_path)
        path = cache.put("a" * 32, {"points": [1.5, 2.5]})
        assert path == tmp_path / "results" / f"{'a' * 32}.res"
        assert cache.get("a" * 32) == {"points": [1.5, 2.5]}

    def test_miss_is_none(self, tmp_path):
        assert self._cache(tmp_path).get("b" * 32) is None

    def test_corrupt_record_is_miss_and_quarantined(self, tmp_path):
        registry = MetricsRegistry()
        cache = self._cache(tmp_path, registry=registry)
        key = "c" * 32
        path = cache.put(key, {"fine": True})
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF  # damage the body: digest check must fail
        path.write_bytes(bytes(blob))
        assert cache.get(key) is None
        assert not path.exists()  # moved aside, never served
        quarantined = list(path.parent.glob("quarantine/*"))
        assert len(quarantined) == 1
        counters = registry.snapshot()["counters"]
        assert counters["service.cache.corrupt_records"] == 1

    def test_truncated_record_is_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = "d" * 32
        path = cache.put(key, {"fine": True})
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is None

    def test_hit_and_miss_counters(self, tmp_path):
        registry = MetricsRegistry()
        cache = self._cache(tmp_path, registry=registry)
        cache.get("e" * 32)
        cache.put("e" * 32, 1)
        cache.get("e" * 32)
        counters = registry.snapshot()["counters"]
        assert counters["service.cache.misses"] == 1
        assert counters["service.cache.hits"] == 1
        assert counters["service.cache.writes"] == 1


class TestScheduler:
    def test_job_runs_to_done(self):
        async def run():
            sched, registry = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                record = await _submit_and_wait(
                    sched, JobSpec(experiment="capacity_sweep",
                                   params=SWEEP_PARAMS, backend="batch"))
            finally:
                await sched.stop()
            return record, registry

        record, registry = asyncio.run(run())
        assert record.state == JobState.DONE
        assert record.pool == "pool-0"
        counters = registry.snapshot()["counters"]
        assert counters["service.jobs.completed"] == 1
        # The job's simulator metrics were merged into the daemon
        # registry (the run_trials aggregation discipline).
        assert counters["fastpath.batch.trials"] > 0

    def test_transient_failure_retries_to_success(self):
        _FLAKY_SEEN.clear()

        async def run():
            sched, _ = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                return await _submit_and_wait(
                    sched, JobSpec(experiment="_test_flaky",
                                   params={"id": "retry-me", "fail": 2}))
            finally:
                await sched.stop()

        record = asyncio.run(run())
        assert record.state == JobState.DONE
        assert record.attempts == 3
        assert record.result["attempts_seen"] == 3

    def test_permanent_failure_never_retries(self):
        async def run():
            sched, _ = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                return await _submit_and_wait(
                    sched, JobSpec(experiment="_test_broken"))
            finally:
                await sched.stop()

        record = asyncio.run(run())
        assert record.state == JobState.FAILED
        assert record.attempts == 1
        assert "synthetic permanent bug" in record.error

    def test_breaker_fails_fast_after_threshold(self):
        async def run():
            sched, registry = _scheduler(pools=1, workers_per_pool=1,
                                         breaker_failures=3)
            await sched.start()
            try:
                records = []
                for _ in range(4):
                    records.append(await _submit_and_wait(
                        sched, JobSpec(experiment="_test_broken")))
            finally:
                await sched.stop()
            return records, registry

        records, registry = asyncio.run(run())
        assert all(r.state == JobState.FAILED for r in records)
        assert "circuit open" in records[3].error
        counters = registry.snapshot()["counters"]
        assert counters["service.breaker.fail_fast"] == 1

    def test_cache_hit_skips_the_queue(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)

        async def run():
            sched, _ = _scheduler(pools=1, workers_per_pool=1,
                                  cache=cache, registry=registry)
            await sched.start()
            spec = JobSpec(experiment="capacity_sweep",
                           params=SWEEP_PARAMS, backend="batch")
            try:
                first = await _submit_and_wait(sched, spec)
                second = sched.submit(spec)  # terminal immediately
            finally:
                await sched.stop()
            return first, second

        first, second = asyncio.run(run())
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.state == JobState.DONE
        assert second.result == first.result
        counters = registry.snapshot()["counters"]
        assert counters["service.jobs.cache_hits"] == 1

    def test_cancel_pending_job(self):
        async def run():
            # One slow single-worker pool: the second job stays queued
            # long enough to cancel deterministically.
            sched, _ = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                running = sched.submit(JobSpec(
                    experiment="_test_sleepy", params={"s": 0.5}))
                victims = [sched.submit(JobSpec(
                    experiment="_test_sleepy", params={"s": 0.5},
                    seed=i)) for i in range(1, 4)]
                cancelled = sched.cancel(victims[-1].job_id)
                done = await sched.wait(running.job_id, timeout=30)
            finally:
                await sched.stop()
            return cancelled, done

        cancelled, done = asyncio.run(run())
        assert cancelled.state == JobState.CANCELLED
        assert done.state == JobState.DONE

    def test_cancel_terminal_job_is_an_error(self):
        async def run():
            sched, _ = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                record = await _submit_and_wait(
                    sched, JobSpec(experiment="_test_sleepy",
                                   params={"s": 0.0}))
                with pytest.raises(ServiceError, match="already"):
                    sched.cancel(record.job_id)
            finally:
                await sched.stop()

        asyncio.run(run())

    def test_unknown_job_raises(self):
        sched, _ = _scheduler()
        with pytest.raises(JobNotFoundError):
            sched.get("job-999999")

    def test_steal_takes_from_longest_sibling(self):
        sched, registry = _scheduler(pools=2, workers_per_pool=1)
        record = _record(seq=1, job_id="stealable")
        sched.pools[1].backlog.append(record)
        assert sched._take(sched.pools[0]) is record
        counters = registry.snapshot()["counters"]
        assert counters["service.scheduler.steals"] == 1

    def test_latency_histogram_observed(self):
        async def run():
            sched, registry = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                await _submit_and_wait(
                    sched, JobSpec(experiment="_test_sleepy",
                                   params={"s": 0.0}))
            finally:
                await sched.stop()
            return registry

        registry = asyncio.run(run())
        hist = registry.snapshot()["histograms"]["service.latency_ms"]
        assert hist["count"] == 1


class TestDaemonEndToEnd:
    def test_served_sweep_is_bit_identical(self, tmp_path):
        direct = capacity_sweep(intervals_ms=(30.0, 40.0), bits=12,
                                seed=4, backend="batch")
        with ServiceThread(ServiceConfig(
                store_root=tmp_path / "store")) as svc:
            with ServiceClient(svc.port) as client:
                cold = client.capacity_sweep(
                    intervals_ms=[30.0, 40.0], bits=12, seed=4,
                    backend="batch")
                warm = client.capacity_sweep(
                    intervals_ms=[30.0, 40.0], bits=12, seed=4,
                    backend="batch")
                metrics = client.metrics()
        assert cold == direct
        assert warm == direct
        counters = metrics["counters"]
        assert counters["service.cache.hits"] == 1
        assert counters["service.jobs.cache_hits"] == 1

    def test_restarted_daemon_serves_the_first_daemons_result(
            self, tmp_path):
        direct = capacity_sweep(intervals_ms=(30.0, 40.0), bits=12,
                                seed=5, backend="batch")
        spec = JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS,
                       seed=5, backend="batch")
        config = ServiceConfig(store_root=tmp_path / "store")
        with ServiceThread(config) as svc:
            with ServiceClient(svc.port) as client:
                cold = client.submit(spec)
                client.result(cold["job_id"], timeout=60)
        with ServiceThread(config) as svc:
            with ServiceClient(svc.port) as client:
                warm = client.submit(spec)
                payload = client.result(warm["job_id"], timeout=60)["result"]
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True
        assert sweep_from_payload(payload) == direct

    def test_cli_submit_wait_prints_result_cold_and_warm(
            self, tmp_path, capsys):
        # A cache hit comes back from /v1/jobs already-done without the
        # payload; `submit --wait` must still fetch it through /result
        # so cold and warm runs print the same record shape.
        from repro.cli import main

        argv = ["submit", "capacity_sweep",
                "--params", '{"bits": 12, "intervals_ms": [30.0]}',
                "--wait"]
        with ServiceThread(ServiceConfig(
                store_root=tmp_path / "store")) as svc:
            conn = ["--port", str(svc.port)]
            assert main(argv + conn) == 0
            cold = json.loads(capsys.readouterr().out)
            assert main(argv + conn) == 0
            warm = json.loads(capsys.readouterr().out)
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True
        assert warm["result"] is not None
        assert warm["result"] == cold["result"]

    def test_health_version_and_metrics(self, tmp_path):
        from repro import __version__

        with ServiceThread(ServiceConfig()) as svc:
            with ServiceClient(svc.port) as client:
                assert client.health() == {"ok": True}
                assert client.version() == __version__
                metrics = client.metrics()
        assert "counters" in metrics
        assert "backlog" in metrics

    def test_unknown_experiment_is_400(self, tmp_path):
        with ServiceThread(ServiceConfig()) as svc:
            with ServiceClient(svc.port) as client:
                with pytest.raises(ServiceError, match="unknown"):
                    client.submit(JobSpec(experiment="nope"))

    def test_unknown_job_is_404(self, tmp_path):
        with ServiceThread(ServiceConfig()) as svc:
            with ServiceClient(svc.port) as client:
                with pytest.raises(JobNotFoundError):
                    client.status("job-424242")

    def test_saturated_queue_is_429(self, tmp_path):
        config = ServiceConfig(queue_depth=2, pools=1,
                               workers_per_pool=1)
        with ServiceThread(config) as svc:
            with ServiceClient(svc.port) as client:
                # 1 running + 1 pool slack + 2 queued = 4 admitted.
                for i in range(4):
                    client.submit(JobSpec(experiment="_test_sleepy",
                                          params={"s": 1.0}, seed=i))
                with pytest.raises(QueueFullError):
                    client.submit(JobSpec(experiment="_test_sleepy",
                                          params={"s": 1.0}, seed=99))

    def test_failed_job_raises_on_result(self, tmp_path):
        with ServiceThread(ServiceConfig()) as svc:
            with ServiceClient(svc.port) as client:
                record = client.submit(JobSpec(experiment="_test_broken"))
                with pytest.raises(ServiceError, match="failed"):
                    client.result(record["job_id"], timeout=30)

    def test_async_client_round_trip(self, tmp_path):
        direct = capacity_sweep(intervals_ms=(30.0,), bits=12, seed=6,
                                backend="batch")

        async def drive(port):
            async with AsyncServiceClient(port) as client:
                assert (await client.health()) == {"ok": True}
                return await client.capacity_sweep(
                    intervals_ms=[30.0], bits=12, seed=6,
                    backend="batch")

        with ServiceThread(ServiceConfig(
                store_root=tmp_path / "store")) as svc:
            served = asyncio.run(drive(svc.port))
        assert served == direct

    def test_concurrent_tenants_all_complete(self, tmp_path):
        async def drive(port):
            async def one(tenant, seed):
                async with AsyncServiceClient(port) as client:
                    return await client.run(JobSpec(
                        experiment="_test_sleepy", params={"s": 0.05},
                        seed=seed, tenant=tenant))

            return await asyncio.gather(*[
                one(f"tenant-{i % 3}", i) for i in range(12)
            ])

        config = ServiceConfig(pools=2, workers_per_pool=2)
        with ServiceThread(config) as svc:
            results = asyncio.run(drive(svc.port))
        assert len(results) == 12
        assert all(r["slept"] == 0.05 for r in results)


class TestDeadlines:
    def test_slow_job_expires(self):
        async def run():
            sched, registry = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                record = await _submit_and_wait(
                    sched, JobSpec(experiment="_test_sleepy",
                                   params={"s": 0.5},
                                   deadline_ms=40.0))
            finally:
                await sched.stop()
            return record, registry

        record, registry = asyncio.run(run())
        assert record.state == JobState.EXPIRED
        assert "deadline of 40 ms exceeded" in record.error
        counters = registry.snapshot()["counters"]
        assert counters["service.jobs.expired"] == 1

    def test_fast_job_beats_its_deadline(self):
        async def run():
            sched, _ = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            try:
                return await _submit_and_wait(
                    sched, JobSpec(experiment="_test_sleepy",
                                   params={"s": 0.01},
                                   deadline_ms=30000.0))
            finally:
                await sched.stop()

        record = asyncio.run(run())
        assert record.state == JobState.DONE
        assert record.result == {"slept": 0.01, "seed": 0}

    def test_deadline_validation(self):
        with pytest.raises(ServiceError, match="deadline_ms"):
            JobSpec(experiment="x", deadline_ms=-1.0).validate()
        with pytest.raises(ServiceError, match="deadline_ms"):
            JobSpec(experiment="x", deadline_ms=True).validate()

    def test_deadline_rides_the_wire(self):
        spec = JobSpec(experiment="capacity_sweep",
                       params=SWEEP_PARAMS, deadline_ms=250.0)
        assert spec_from_wire(spec_to_wire(spec)) == spec
        bare = JobSpec(experiment="capacity_sweep", params=SWEEP_PARAMS)
        assert "deadline_ms" not in spec_to_wire(bare)

    def test_expired_result_maps_to_504(self, tmp_path):
        with ServiceThread(ServiceConfig()) as svc:
            with ServiceClient(svc.port) as client:
                record = client.submit(JobSpec(
                    experiment="_test_sleepy", params={"s": 0.5},
                    deadline_ms=40.0))
                with pytest.raises(ServiceError, match="deadline"):
                    client.result(record["job_id"], timeout=30)
                status = client.status(record["job_id"])
        assert status["state"] == "expired"


class TestDrain:
    def test_draining_rejects_new_work_finishes_old(self):
        async def run():
            sched, registry = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            record = sched.submit(JobSpec(
                experiment="_test_sleepy", params={"s": 0.15}))
            sched.start_draining()
            with pytest.raises(ServiceUnavailableError, match="drain"):
                sched.submit(JobSpec(experiment="_test_sleepy",
                                     params={"s": 0.01}))
            leftover = await sched.drain(timeout_s=30.0)
            finished = sched.get(record.job_id)
            await sched.stop()
            return leftover, finished, registry

        leftover, finished, registry = asyncio.run(run())
        assert leftover == 0
        assert finished.state == JobState.DONE
        counters = registry.snapshot()["counters"]
        assert counters["service.drains"] == 1
        assert counters["service.jobs.rejected_draining"] == 1

    def test_drain_timeout_cancels_stragglers(self):
        async def run():
            sched, registry = _scheduler(pools=1, workers_per_pool=1)
            await sched.start()
            sched.submit(JobSpec(experiment="_test_sleepy",
                                 params={"s": 0.2}, seed=1))
            queued = sched.submit(JobSpec(experiment="_test_sleepy",
                                          params={"s": 0.2}, seed=2))
            sched.start_draining()
            leftover = await sched.drain(timeout_s=0.01)
            state = sched.get(queued.job_id).state
            await sched.stop()
            return leftover, state, registry

        leftover, state, registry = asyncio.run(run())
        assert leftover >= 1
        assert state == JobState.CANCELLED
        counters = registry.snapshot()["counters"]
        assert counters["service.drain.aborted"] == 1

    def test_shutdown_drains_in_flight_jobs(self, tmp_path):
        with ServiceThread(ServiceConfig(pools=1,
                                         workers_per_pool=1)) as svc:
            with ServiceClient(svc.port) as client:
                record = client.submit(JobSpec(
                    experiment="_test_sleepy", params={"s": 0.2}))
                client.shutdown()
        # __exit__ asserting an empty backlog means the sleepy job was
        # finished (not dropped) before the daemon came down.
        assert record["state"] in ("pending", "queued", "running")


class TestClientBackoff:
    def test_429_backoff_waits_out_a_saturated_queue(self, tmp_path):
        config = ServiceConfig(queue_depth=1, pools=1,
                               workers_per_pool=1)
        with ServiceThread(config) as svc:
            with ServiceClient(svc.port) as client:
                for i in range(3):  # 1 running + 1 slack + 1 queued
                    client.submit(JobSpec(experiment="_test_sleepy",
                                          params={"s": 0.15}, seed=i))
                record = client.submit(JobSpec(
                    experiment="_test_sleepy", params={"s": 0.01},
                    seed=99))
                assert client.backoffs >= 1
        assert record["job_id"]

    def test_max_backoffs_zero_fails_fast(self, tmp_path):
        config = ServiceConfig(queue_depth=1, pools=1,
                               workers_per_pool=1)
        with ServiceThread(config) as svc:
            with ServiceClient(svc.port, max_backoffs=0) as client:
                for i in range(3):
                    client.submit(JobSpec(experiment="_test_sleepy",
                                          params={"s": 0.3}, seed=i))
                with pytest.raises(QueueFullError):
                    client.submit(JobSpec(experiment="_test_sleepy",
                                          params={"s": 0.01}, seed=99))
                assert client.backoffs == 0

    def test_async_client_backs_off_too(self, tmp_path):
        async def drive(port):
            async with AsyncServiceClient(port) as client:
                for i in range(3):
                    await client.submit(JobSpec(
                        experiment="_test_sleepy", params={"s": 0.15},
                        seed=i))
                record = await client.submit(JobSpec(
                    experiment="_test_sleepy", params={"s": 0.01},
                    seed=99))
                return record, client.backoffs

        config = ServiceConfig(queue_depth=1, pools=1,
                               workers_per_pool=1)
        with ServiceThread(config) as svc:
            record, backoffs = asyncio.run(drive(svc.port))
        assert record["job_id"]
        assert backoffs >= 1
