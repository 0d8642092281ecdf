"""Unit tests for the fastpath package: the backend switch, the
request records, digest salting, ``run_batches`` and the vectorized
backends' equivalence contracts (small shapes — the exhaustive grids
live in the differential suite, ``tests/test_differential.py``).
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.config import (
    DemandModelConfig,
    default_platform_config,
    single_socket_config,
)
from repro.core.channel import TransmissionResult
from repro.core.evaluation import capacity_sweep, measure_capacity
from repro.core.protocol import calibrate_endpoints, decode_bit
from repro.cpu.activity import window_classes
from repro.defenses.evaluation import DEFENSE_KEYS
from repro.engine.parallel import run_batches
from repro.errors import ConfigError
from repro.fastpath.backend import (
    BACKENDS,
    CapacityRequest,
    DefenseRequest,
    check_backend,
    run_requests,
)
from repro.fastpath.batch import (
    _capacity_plan,
    _defense_plan,
    _group_key,
    _PMU_STAGGER_NS,
    _REPICK_PERIOD_NS,
    _lattices_for,
    _observations,
    batch_frequency_lattices,
)
from repro.platform.latency import LatencyModel
from repro.power.ufs import (
    accumulate_observation,
    law_signal,
    ufs_control_step,
)
from repro.resilience.checkpoint import Checkpoint, checkpoint_key
from repro.telemetry import MetricsRegistry, using
from repro.telemetry.manifest import config_digest
from repro.trace.store import TraceStore
from repro.validate import equal_results


class TestCheckBackend:
    def test_three_backends(self):
        assert BACKENDS == ("des", "batch", "analytical")
        for name in BACKENDS:
            check_backend(name)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            check_backend("bogus")


class TestDigestSalting:
    def test_des_backend_preserves_legacy_digests(self):
        from repro.config import default_platform_config

        platform = default_platform_config()
        legacy = config_digest(platform)
        assert config_digest(platform, backend="des") == legacy
        assert config_digest(platform, backend=None) == legacy

    def test_vectorized_backends_get_distinct_digests(self):
        from repro.config import default_platform_config

        platform = default_platform_config()
        digests = {
            config_digest(platform),
            config_digest(platform, backend="batch"),
            config_digest(platform, backend="analytical"),
        }
        assert len(digests) == 3

    def test_none_config_salts_under_vectorized_backends(self):
        # Legacy: no config, no digest.  Salted: the backend itself is
        # identity-bearing, so even a None config must produce a key.
        assert config_digest(None) is None
        assert config_digest(None, backend="batch") is not None

    def test_store_and_checkpoint_keys_diverge_per_backend(self):
        params = {"intervals_ms": (21.0,), "bits": 5}
        des = TraceStore.key("capacity_sweep", params=params, seed=0)
        legacy = TraceStore.key("capacity_sweep", params=params, seed=0,
                                backend="des")
        batch = TraceStore.key("capacity_sweep", params=params, seed=0,
                               backend="batch")
        assert des == legacy
        assert batch != des
        assert checkpoint_key("capacity_sweep", params=params, seed=0,
                              backend="batch") == batch


def _double(requests):
    """Module-level batch runner so pooled chunks can pickle it."""
    return [r * 2 for r in requests]


class TestRunBatches:
    def test_results_keep_request_order(self):
        assert run_batches([3, 1, 2], _double) == [6, 2, 4]

    def test_partition_invariance(self):
        requests = list(range(11))
        serial = run_batches(requests, _double, workers=1)
        for workers in (2, 3, 4):
            assert run_batches(requests, _double,
                               workers=workers) == serial

    def test_checkpoint_requires_labels(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        with pytest.raises(ConfigError, match="label"):
            run_batches([1], _double, checkpoint=ckpt)
        with pytest.raises(ConfigError, match="2 labels"):
            run_batches([1], _double, labels=["a", "b"],
                        checkpoint=ckpt)
        with pytest.raises(ConfigError, match="unique"):
            run_batches([1, 2], _double, labels=["a", "a"],
                        checkpoint=ckpt)

    def test_checkpoint_resume_skips_completed(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        ckpt.record("b", 999)  # a previously-completed (stale) result
        registry = MetricsRegistry()
        with using(registry):
            results = run_batches([1, 2, 3], _double,
                                  labels=["a", "b", "c"],
                                  checkpoint=ckpt)
        assert results == [2, 999, 6]
        counters = registry.snapshot()["counters"]
        assert counters["runner.checkpoint.skipped"] == 1
        # The two fresh results were recorded, so a rerun is all-skip.
        rerun = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        with using(MetricsRegistry()):
            assert run_batches([1, 2, 3], _double,
                               labels=["a", "b", "c"],
                               checkpoint=rerun) == [2, 999, 6]

    def test_negative_workers_rejected_when_all_resumed(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "x.ckpt.json", key="k")
        ckpt.record("a", 2)
        with pytest.raises(ConfigError, match="workers"):
            run_batches([1], _double, workers=-1, labels=["a"],
                        checkpoint=ckpt)


class TestRunRequests:
    def test_no_requests_still_validated(self):
        assert run_requests([], "batch") == []
        with pytest.raises(ConfigError, match="unknown backend"):
            run_requests([], "bogus")
        with pytest.raises(ConfigError, match="workers"):
            run_requests([], workers=-1)

    def test_runner_is_looked_up_when_called(self, monkeypatch):
        # A wrapper rebound on the runner's module (a profiler's span, a
        # fault injector) is the one every entry point runs.
        import repro.fastpath.batch as batch

        real = batch.batch_capacity_points
        calls = []

        def traced(requests):
            calls.append(len(requests))
            return real(requests)

        monkeypatch.setattr(batch, "batch_capacity_points", traced)
        measure_capacity(interval_ms=21.0, bits=5, backend="batch")
        capacity_sweep(intervals_ms=(21.0, 15.0), bits=5, backend="batch")
        assert calls == [1, 2]

    def test_resumed_batch_sweep_still_validates_workers(self, tmp_path):
        shape = dict(intervals_ms=(21.0, 15.0), bits=5, backend="batch",
                     checkpoint_dir=tmp_path)
        capacity_sweep(**shape)
        registry = MetricsRegistry()
        with using(registry):
            capacity_sweep(**shape)
        assert registry.snapshot()["counters"][
            "runner.checkpoint.skipped"] == 2
        with pytest.raises(ConfigError, match="workers"):
            capacity_sweep(**shape, workers=-1)

    def test_backend_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=21.0, bits=5)
        assert "fastpath.batch.trials" not in registry.snapshot()["counters"]

    def test_comparison_matrix_runs_with_backend_env_var(self, monkeypatch):
        from repro.channels.comparison import comparison_matrix
        from repro.channels.flush_reload import FlushReloadChannel
        from repro.channels.scenarios import scenario_by_key

        monkeypatch.setenv("REPRO_BACKEND", "batch")
        [cell] = comparison_matrix(
            bits=6, channels=(FlushReloadChannel,),
            scenarios=(scenario_by_key("baseline"),),
        )
        assert cell.channel == FlushReloadChannel.name
        assert cell.scenario == "baseline"


def _runner_calls():
    """Every public experiment runner, called cheaply with ``workers=-1``."""
    from repro.channels.comparison import comparison_matrix
    from repro.core.reliability import capacity_under_stress, stress_table
    from repro.defenses.evaluation import evaluate_defenses
    from repro.sidechannel.filesize import run_filesize_study
    from repro.sidechannel.fingerprint import collect_dataset

    return {
        "measure_capacity": lambda: measure_capacity(
            interval_ms=21.0, bits=5, workers=-1),
        "capacity_sweep": lambda: capacity_sweep(
            intervals_ms=(21.0,), bits=5, workers=-1),
        "evaluate_defenses": lambda: evaluate_defenses(
            bits=5, defenses=("none",), workers=-1),
        "comparison_matrix": lambda: comparison_matrix(bits=4, workers=-1),
        "capacity_under_stress": lambda: capacity_under_stress(
            1, bits=5, workers=-1),
        "stress_table": lambda: stress_table(1, bits=5, workers=-1),
        "collect_dataset": lambda: collect_dataset(
            num_sites=1, train_visits=1, test_visits=1, trace_ms=10.0,
            workers=-1),
        "run_filesize_study": lambda: run_filesize_study(
            sizes_kb=(300.0,), calibration_runs=1, trials=1, workers=-1),
    }


class TestValidationBeforeWork:
    @pytest.mark.parametrize("name", list(_runner_calls()))
    def test_negative_workers_rejected_before_any_system(
            self, name, monkeypatch):
        from repro.platform.system import System

        def no_work(*args, **kwargs):
            raise AssertionError("a System was built before validation")

        monkeypatch.setattr(System, "__init__", no_work)
        with pytest.raises(ConfigError, match="workers"):
            _runner_calls()[name]()


class TestCapacityShape:
    """A point needs a measured bit on every backend."""

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("bits", [0, -3])
    def test_measure_capacity_rejects_no_bits(self, backend, bits):
        with pytest.raises(ConfigError, match="at least one bit"):
            measure_capacity(interval_ms=20.0, bits=bits,
                             backend=backend)

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("bits", [0, -3])
    def test_capacity_sweep_rejects_no_bits(self, backend, bits):
        with pytest.raises(ConfigError, match="at least one bit"):
            capacity_sweep(intervals_ms=(28.0, 20.0), bits=bits,
                           backend=backend)

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("bits", [0, -3])
    def test_evaluate_defenses_rejects_no_bits(self, backend, bits):
        from repro.defenses.evaluation import evaluate_defenses

        with pytest.raises(ConfigError, match="at least one bit"):
            evaluate_defenses(bits=bits, backend=backend)


#: Platforms ``PlatformConfig.validate`` rejects, one per kind of defect.
INVALID_PLATFORMS = {
    "descending-llc-bands": dataclasses.replace(
        default_platform_config(),
        demand=DemandModelConfig(
            llc_bands=tuple(reversed(DemandModelConfig().llc_bands))
        ),
    ),
    "stall-trigger-above-one": default_platform_config().with_ufs(
        stalled_fraction_trigger=1.5
    ),
    "off-grid-range": default_platform_config().with_ufs(
        max_freq_mhz=2450
    ),
    "empty-observation-window": default_platform_config().with_ufs(
        observation_ns=0
    ),
    "negative-noise-scale": dataclasses.replace(
        default_platform_config(),
        latency=dataclasses.replace(default_platform_config().latency,
                                    window_jitter_cycles=-0.5),
    ),
}


class TestPlatformValidation:
    """Every backend rejects the platforms ``System`` rejects."""

    @pytest.mark.parametrize("backend", ["des", "batch", "analytical"])
    @pytest.mark.parametrize("name", list(INVALID_PLATFORMS))
    def test_invalid_platform_rejected(self, backend, name):
        with pytest.raises(ConfigError):
            measure_capacity(platform=INVALID_PLATFORMS[name],
                             interval_ms=21, bits=6, backend=backend)


class TestBatchBackend:
    def test_capacity_point_bit_identical_to_des(self):
        des = measure_capacity(interval_ms=21.0, bits=6, seed=5,
                               backend="des")
        batch = measure_capacity(interval_ms=21.0, bits=6, seed=5,
                                 backend="batch")
        assert equal_results(des, batch)

    def test_defense_report_bit_identical_to_des(self):
        from repro.defenses.evaluation import channel_under_defense

        des = channel_under_defense("randomized", bits=5, seed=2,
                                    backend="des")
        batch = channel_under_defense("randomized", bits=5, seed=2,
                                      backend="batch")
        assert equal_results(des, batch)

    @pytest.mark.parametrize("bits", [5, 26])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("defense", DEFENSE_KEYS)
    def test_every_defense_report_bit_identical_to_des(self, defense,
                                                       seed, bits):
        from repro.defenses.evaluation import channel_under_defense

        des = channel_under_defense(defense, bits=bits, seed=seed,
                                    backend="des")
        batch = channel_under_defense(defense, bits=bits, seed=seed,
                                      backend="batch")
        assert equal_results(des, batch)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("interval_ms", [12.0, 15.0, 21.0, 33.0])
    def test_fig10_points_bit_identical_to_des(self, interval_ms, cross,
                                              seed):
        des = measure_capacity(interval_ms=interval_ms, bits=6, seed=seed,
                               cross_processor=cross, backend="des")
        batch = measure_capacity(interval_ms=interval_ms, bits=6,
                                 seed=seed, cross_processor=cross,
                                 backend="batch")
        assert equal_results(des, batch)

    def test_sweep_workers_compose_with_backend(self):
        serial = capacity_sweep(intervals_ms=(21.0, 15.0), bits=5,
                                seed=1, backend="batch")
        pooled = capacity_sweep(intervals_ms=(21.0, 15.0), bits=5,
                                seed=1, backend="batch", workers=2)
        assert equal_results(serial, pooled)

    def test_empty_calls(self):
        from repro.fastpath.batch import (
            batch_capacity_points,
            batch_defense_reports,
        )

        assert batch_capacity_points([]) == []
        assert batch_defense_reports([]) == []
        assert batch_frequency_lattices([]) == []

    def test_trial_counter(self):
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=21.0, bits=5, backend="batch")
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.batch.trials"] == 1

    @pytest.mark.parametrize("interval_ms", [21.0, 12.0])
    def test_observation_longer_than_period(self, interval_ms):
        # A 20 ms window over 10 ms ticks reaches back past the previous
        # tick; the PMU clamps it there, and so must the lattice.
        platform = default_platform_config().with_ufs(
            observation_ns=20_000_000
        )
        des, batch = (
            measure_capacity(platform=platform, interval_ms=interval_ms,
                             bits=24, seed=0, backend=backend)
            for backend in ("des", "batch")
        )
        assert equal_results(des, batch)

    def test_shared_lattice_matches_solo_lattices(self):
        # One group mixing horizons, a cross-socket trial and a
        # restricted-window trial: each trial's history must not depend
        # on who else shares the lattice (trials past their horizon
        # stop stepping).
        def plans():
            return [
                _capacity_plan(CapacityRequest(interval_ms=21.0, bits=6,
                                               seed=3)),
                _capacity_plan(CapacityRequest(interval_ms=28.0, bits=11,
                                               seed=4)),
                _defense_plan(DefenseRequest("restricted_1500_1700",
                                             bits=4, seed=5)),
                _capacity_plan(CapacityRequest(interval_ms=15.0, bits=3,
                                               cross_processor=True)),
            ]

        together = plans()
        assert len({_group_key(p.platform) for p in together}) == 1
        assert len({p.duration_ns for p in together}) == len(together)
        shared = _lattices_for(together)
        solo = [_lattices_for([plan])[0] for plan in plans()]
        assert shared == solo
        restricted = {mhz for socket in shared[2] for _, mhz in socket}
        assert restricted <= {1500, 1600, 1700}


    @pytest.mark.parametrize("interval_ms, cross", [
        (12.0, False), (15.0, False), (21.0, True),
    ])
    def test_lattice_equals_des_frequency_timeline(self, interval_ms,
                                                   cross):
        # Every frequency change, to the nanosecond, up to the horizon.
        # At 12 ms one 10 ms window meets two measurement windows.
        from repro.core import ChannelConfig, UFVariationChannel
        from repro.core.evaluation import random_bits
        from repro.platform.system import System
        from repro.units import ms

        bits = 16
        system = System(default_platform_config(), seed=0)
        channel = UFVariationChannel(
            system, config=ChannelConfig(interval_ns=ms(interval_ms)),
            sender_socket=0, sender_cores=(0,),
            receiver_socket=1 if cross else 0, receiver_core=8,
        )
        channel.transmit(random_bits(bits, 0, f"payload-{interval_ms}"))
        horizon = bits * ms(interval_ms)
        des = [
            tuple(point for point in socket.pmu.timeline.points()
                  if point[0] <= horizon)
            for socket in system.sockets
        ]
        channel.shutdown()
        system.stop()
        [batch] = batch_frequency_lattices([CapacityRequest(
            interval_ms=interval_ms, bits=bits, seed=0,
            cross_processor=cross,
        )])
        assert batch == des


def _reference_lattice(plan):
    """One trial's frequency history, stepped without any shortcut:
    every tick folds every touched core's ``window_stats`` and calls the
    control law."""
    platform = plan.platform
    ufs = platform.ufs
    sockets = platform.num_sockets
    coupled = platform.cross_socket_coupling and sockets > 1
    events = []
    for socket_id in range(sockets):
        previous = 0
        tick = ufs.period_ns + socket_id * _PMU_STAGGER_NS
        while tick <= plan.duration_ns:
            start = max(previous, tick - ufs.observation_ns)
            events.append((tick, 1, socket_id, start))
            previous, tick = tick, tick + ufs.period_ns
    if plan.repick_rng is not None:
        events += [(time_ns, 0, -1, 0) for time_ns in range(
            _REPICK_PERIOD_NS, plan.duration_ns + 1, _REPICK_PERIOD_NS)]
    freq = list(plan.init_freq)
    dither = [0] * sockets
    countdown = [0] * sockets
    limits = list(plan.init_limits)
    history = [list(points) for points in plan.init_history]
    steps = 0
    for time_ns, order, socket_id, start in sorted(events):
        if order == 0:
            points = ufs.frequency_points_mhz
            pick = int(points[plan.repick_rng.integers(len(points))])
            for s in range(sockets):
                limits[s] = (pick, pick)
                if freq[s] != pick:
                    freq[s] = pick
                    history[s].append((time_ns, pick))
            continue
        fold = accumulate_observation(
            [(timeline.window_stats(start, time_ns), False)
             for _, timeline in sorted(plan.cores[socket_id].items())],
            ufs.stall_ratio_threshold,
        )
        remote = (max(freq[s] for s in range(sockets) if s != socket_id)
                  if coupled else None)
        result = ufs_control_step(
            freq_mhz=freq[socket_id], dither_phase=dither[socket_id],
            slow_countdown=countdown[socket_id],
            min_limit_mhz=limits[socket_id][0],
            max_limit_mhz=limits[socket_id][1],
            signal=law_signal(fold, ufs=ufs, demand=platform.demand),
            remote_mhz=remote, ufs=ufs,
            coupling_lag_mhz=platform.coupling_lag_mhz,
        )
        steps += 1
        if result.freq_mhz != freq[socket_id]:
            history[socket_id].append((time_ns, result.freq_mhz))
        freq[socket_id] = result.freq_mhz
        dither[socket_id] = result.dither_phase
        countdown[socket_id] = result.slow_countdown
    return history, steps


#: Request lists the memoised lattice must step exactly: both
#: deployments at mixed horizons, every defense, an observation window
#: longer than the PMU period, and coupled sockets other than a pair
#: (three, and one alone).
_LONG_WINDOW = default_platform_config().with_ufs(observation_ns=20_000_000)
_THREE_SOCKETS = dataclasses.replace(
    default_platform_config(),
    sockets=default_platform_config().sockets + (dataclasses.replace(
        default_platform_config().sockets[1], socket_id=2),),
)
REFERENCE_GROUPS = {
    "deployments": [
        CapacityRequest(interval_ms=interval, bits=bits, seed=seed,
                        cross_processor=cross)
        for seed, (interval, bits) in enumerate(
            [(12.0, 30), (15.0, 9), (21.0, 24), (33.0, 17)])
        for cross in (False, True)
    ],
    "defenses": [
        DefenseRequest(defense, bits=bits, seed=seed)
        for seed, defense in enumerate(DEFENSE_KEYS)
        for bits in (7, 26)
    ],
    "long-window": [
        CapacityRequest(interval_ms=interval, bits=bits, seed=1,
                        cross_processor=cross, platform=_LONG_WINDOW)
        for interval, bits in ((12.0, 25), (21.0, 14))
        for cross in (False, True)
    ],
    "three sockets": [
        CapacityRequest(interval_ms=interval, bits=bits, seed=seed,
                        cross_processor=cross, platform=_THREE_SOCKETS)
        for seed, (interval, bits) in enumerate(((15.0, 20), (28.0, 12)))
        for cross in (False, True)
    ],
    "one socket": [
        CapacityRequest(interval_ms=interval, bits=bits, seed=seed,
                        platform=single_socket_config())
        for seed, (interval, bits) in enumerate(((15.0, 20), (28.0, 12)))
    ],
}


class TestMemoisedLattice:
    @pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
    def test_lattice_equals_stepping_every_tick(self, name, monkeypatch):
        import repro.fastpath.batch as batch

        calls = []

        def counted(**kwargs):
            calls.append(kwargs)
            return ufs_control_step(**kwargs)

        def plans():
            return batch._plans(REFERENCE_GROUPS[name])

        monkeypatch.setattr(batch, "ufs_control_step", counted)
        lattices = _lattices_for(plans())
        references = [_reference_lattice(plan) for plan in plans()]
        assert lattices == [history for history, _ in references]
        # Each distinct step is taken once per group, and trials do
        # revisit steps.
        assert len(calls) == len({tuple(sorted(call.items()))
                                  for call in calls})
        assert len(calls) < sum(steps for _, steps in references)
        # A lone socket steps uncoupled; every other group reads a
        # remote frequency (for three sockets, the fastest of two).
        assert {call["remote_mhz"] is None for call in calls} == {
            name == "one socket"}

    @pytest.mark.parametrize("cross", [False, True])
    def test_a_socket_no_trial_touches_is_not_classed(self, cross,
                                                      monkeypatch):
        """Cross-core trials leave socket 1 untouched: its windows fold
        idle without a classing pass, and the lattice is unchanged."""
        import repro.fastpath.batch as batch

        requests = [CapacityRequest(interval_ms=interval, bits=12, seed=3,
                                    cross_processor=cross)
                    for interval in (15.0, 28.0)]
        passes = []
        observe = batch._observations

        def counted(trials, *args):
            passes.append(sum(len(entries) for entries, _ in trials))
            return observe(trials, *args)

        monkeypatch.setattr(batch, "_observations", counted)
        plans = batch._plans(requests)
        assert _lattices_for(plans) == [_reference_lattice(plan)[0]
                                        for plan in plans]
        # Socket 0 holds the sender, and the receiver unless cross.
        assert passes == ([2, 2] if cross else [4])


def _profiles():
    """Fresh profile objects: silent, L2-only (silent) and loud ones."""
    from repro.cpu.activity import IDLE, ActivityProfile

    return [
        IDLE,
        ActivityProfile(l2_rate_per_us=4.0),
        ActivityProfile(active=True, stall_ratio=0.8),
        ActivityProfile(llc_rate_per_us=40.0, mean_hops=2.0),
        ActivityProfile(active=True, llc_rate_per_us=9.0, mean_hops=1.0,
                        stall_ratio=0.2),
    ]


def _loud_timeline(rng, profiles):
    from repro.cpu.activity import ProfileTimeline

    timeline = ProfileTimeline(rng.choice(profiles))
    now = 0
    for _ in range(rng.randint(0, 14)):
        now += rng.choice((0, 1, 150, 400, 1300))
        timeline.set_profile(now, rng.choice(profiles))
    return timeline, now


class TestLatticeObservations:
    @pytest.mark.parametrize("seed", range(4))
    def test_skipping_silent_windows_changes_no_fold(self, seed,
                                                     monkeypatch):
        # One socket of a group: trials with zero to three touched
        # cores, cut at their own tick counts.  Some trials draw their
        # profiles from one shared set of objects, some from their own,
        # and some replay another trial's histories on new timelines.
        # The reference folds every touched core in every window (a
        # silent core adds exact zeros); short spans and gaps put two
        # loud spans inside one window.  The pass integrates one window
        # per distinct loud class across all trials, and nothing else;
        # each distinct row of loud classes is folded once, whichever
        # trials it occurs in.
        from repro.cpu.activity import ProfileTimeline
        from repro.fastpath import batch

        from .test_cpu import _reference_window_key

        walk = ProfileTimeline.walk_windows
        fold = batch.accumulate_observation
        integrated = []
        folded = []

        def counted_walk(timeline, windows):
            windows = list(windows)
            integrated.append(len(windows))
            return walk(timeline, windows)

        def counted_fold(samples, threshold):
            folded.append(len(samples))
            return fold(samples, threshold)

        rng = random.Random(seed)
        shared = _profiles()
        seen = {"class across trials": 0, "row across trials": 0,
                "no core": 0, "no tick": 0}
        for _ in range(60):
            built = []  # per trial: one timeline per core
            ends = [0]
            for _ in range(rng.randint(1, 4)):
                if built and rng.random() < 0.3:
                    replica = []
                    for timeline in rng.choice(built):
                        copy = ProfileTimeline(timeline._profiles[0])
                        copy.extend(zip(timeline._times[1:],
                                        timeline._profiles[1:]))
                        replica.append(copy)
                    built.append(replica)
                    continue
                profiles = shared if rng.random() < 0.6 else _profiles()
                entries = []
                for _ in range(rng.randint(0, 3)):
                    timeline, end = _loud_timeline(rng, profiles)
                    entries.append(timeline)
                    ends.append(end)
                built.append(entries)
            horizon = max(ends) + 1000
            period = rng.choice((500, 1000))
            observation = rng.choice((300, 1000, 2500))
            ticks = list(range(period, horizon + 1, period))
            starts = [max(previous, tick - observation)
                      for previous, tick in zip([0] + ticks, ticks)]
            trials = [(entries, rng.randint(0, len(ticks)))
                      for entries in built]
            interned = {}  # fold -> id, as the lattice's signal ids

            def intern(fold):
                return interned.setdefault(fold, len(interned))

            integrated.clear()
            folded.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ProfileTimeline, "walk_windows", counted_walk)
                patch.setattr(ProfileTimeline, "window_stats", None)
                patch.setattr(batch, "accumulate_observation", counted_fold)
                fold_ids, walked = _observations(trials, ticks, starts, 0.3,
                                                 intern)
            table = list(interned)
            assert len(fold_ids) == len(trials)
            keys = {}  # loud window key -> the trials it occurs in
            rows = {}  # loud row -> the trials it occurs in
            for index, ((entries, last), ids) in enumerate(
                    zip(trials, fold_ids)):
                assert len(ids) == last
                seen["no core"] += not entries
                seen["no tick"] += not last
                for tick in range(last):
                    samples = [
                        (timeline.window_stats(starts[tick], ticks[tick]),
                         False) for timeline in entries
                    ]
                    assert _fold_bits(table[ids[tick]]) == \
                        _fold_bits(accumulate_observation(samples, 0.3))
                    row = []
                    for timeline in entries:
                        key = _reference_window_key(timeline, starts[tick],
                                                    ticks[tick])
                        if key is not None:
                            keys.setdefault(key, set()).add(index)
                            row.append(key)
                    if row:
                        rows.setdefault(tuple(row), set()).add(index)
            # One walk per timeline at most, one window per class.
            assert sum(integrated) == walked == len(keys)
            assert len(integrated) <= sum(len(e) for e, _ in trials)
            assert len(folded) == len(rows)  # one fold per loud row
            assert 0 not in folded  # silence is not folded
            seen["class across trials"] += any(
                len(owners) > 1 for owners in keys.values())
            seen["row across trials"] += any(
                len(owners) > 1 for owners in rows.values())
            # The table is the group's: a second pass over the same
            # histories interns no new fold.
            again, _ = _observations(trials, ticks, starts, 0.3, intern)
            assert again == fold_ids and len(interned) == len(table)
        assert all(seen.values()), seen

    def test_sweep_op_integrates_few_windows(self):
        # Both Fig. 10 deployments and the §6.1 matrix at 100 bits: the
        # lattice meets 8,739 loud (core, tick) windows, but they fall
        # into about a hundred classes, shared across the trials of a
        # group (classing each trial on its own integrates 361).
        from repro.defenses import evaluate_defenses

        registry = MetricsRegistry()
        with using(registry):
            for cross in (False, True):
                capacity_sweep(bits=100, cross_processor=cross, seed=0,
                               workers=1, backend="batch")
            evaluate_defenses(bits=100, seed=0, workers=1, backend="batch")
        windows = registry.snapshot()["counters"][
            "fastpath.batch.windows_integrated"]
        assert 0 < windows < 361


#: Replay edge cases.  ``randomized``: T1 windows open 10 ns per bit
#: before a PMU tick, so each splits into a 1-sample (mostly tail-free)
#: segment and the rest.  ``on-ticks``: windows open and close exactly
#: on PMU ticks, which must not split them.  ``2 ms period``: every
#: window splits into three or four segments.
REPLAY_EDGES = {
    "randomized": DefenseRequest("randomized", bits=4, seed=4,
                                 interval_ms=19.99999),
    "on-ticks": DefenseRequest("none", bits=6, seed=1, interval_ms=20.0),
    "2 ms period": CapacityRequest(
        interval_ms=21.0, bits=5, seed=2,
        platform=default_platform_config().with_ufs(period_ns=2_000_000)),
}


def _edge_plan(request):
    if isinstance(request, DefenseRequest):
        return _defense_plan(request)
    return _capacity_plan(request)


# -- the per-trial replay oracle ----------------------------------------------
#
# Phase B as it ran before it became one pass per call: every trial
# builds its own segment table, draws its own sums and adds its own
# windows.  Kept verbatim (with the array draws of
# ``LatencyModel.segment_llc_sums`` as they stood inlined) as the
# oracle the one-pass replay must equal.


def _reference_segment_table(plan, lattice, model):
    times = np.array([point[0] for point in lattice[plan.receiver_socket]],
                     dtype=np.int64)
    freqs = [point[1] for point in lattice[plan.receiver_socket]]
    period = plan.platform.ufs.period_ns
    offset = plan.receiver_socket * _PMU_STAGGER_NS
    interval = plan.config.interval_ns
    measure = plan.config.measure_ns
    hops = plan.config.hops
    bits = len(plan.payload)
    starts = (np.arange(bits, dtype=np.int64)[:, None] * interval
              + np.array([0, interval - measure], dtype=np.int64)).ravel()
    deadlines = starts + measure
    # The socket's ticks, through the first at or after the horizon.
    ticks = offset + period * np.arange(
        1, (plan.duration_ns - offset) // period + 2, dtype=np.int64)
    after = np.searchsorted(ticks, starts, "right")  # first tick > start
    spans = np.searchsorted(ticks, deadlines, "left") - after + 1
    window = np.repeat(np.arange(len(starts)), spans)
    rank = np.arange(len(window)) - (np.cumsum(spans) - spans)[window]
    tick = after[window] + rank  # the tick ending each segment but a last
    seg_start = np.where(rank > 0, ticks[tick - 1], starts[window])
    seg_end = np.minimum(ticks[tick], deadlines[window])
    point = np.searchsorted(times, seg_start, "right") - 1
    iteration = {mhz: model.loop_iteration_ns(
        model.mean_llc_cycles(hops, mhz), plan.receiver_core_mhz)
        for mhz in set(freqs)}
    iter_ns = np.array([iteration[mhz] for mhz in freqs])[point]
    counts = ((seg_end - seg_start) / iter_ns).astype(np.int64)
    np.maximum(counts, 1, out=counts)
    flows = np.where(np.repeat(np.array(plan.payload, dtype=bool), 2),
                     plan.mark_flows, plan.space_flows)[window]
    return counts, np.array(freqs, dtype=np.int64)[point], flows, spans


def _reference_segment_llc_sums(model, counts, hops, uncore_mhz,
                                contention_flows):
    config = model.config
    counts = np.asarray(counts, dtype=np.int64)
    f_ghz = np.asarray(uncore_mhz, dtype=np.int64) / 1_000.0
    mean = config.core_cycles + (
        config.slice_cycles + config.hop_cycles * hops) / f_ghz
    mean += (config.contention_cycles_per_flow
             * np.asarray(contention_flows, dtype=np.float64) / f_ghz)
    totals = counts * mean
    totals += (config.noise_sigma_cycles * np.sqrt(counts)
               * model.jitter_rng.standard_normal(len(counts)))
    tails = model.tail_count_rng.binomial(counts, config.noise_tail_prob)
    heavy = np.flatnonzero(tails)
    totals[heavy] += model.tail_mass_rng.gamma(tails[heavy],
                                               config.noise_tail_cycles)
    return totals


def _reference_window_means(model, hops, counts, mhzs, flows, spans):
    sums = _reference_segment_llc_sums(model, counts, hops, mhzs, flows)
    first = np.cumsum(spans) - spans
    totals = np.zeros(len(spans))
    samples = np.zeros(len(spans), dtype=np.int64)
    for rank in range(int(spans.max(initial=0))):
        has = np.flatnonzero(spans > rank)
        segment = first[has] + rank
        totals[has] += sums[segment]
        samples[has] += counts[segment]
    totals /= samples
    totals += model.window_biases(len(spans))
    return totals.tolist()


def _reference_replay(plan, lattice):
    """One trial's receiver replay, on its own."""
    model = LatencyModel(plan.platform.latency, plan.seed)
    endpoints = calibrate_endpoints(
        plan.platform, model, hops=plan.config.hops,
        cross_processor=plan.cross,
    )
    means = _reference_window_means(
        model, plan.config.hops,
        *_reference_segment_table(plan, lattice, model))
    received = [decode_bit(t1, t2, endpoints, plan.config)
                for t1, t2 in zip(means[0::2], means[1::2])]
    return TransmissionResult(
        sent=tuple(plan.payload),
        received=tuple(received),
        interval_ns=plan.config.interval_ns,
        duration_ns=plan.duration_ns,
    )


#: A call mixing every defense, both deployments, several intervals and
#: bit counts, seeds 0, 2 and 3, the replay edge cases (the 2 ms period
#: is a lattice group of its own) and a receiver with its own latency
#: constants (another).
_OTHER_LATENCY = dataclasses.replace(
    default_platform_config(),
    latency=dataclasses.replace(default_platform_config().latency,
                                hop_cycles=12.5, noise_sigma_cycles=2.0,
                                window_jitter_cycles=0.6),
)
MIXED_CALL = [
    DefenseRequest(defense, bits=bits, seed=seed)
    for seed, bits in ((0, 9), (2, 26), (3, 14))
    for defense in DEFENSE_KEYS
] + [
    CapacityRequest(interval_ms=interval, bits=bits, seed=seed,
                    cross_processor=cross)
    for seed, (interval, bits) in zip((0, 2, 3),
                                      ((12.0, 30), (21.0, 11), (33.0, 7)))
    for cross in (False, True)
] + list(REPLAY_EDGES.values()) + [
    CapacityRequest(interval_ms=18.0, bits=12, seed=2, cross_processor=cross,
                    platform=_OTHER_LATENCY)
    for cross in (False, True)
]


def _stream_states(model):
    return [getattr(model, stream).bit_generator.state for stream in (
        "jitter_rng", "tail_count_rng", "tail_mass_rng", "bias_rng")]


class TestReceiverReplay:
    """Phase B draws each window quantity as one array; the DES draws
    the same values one segment at a time."""

    @pytest.mark.parametrize("name", list(REPLAY_EDGES))
    def test_array_replay_equals_scalar_des_order_draws(self, name):
        from repro.fastpath.batch import _segment_table, _window_means
        from repro.platform.latency import WINDOW_STREAMS
        from repro.rng import child_rng

        plan = _edge_plan(REPLAY_EDGES[name])
        [lattice] = _lattices_for([plan])
        hops = plan.config.hops
        array = LatencyModel(plan.platform.latency, plan.seed)
        counts, mhzs, flows, spans, _, _ = _segment_table(
            [plan], [lattice], [array])
        if name == "randomized":
            assert (counts == 1).any() and spans.max() == 2
            tails = child_rng(plan.seed, WINDOW_STREAMS[1]).binomial(
                counts, plan.platform.latency.noise_tail_prob)
            assert (tails == 0).any() and (tails > 0).any()
        elif name == "on-ticks":
            assert (spans == 1).all()
        else:
            assert spans.min() >= 3
        means = _window_means([plan], [lattice], [array])
        scalar = LatencyModel(plan.platform.latency, plan.seed)
        segments = iter(zip(counts.tolist(), mhzs.tolist(), flows.tolist()))
        expected = []
        for span in spans.tolist():  # as measure_window, window by window
            total = 0.0
            count = 0
            for n, mhz, flow in (next(segments) for _ in range(span)):
                total += scalar.segment_llc_sum(n, hops, mhz, flow)
                count += n
            expected.append(total / count + scalar.window_bias())
        assert means == expected
        assert _stream_states(array) == _stream_states(scalar)

    def test_one_pass_replay_equals_the_per_trial_oracle(self):
        # One call: every defense, both deployments, several intervals
        # and bit counts, seeds 0, 2 and 3, three lattice groups and two
        # receivers.  Each trial's windows, stream positions and result
        # equal its replay on its own.
        from repro.fastpath.batch import _plans, _replay_trial, _window_means

        plans = _plans(MIXED_CALL)
        lattices = _lattices_for(plans)
        assert len({_group_key(plan.platform) for plan in plans}) == 3
        assert len({plan.platform.latency for plan in plans}) == 2
        assert {plan.seed for plan in plans} >= {0, 2, 3}
        assert {plan.cross for plan in plans} == {False, True}
        models = [LatencyModel(plan.platform.latency, plan.seed)
                  for plan in plans]
        means = _window_means(plans, lattices, models)
        begin = 0
        for plan, lattice, model in zip(plans, lattices, models):
            end = begin + 2 * len(plan.payload)
            alone = LatencyModel(plan.platform.latency, plan.seed)
            assert means[begin:end] == _reference_window_means(
                alone, plan.config.hops,
                *_reference_segment_table(plan, lattice, alone))
            assert _stream_states(model) == _stream_states(alone)
            begin = end
        assert begin == len(means)
        assert _replay_trial(plans, lattices) == [
            _reference_replay(plan, lattice)
            for plan, lattice in zip(plans, lattices)]

    @pytest.mark.parametrize("name", list(REPLAY_EDGES))
    def test_des_receiver_draws_the_segment_table(self, name, monkeypatch):
        from repro.core.evaluation import measure_capacity
        from repro.defenses.evaluation import channel_under_defense
        from repro.fastpath.batch import _segment_table

        request = REPLAY_EDGES[name]
        if isinstance(request, DefenseRequest):
            def run(backend):
                return channel_under_defense(
                    request.defense, bits=request.bits,
                    interval_ms=request.interval_ms, seed=request.seed,
                    backend=backend)
        else:
            def run(backend):
                return measure_capacity(
                    platform=request.platform,
                    interval_ms=request.interval_ms, bits=request.bits,
                    seed=request.seed, backend=backend)
        drawn = []
        scalar = LatencyModel.segment_llc_sum

        def recorded(self, count, hops, uncore_mhz, contention_flows=0.0):
            drawn.append((count, uncore_mhz, contention_flows))
            return scalar(self, count, hops, uncore_mhz, contention_flows)

        monkeypatch.setattr(LatencyModel, "segment_llc_sum", recorded)
        des = run("des")
        monkeypatch.undo()
        assert equal_results(des, run("batch"))
        plan = _edge_plan(request)
        [lattice] = _lattices_for([plan])
        counts, mhzs, flows = _segment_table(
            [plan], [lattice],
            [LatencyModel(plan.platform.latency, plan.seed)])[:3]
        assert drawn == list(zip(counts.tolist(), mhzs.tolist(),
                                 flows.tolist()))

    def test_receiver_timelines_are_shared_by_key(self, monkeypatch):
        import repro.fastpath.batch as batch

        requests = [DefenseRequest(defense, bits=9, seed=2)
                    for defense in DEFENSE_KEYS] + [
            CapacityRequest(interval_ms=38.0, bits=9, seed=2),
            DefenseRequest("none", bits=5, seed=2),
            DefenseRequest("none", bits=9, seed=2, interval_ms=40.0),
            CapacityRequest(interval_ms=38.0, bits=9, seed=2,
                            cross_processor=True),
        ]
        plans = batch._plans(requests)
        receivers = [plan.cores[plan.receiver_socket][8]
                     for plan in plans]
        # One object per (socket, interval, measure, duration), and
        # each the timeline the trial would plan on its own.
        assert len({id(timeline) for timeline in receivers}) == 4
        for request, timeline in zip(requests, receivers):
            alone = _edge_plan(request)
            own = alone.cores[alone.receiver_socket][8]
            assert (timeline._times, timeline._profiles) == (
                own._times, own._profiles)
        classed = []

        def recorded(timelines, *args):
            classed.append([id(timeline) for timeline in timelines])
            return window_classes(timelines, *args)

        monkeypatch.setattr(batch, "window_classes", recorded)
        shared = _lattices_for(plans)
        assert all(len(set(ids)) == len(ids) for ids in classed)
        monkeypatch.undo()
        assert shared == [_lattices_for([_edge_plan(request)])[0]
                          for request in requests]


def _fold_bits(fold):
    return tuple(value.hex() if isinstance(value, float) else value
                 for value in fold)


class TestAnalyticalBackend:
    def test_estimates_are_sane(self):
        from repro.fastpath.analytical import analytical_capacity_points

        point = analytical_capacity_points(
            [CapacityRequest(interval_ms=12.0, bits=30, seed=0)]
        )[0]
        assert 0.0 <= point.error_rate <= 1.0
        assert point.capacity_bps >= 0.0

    @pytest.mark.parametrize("defense", DEFENSE_KEYS)
    def test_defense_estimate_brackets_the_des_outcome(self, defense):
        from repro.defenses.evaluation import channel_under_defense
        from repro.fastpath.analytical import (
            analytical_defense_reports,
            analytical_estimates,
        )

        request = DefenseRequest(defense=defense, bits=40, seed=0)
        estimate = analytical_estimates([_defense_plan(request)])[0]
        report = analytical_defense_reports([request])[0]
        assert report.defense == defense
        assert report.error_rate == estimate.error_rate
        assert report.capacity_bps == estimate.capacity_bps
        des = channel_under_defense(defense, bits=40, seed=0,
                                    backend="des")
        assert abs(des.error_rate - estimate.error_rate) \
            <= estimate.error_tolerance

    def test_tolerance_is_positive(self):
        from repro.fastpath.analytical import error_tolerance

        assert error_tolerance([0.1, 0.2, 0.3]) > 0.0

    def test_eval_counter(self):
        registry = MetricsRegistry()
        with using(registry):
            measure_capacity(interval_ms=12.0, bits=10,
                             backend="analytical")
        counters = registry.snapshot()["counters"]
        assert counters["fastpath.analytical.evals"] == 1


class TestUnknownDefense:
    def test_unknown_defense_is_a_clean_error(self):
        from repro.defenses.evaluation import channel_under_defense

        with pytest.raises(Exception):
            channel_under_defense("not-a-defense", bits=4,
                                  backend="batch")
